"""Spans and counters around the public entry points of each limitops module.

Nothing under ``src/`` changes: ``Tracer.install`` rebinds each traced
callable, wherever a limitops module (or class) holds it, to a wrapper that
records a span, and ``Tracer.remove`` puts the originals back. A span's self
time is its duration minus the time covered by its child spans, so every
second of a traced job is attributed to exactly one layer.

Counter-only wrappers (the banded Cholesky factor and solve inside the sweep,
the spectrum estimate) record work without opening a span. Operation and
byte counts are computed from array shapes, not measured.

Traced runs call the CLI with ``--threads 1`` only: spans live on one stack.
"""

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "space", "_kernels", "fields", "operator", "shifts",
           "subspace", "fredholm", "__init__")


def svd_flops(shape):
    """Real flops of a complex singular-value-only SVD of an m x n matrix
    (Golub-Van Loan bidiagonalisation, 4mn^2 - 4n^3/3 with m >= n, times four
    for complex arithmetic)."""
    m, n = max(shape), min(shape)
    return 4.0 * (4.0 * m * n * n - 4.0 * n ** 3 / 3.0)


def chol_flops(n, k):
    """Real flops of a complex banded Cholesky factorisation: per column a
    k-entry scale and a k(k+1)/2 rank-one update, times four for complex."""
    return 4.0 * n * (k * k + 2.0 * k)


def chol_solve_flops(n, k):
    """Real flops of a complex banded forward plus backward substitution."""
    return 8.0 * n * (2.0 * k + 1.0)


class Tracer:
    """Per-layer self times, call counts and work counters of one pass."""

    def __init__(self):
        self._stack = []
        self._patches = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.peak = defaultdict(float)

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """Callable recording a span named ``name`` around ``fn``; ``hook``
        sees (tracer, args, kwargs, result) after each call."""
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[name] += dt - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, hook):
        """Callable that only runs ``hook`` on each call's arguments and
        outcome (``None`` result and the exception when it raised)."""

        def counting(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                hook(self, args, kwargs, None, exc)
                raise
            hook(self, args, kwargs, out, None)
            return out

        counting.__wrapped__ = fn
        return counting

    def bump(self, key, value=1.0):
        self.count[key] += value

    def high(self, key, value):
        self.peak[key] = max(self.peak[key], float(value))

    # -- installation -----------------------------------------------------------

    def _rebind(self, owners, original, replacement):
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if val is original:
                    self._patches.append((owner, attr, val))
                    setattr(owner, attr, replacement)

    def install(self):
        """Wrap the traced entry points of every limitops module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"limitops.{m}") if m != "__init__"
                else importlib.import_module("limitops") for m in MODULES]
        k, fr, op, sh, sp, fl, cli = (sys.modules[f"limitops.{m}"] for m in (
            "_kernels", "fredholm", "operator", "shifts", "space", "fields", "cli"))

        def fn(owner, attr, name, hook=None):
            orig = vars(owner)[attr]
            owners = mods if owner in mods else [owner]
            self._rebind(owners, orig, self.wrap(name, orig, hook))

        fn(k, "sigma_min_sweep", "kernels.sweep", _sweep_hook)
        fn(k, "greedy_net", "kernels.greedy_net", _greedy_hook)
        fn(k, "cell_scan", "kernels.cell_scan", _cell_scan_hook)
        self._rebind([k], k.cholesky_banded, self.counted(k.cholesky_banded, _chol_hook))
        self._rebind([k], k.cho_solve_banded,
                     self.counted(k.cho_solve_banded, _chol_solve_hook))
        fn(fr, "nu_grid_indicator", "fredholm.nu_grid", _nu_grid_hook)
        fn(fr, "_banded_data", "fredholm.banded_data", _banded_hook)
        fn(fr, "symbol_spectrum", "fredholm.symbol_spectrum")
        fn(fr, "floquet_spectrum", "fredholm.floquet_spectrum")
        fn(fr, "lower_norm_window", "fredholm.lower_norm_window", _lower_norm_hook)
        fn(fr, "invertibility_estimate", "fredholm.invertibility_estimate")
        self._rebind(mods, fr.spectrum_estimate_for,
                     self.counted(fr.spectrum_estimate_for, _estimate_hook))
        fn(op, "window_norm", "operator.window_norm")
        fn(op, "commutator_stack_norm", "operator.commutator_stack_norm")
        fn(op.BandOperator, "block", "operator.block", _block_hook)
        fn(sh, "limit_operator", "shifts.limit_operator", _limit_hook)
        fn(sh, "conjugate", "shifts.conjugate")
        fn(sp.Space, "ball", "space.ball")
        fn(sp, "build_covering", "space.build_covering")
        fn(sp.Covering, "verify", "space.covering_verify")
        fn(sp, "build_partition", "space.build_partition")
        fn(sp.PartitionOfUnity, "export", "space.partition_export")
        for cls in vars(fl).values():
            if (inspect.isclass(cls) and issubclass(cls, fl.Field) and cls is not fl.Field
                    and "eval" in vars(cls)):
                fn(cls, "eval", "fields.eval")
        for task in list(cli.RUNNERS):
            cli.RUNNERS[task] = self.wrap("cli.runner", cli.RUNNERS[task])
            self._patches.append((cli.RUNNERS, task, cli.RUNNERS[task].__wrapped__))
        fn(cli, "_emit", "cli.emit", _emit_hook)
        fn(cli, "main", "cli.main")
        import jsonschema

        fn(jsonschema, "validate", "cli.validate")
        svd = np.linalg.svd
        self._patches.append((np.linalg, "svd", svd))
        np.linalg.svd = _caller_filtered(
            svd, self.wrap("linalg.svd", svd, _svd_hook),
            ("limitops.operator", "limitops.fredholm"))

    def remove(self):
        while self._patches:
            owner, attr, val = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)


def _caller_filtered(plain, traced, callers):
    """Use ``traced`` only when the immediate caller's module is listed."""

    def dispatch(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") in callers:
            return traced(*args, **kwargs)
        return plain(*args, **kwargs)

    return dispatch


# -- hooks ----------------------------------------------------------------------


def _sweep_hook(tr, args, kwargs, out):
    tr.bump("kernels.sweep.points", np.size(args[3]))
    tr.bump("kernels.sweep.breakdowns", int(np.count_nonzero(np.asarray(out) == -1.0)))


def _chol_hook(tr, args, kwargs, out, exc):
    bands, n = args[0].shape
    tr.bump("kernels.chol.calls")
    tr.bump("kernels.chol.flop", chol_flops(n, bands - 1))
    if exc is not None:
        tr.bump("kernels.chol.fails")


def _chol_solve_hook(tr, args, kwargs, out, exc):
    bands, n = args[0][0].shape
    tr.bump("kernels.chol_solve.calls")
    tr.bump("kernels.chol_solve.flop", chol_solve_flops(n, bands - 1))


def _greedy_hook(tr, args, kwargs, out):
    tr.bump("kernels.greedy_net.points", np.shape(args[0])[0])


def _cell_scan_hook(tr, args, kwargs, out):
    tr.bump("kernels.cell_scan.pairs", float(np.shape(args[0])[0]) ** 2)


def _nu_grid_hook(tr, args, kwargs, out):
    tr.bump("fredholm.nu_grid.grid_points", np.size(args[1]))


def _banded_hook(tr, args, kwargs, out):
    tr.high("fredholm.banded_data.max_n", out[4])


def _estimate_hook(tr, args, kwargs, out, exc):
    if out is not None and out.method == "nuGrid":
        tr.bump("fredholm.nu_grid.cloud_points", out.cloud.size)


def _lower_norm_hook(tr, args, kwargs, out):
    support = args[1] if len(args) > 1 else kwargs["support"]
    pts = getattr(support, "points", support)
    tr.high("fredholm.lower_norm_window.max_cols", np.shape(pts)[0])


def _block_hook(tr, args, kwargs, out):
    tr.bump("operator.block.bytes", out.size * 16.0)


def _limit_hook(tr, args, kwargs, out):
    if hasattr(out, "exact"):
        tr.bump("shifts.limit_operator.exact", bool(out.exact))
    else:
        tr.bump("shifts.limit_operator.divergent")


def _emit_hook(tr, args, kwargs, out):
    dest = getattr(args[0], "out", None)
    if dest:
        tr.bump("cli.payload_bytes", os.path.getsize(dest))


def _svd_hook(tr, args, kwargs, out):
    tr.bump("linalg.svd.flop", svd_flops(np.shape(args[0])))
