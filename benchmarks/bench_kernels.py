"""Timing comparison of the compiled kernel lane against the pure-numpy
fallback lane, and of the structured p = 2 window norms against dense SVDs.

The three hot kernels (greedy net selection, all-pairs cell scan, banded
sigma-min sweep) each dispatch on ``limitops._kernels.USING_NUMBA``; setting
``LIMITOPS_NO_NUMBA=1`` forces the fallback at import time. This script times
both lanes in one process by calling the fallback functions directly, checks
that the lanes agree, and prints a table.

A second table times ``lower_norm_window`` and ``window_norm`` (diagonal
path for multiplication operators, banded Gram eigenvalue otherwise) against
a dense SVD of the same block, at the window sizes of the Fredholm and
limit verdicts, and prints the absolute difference of the two values.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from limitops import BandOperator, SeededRandomField, Space, Window
from limitops import _kernels
from limitops.space import build_covering
from limitops.operator import identity, laplacian_stencil, shift_operator, window_norm
from limitops.fredholm import _banded_data, _tall_block, lower_norm_window


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, min(times)


def bench_greedy_net(repeats):
    z2 = Space(kind="lattice", dim=2)
    pts = Window(z2, (0, 0), 60).points
    args = (pts, 4.0, z2.metric, 2, 1)
    fast = lambda: _kernels.greedy_net(*args)
    slow = lambda: _kernels.greedy_net_py(*args)
    return "greedy_net", f"{pts.shape[0]} pts", fast, slow, repeats, np.array_equal


def bench_cell_scan(repeats):
    z2 = Space(kind="lattice", dim=2)
    scope = Window(z2, (0, 0), 40)
    cov = build_covering(z2, scope, 2)
    args = (scope.points, cov.cell_of, cov.ncells, 2.0, z2.metric, 2, 1)
    fast = lambda: _kernels.cell_scan(*args)
    slow = lambda: _kernels.cell_scan_py(*args)

    def same(a, b):
        return np.array_equal(a[0], b[0]) and np.allclose(a[1], b[1])

    return "cell_scan", f"{scope.npoints} pts", fast, slow, repeats, same


def bench_sigma_min_sweep(repeats):
    z1 = Space(kind="lattice", dim=1)
    B = laplacian_stencil(z1) + BandOperator(z1, {(0,): SeededRandomField(3)})
    gb, sl, su, bw, n = _banded_data(B, 300)
    re, im = np.meshgrid(np.linspace(-3, 3, 40), np.linspace(-1, 1, 10))
    zs = (re + 1j * im).reshape(-1)
    start = (np.cos(0.9 * np.arange(n) + 0.7) + 0.1).astype(np.complex128)
    fast = lambda: _kernels.sigma_min_sweep(gb, sl, su, zs, bw)
    slow = lambda: _kernels._sweep_row_py(gb, sl, su, zs, bw, 25, 1e-7,
                                          start.copy())[0]

    def close(a, b):
        return np.allclose(a, b, rtol=1e-5, atol=1e-9)

    return "sigma_min_sweep", f"{n}x{n}, {zs.size} z", fast, slow, repeats, close


def window_norm_cases():
    """(label, structured call, dense-SVD call) at the verdict sizes."""
    z1 = Space(kind="lattice", dim=1)
    z2 = Space(kind="lattice", dim=2)

    def lower(B, w):
        return (lambda: lower_norm_window(B, w),
                lambda: np.linalg.svd(_tall_block(B, w.points), compute_uv=False)[-1])

    cases = []
    for r in (100, 200, 400):
        w = Window(z1, (0,), r)
        cases.append((f"Z1 S-I lower r={r}",
                      *lower(shift_operator(z1, (1,)) - identity(z1), w)))
    w = Window(z1, (0,), 400)
    cases.append(("Z1 I lower r=400", *lower(identity(z1), w)))
    cases.append(("Z1 I norm r=400", lambda: window_norm(identity(z1), w, w),
                  lambda: np.linalg.svd(identity(z1).block(w, w),
                                        compute_uv=False)[0]))
    B = identity(z2) + 0.3 * shift_operator(z2, (0, 1))
    cases.append(("Z2 I+0.3S lower r=12", *lower(B, Window(z2, (0, 0), 12))))
    return cases


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    if not _kernels.USING_NUMBA:
        print("compiled lane unavailable (numba missing or LIMITOPS_NO_NUMBA "
              "set); timing the fallback against itself")

    rows = []
    for bench in (bench_greedy_net, bench_cell_scan, bench_sigma_min_sweep):
        name, size, fast, slow, repeats, same = bench(args.repeats)
        fast()  # warm up so JIT compilation is not timed
        out_fast, t_fast = best_of(fast, repeats)
        out_slow, t_slow = best_of(slow, repeats)
        if not same(out_fast, out_slow):
            raise SystemExit(f"{name}: lanes disagree")
        rows.append((name, size, t_fast * 1e3, t_slow * 1e3))

    lane = "numba" if _kernels.USING_NUMBA else "dispatch"
    print(f"{'kernel':<17}{'size':>16}{lane:>12}{'numpy':>12}{'speedup':>9}")
    for name, size, tf, ts in rows:
        print(f"{name:<17}{size:>16}{tf:>10.1f}ms{ts:>10.1f}ms{ts / tf:>8.1f}x")

    print()
    print(f"{'window norm (p = 2)':<22}{'structured':>12}{'dense SVD':>12}"
          f"{'|diff|':>12}")
    for label, fast, slow in window_norm_cases():
        out_fast, t_fast = best_of(fast, args.repeats)
        out_slow, t_slow = best_of(slow, args.repeats)
        diff = abs(float(out_fast) - float(out_slow))
        print(f"{label:<22}{t_fast * 1e3:>10.2f}ms{t_slow * 1e3:>10.2f}ms{diff:>12.1e}")


if __name__ == "__main__":
    main()
