"""Lower norms, invertibility evidence, compactness and Fredholm verdicts,
and essential-spectrum estimation.

Window lower norms only ever certify one direction: they are upper bounds for
the true lower norm, so a small value witnesses non-invertibility at that
level while a large stabilized value is evidence only. All verdicts encode
this asymmetry, and every limit-operator-based report carries the caveat that
the declared sequence family need not exhaust the boundary.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from ._kernels import PointLocator
from .errors import InvalidConfigError, UnsupportedConstructionError
from .fields import ConstantField, PeriodicField, _apply_shift
from .operator import (
    BandOperator,
    _abs_diagonal,
    _distinct_sorted,
    _points,
    window_norm,
)
from .shifts import DivergenceReport, limit_operator
from .space import Window
from .subspace import hat

FAMILY_CAVEAT = (
    "limit operators were taken along the declared sequence family only; no "
    "finite family exhausts the boundary, so 'for all limit operators' claims "
    "are relative to this family"
)

DEFAULT_T_GRID = (0.5, 0.3, 0.15)
DEFAULT_SWEEP_CHUNK = 512
# below this multiple of norm_bound()^2 the Gram eigenvalue has lost too many
# digits to squaring, and the dense SVD decides
GRAM_FLOOR = 1e-8


# -- lower norms ---------------------------------------------------------------


def _tall_block(B, support_pts, rows_pts=None):
    space = B.space
    if rows_pts is None:
        # all rows that columns in the support can reach
        reach = B.propagation
        if space.kind == "lattice":
            lo = support_pts.min(axis=0) - reach
            hi = support_pts.max(axis=0) + reach
            axes = [np.arange(a, b + 1, dtype=np.int64)
                    for a, b in zip(lo[: space.dim], hi[: space.dim])]
            grids = np.meshgrid(*axes, indexing="ij")
            rows_pts = np.stack([g.reshape(-1) for g in grids], axis=1)
            if space.fiber > 1:
                reps = np.repeat(rows_pts, space.fiber, axis=0)
                fib = np.tile(np.arange(space.fiber, dtype=np.int64),
                              rows_pts.shape[0])
                rows_pts = np.hstack([reps, fib[:, None]])
        else:
            raise InvalidConfigError("graph lower norms need explicit row points")
    return B.block(rows_pts, support_pts)


def _lower_norm_p(M, p, starts=4, iters=200):
    """Upper bound on inf ||Mx||_p / ||x||_p via minimization restarts."""
    from scipy.optimize import minimize

    n = M.shape[1]
    col = np.sum(np.abs(M) ** p, axis=0) ** (1.0 / p)
    best = float(col.min())
    x0s = [np.eye(n)[int(np.argmin(col))]]
    rng = np.random.default_rng(777)
    for _ in range(starts - 1):
        x0s.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def fun(u):
        x = u[:n] + 1j * u[n:]
        nx = np.sum(np.abs(x) ** p) ** (1.0 / p)
        if nx == 0:
            return 1e30
        return float(np.sum(np.abs(M @ x) ** p) ** (1.0 / p) / nx)

    for x0 in x0s:
        u0 = np.concatenate([np.real(x0), np.imag(x0)])
        res = minimize(fun, u0, method="L-BFGS-B",
                       options={"maxiter": iters, "ftol": 1e-12})
        best = min(best, float(res.fun))
    return best


def _lower_norm_structured(B, pts):
    """p = 2 lower norm of the tall block of B on a lattice support, from the
    operator's structure; None where the dense SVD must decide."""
    pts = _distinct_sorted(pts)
    if pts is None:
        return None  # the dense block repeats a column
    if B.propagation == 0:
        c = _abs_diagonal(B, pts)
        return float(c.min()) if np.isfinite(c).all() else None
    space = B.space
    # Column j of the tall block holds c_k(s_j - k) in row s_j - k, so the
    # Gram entry (j, l) sums conj(c_k(u)) c_k'(u) over the rows
    # u = s_j - k = s_l - k'. In lexicographic order the Gram matrix is
    # banded; keep its lower triangle in LAPACK band storage.
    loc = PointLocator(pts)
    n = pts.shape[0]
    offs = [np.asarray(k) for k in B.stencil]
    cols = [f.eval(space, _apply_shift(space, pts, -k))
            for k, f in zip(offs, B.stencil.values())]
    idx = np.arange(n)
    js, ls, vals = [], [], []
    for k, ck in zip(offs, cols):
        for k2, ck2 in zip(offs, cols):
            l = loc.locate(_apply_shift(space, pts, k2 - k))
            j = np.nonzero((l >= 0) & (l <= idx))[0]
            js.append(j)
            ls.append(l[j])
            vals.append(np.conj(ck[j]) * ck2[l[j]])
    j, l = np.concatenate(js), np.concatenate(ls)
    ab = np.zeros((int((j - l).max(initial=0)) + 1, n), dtype=np.complex128)
    np.add.at(ab, (j - l, l), np.concatenate(vals))
    if not np.isfinite(ab).all():
        return None
    lam = _kernels.min_eig_banded(ab)
    if lam < GRAM_FLOOR * B.norm_bound()[0] ** 2:
        return None
    return float(np.sqrt(lam))


def lower_norm_window(B, support, p=2, rows=None):
    """inf over unit vectors supported in the window of ||Bf||_p.

    p = 2: smallest singular value of the tall block whose rows cover
    everything the support can reach. On a lattice, multiplication operators
    (propagation 0) give min |c(u)| over the support, exactly; other
    operators give the square root of the smallest eigenvalue of the tall
    block's Gram matrix, built in band storage. That differs from the
    singular value by about eps * norm^2 / value. The dense SVD takes over
    where the eigenvalue is below GRAM_FLOOR * norm_bound^2, where a point
    repeats, or where a coefficient is not finite (so the SVD's error
    surfaces). Explicit rows always take the dense SVD; when they are fewer
    than the support points a kernel vector exists and the value is 0, for
    every p. Other exponents: a certified upper bound from minimization
    restarts. Nonincreasing under support enlargement.
    """
    support_pts = _points(support)
    if support_pts.shape[0] == 0:
        warnings.warn("empty support; lower norm is +inf")
        return np.inf
    if p == 2 and rows is None and B.space.kind == "lattice":
        nu = _lower_norm_structured(B, support_pts)
        if nu is not None:
            return nu
    rows_pts = rows.points if isinstance(rows, Window) else rows
    M = _tall_block(B, support_pts, rows_pts)
    if M.shape[0] < M.shape[1]:
        return 0.0
    if p == 2:
        return float(np.linalg.svd(M, compute_uv=False)[-1])
    return _lower_norm_p(M, p)


def lower_norm_localized(B, predicate, partition, scope, p=2):
    """min over scope centers x of the lower norm on B[x, r_t] intersected
    with the predicate; dominates the plain lower norm over the predicate by
    construction (each local support is a subset of the full one)."""
    space = B.space
    rt = partition.support_diam
    centers = scope.points
    best = np.inf
    seen = set()
    for i in range(centers.shape[0]):
        ball = space.ball(space.from_array(centers[i : i + 1])[0], rt)
        keep = predicate.test(space, ball)
        if not keep.any():
            continue
        sup = ball[keep]
        key = sup.tobytes()
        if key in seen:
            continue
        seen.add(key)
        best = min(best, lower_norm_window(B, sup, p))
    if best is np.inf:
        warnings.warn("predicate misses every localization ball; +inf")
    return float(best)


@dataclass
class InvertibilityEstimate:
    nu_upper: list
    nu_star_upper: list
    radii: list
    tau: float
    p: float
    verdict: str  # notInvertibleAtLevel | evidenceInvertible | inconclusive
    margin: float

    def to_descriptor(self):
        return {
            "nuUpper": self.nu_upper,
            "nuStarUpper": self.nu_star_upper,
            "radii": self.radii,
            "tau": self.tau,
            "p": self.p,
            "verdict": self.verdict,
            "margin": self.margin,
        }


def _as_windows(space, schedule):
    out = []
    for w in schedule:
        out.append(w if isinstance(w, Window) else Window(space, space.basepoint, w))
    return out


def invertibility_estimate(B, schedule, tau=0.05, p=2):
    """Window lower norms of B and its adjoint along an increasing window
    schedule.

    The values upper-bound the true lower norms, so falling below tau
    certifies non-invertibility at that level; staying above tau with
    stabilized values (< 1% relative change over the last step) is evidence
    of invertibility, never a certificate.
    """
    space = B.space
    windows = _as_windows(space, schedule)
    radii = [w.radius for w in windows]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidConfigError("window schedule must be strictly increasing")
    q = 2 if p == 2 else p / (p - 1.0)
    Bstar = B.adjoint()
    nu = [lower_norm_window(B, w, p) for w in windows]
    nustar = [lower_norm_window(Bstar, w, q) for w in windows]

    def settled(seq):
        if len(seq) < 2:
            return False
        a, b = seq[-2], seq[-1]
        return abs(a - b) <= 0.01 * max(abs(b), 1e-30)

    floor = min(nu[-1], nustar[-1])
    if floor < tau:
        verdict = "notInvertibleAtLevel"
    elif settled(nu) and settled(nustar):
        verdict = "evidenceInvertible"
    else:
        verdict = "inconclusive"
    return InvertibilityEstimate(
        nu_upper=[float(v) for v in nu],
        nu_star_upper=[float(v) for v in nustar],
        radii=radii,
        tau=tau,
        p=p,
        verdict=verdict,
        margin=float(floor),
    )


# -- analytic oracles -----------------------------------------------------------


def _require_constant(op):
    for k, f in op.stencil.items():
        if not isinstance(f, ConstantField):
            raise InvalidConfigError(
                f"symbol oracle needs constant coefficients; offset {k} is "
                f"{type(f).__name__}"
            )


def symbol_spectrum(op, theta_grid=2048, p=2):
    """Range of the Fourier symbol of a translation-invariant band operator
    (matrix-valued over the cyclic fiber, scalar otherwise). The identity
    with the spectrum is asserted for p = 2 and heuristic for other p."""
    space = op.space
    if space.kind != "lattice":
        raise UnsupportedConstructionError("symbol oracle is a lattice notion")
    _require_constant(op)
    d = space.dim
    per_axis = theta_grid if d == 1 else max(16, int(round(theta_grid ** (1.0 / d))))
    thetas = [np.linspace(0.0, 2 * np.pi, per_axis, endpoint=False) for _ in range(d)]
    grids = np.meshgrid(*thetas, indexing="ij")
    flat = [g.reshape(-1) for g in grids]
    m = space.fiber
    if m == 1:
        vals = np.zeros(flat[0].size, dtype=np.complex128)
        for k, f in op.stencil.items():
            phase = np.zeros(flat[0].size)
            for a in range(d):
                phase = phase + k[a] * flat[a]
            vals += f.value * np.exp(1j * phase)
        return _sorted_complex(vals)
    npts = flat[0].size
    out = np.empty(npts * m, dtype=np.complex128)
    for i in range(npts):
        M = np.zeros((m, m), dtype=np.complex128)
        for k, f in op.stencil.items():
            phase = sum(k[a] * flat[a][i] for a in range(d))
            M[np.arange(m), (np.arange(m) + k[-1]) % m] += f.value * np.exp(1j * phase)
        out[i * m : (i + 1) * m] = np.linalg.eigvals(M)
    return _sorted_complex(out)


def _sorted_complex(vals):
    vals = np.asarray(vals, dtype=np.complex128).reshape(-1)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def floquet_spectrum(op, theta_grid=512):
    """Union over the torus of the eigenvalues of the L x L twisted block
    matrices of a periodic band operator on the one-dimensional lattice."""
    space = op.space
    if space.kind != "lattice" or space.dim != 1 or space.fiber != 1:
        raise UnsupportedConstructionError(
            "Floquet oracle covers period-L operators on the plain "
            "one-dimensional lattice"
        )
    L = 1
    for f in op.stencil.values():
        if isinstance(f, PeriodicField):
            L = int(np.lcm(L, f.period[0]))
        elif not isinstance(f, ConstantField):
            raise InvalidConfigError(
                "Floquet oracle needs periodic or constant coefficients"
            )
    us = np.arange(L, dtype=np.int64).reshape(-1, 1)
    coeffs = {k: f.eval(space, us) for k, f in op.stencil.items()}
    thetas = np.linspace(0.0, 2 * np.pi, theta_grid, endpoint=False)
    out = np.empty(theta_grid * L, dtype=np.complex128)
    for i, th in enumerate(thetas):
        z = np.exp(1j * th)
        M = np.zeros((L, L), dtype=np.complex128)
        for k, c in coeffs.items():
            for u in range(L):
                tgt = u + k[0]
                q, s = divmod(tgt, L)
                M[u, s] += c[u] * z ** q
        out[i * L : (i + 1) * L] = np.linalg.eigvals(M)
    return _sorted_complex(out)


# -- banded sweep ----------------------------------------------------------------


def _banded_data(B, radius):
    """Lower-banded Gram and slice data of the tall window block of B on the
    one-dimensional lattice (with optional fiber)."""
    space = B.space
    if space.kind != "lattice" or space.dim != 1:
        raise UnsupportedConstructionError(
            "the banded sweep covers one-dimensional lattices (optional fiber); "
            "use dense windows for other spaces"
        )
    m = space.fiber
    wl = max((abs(k[0]) for k in B.stencil), default=0)
    n = (2 * radius + 1) * m
    pad = wl * m

    def pts(u_lo, u_hi):
        us = np.arange(u_lo, u_hi + 1, dtype=np.int64)
        if m == 1:
            return us.reshape(-1, 1)
        reps = np.repeat(us, m)
        fib = np.tile(np.arange(m, dtype=np.int64), us.size)
        return np.stack([reps, fib], axis=1)

    cols = pts(-radius, radius)
    rows = pts(-radius - wl, radius + wl)
    T0 = B.block(rows, cols)
    G0 = T0.conj().T @ T0
    S = T0[pad : pad + n, :]
    bt = wl * m + (m - 1)
    bw = 2 * bt
    gb = np.zeros((bw + 1, n), dtype=np.complex128)
    sl = np.zeros((bw + 1, n), dtype=np.complex128)
    su = np.zeros((bw + 1, n), dtype=np.complex128)
    for i in range(bw + 1):
        if i < n:
            gb[i, : n - i] = np.diagonal(G0, offset=-i)
            sl[i, : n - i] = np.diagonal(S, offset=-i)
            su[i, : n - i] = np.diagonal(S, offset=i)
    return gb, sl, su, bw, n


def _sweep_threaded(bands, zs, threads=1, tau=None, chunk=DEFAULT_SWEEP_CHUNK):
    """Run the banded sweep over fixed-size chunks of the grid, on up to
    ``threads`` threads. Every point is computed on its own, so results are
    identical for any --threads value. Non-finite input raises."""
    gb, sl, su, _, _ = bands
    pieces = [zs[i : i + chunk] for i in range(0, zs.size, chunk)]

    def sweep(pc):
        return _kernels.sigma_min_sweep(gb, sl, su, pc, tau)

    if threads <= 1 or len(pieces) <= 1:
        outs = [sweep(pc) for pc in pieces]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            outs = list(ex.map(sweep, pieces))
    out = np.concatenate(outs) if outs else np.empty(0)
    if (out < 0.0).any():
        bad = zs[~np.isfinite(zs)]
        what = (f"grid point {complex(bad[0])}" if bad.size
                else "the window's Gram or slice bands (a coefficient is not finite)")
        raise InvalidConfigError(f"non-finite input to the banded sweep: {what}")
    return out


def _structural_flags(B):
    const = all(isinstance(f, ConstantField) for f in B.stencil.values())
    if not const:
        return False, False
    adj = B.adjoint()
    herm = set(adj.stencil) == set(B.stencil) and all(
        complex(adj.stencil[k].value) == complex(B.stencil[k].value)
        for k in B.stencil
    )
    realk = all(complex(f.value).imag == 0.0 for f in B.stencil.values())
    return herm, realk


def nu_grid_indicator(B, zs, radius=400, threads=1, tau=None):
    """min(nu_window(B - z), nu_window((B - z)*)) over the grid, via the
    banded sweep. Structural symmetries of constant-coefficient kernels
    (real values: sigma(z) = sigma(conj z); Hermitian stencil: the adjoint
    pass equals the direct pass at conj z) cut the work up to fourfold.

    tau=None values every point. With tau given, a point whose value is
    certified above tau (one banded Cholesky factorisation per pass, see
    ``_kernels.sigma_min_sweep``) reads inf, and the points at or below tau
    carry the same values as without tau. Non-finite coefficients or grid
    points raise InvalidConfigError.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128).reshape(-1)
    herm, realk = _structural_flags(B)

    def run(bands, vals):
        if realk:
            key = np.where(vals.imag < 0, np.conj(vals), vals)
            uniq, inv = np.unique(key, return_inverse=True)
            return _sweep_threaded(bands, uniq, threads, tau)[inv]
        return _sweep_threaded(bands, vals, threads, tau)

    bands = _banded_data(B, radius)
    direct = run(bands, zs)
    if herm:
        adj = direct if realk else run(bands, np.conj(zs))
    else:
        adj = run(_banded_data(B.adjoint(), radius), np.conj(zs))
    return np.minimum(direct, adj)


# -- spectra ---------------------------------------------------------------------


@dataclass
class SpectrumEstimate:
    method: str
    limit_label: str
    tau: float
    points: np.ndarray
    indicators: np.ndarray
    cloud: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    def to_descriptor(self):
        return {
            "method": self.method,
            "limitOperatorLabel": self.limit_label,
            "tau": self.tau,
            "points": [
                [float(z.real), float(z.imag), float(i)]
                for z, i in zip(self.cloud, self.cloud_indicators)
            ],
            "meta": self.meta,
        }

    @property
    def cloud_indicators(self):
        if self.points.size == 0:
            return np.empty(0)
        if self.cloud.size == self.points.size and np.array_equal(self.cloud,
                                                                  self.points):
            return self.indicators
        keep = self.indicators <= self.tau
        return self.indicators[keep]


def _grid(box, pitch):
    """Grid over the box, each axis symmetric about the box centre from
    integer steps, so a box symmetric about the real axis holds exact
    conjugate pairs."""
    re0, re1, im0, im1 = box

    def axis(lo, hi):
        n = int(round((hi - lo) / pitch)) + 1
        return 0.5 * (lo + hi) + pitch * (np.arange(n) - 0.5 * (n - 1))

    R, I = np.meshgrid(axis(re0, re1), axis(im0, im1), indexing="ij")
    return (R + 1j * I).reshape(-1)


def _auto_method(op):
    if all(isinstance(f, ConstantField) for f in op.stencil.values()):
        return "symbolOracle"
    if (
        op.space.dim == 1
        and op.space.fiber == 1
        and all(isinstance(f, (ConstantField, PeriodicField))
                for f in op.stencil.values())
    ):
        return "floquet"
    return "nuGrid"


def spectrum_estimate_for(op, label, tau=0.05, pitch=0.02, radius=400,
                          z_box=None, theta_grid=2048, method="auto",
                          threads=1):
    """Spectrum estimate for a single (limit) operator by the requested or
    auto-selected method. nuGrid indicators read inf at grid points whose
    window lower norm is certified above tau."""
    chosen = _auto_method(op) if method == "auto" else method
    if chosen in ("symbolOracle", "symbol"):
        pts = symbol_spectrum(op, theta_grid)
        return SpectrumEstimate(
            method="symbolOracle", limit_label=label, tau=tau, points=pts,
            indicators=np.zeros(pts.size), cloud=pts,
            meta={"thetaGrid": theta_grid},
        )
    if chosen == "floquet":
        pts = floquet_spectrum(op, min(theta_grid, 512))
        return SpectrumEstimate(
            method="floquet", limit_label=label, tau=tau, points=pts,
            indicators=np.zeros(pts.size), cloud=pts,
            meta={"thetaGrid": min(theta_grid, 512)},
        )
    if chosen != "nuGrid":
        raise InvalidConfigError(f"unknown spectrum method {chosen!r}")
    if z_box is None:
        bound, _ = op.norm_bound()
        b = float(np.ceil((bound + 0.1) / pitch) * pitch)
        z_box = (-b, b, -b, b)
    zs = _grid(z_box, pitch)
    ind = nu_grid_indicator(op, zs, radius=radius, threads=threads, tau=tau)
    cloud = zs[ind <= tau]
    return SpectrumEstimate(
        method="nuGrid", limit_label=label, tau=tau, points=zs,
        indicators=ind, cloud=cloud,
        meta={"zBox": list(z_box), "pitch": pitch, "windowRadius": radius},
    )


# -- limit-operator driven reports ------------------------------------------------


def _extract_limits(A, sequences, radii, tol, budget, p=2):
    limits, divergences = [], []
    for seq in sequences:
        out = limit_operator(A, seq, radii=radii, tol=tol, budget=budget, p=p)
        if isinstance(out, DivergenceReport):
            divergences.append(out)
        else:
            limits.append(out)
    return limits, divergences


def compactness_test(A, sequences, radii=(5, 10, 20), tol=1e-9, budget=2 ** 20,
                     p=2):
    """Compact-consistency: every declared limit operator must vanish in
    window norm on every certified radius."""
    if not sequences:
        raise InvalidConfigError("compactness test needs at least one sequence")
    space = A.space
    limits, divergences = _extract_limits(A, sequences, radii, min(tol, 1e-9),
                                          budget, p)
    per_seq = []
    worst = 0.0
    for lim in limits:
        omega = lim.op.propagation
        norms = []
        for r in sorted(radii):
            g = window_norm(lim.op, Window(space, space.basepoint, r),
                            Window(space, space.basepoint, r + omega), p)
            norms.append(float(g if p == 2 else g[1]))
        worst = max(worst, max(norms))
        per_seq.append({
            "sequence": lim.sequence_label,
            "exact": lim.exact,
            "limitNorms": norms,
            "certificate": [
                {"radius": r, "index": n, "gap": g} for r, n, g in lim.certificate
            ],
        })
    if worst > tol:
        verdict = "not-compact-consistent"
    elif divergences:
        verdict = "inconclusive"
    else:
        verdict = "compact-consistent"
    return {
        "verdict": verdict,
        "maxLimitNorm": worst,
        "tolerance": tol,
        "sequences": per_seq,
        "divergences": [d.to_descriptor() for d in divergences],
        "caveat": FAMILY_CAVEAT,
    }


def fredholm_test(A, proj, sequences, schedule=(50, 100, 200, 400), tau=0.05,
                  p=2, radii=(5, 10, 20), tol=1e-8, budget=2 ** 20):
    """Fredholm verdict through the limit operators of PAP + Q.

    notFredholm is certified when some limit operator is not invertible at
    level tau (its window lower norm, an upper bound for the true lower norm,
    falls below tau); Fredholm-consistency requires invertibility evidence for
    every declared limit, and stays evidence.
    """
    if not sequences:
        raise InvalidConfigError("fredholm test needs at least one sequence")
    A_hat = hat(A, proj) if proj is not None else A
    limits, divergences = _extract_limits(A_hat, sequences, radii, tol, budget, p)
    per_seq = []
    margins = []
    witness = None
    all_evidence = bool(limits)
    for lim in limits:
        est = invertibility_estimate(lim.op, schedule, tau=tau, p=p)
        per_seq.append({
            "sequence": lim.sequence_label,
            "exact": lim.exact,
            "estimate": est.to_descriptor(),
        })
        margins.append(est.margin)
        if est.verdict == "notInvertibleAtLevel" and witness is None:
            witness = (lim, est)
        if est.verdict != "evidenceInvertible":
            all_evidence = False
    if witness is not None:
        verdict = "notFredholm"
        certified = witness[0].exact
    elif all_evidence and not divergences:
        verdict = "Fredholm-consistent"
        certified = False
    else:
        verdict = "inconclusive"
        certified = False
    report = {
        "verdict": verdict,
        "certified": certified,
        "tau": tau,
        "sequences": per_seq,
        "divergences": [d.to_descriptor() for d in divergences],
        "caveat": FAMILY_CAVEAT,
    }
    if margins and min(margins) > 0:
        report["supInverseNormEstimate"] = 1.0 / min(margins)
    if witness is not None:
        report["witnessSequence"] = witness[0].sequence_label
        report["witnessMargin"] = witness[1].margin
    return report


def essential_spectrum_estimate(A, proj, sequences, tau=0.05, pitch=0.02,
                                radius=400, z_box=None, theta_grid=2048,
                                method="auto", radii=(5, 10, 20), tol=1e-8,
                                budget=2 ** 20, threads=1):
    """Union of per-limit-operator spectrum estimates, with provenance.

    Constant-coefficient limits use the symbol oracle, periodic ones the
    Floquet oracle, everything else the lower-norm grid sweep (or as forced
    by the method argument).
    """
    if not sequences:
        raise InvalidConfigError("essential spectrum needs at least one sequence")
    A_hat = hat(A, proj) if proj is not None else A
    limits, divergences = _extract_limits(A_hat, sequences, radii, tol, budget)
    estimates = []
    for lim in limits:
        estimates.append(
            spectrum_estimate_for(
                lim.op, lim.sequence_label, tau=tau, pitch=pitch, radius=radius,
                z_box=z_box, theta_grid=theta_grid, method=method,
                threads=threads,
            )
        )
    clouds = [e.cloud for e in estimates if e.cloud.size]
    union = (np.unique(np.concatenate(clouds)) if clouds
             else np.empty(0, dtype=np.complex128))
    return {
        "estimates": estimates,
        "unionCloud": union,
        "divergences": [d.to_descriptor() for d in divergences],
        "caveat": FAMILY_CAVEAT,
        "params": {
            "tau": tau, "pitch": pitch, "windowRadius": radius,
            "thetaGrid": theta_grid, "method": method,
        },
    }


def ess_norm_estimate(A, proj, sequences, schedule=(25, 50, 100),
                      radii=(5, 10, 20), tol=1e-8, budget=2 ** 20):
    """Interval for the essential norm over the declared family: window lower
    bounds against coefficient-sum upper bounds of the limit operators."""
    if not sequences:
        raise InvalidConfigError("essential norm needs at least one sequence")
    if proj is not None and getattr(proj, "general", False):
        warnings.warn("essential norm formula assumes a norm-one projection; "
                      "general projections give a heuristic only")
    A_hat = hat(A, proj) if proj is not None else A
    limits, divergences = _extract_limits(A_hat, sequences, radii, tol, budget)
    space = A_hat.space
    lowers, uppers, per_limit = [], [], []
    for lim in limits:
        omega = lim.op.propagation
        lo = 0.0
        for r in schedule:
            g = window_norm(lim.op, Window(space, space.basepoint, r),
                            Window(space, space.basepoint, r + omega), 2)
            lo = max(lo, g)
        up, certified = lim.op.norm_bound()
        lowers.append(lo)
        uppers.append(up)
        per_limit.append({
            "sequence": lim.sequence_label,
            "windowLowerBound": float(lo),
            "coefficientUpperBound": float(up),
            "upperCertified": certified,
        })
    return {
        "lower": float(max(lowers)) if lowers else 0.0,
        "upper": float(max(uppers)) if uppers else 0.0,
        "perLimit": per_limit,
        "divergences": [d.to_descriptor() for d in divergences],
        "caveat": FAMILY_CAVEAT,
    }


def hausdorff_distance(a, b):
    """Hausdorff distance between two finite complex point sets."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    if a.size == 0 or b.size == 0:
        return np.inf if a.size != b.size else 0.0

    def one_sided(u, v):
        worst = 0.0
        for i in range(0, u.size, 1024):
            chunk = u[i : i + 1024]
            d = np.abs(chunk[:, None] - v[None, :]).min(axis=1)
            worst = max(worst, float(d.max()))
        return worst

    return max(one_sided(a, b), one_sided(b, a))
