"""Hot numeric kernels, numba-jitted with a pure numpy/scipy fallback.

Lane selection: ``LIMITOPS_NO_NUMBA=1`` forces the fallback lane; otherwise the
jitted lane is used whenever numba imports. Both lanes run the same algorithm,
so results agree bitwise for the integer/greedy kernels and to roundoff for the
iterative sweep. ``benchmarks/bench_kernels.py`` compares the two.

Point arrays are int64 of shape (n, ncoords); when ``fiber > 1`` the trailing
coordinate is cyclic of size ``fiber`` and the metric applies to the leading
``dim`` coordinates (metric code 0 = sup distance, 1 = path/taxicab distance).
"""

import os

import numpy as np
from scipy.linalg.lapack import zpbtrf, zpbtrs

_FORCE_FALLBACK = os.environ.get("LIMITOPS_NO_NUMBA", "") not in ("", "0")

if not _FORCE_FALLBACK:
    try:
        from numba import njit
    except ImportError:
        _FORCE_FALLBACK = True

USING_NUMBA = not _FORCE_FALLBACK


# ---------------------------------------------------------------------------
# pure-python/numpy lane
# ---------------------------------------------------------------------------

def _dist_block(pts_a, pts_b, metric, dim, fiber):
    """Pairwise distances between two point blocks, vectorized."""
    diff = np.abs(pts_a[:, None, :dim] - pts_b[None, :, :dim])
    if metric == 0:
        d = diff.max(axis=2)
    else:
        d = diff.sum(axis=2)
    if fiber > 1:
        df = np.abs(pts_a[:, None, dim] - pts_b[None, :, dim])
        d = d + np.minimum(df, fiber - df)
    return d


def greedy_net_py(points, sep, metric, dim, fiber):
    n = points.shape[0]
    keep = np.zeros(n, dtype=np.bool_)
    sel = np.empty((0, points.shape[1]), dtype=points.dtype)
    for i in range(n):
        if sel.shape[0]:
            d = _dist_block(points[i : i + 1], sel, metric, dim, fiber)[0]
            if d.min() < sep:
                continue
        keep[i] = True
        sel = np.vstack([sel, points[i : i + 1]])
    return keep


def cell_scan_py(points, cell_of, ncells, thresh, metric, dim, fiber):
    n = points.shape[0]
    adj = np.zeros((ncells, ncells), dtype=np.uint8)
    diam = np.zeros(ncells, dtype=np.float64)
    chunk = max(1, int(2_000_000 // max(n, 1)))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d = _dist_block(points[lo:hi], points, metric, dim, fiber)
        ci = np.repeat(cell_of[lo:hi], n).reshape(hi - lo, n)
        near = d <= thresh
        adj[ci[near], np.broadcast_to(cell_of, ci.shape)[near]] = 1
        same = ci == cell_of[None, :]
        if same.any():
            np.maximum.at(diam, ci[same], d[same])
    return adj, diam


def cholesky_banded(ab, lower):
    """``scipy.linalg.cholesky_banded`` for complex128 without the wrapper's
    per-call overhead. LAPACK zpbtrf overwrites ``ab``, in place when it is
    Fortran-ordered, so pass a copy you own. Raises like scipy: ValueError on
    non-finite input or an illegal argument, LinAlgError when a leading minor
    is not positive definite."""
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = zpbtrf(ab, lower=lower, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal pbtrf")
    return c


def cho_solve_banded(cb_and_lower, b):
    """``scipy.linalg.cho_solve_banded`` for complex128 via LAPACK zpbtrs,
    raising like scipy; ``b`` is left untouched."""
    cb, lower = cb_and_lower
    if not (np.isfinite(cb).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = zpbtrs(cb, b, lower=lower)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbtrs")
    return x


_RAYLEIGH_BACKOFF = (0.995, 0.95, 0.8, 0.5)


def _sweep_row_py(gram_bands, slice_lo, slice_up, zs, bw, maxit, rtol, start):
    out = np.empty(zs.size)
    x = start
    # warm starts can be exact non-minimal eigenvectors (Hermitian input makes
    # the Gram eigenvectors z-independent); a fixed guard mixed in at every
    # point keeps the overlap with the minimal eigenvector nonzero
    guard = np.cos(1.7 * np.arange(x.size) + 0.3) + 0.21
    guard = guard / np.linalg.norm(guard)
    slice_up_c = np.conj(slice_up)

    def iterate(cb, x):
        # inverse iteration with a harmonic Rayleigh estimate; the estimate
        # approaches the smallest eigenvalue of the factored matrix from above
        lam = -1.0
        for it in range(maxit):
            x = x / np.linalg.norm(x)
            xo = x
            x = cho_solve_banded((cb, True), xo)
            yx = np.vdot(x, xo).real
            yy = np.vdot(x, x).real
            lam_new = yx / yy
            if it > 2 and abs(lam_new - lam) <= rtol * abs(lam_new) + 1e-300:
                return lam_new, x
            lam = lam_new
        return lam, x

    for iz, z in enumerate(zs):
        az2 = (z * np.conj(z)).real
        base = gram_bands - np.conj(z) * slice_lo - z * slice_up_c
        base[0] += az2
        dmax = max(base[0].real.max(), 1.0)

        def factor(s):
            work = base.copy(order="F")
            work[0] += s
            try:
                return cholesky_banded(work, lower=True)
            except (np.linalg.LinAlgError, ValueError):
                return None

        s = 0.0
        cb = factor(s)
        tries = 0
        while cb is None and tries < 10:
            s = 1e-13 * dmax if s == 0.0 else s * 100.0
            cb = factor(s)
            tries += 1
        if cb is None:
            out[iz] = -1.0
            continue
        x = x + (1e-4 * np.linalg.norm(x)) * guard
        lam, x = iterate(cb, x)
        lam_g = lam - s
        # Rayleigh-shift restarts: a shift just below the current estimate
        # either factors (then the iteration converges in a step or two) or
        # proves the estimate sits above the true minimum. In the second case
        # the iterate is stuck in a non-minimal invariant subspace (a warm
        # start can be an exact eigenvector), so kick it and re-iterate.
        kicks = 0
        for _ in range(8):
            if lam_g <= 0.0:
                break
            cb2 = None
            for f in _RAYLEIGH_BACKOFF:
                cand = -f * lam_g
                if cand >= s:
                    continue
                cb2 = factor(cand)
                if cb2 is not None:
                    s = cand
                    break
            if cb2 is None:
                if kicks >= 2:
                    break
                kicks += 1
                kick = np.cos((1.3 + kicks) * np.arange(x.size) + 0.4 * kicks) + 0.15
                x = x / np.linalg.norm(x) + kick / np.linalg.norm(kick)
                lam, x = iterate(factor(s), x)
                lam_g = lam - s
                continue
            lam, x = iterate(cb2, x)
            prev = lam_g
            lam_g = lam - s
            if abs(lam_g - prev) <= rtol * abs(lam_g) + 1e-300:
                break
        out[iz] = np.sqrt(lam_g) if lam_g > 0.0 else 0.0
    return out, x


# ---------------------------------------------------------------------------
# numba lane
# ---------------------------------------------------------------------------

if USING_NUMBA:

    @njit(cache=True, nogil=True)
    def _pt_dist(pts, i, j, metric, dim, fiber):
        d = 0
        if metric == 0:
            for a in range(dim):
                v = pts[i, a] - pts[j, a]
                if v < 0:
                    v = -v
                if v > d:
                    d = v
        else:
            for a in range(dim):
                v = pts[i, a] - pts[j, a]
                if v < 0:
                    v = -v
                d += v
        if fiber > 1:
            v = pts[i, dim] - pts[j, dim]
            if v < 0:
                v = -v
            w = fiber - v
            d += v if v < w else w
        return d

    @njit(cache=True, nogil=True)
    def _greedy_net_nb(points, sep, metric, dim, fiber):
        n = points.shape[0]
        keep = np.zeros(n, dtype=np.bool_)
        sel = np.empty(n, dtype=np.int64)
        m = 0
        for i in range(n):
            ok = True
            for s in range(m):
                if _pt_dist(points, i, sel[s], metric, dim, fiber) < sep:
                    ok = False
                    break
            if ok:
                keep[i] = True
                sel[m] = i
                m += 1
        return keep

    @njit(cache=True, nogil=True)
    def _cell_scan_nb(points, cell_of, ncells, thresh, metric, dim, fiber):
        n = points.shape[0]
        adj = np.zeros((ncells, ncells), dtype=np.uint8)
        diam = np.zeros(ncells, dtype=np.float64)
        for i in range(n):
            ci = cell_of[i]
            adj[ci, ci] = 1
            for j in range(i + 1, n):
                d = _pt_dist(points, i, j, metric, dim, fiber)
                cj = cell_of[j]
                if d <= thresh:
                    adj[ci, cj] = 1
                    adj[cj, ci] = 1
                if ci == cj and d > diam[ci]:
                    diam[ci] = d
        return adj, diam

    @njit(cache=True, nogil=True)
    def _chol_banded(ab, n, bw):
        for j in range(n):
            s = ab[0, j].real
            for k in range(max(0, j - bw), j):
                v = ab[j - k, k]
                s -= (v * np.conj(v)).real
            if not (s > 0.0):  # also a NaN pivot
                return 1
            d = np.sqrt(s)
            ab[0, j] = d
            for i in range(1, min(bw, n - 1 - j) + 1):
                acc = ab[i, j]
                for k in range(max(0, j - bw + i), j):
                    acc -= ab[i + (j - k), k] * np.conj(ab[j - k, k])
                ab[i, j] = acc / d
        return 0

    @njit(cache=True, nogil=True)
    def _solve_banded(ab, b, n, bw):
        for j in range(n):
            acc = b[j]
            for k in range(max(0, j - bw), j):
                acc -= ab[j - k, k] * b[k]
            b[j] = acc / ab[0, j]
        for j in range(n - 1, -1, -1):
            acc = b[j]
            for i in range(1, min(bw, n - 1 - j) + 1):
                acc -= np.conj(ab[i, j]) * b[j + i]
            b[j] = acc / ab[0, j]

    @njit(cache=True, nogil=True)
    def _try_factor(base, work, s, n, bw):
        for j in range(n):
            for i in range(bw + 1):
                work[i, j] = base[i, j]
            work[0, j] += s
        return _chol_banded(work, n, bw)

    @njit(cache=True, nogil=True)
    def _inv_iter(work, x, xo, n, bw, maxit, rtol):
        lam = -1.0
        for it in range(maxit):
            nrm = 0.0
            for j in range(n):
                nrm += (x[j] * np.conj(x[j])).real
            nrm = np.sqrt(nrm)
            for j in range(n):
                x[j] = x[j] / nrm
                xo[j] = x[j]
            _solve_banded(work, x, n, bw)
            yx = 0.0
            yy = 0.0
            for j in range(n):
                yx += (np.conj(x[j]) * xo[j]).real
                yy += (x[j] * np.conj(x[j])).real
            lam_new = yx / yy
            if it > 2 and abs(lam_new - lam) <= rtol * abs(lam_new) + 1e-300:
                return lam_new
            lam = lam_new
        return lam

    @njit(cache=True, nogil=True)
    def _sweep_row_nb(gram_bands, slice_lo, slice_up, zs, bw, maxit, rtol, x):
        n = gram_bands.shape[1]
        out = np.empty(zs.size)
        base = np.empty((bw + 1, n), dtype=np.complex128)
        work = np.empty((bw + 1, n), dtype=np.complex128)
        xo = np.empty(n, dtype=np.complex128)
        backoff = np.array([0.995, 0.95, 0.8, 0.5])
        # guard vector against warm starts that are exact eigenvectors; same
        # formula as the fallback lane
        guard = np.empty(n, dtype=np.float64)
        gnrm = 0.0
        for j in range(n):
            guard[j] = np.cos(1.7 * j + 0.3) + 0.21
            gnrm += guard[j] * guard[j]
        gnrm = np.sqrt(gnrm)
        for j in range(n):
            guard[j] = guard[j] / gnrm
        # an infinite pivot factors, so non-finite input is flagged up front,
        # as the numpy lane's finite checks do
        finite = (np.isfinite(gram_bands).all() and np.isfinite(slice_lo).all()
                  and np.isfinite(slice_up).all())
        for iz in range(zs.size):
            z = zs[iz]
            if not (finite and np.isfinite(z)):
                out[iz] = -1.0
                continue
            az2 = (z * np.conj(z)).real
            dmax = 1.0
            for j in range(n):
                for i in range(bw + 1):
                    base[i, j] = (
                        gram_bands[i, j]
                        - np.conj(z) * slice_lo[i, j]
                        - z * np.conj(slice_up[i, j])
                    )
                base[0, j] += az2
                if base[0, j].real > dmax:
                    dmax = base[0, j].real
            s = 0.0
            ok = _try_factor(base, work, s, n, bw)
            tries = 0
            while ok != 0 and tries < 10:
                s = 1e-13 * dmax if s == 0.0 else s * 100.0
                ok = _try_factor(base, work, s, n, bw)
                tries += 1
            if ok != 0:
                out[iz] = -1.0
                continue
            xnrm = 0.0
            for j in range(n):
                xnrm += (x[j] * np.conj(x[j])).real
            xnrm = 1e-4 * np.sqrt(xnrm)
            for j in range(n):
                x[j] = x[j] + xnrm * guard[j]
            lam_g = _inv_iter(work, x, xo, n, bw, maxit, rtol) - s
            # Rayleigh-shift restarts, mirroring the fallback lane: a shift
            # just below the estimate either factors (fast convergence) or
            # proves the estimate too high; then kick the stuck iterate
            kicks = 0
            for _ in range(8):
                if lam_g <= 0.0:
                    break
                stuck = True
                for fi in range(backoff.size):
                    cand = -backoff[fi] * lam_g
                    if cand >= s:
                        continue
                    if _try_factor(base, work, cand, n, bw) == 0:
                        s = cand
                        stuck = False
                        break
                if stuck:
                    if kicks >= 2:
                        break
                    kicks += 1
                    nrm = 0.0
                    knrm = 0.0
                    for j in range(n):
                        nrm += (x[j] * np.conj(x[j])).real
                        xo[j] = np.cos((1.3 + kicks) * j + 0.4 * kicks) + 0.15
                        knrm += (xo[j] * np.conj(xo[j])).real
                    nrm = np.sqrt(nrm)
                    knrm = np.sqrt(knrm)
                    for j in range(n):
                        x[j] = x[j] / nrm + xo[j] / knrm
                    _try_factor(base, work, s, n, bw)
                    lam_g = _inv_iter(work, x, xo, n, bw, maxit, rtol) - s
                    continue
                prev = lam_g
                lam_g = _inv_iter(work, x, xo, n, bw, maxit, rtol) - s
                if abs(lam_g - prev) <= rtol * abs(lam_g) + 1e-300:
                    break
            out[iz] = np.sqrt(lam_g) if lam_g > 0.0 else 0.0
        return out


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def greedy_net(points, sep, metric, dim, fiber):
    """Greedy selection mask: a point is kept iff it is >= sep away from every
    previously kept point, in array order."""
    points = np.ascontiguousarray(points, dtype=np.int64)
    if USING_NUMBA:
        return _greedy_net_nb(points, float(sep), metric, dim, fiber)
    return greedy_net_py(points, float(sep), metric, dim, fiber)


def cell_scan(points, cell_of, ncells, thresh, metric, dim, fiber):
    """All-pairs scan: cell adjacency at set-distance <= thresh (self included)
    plus per-cell diameter."""
    points = np.ascontiguousarray(points, dtype=np.int64)
    cell_of = np.ascontiguousarray(cell_of, dtype=np.int64)
    if USING_NUMBA:
        return _cell_scan_nb(points, cell_of, ncells, float(thresh), metric, dim, fiber)
    return cell_scan_py(points, cell_of, ncells, float(thresh), metric, dim, fiber)


def sigma_min_sweep(gram_bands, slice_lower, slice_upper, zs, bw, maxit=25,
                    rtol=1e-7, start=None):
    """Smallest singular value of (T - z E) for each z, via banded Cholesky of
    the Gram matrix plus inverse iteration.

    gram_bands holds the lower banded storage (band i, column j) of T^H T;
    slice_lower[i, j] = S[j+i, j] and slice_upper[i, j] = S[j, j+i] are the
    two triangles of the square slice S = E^H T (equal when S is complex
    symmetric). Points within one call share a warm-started iteration vector;
    calls are independent, so parallel callers get deterministic results by
    splitting zs and concatenating in order. A -1.0 entry flags a Cholesky
    breakdown that no diagonal shift cured, or non-finite input (z, or an
    entry of the bands).
    """
    n = gram_bands.shape[1]
    if start is None:
        start = (np.cos(0.9 * np.arange(n) + 0.7) + 0.1).astype(np.complex128)
    else:
        start = start.astype(np.complex128).copy()
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    gb = np.ascontiguousarray(gram_bands, dtype=np.complex128)
    sl = np.ascontiguousarray(slice_lower, dtype=np.complex128)
    su = np.ascontiguousarray(slice_upper, dtype=np.complex128)
    if USING_NUMBA:
        return _sweep_row_nb(gb, sl, su, zs, bw, maxit, rtol, start)
    out, _ = _sweep_row_py(gb, sl, su, zs, bw, maxit, rtol, start)
    return out
