"""Hot numeric kernels in numpy and LAPACK: the greedy net selection and the
all-pairs cell scan behind coverings, the banded sigma-min sweep behind the
essential-spectrum grid, and a point locator for lookups in point arrays.

Point arrays are int64 of shape (n, point_arity). The net and cell scans take
the space's distance function (``Space.dist_block``), so lattices and graphs
run the same scan.
"""

import numpy as np
from scipy.linalg.lapack import zpbtrf, zpbtrs

# No compiled lane exists; perfbench/worker.py still records this flag in its
# run record.
USING_NUMBA = False


def _row_keys(arr):
    """Pack small-integer rows into orderable tuples for searchsorted."""
    a = np.ascontiguousarray(arr, dtype=np.int64)
    return a.view([("", np.int64)] * a.shape[1]).reshape(-1)


class PointLocator:
    """Row indices of query points in a fixed point array (-1 where absent),
    by binary search over its lexicographically sorted rows."""

    def __init__(self, pts):
        pts = np.ascontiguousarray(pts, dtype=np.int64)
        self.order = np.lexsort(pts.T[::-1])
        self.sorted = pts[self.order]
        self.keys = _row_keys(self.sorted)

    def locate(self, query):
        q = np.ascontiguousarray(query, dtype=np.int64)
        pos = np.searchsorted(self.keys, _row_keys(q))
        out = np.full(q.shape[0], -1, dtype=np.int64)
        ok = pos < self.sorted.shape[0]
        cand = pos[ok]
        match = (self.sorted[cand] == q[ok]).all(axis=1)
        out[np.nonzero(ok)[0][match]] = self.order[cand[match]]
        return out


def greedy_net(points, sep, dist):
    """Greedy selection mask: a point is kept iff it is >= sep away from every
    previously kept point, in array order. ``dist(a, b)`` is the distance
    matrix between two point arrays."""
    points = np.ascontiguousarray(points, dtype=np.int64)
    keep = np.zeros(points.shape[0], dtype=np.bool_)
    sel = np.empty_like(points)
    m = 0
    for i in range(points.shape[0]):
        if m and dist(points[i : i + 1], sel[:m]).min() < sep:
            continue
        keep[i] = True
        sel[m] = points[i]
        m += 1
    return keep


def cell_scan(points, cell_of, ncells, thresh, dist):
    """All-pairs scan: cell adjacency at set-distance <= thresh (self included)
    plus per-cell diameter, with ``dist`` as in ``greedy_net``."""
    points = np.ascontiguousarray(points, dtype=np.int64)
    cell_of = np.ascontiguousarray(cell_of, dtype=np.int64)
    n = points.shape[0]
    adj = np.zeros((ncells, ncells), dtype=np.uint8)
    diam = np.zeros(ncells, dtype=np.float64)
    chunk = max(1, int(2_000_000 // max(n, 1)))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d = dist(points[lo:hi], points)
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


def _sweep_row(gram_bands, slice_lo, slice_up, zs, bw, maxit, rtol, start):
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
    out, _ = _sweep_row(gb, sl, su, zs, bw, maxit, rtol, start)
    return out
