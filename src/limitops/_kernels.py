"""Hot numeric kernels in numpy and LAPACK: the greedy net selection and the
all-pairs cell scan behind coverings, the banded sigma-min sweep behind the
essential-spectrum grid, and a point locator for lookups in point arrays.

Point arrays are int64 of shape (n, point_arity). The net and cell scans take
the space's distance function (``Space.dist_block``), so lattices and graphs
run the same scan.
"""

import numpy as np
from scipy.linalg.lapack import dlamch, zhbevx, zpbtrf, zpbtrs

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


# Unused by limitops itself; it stays because perfbench/tracing.py binds this
# name when it installs its counters.
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


# scipy's eigvals_banded passes this absolute tolerance to zhbevx
_ABSTOL = 2 * dlamch("S")


def min_eig_banded(ab):
    """Smallest eigenvalue of a Hermitian matrix in lower band storage: the
    LAPACK zhbevx call of ``scipy.linalg.eigvals_banded(ab, lower=True,
    select="i", select_range=(0, 0))`` with the same arguments, so the same
    bits, without the wrapper's overhead. May overwrite ``ab``. Raises like
    scipy: ValueError on non-finite input or an illegal argument,
    LinAlgError when LAPACK reports a failure."""
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    w, _, _, _, info = zhbevx(ab, 0.0, 1.0, 1, 1, compute_v=0, range=2, lower=1,
                              abstol=_ABSTOL, mmax=1, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"zhbevx failed with info {info}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal hbevx")
    return float(w[0])


def sigma_min_sweep(gram_bands, slice_lower, slice_upper, zs, tau=None):
    """Smallest singular value of (T - z E) for each z, as the square root of
    the smallest eigenvalue of the banded Gram matrix
    G(z) = (T - z E)^H (T - z E) (``min_eig_banded``, clamped at 0).

    gram_bands holds the lower banded storage (band i, column j) of T^H T;
    slice_lower[i, j] = S[j+i, j] and slice_upper[i, j] = S[j, j+i] are the
    two triangles of the square slice S = E^H T (equal when S is complex
    symmetric). Every point is computed on its own, so any split of zs gives
    the same bits.

    With tau given, one banded Cholesky factorisation of G(z) - tau^2 I
    decides first. It succeeds exactly when the smallest eigenvalue of G(z)
    exceeds tau^2 (Sylvester's law of inertia), and then the entry is inf:
    sigma_min > tau is certified up to the rounding of that factorisation,
    and no value is computed. Only the other points are valued. A -1.0 entry
    flags non-finite input (z, or an entry of the bands).
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    gb = np.ascontiguousarray(gram_bands, dtype=np.complex128)
    sl = np.ascontiguousarray(slice_lower, dtype=np.complex128)
    su_c = np.conj(np.ascontiguousarray(slice_upper, dtype=np.complex128))
    tau2 = None if tau is None else float(tau) ** 2
    out = np.empty(zs.size)
    for iz, z in enumerate(zs):
        base = gb - np.conj(z) * sl - z * su_c
        base[0] += (z * np.conj(z)).real
        try:
            if tau2 is not None:
                work = base.copy(order="F")
                work[0] -= tau2
                try:
                    cholesky_banded(work, lower=True)
                    out[iz] = np.inf
                    continue
                except np.linalg.LinAlgError:
                    pass
            out[iz] = np.sqrt(max(min_eig_banded(base), 0.0))
        except ValueError:
            out[iz] = -1.0
    return out
