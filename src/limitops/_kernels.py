"""Hot numeric kernels in numpy and LAPACK: the greedy net selection and the
cell scan behind coverings, the banded sigma-min sweep behind the
essential-spectrum grid, and the one point locator (rows packed into int64
keys) behind every lookup of points in a point array.

Point arrays are int64 of shape (n, point_arity). The net and cell scans take
the space's neighbour enumeration (``Space.pairs_within``), so lattices and
graphs run the same scan, and each point meets only the points of one ball
around it: O(n |B(R)|) under bounded geometry, not O(n^2).

LAPACK is scipy's compiled ``_flapack`` module alone, loaded from its file on
first use (``_lapack``), so ``scipy/linalg/__init__.py`` never runs: on 2 vCPUs
that package import takes a quarter of a second and over 20 MB (most of it in
``numpy.f2py``, through ``scipy._lib.array_api_compat``), the module a few
milliseconds and under 3 MB. The tasks that never touch a band matrix
(geometry, covering, partition) load no scipy at all; bdo-diagnostic loads
the module for the one band eigenvalue call of each commutator Gram.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading

import numpy as np

from .errors import InvalidConfigError

# No compiled lane exists; perfbench/worker.py still records this flag in its
# run record.
USING_NUMBA = False


class PointLocator:
    """Row indices of query points in a fixed point array (-1 where absent),
    by binary search over int64 keys packed row-major over the array's
    bounding box: queries outside the box miss without a search, of repeated
    rows the lowest index wins, and an empty array locates nothing. A box of
    2^63 cells or more is refused. A lattice window's box holds about dim!
    times its points at most, and table keys are clipped to the queries' box
    first (``fields._locate_keys``), so only far-apart graph node ids reach it."""

    def __init__(self, pts):
        pts = np.asarray(pts, dtype=np.int64)
        # the initial values make an empty array's box empty
        self.lo = pts.min(axis=0, initial=np.iinfo(np.int64).max)
        hi = pts.max(axis=0, initial=np.iinfo(np.int64).min)
        self.shape = [max(int(h) - int(l) + 1, 0) for l, h in zip(self.lo, hi)]
        if math.prod(self.shape) >= 2 ** 63:
            raise InvalidConfigError(
                f"point box {tuple(self.shape)} is too large to index by int64 keys")
        keys = self._pack(pts)[0]
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def _pack(self, pts):
        """Packed keys of the rows (junk outside the box), and which rows lie in the box."""
        rel = np.asarray(pts, dtype=np.int64) - self.lo  # wraps, but the test below holds
        keys = np.zeros(rel.shape[0], dtype=np.int64)
        inside = np.ones(rel.shape[0], dtype=bool)
        for c, size in enumerate(self.shape):
            col = rel[:, c]
            inside &= col.view(np.uint64) < size  # 0 <= col < size
            keys = keys * size + col
        return keys, inside

    def locate(self, query):
        keys, inside = self._pack(query)
        out = np.full(keys.size, -1, dtype=np.int64)
        inside = np.flatnonzero(inside)
        pos = np.minimum(np.searchsorted(self.keys, keys[inside]), self.keys.size - 1)
        found = self.keys[pos] == keys[inside]
        out[inside[found]] = self.order[pos[found]]
        return out


def greedy_net(points, sep, pairs):
    """Greedy selection mask: a point is kept iff it is >= sep away from every
    previously kept point, in array order. ``pairs(a, b, radius)`` is the
    space's ``Space.pairs_within``; the rows of ``points`` must be distinct.
    Each point is checked against the earlier points within ceil(sep) - 1
    only (distances are integers)."""
    points = np.ascontiguousarray(points, dtype=np.int64)
    n = points.shape[0]
    i, j, _ = pairs(points, points, np.ceil(sep) - 1)
    earlier = j < i
    start = np.searchsorted(i[earlier], np.arange(n + 1)).tolist()
    j = j[earlier].tolist()
    kept = set()
    for p in range(n):
        if kept.isdisjoint(j[start[p] : start[p + 1]]):
            kept.add(p)
    keep = np.zeros(n, dtype=np.bool_)
    keep[list(kept)] = True
    return keep


def cell_members(cell_of, ncells):
    """Row indices of each cell 0..ncells-1, each in row order; entries
    outside that range belong to no cell."""
    order = np.argsort(cell_of, kind="stable")
    bounds = np.searchsorted(cell_of[order], np.arange(ncells + 1))
    return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def cell_scan(points, cell_of, ncells, thresh, pairs):
    """Cell adjacency at set-distance <= thresh (self included) plus per-cell
    diameter, with ``pairs`` as in ``greedy_net``. Adjacency comes from the
    point pairs within floor(thresh); each diameter from the distances inside
    its own cell, so both stay exact for any ``cell_of``."""
    points = np.ascontiguousarray(points, dtype=np.int64)
    cell_of = np.ascontiguousarray(cell_of, dtype=np.int64)
    adj = np.zeros((ncells, ncells), dtype=np.uint8)
    diam = np.zeros(ncells, dtype=np.float64)
    i, j, _ = pairs(points, points, np.floor(thresh))
    ci, cj = cell_of[i], cell_of[j]
    ok = (ci >= 0) & (ci < ncells) & (cj >= 0) & (cj < ncells)
    adj[ci[ok], cj[ok]] = 1
    for c, members in enumerate(cell_members(cell_of, ncells)):
        if members.size > 1:
            diam[c] = pairs(points[members], points[members], np.inf)[2].max()
    return adj, diam


_FLAPACK = "scipy.linalg._flapack"
_flapack_lock = threading.Lock()


def _lapack():
    """scipy's compiled LAPACK module, ``scipy.linalg._flapack``: the
    routines ``scipy.linalg.lapack`` re-exports, without importing the
    ``scipy.linalg`` package. Loaded once, under a lock (two sweep threads
    may ask together), from its file in the ``linalg`` directory next to
    ``scipy.__file__``, and registered in ``sys.modules`` under that name: a
    later ``import scipy.linalg`` reuses it, and one that scipy already
    loaded is used here. A missing file raises ImportError naming the path."""
    mod = sys.modules.get(_FLAPACK)
    if mod is None:
        with _flapack_lock:
            mod = sys.modules.get(_FLAPACK) or _load_flapack()
    return mod


def _load_flapack():
    import scipy  # its own __init__ only: platform set-up, no scipy.linalg

    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no compiled LAPACK module at {paths[0]}", path=paths[0])
    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
    mod = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
    loader.exec_module(mod)
    sys.modules[_FLAPACK] = mod
    return mod


@functools.cache
def _abstol():
    """The absolute tolerance scipy's eigvals_banded passes to dsbevx/zhbevx."""
    return 2 * _lapack().dlamch("S")


def cholesky_banded(ab, lower):
    """``scipy.linalg.cholesky_banded`` without the wrapper's per-call
    overhead: LAPACK dpbtrf for a real ``ab``, zpbtrf otherwise. It
    overwrites ``ab``, in place when it is Fortran-ordered and of that dtype,
    so pass a copy you own. Raises like scipy: ValueError on non-finite input
    or an illegal argument, LinAlgError when a leading minor is not positive
    definite."""
    _require_finite(ab)
    pbtrf = _lapack().dpbtrf if np.isrealobj(ab) else _lapack().zpbtrf
    c, info = pbtrf(ab, lower=lower, overwrite_ab=1)
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
    x, info = _lapack().zpbtrs(cb, b, lower=lower)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbtrs")
    return x


# n^2 kd at and above which min_eig_banded values a band with kd >= 2 by
# bisection: there ?sbevx/?hbevx's O(n^2 kd) band reduction costs more than
# the ~50 O(n kd^2) Cholesky steps. Measured crossovers (2 vCPUs, one BLAS
# thread): real kd = 2 near n = 256-290, real kd = 4 and 6 near n = 180-192,
# complex kd = 2 near n = 256-290, complex kd = 4 and 6 near n = 150-165.
BISECTION_WORK = 2 ** 17


def min_eig_banded(ab):
    """Smallest eigenvalue of a real symmetric or complex Hermitian positive
    semi-definite matrix in lower band storage (kd = ab.shape[0] - 1).

    A band with kd >= 2 and n^2 kd >= BISECTION_WORK is valued by bisection
    on Cholesky inertia (``_bisect_min_eig``): an upper bound on the
    smallest eigenvalue within max(1e-10 value, 8 eps g) of it, g the
    Gershgorin bound. Every other band takes ``eig_banded(ab, 1)``. May
    overwrite ``ab``. Raises like scipy: ValueError on non-finite input or
    an illegal argument, LinAlgError when LAPACK reports a failure."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    if kd >= 2 and n * n * kd >= BISECTION_WORK:
        _require_finite(ab)
        return _bisect_min_eig(ab)
    return eig_banded(ab, 1)


def eig_banded(ab, index):
    """The index-th smallest eigenvalue (1-based) of a real symmetric or
    complex Hermitian matrix in lower band storage, by the one LAPACK call of
    ``scipy.linalg.eigvals_banded(ab, lower=True, select="i",
    select_range=(index - 1, index - 1))``, dsbevx for a real ``ab`` and
    zhbevx otherwise, with the same arguments, so the same bits, without the
    wrapper's overhead. May overwrite ``ab``. Raises like scipy: ValueError
    on non-finite input or an illegal argument, LinAlgError when LAPACK
    reports a failure."""
    _require_finite(ab)
    bevx = _lapack().dsbevx if np.isrealobj(ab) else _lapack().zhbevx
    w, _, _, _, info = bevx(ab, 0.0, 1.0, index, index, compute_v=0, range=2, lower=1,
                            abstol=_abstol(), mmax=1, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{bevx.__name__} failed with info {info}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of {bevx.__name__}")
    return float(w[0])


def _require_finite(ab):
    """Raise ValueError, as scipy does, when an entry of ``ab`` is not finite."""
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")


def _bisect_min_eig(ab):
    """Smallest eigenvalue of a positive semi-definite band (lower storage,
    finite, left untouched) by bisection on [0, g], g the largest absolute
    row sum. A Cholesky factorisation of G - mu I (LAPACK dpbtrf or zpbtrf,
    in one reused work array) succeeds exactly when the smallest eigenvalue
    exceeds mu (Sylvester's law of inertia): success sets lo = mu, failure
    hi = mu, until hi - lo <= max(1e-10 hi, 8 eps g). The upper end hi is
    returned: it bounds the smallest eigenvalue from above, up to the
    rounding of one factorisation."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    mag = np.abs(ab)
    rows = mag[0].copy()
    for k in range(1, min(kd, n - 1) + 1):
        # G[j + k, j] sits in rows j + k and j (the unused corner is skipped)
        rows[k:] += mag[k, : n - k]
        rows[: n - k] += mag[k, : n - k]
    g = float(rows.max(initial=0.0))
    floor = 8 * np.finfo(np.float64).eps * g
    pbtrf = _lapack().dpbtrf if np.isrealobj(ab) else _lapack().zpbtrf
    # Fortran order once, so each step's refill is one contiguous copy
    src = np.asfortranarray(ab)
    work = np.empty_like(src, order="F")
    lo, hi = 0.0, g
    while hi - lo > max(1e-10 * hi, floor):
        mu = 0.5 * (lo + hi)
        np.copyto(work, src)
        np.subtract(src[0], mu, out=work[0])
        _, info = pbtrf(work, lower=1, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of {pbtrf.__name__}")
        if info == 0:
            lo = mu
        else:
            hi = mu
    return hi


def sigma_min_sweep(gram_bands, slice_lower, slice_upper, zs, tau=None):
    """Smallest singular value of (T - z E) for each z, as the square root of
    the smallest eigenvalue of the banded Gram matrix
    G(z) = (T - z E)^H (T - z E) = T^H T - conj(z) S - z S^H + |z|^2 I
    (``min_eig_banded``: LAPACK's value on a short band, the upper end of a
    bisection bracket on a long one; clamped at 0).

    gram_bands holds the lower banded storage (band i, column j) of T^H T;
    slice_lower[i, j] = S[j+i, j] and slice_upper[i, j] = S[j, j+i] are the
    two triangles of the square slice S = E^H T (equal when S is complex
    symmetric). Each value depends on its own z and the bands alone, so any
    split of zs gives the same bits.

    The work follows the data. When S is Hermitian
    (slice_lower == conj(slice_upper)), G(x + iy) = G(x) + y^2 I exactly,
    and the sweep runs per column x = Re z (``_column_sweep``): one
    eigenvalue lambda_x of G(x) per column values each of its points as
    sqrt(max(lambda_x + y^2, 0)). If the Gram bands and S are real as well,
    as for Delta + V with real V, G(x) is factored and valued in float64
    (LAPACK dpbtrf, and dsbevx or bisection), otherwise in complex128
    (zpbtrf, and zhbevx or bisection). Any other slice is swept point by
    point in complex128.

    With tau given, one banded Cholesky factorisation of G - tau^2 I
    decides first. It succeeds exactly when the smallest eigenvalue of G
    exceeds tau^2 (Sylvester's law of inertia), and then the entry is inf:
    sigma_min > tau is certified up to the rounding of that factorisation,
    and no value is computed. Only the other points are valued, with the
    bits they have without tau: no valuation, bisection included, depends
    on tau. On the column path the gate runs once per column, on G(x); a
    point with y^2 > tau^2 reads inf with no factorisation
    (sigma_min >= |Im z|, as G(x) is positive semi-definite), and a point
    of a column whose gate fails reads inf where lambda_x + y^2 > tau^2.

    Non-finite input (a point of zs, or an entry of the bands) raises
    ValueError before any factorisation, as the LAPACK helpers do.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    gb, sl, su = (np.ascontiguousarray(a, dtype=np.complex128)
                  for a in (gram_bands, slice_lower, slice_upper))
    for a in (zs, gb, sl, su):
        _require_finite(a)
    su_c = np.conj(su)
    tau2 = None if tau is None else float(tau) ** 2
    if np.array_equal(sl, su_c):
        if not (gb.imag.any() or sl.imag.any()):
            gb, sl = gb.real.copy(), sl.real.copy()
        return _column_sweep(gb, sl, zs, tau2)
    out = np.empty(zs.size)
    for iz, z in enumerate(zs):
        base = gb - np.conj(z) * sl - z * su_c
        base[0] += (z * np.conj(z)).real
        if tau2 is not None and _gate(base, tau2):
            out[iz] = np.inf
        else:
            out[iz] = np.sqrt(max(min_eig_banded(base), 0.0))
    return out


def _gate(base, tau2):
    """Whether G - tau2 I has a banded Cholesky factor, i.e. the smallest
    eigenvalue of G (lower band storage in ``base``, left untouched)
    exceeds tau2."""
    work = base.copy(order="F")
    work[0] -= tau2
    try:
        cholesky_banded(work, lower=True)
    except np.linalg.LinAlgError:
        return False
    return True


def _column_sweep(gb, sl, zs, tau2):
    """``sigma_min_sweep`` for a Hermitian slice S, where
    G(x + iy) = G(x) + y^2 I with G(x) = T^H T - 2 x S + x^2 I: at most one
    gate and one eigenvalue per distinct Re z. tau2 is tau^2 or None."""
    out = np.full(zs.size, np.inf)
    y2 = zs.imag ** 2
    idx = np.arange(zs.size) if tau2 is None else np.flatnonzero(y2 <= tau2)
    # + 0.0 maps -0.0 to 0.0, so a column never depends on which one a chunk holds
    xs, col = np.unique(zs.real[idx] + 0.0, return_inverse=True)
    for x, members in zip(xs, cell_members(col, xs.size)):
        pts = idx[members]
        base = gb - 2 * x * sl
        base[0] += x * x
        if tau2 is not None and _gate(base, tau2):
            continue  # its points keep inf
        lam = min_eig_banded(base) + y2[pts]
        out[pts] = np.sqrt(np.maximum(lam, 0.0))
        if tau2 is not None:
            out[pts[lam > tau2]] = np.inf
    return out
