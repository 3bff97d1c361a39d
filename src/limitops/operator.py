"""Band operators with finite propagation and their algebra.

A band operator keeps a stencil: a finite map offset -> coefficient field,
encoding the kernel a(u, u + k) = c_k(u). Sums, products, adjoints, scalar
shifts and indicator restrictions all stay in this class, with propagation
tracked structurally (exact for sums/adjoints, upper bound for products).
Window blocks are assembled densely; one whose columns cover its rows'
stencil is first decided from its coefficient values (above a floor, or
all zero) and formed only to be valued. ``window_norm`` values every
block norm, the restricted and localised norms included. Each p = 2
valuation has one owner, which ``window_norm``,
``fredholm.lower_norm_window`` and ``commutator_stack_norm`` call:
``_diagonal`` (a multiplication operator's diagonal), ``_gram_eig`` (a Gram
band's eigenvalue) and ``_singular`` (one dense SVD), in float64 when
there is no imaginary part. Other exponents get certified intervals
(sampled lower bound, row/column interpolation upper bound). Localisation
balls, for ``localized_norm`` and ``fredholm.lower_norm_localized``, come
from one ``pairs_within`` call (``_localization_balls``).
"""

import warnings
from functools import cached_property

import numpy as np

from .errors import InvalidConfigError, ScopeError, TruncationError
from .fields import ConstantField, Field, _normalize_shift, _wrapped_shift
from ._kernels import PointLocator, eig_banded, min_eig_banded
from .space import Window

GRAM_OVERFLOW = ("the window's Gram bands overflow: a coefficient is too large to "
                 "square in float64")


class BandOperator:
    """Finite-propagation operator given by coefficient fields per offset."""

    def __init__(self, space, stencil):
        self.space = space
        norm = {}
        for k, f in stencil.items():
            k = _wrapped_shift(space, k)
            if not isinstance(f, Field):
                f = ConstantField(f)
            if f.is_zero():
                continue
            norm[k] = norm[k].plus(f) if k in norm else f
        self.stencil = {k: norm[k] for k in sorted(norm)}

    @cached_property
    def propagation(self):
        if not self.stencil:
            return 0
        return int(self.space.norm(list(self.stencil)).max())

    @property
    def exact(self):
        return all(f.exact for f in self.stencil.values())

    def coefficient(self, k):
        return self.stencil.get(_wrapped_shift(self.space, tuple(k)), ConstantField(0.0))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.stencil)
        for k, f in other.stencil.items():
            merged[k] = merged[k].plus(f) if k in merged else f
        return BandOperator(self.space, merged)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return self.scaled(-1.0)

    def scaled(self, c):
        return BandOperator(self.space, {k: f.scaled(c) for k, f in self.stencil.items()})

    def __mul__(self, c):
        return self.scaled(c)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._coerce(other)
        out = {}
        for k, f in self.stencil.items():
            for l, g in other.stencil.items():
                m = tuple(a + b for a, b in zip(k, l))
                term = f.times(g.shifted(self.space, k))
                out[m] = out[m].plus(term) if m in out else term
        return BandOperator(self.space, out)

    def adjoint(self):
        out = {}
        for k, f in self.stencil.items():
            mk = tuple(-c for c in k)
            out[mk] = f.shifted(self.space, mk).conj()
        return BandOperator(self.space, out)

    def sub_scalar(self, z):
        """A - z * I."""
        return self + identity(self.space).scaled(-z)

    def translated(self, x):
        """Conjugation by the shift through x: coefficients become
        c_k(. + x); the stencil, hence the propagation, is unchanged."""
        x = _normalize_shift(self.space, x)
        return BandOperator(
            self.space, {k: f.shifted(self.space, x) for k, f in self.stencil.items()}
        )

    def _coerce(self, other):
        if isinstance(other, BandOperator):
            if other.space is not self.space and other.space != self.space:
                raise InvalidConfigError("operators live on different spaces")
            return other
        return identity(self.space).scaled(other)

    # -- bounds and blocks ----------------------------------------------------

    def norm_bound(self):
        """(upper bound for the operator norm valid for every exponent,
        certified flag). The bound is the sum of coefficient sup bounds, which
        dominates both the row and column sup sums."""
        total, cert = 0.0, True
        for f in self.stencil.values():
            v, c = f.bound(self.space)
            total += v
            cert = cert and c
        return total, cert

    def block(self, rows, cols):
        """Dense matrix of the kernel on rows x cols point sets (windows or
        point arrays). The values it places are evaluated by
        ``_coefficient_values``, so a non-finite one raises."""
        rows_pts, cols_pts = _points(rows), _points(cols)
        M = np.zeros((rows_pts.shape[0], cols_pts.shape[0]), dtype=np.complex128)
        if not rows_pts.size or not cols_pts.size:
            return M
        locate = _locate(cols)
        for k, f in self.stencil.items():
            idx = locate(self.space.translate(rows_pts, k))
            ok = idx >= 0
            if ok.any():
                vals = _coefficient_values(self.space, k, f, rows_pts[ok])
                M[np.nonzero(ok)[0], idx[ok]] += vals
        return M

    def apply(self, vec, out_window):
        """Exact action on a finitely supported vector.

        vec maps points to values; its support must sit inside the output
        window shrunk by the propagation, so no contribution can fall outside
        the requested window. A non-finite coefficient met on the way raises
        InvalidConfigError (``_coefficient_values``).
        """
        omega = self.propagation
        inner = out_window.shrink(omega)
        fdict = {}
        for pt, val in vec.items():
            pt = self.space._check_point(pt)
            if val != 0 and not inner.contains(pt):
                raise TruncationError(
                    f"support point {pt} is within {omega} of the output window "
                    f"boundary; enlarge the window"
                )
            fdict[pt] = complex(val)
        pts = out_window.points
        out = np.zeros(pts.shape[0], dtype=np.complex128)
        for k, f in self.stencil.items():
            src = np.asarray(
                [fdict.get(tuple(p), 0.0) for p in self.space.translate(pts, k).tolist()],
                dtype=np.complex128,
            )
            hit = src != 0
            if hit.any():
                out[hit] += _coefficient_values(self.space, k, f, pts[hit]) * src[hit]
        return out

    def to_descriptor(self):
        return {
            "kind": "band",
            "stencil": [
                {"offset": list(k), "coeff": f.to_descriptor()}
                for k, f in self.stencil.items()
            ],
        }

    def __repr__(self):
        return f"BandOperator(offsets={list(self.stencil)}, omega={self.propagation})"


def _coefficient_values(space, k, f, rows):
    """The coefficient field f of offset k on the rows (a point array): the
    kernel entries a(u, u + k) for u in rows. The one place a non-finite
    coefficient is refused: the first one raises InvalidConfigError naming
    it as a(u, v) with v = u + k. Band-dominated operators have bounded
    coefficients, and on an inf or nan LAPACK only reports that it did not
    converge while the p-norm bounds read inf."""
    vals = f.eval(space, rows)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        a = vals[i].real if vals[i].imag == 0 else vals[i]
        raise InvalidConfigError(
            f"non-finite coefficient a(u, v) = {a} at u = {rows[i].tolist()}, "
            f"v = {space.translate(rows[i], k).tolist()}: band operators need finite "
            f"coefficients")
    return vals


def _points(pts):
    return pts.points if isinstance(pts, Window) else np.asarray(pts)


def _locate(pts):
    """Lookup of query rows in a window (its cached locator) or a point
    array."""
    return pts.locate if isinstance(pts, Window) else PointLocator(_points(pts)).locate


def _real_lane(M):
    """A complex block or band as float64 when no entry has an imaginary
    part, so LAPACK runs in real arithmetic; the array itself otherwise."""
    return M if M.imag.any() else np.ascontiguousarray(M.real)


# -- constructors -------------------------------------------------------------


def identity(space):
    return BandOperator(space, {(0,) * space.point_arity: ConstantField(1.0)})


def multiplication(space, field):
    return BandOperator(space, {(0,) * space.point_arity: field})


def shift_operator(space, v):
    """(V f)(u) = f(u + v), the translation operator along v."""
    return BandOperator(space, {v: ConstantField(1.0)})


def laplacian_stencil(space):
    """Sum of the 2*dim unit translations (the adjacency operator of the
    lattice)."""
    sten = {}
    for a in range(space.dim):
        for s in (1, -1):
            k = [0] * space.dim
            k[a] = s
            sten[tuple(k)] = ConstantField(1.0)
    return BandOperator(space, sten)


# -- norms ---------------------------------------------------------------------


def _pnorm(v, p):
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _pnorm_bounds(M, p, iters=40, starts=4):
    """Certified interval for the l_p -> l_p norm of a dense matrix."""
    if M.size == 0 or not np.any(M):
        return 0.0, 0.0
    col1 = np.abs(M).sum(axis=0).max()
    row1 = np.abs(M).sum(axis=1).max()
    upper = float(col1 ** (1.0 / p) * row1 ** (1.0 - 1.0 / p))
    # lower bounds: best column, then a dual-exponent power iteration
    lo = float(max(np.sum(np.abs(M) ** p, axis=0) ** (1.0 / p)))
    q = p / (p - 1.0)
    rng = np.random.default_rng(12345)
    n = M.shape[1]
    for _ in range(starts):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= _pnorm(x, p)
        for _ in range(iters):
            y = M @ x
            ny = _pnorm(y, p)
            if ny == 0:
                break
            lo = max(lo, ny)
            z = np.abs(y) ** (p - 1.0) * np.exp(1j * np.angle(y))
            w = M.conj().T @ z
            nw = _pnorm(w, q)
            if nw == 0:
                break
            x = np.abs(w) ** (q - 1.0) * np.exp(1j * np.angle(w))
            x /= _pnorm(x, p)
        lo = max(lo, _pnorm(M @ x, p))
    return min(lo, upper), upper


def _distinct_sorted(pts):
    """The points in lexicographic order, or None if one repeats."""
    pts = pts[np.lexsort(pts.T[::-1])]
    return None if (pts[1:] == pts[:-1]).all(axis=1).any() else pts


def _diagonal(A, rows, cols):
    """|a(u, u)| on the points rows and cols share, in row order: for a
    multiplication operator the only entries its block can hold, read
    without forming it. None where a dense block must decide (a repeated point);
    window points are distinct by construction."""
    rows_pts, cols_pts = _points(rows), _points(cols)
    if not (rows_pts.size and cols_pts.size):
        return np.zeros(0)
    for w in (rows, cols):
        if not isinstance(w, Window) and _distinct_sorted(_points(w)) is None:
            return None
    # a window is its own cols: every row point is shared, in row order
    shared = rows_pts if rows is cols else rows_pts[_locate(cols)(rows_pts) >= 0]
    k = (0,) * A.space.point_arity
    return np.abs(_coefficient_values(A.space, k, A.coefficient(k), shared))


def _singular(M, end):
    """The largest (end 0) or smallest (end -1) singular value of a dense
    block by one SVD; exactly 0.0 for an empty or all-zero block."""
    if M.size == 0 or not np.any(M):
        return 0.0
    return float(np.linalg.svd(_real_lane(M), compute_uv=False)[end])


def window_norm(A, rows, cols, p=2):
    """Norm of the two-sided truncation M_rows A M_cols.

    p = 2: largest singular value (float). For a multiplication operator
    (propagation 0) on a lattice the block is diagonal and this is the
    largest |c(u)| over the points rows and cols share (``_diagonal``),
    without forming the block; it equals the SVD value bitwise for real
    coefficients and to rounding for complex ones. Other operators and
    repeated points take a dense SVD (``_singular``), in float64 when the
    block has no imaginary part.
    Other p in (1, inf): certified interval (lower, upper).
    An all-zero block is exactly 0 at every p; where the columns cover the
    rows' stencil it is found from the coefficient values, unformed.
    A non-finite coefficient in the block raises InvalidConfigError
    (``_coefficient_values``).
    """
    return _window_value(A, rows, cols, p)


def _covers(A, rows, cols):
    """Whether every stencil entry of every row lands in the columns: two
    lattice windows about one centre with floor(cols.radius) >=
    floor(rows.radius) + the propagation. Distances are integers, so
    d(c, u + k) <= floor(rows.radius) + |k| for each row u and offset k."""
    return (A.space.kind == "lattice" and isinstance(rows, Window)
            and isinstance(cols, Window) and rows.center == cols.center
            and int(cols.radius) >= int(rows.radius) + A.propagation)


def _window_value(A, rows, cols, p, floor=None):
    """``window_norm``'s routing. With a floor, a block holding an entry of
    modulus above 2 * floor is not valued and gives None: its norm is at
    least that entry at every p (sigma_max, and the upper end
    col1^(1/p) * row1^(1 - 1/p) of the p != 2 interval), and the factor 2
    covers the SVD's backward error, so its value could not read <= floor.

    Where the columns cover the rows' stencil (``_covers``), the block's
    nonzero entries are exactly the coefficient values c_k(u), u in rows,
    one per (u, k), so the entries are decided from those values without
    forming the block: None above the floor, exactly 0.0 ((0.0, 0.0) at
    p != 2) when every value is 0, and the block is formed only to be
    valued. Elsewhere the block is formed first. The coefficients are
    evaluated in stencil order either way, so a non-finite one raises
    whether or not the block is valued."""
    if p == 2 and A.propagation == 0 and A.space.kind == "lattice":
        diag = _diagonal(A, rows, cols)
        if diag is not None:
            return float(diag.max(initial=0.0))
    if _covers(A, rows, cols):
        # BandOperator.__init__ wraps and merges the offsets, so they are
        # distinct and each block entry holds one value, 0 + c_k(u)
        top = max((float(np.abs(_coefficient_values(A.space, k, f, rows.points)).max())
                   for k, f in A.stencil.items()), default=0.0)
        if floor is not None and top > 2 * floor:
            return None
        if top == 0:
            return 0.0 if p == 2 else (0.0, 0.0)
    M = A.block(rows, cols)
    if floor is not None and M.size and np.abs(M).max() > 2 * floor:
        return None
    return _singular(M, 0) if p == 2 else _pnorm_bounds(M, p)


def _window_upper(A, rows, cols, p=2, floor=None):
    """``window_norm`` as one float: the norm at p = 2, the certified upper
    end of the interval otherwise. With a floor, None for a block that
    cannot value <= floor (``_window_value``)."""
    g = _window_value(A, rows, cols, p, floor)
    return g if g is None or p == 2 else float(g[1])


def _offsets(B):
    """The stencil offsets of B, in stencil order, as an int64 array of shape
    (|stencil|, point_arity)."""
    return np.array(list(B.stencil), dtype=np.int64).reshape(-1, B.space.point_arity)


def _bands(n, entries):
    """Sum (rows, cols, vals) entries with rows >= cols, in list order, into
    lower band storage of width max(rows - cols) + 1."""
    width = max((int((r - c).max(initial=0)) for r, c, _ in entries), default=0)
    ab = np.zeros((width + 1, n), dtype=np.complex128)
    if entries:
        rows, cols, vals = (np.concatenate(a) for a in zip(*entries))
        np.add.at(ab, (rows - cols, cols), vals)
    return ab


def _gram_groups(B, pts, loc):
    """The located offset differences of the Gram (B^H B)[S, S] on sorted
    distinct lattice points S (``loc`` their PointLocator), and its
    bandwidth kd.

    The pairs (k, k') of stencil offsets are grouped by their difference
    d = k' - k (fiber coordinate wrapped); each group that meets S is
    (a, b, j, l): the stencil indices of its pairs in pair order (k outer,
    k' inner), the columns j, and the located l <= j with s_l = s_j + d.
    Every Gram entry of the lower triangle comes from exactly one group."""
    space, n = B.space, pts.shape[0]
    keys = _offsets(B)
    K = keys.shape[0]
    diffs = space.translate((keys[None, :, :] - keys[:, None, :]).reshape(-1, keys.shape[1]), 0)
    # the pairs sorted by difference (a stable sort: pair order within one)
    order = np.lexsort(diffs.T[::-1])
    sorted_diffs = diffs[order]
    starts = np.flatnonzero(np.r_[K > 0, (sorted_diffs[1:] != sorted_diffs[:-1]).any(axis=1)])
    # s_j + d for every difference d, located at once
    moved = space.translate(pts[None, :, :], sorted_diffs[starts][:, None, :])
    located = loc.locate(moved.reshape(-1, pts.shape[1])).reshape(starts.size, n)
    groups, kd = [], 0
    for l, pairs in zip(located, np.split(order, starts)[1:]):
        j = np.flatnonzero((l >= 0) & (l <= np.arange(n)))
        if j.size:
            groups.append((pairs // K, pairs % K, j, l[j]))
            kd = max(kd, int((j - l[j]).max()))
    return groups, kd


def _gram_bands(B, pts, weights=None, grouped=None):
    """(B^H B)[S, S] in lower band storage at its exact bandwidth, and the
    lower and upper bands of the slice B[S, S], for sorted distinct lattice
    points S; None if the Gram bands overflow. The coefficients are
    evaluated by ``_coefficient_values``, before any product.

    Column j of the tall block B[:, S] holds c_k(s_j - k) in row s_j - k, so
    the Gram entry (j, l) sums conj(c_k(u)) c_k'(u) over the rows
    u = s_j - k = s_l - k'. One pass per distinct offset difference k' - k
    (``grouped``, what ``_gram_groups`` returns, is computed when not
    given): each entry sums its pairs' products in pair order. With real
    ``weights`` of shape (tents, |stencil|, n), column j of offset k is
    scaled by weights[t, k, j] and the Gram is summed over the tents t as
    well: the Gram of the tall blocks stacked over t. O(n |stencil|^2),
    times the tents if weighted."""
    space = B.space
    n = pts.shape[0]
    keys = _offsets(B)
    # row s_j - k of column j, for every offset k
    back = space.translate(pts[None, :, :], np.negative(keys)[:, None, :])
    cols = np.array([_coefficient_values(space, k, f, u)
                     for (k, f), u in zip(B.stencil.items(), back)],
                    dtype=np.complex128).reshape(keys.shape[0], n)
    loc = PointLocator(pts)
    groups, kd = _gram_groups(B, pts, loc) if grouped is None else grouped
    gram = np.zeros((kd + 1, n), dtype=np.complex128)
    # a product that overflows is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, j, l in groups:
            prods = np.conj(cols[a[:, None], j]) * cols[b[:, None], l]
            if weights is not None:
                prods *= np.einsum("tpj,tpj->pj", weights[:, a[:, None], j],
                                   weights[:, b[:, None], l])
            # accumulate is sequential, so the pairs add in order, from 0
            gram[j - l, l] += np.add.accumulate(prods, axis=0)[-1]
    # the slice's row s_l - k in column l, for every offset k
    rows = loc.locate(back.reshape(-1, pts.shape[1])).reshape(keys.shape[0], n)
    sl, su = [], []
    idx = np.arange(n)
    for j, ck in zip(rows, cols):
        lo = np.nonzero(j >= idx)[0]
        up = np.nonzero((j >= 0) & (j <= idx))[0]
        sl.append((j[lo], lo, ck[lo]))
        su.append((up, j[up], ck[up]))
    return (gram, _bands(n, sl), _bands(n, su)) if np.isfinite(gram).all() else None


def _gram_eig(B, pts, index, weights=None, grouped=None):
    """The index-th smallest eigenvalue (1-based) of the Gram band of
    ``_gram_bands``, in float64 when it is real: the smallest by
    ``min_eig_banded``, any other by one ``eig_banded`` call. Exactly 0.0
    for an all-zero Gram; None only when the Gram overflows."""
    bands = _gram_bands(B, pts, weights, grouped)
    if bands is None:
        return None
    G = _real_lane(bands[0])
    if not np.any(G):
        return 0.0
    return min_eig_banded(G) if index == 1 else eig_banded(G, index)


def commutator_stack_norm(A, partition, scope, p=2):
    """Norm of the stacked commutators f -> ([A, M_phi_t] f)_t over tents t
    of the partition, for f supported in the scope, with phi_t = rho_t^(1/p).

    p = 2 returns the stacked block's largest singular value, the square
    root of the top eigenvalue of its Gram matrix G = sum_t C_t^H C_t, where
    C_t is the block of A on the scope padded by the propagation (rows) and
    the scope (columns), scaled entrywise by phi_t(column) - phi_t(row). G
    has the bandwidth of A^H A. Where that band holds at most half the
    matrix (kd + 1 <= n/2 on the sorted scope), G is assembled in lower band
    storage by ``_gram_bands``, weighted per tent, and valued by
    ``_gram_eig`` for its top eigenvalue (one LAPACK band call, in float64
    when the band has no imaginary part); a wider band is formed densely,
    one product per tent, and valued by ``eigvalsh``. The two routes agree
    to rounding. An all-zero Gram gives exactly 0.0; one that overflows,
    like a non-finite coefficient, raises InvalidConfigError. Other
    exponents return a certified interval of the stacked dense block.
    """
    space = A.space
    rows = scope.pad(A.propagation)
    lo_s, hi_s = partition.scope.bounds()
    lo_r, hi_r = rows.bounds()
    if (lo_s > lo_r).any() or (hi_s < hi_r).any():
        raise ScopeError(
            "partition scope does not cover the evaluation scope padded by the "
            "propagation; rebuild the partition with a larger scope"
        )
    rpts, cpts = rows.points, scope.points
    lo = np.minimum(lo_r, cpts[:, : space.dim].min(axis=0))
    hi = np.maximum(hi_r, cpts[:, : space.dim].max(axis=0))
    tents = partition.tents_meeting(lo, hi)
    if p == 2:
        top = _band_gram_top(A, partition, tents, rows, scope)
        if top is not None:
            return float(np.sqrt(max(top, 0.0)))
    block = A.block(rows, scope)
    if p == 2:
        block = _real_lane(block)
        G = np.zeros((cpts.shape[0], cpts.shape[0]), dtype=block.dtype)
    # phi_t once per tent, on the rows; the scope's values are gathered
    pick = rows.locate(cpts)
    stack = []
    for t in tents:
        phi = partition.root_values(t, rpts, p)
        C = block * (phi[pick][None, :] - phi[:, None])
        if p == 2:
            # a product that overflows is caught by the finiteness check below
            with np.errstate(over="ignore", invalid="ignore"):
                G += C.conj().T @ C
        else:
            stack.append(C)
    if p != 2:
        return _pnorm_bounds(np.vstack(stack), p)
    if not np.isfinite(G).all():
        raise InvalidConfigError(GRAM_OVERFLOW)
    lam = float(np.linalg.eigvalsh(G)[-1]) if np.any(G) else 0.0
    return float(np.sqrt(max(lam, 0.0)))


def _band_gram_top(A, partition, tents, rows, scope):
    """Top eigenvalue of the p = 2 commutator Gram of
    ``commutator_stack_norm`` from its lower bands (``_gram_eig``); None
    where the dense route decides, a band of more than half the matrix. A
    Gram that overflows raises InvalidConfigError."""
    space = A.space
    pts = _distinct_sorted(scope.points)
    n, keys = pts.shape[0], _offsets(A)
    # the columns that share the centre's row bound kd from below, so a
    # stencil that spans half the scope goes dense before any difference
    # is located
    loc = PointLocator(pts)
    hit = loc.locate(space.translate(keys, scope.center))
    hit = hit[hit >= 0]
    if hit.size and hit.max() - hit.min() + 1 > n / 2:
        return None
    grouped = _gram_groups(A, pts, loc)
    if grouped[1] + 1 > n / 2:
        return None
    # phi_t once per tent, on the rows, gathered at s_j and at the rows
    # s_j - k: weights[t, k, j] = phi_t(s_j) - phi_t(s_j - k)
    phi = np.array([partition.root_values(t, rows.points, 2) for t in tents])
    phi = phi.reshape(-1, rows.npoints)
    back = space.translate(pts[None, :, :], np.negative(keys)[:, None, :])
    back = rows.locate(back.reshape(-1, pts.shape[1])).reshape(keys.shape[0], n)
    weights = phi[:, rows.locate(pts)][:, None, :] - phi[:, back]
    top = _gram_eig(A, pts, n, weights, grouped)
    if top is None:
        raise InvalidConfigError(GRAM_OVERFLOW)
    return top


def bdo_diagnostic(A, t_grid, scope, p=2):
    """Commutator decay curve over a decreasing t grid plus a classification.

    Band-dominated behavior predicts values <= C * t^(1/p) with one constant
    across the grid; the curve is classified band-consistent when the
    normalized values value(t) / t^(1/p) stay within a factor 2 of each other
    (identically zero curves trivially qualify). Finite scopes can only give
    evidence, never falsify membership, so the alternative label is
    "inconclusive".
    """
    from .space import build_partition

    t_grid = list(t_grid)
    if any(b >= a for a, b in zip(t_grid, t_grid[1:])):
        raise InvalidConfigError("t grid must be strictly decreasing")
    padded = scope.pad(A.propagation)
    values = []
    for t in t_grid:
        part = build_partition(A.space, padded, t)
        v = commutator_stack_norm(A, part, scope, p)
        values.append(v if p == 2 else v[1])
    ratios = [v / t ** (1.0 / p) for v, t in zip(values, t_grid) if v > 1e-12]
    if not ratios:
        fitted, spread, label = 0.0, 1.0, "band-consistent"
    else:
        fitted = float(np.exp(np.mean(np.log(ratios))))
        spread = max(ratios) / min(ratios)
        label = "band-consistent" if spread <= 2.0 else "inconclusive"
    return {
        "t_grid": t_grid,
        "values": [float(v) for v in values],
        "normalized": [float(v / t ** (1.0 / p)) for v, t in zip(values, t_grid)],
        "fitted_constant": fitted,
        "spread": float(spread),
        "classification": label,
        "note": "finite scopes give decay-rate evidence only; they cannot "
                "refute band-dominated membership",
    }


def restricted_norm(A, predicate, scope, p=2):
    """Norm of A M_1F restricted to the scope: ``window_norm`` with the
    points of the scope satisfying the predicate as columns and the scope
    padded by the propagation as rows."""
    pts = scope.points
    keep = predicate.test(A.space, pts)
    if not keep.any():
        warnings.warn("predicate selects no scope point; restricted norm is 0")
        return 0.0 if p == 2 else (0.0, 0.0)
    return window_norm(A, scope.pad(A.propagation), pts[keep], p)


def _localization_balls(space, predicate, centres, candidates, radius):
    """The distinct non-empty sets B(x, radius) of candidates satisfying the
    predicate, over the centres x, in the order they first occur; each is an
    index array into the candidates, in candidate order. One
    ``pairs_within`` call and one predicate test."""
    i, j, _ = space.pairs_within(centres, candidates, radius)
    inside = predicate.test(space, candidates)[j]
    # the pairs come sorted by centre, then candidate
    balls = np.split(j[inside], np.searchsorted(i[inside], np.arange(1, centres.shape[0])))
    return list({ball.tobytes(): ball for ball in balls if ball.size}.values())


def localized_norm(A, predicate, partition, scope, p=2):
    """max over scope centers x of ``window_norm`` of A on the columns
    B[x, r_t] intersected with the predicate and the scope, and the scope
    padded by the propagation as rows; at p != 2 the lower end of each
    interval. Each distinct ball is valued once. Dominated by
    restricted_norm by construction (every local support is a subset)."""
    pts = scope.points
    balls = _localization_balls(A.space, predicate, pts, pts, partition.support_diam)
    if not balls:
        warnings.warn("predicate selects no scope point; localized norm is 0")
        return 0.0
    rows = scope.pad(A.propagation)
    norms = (window_norm(A, rows, pts[ball], p) for ball in balls)
    return max(g if p == 2 else g[0] for g in norms)
