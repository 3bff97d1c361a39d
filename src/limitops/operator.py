"""Band operators with finite propagation and their algebra.

A band operator keeps a stencil: a finite map offset -> coefficient field,
encoding the kernel a(u, u + k) = c_k(u). Sums, products, adjoints, scalar
shifts and indicator restrictions all stay in this class, with propagation
tracked structurally (exact for sums/adjoints, upper bound for products).
Window blocks are assembled densely. p = 2 window norms are largest
singular values: read off the diagonal for multiplication operators
(propagation 0), from a dense SVD otherwise. Other exponents get certified
intervals (sampled lower bound, row/column interpolation upper bound).
"""

import warnings

import numpy as np

from .errors import InvalidConfigError, ScopeError, TruncationError
from .fields import ConstantField, Field, _normalize_shift
from ._kernels import PointLocator
from .space import Window


def _offset_length(space, k):
    d = space.dim
    vals = [abs(c) for c in k[:d]]
    base = max(vals) if space.metric == "linf" else sum(vals)
    if space.fiber > 1:
        df = abs(k[-1]) % space.fiber
        base += min(df, space.fiber - df)
    return base


class BandOperator:
    """Finite-propagation operator given by coefficient fields per offset."""

    def __init__(self, space, stencil):
        self.space = space
        norm = {}
        for k, f in stencil.items():
            k = _normalize_shift(space, k)
            if space.fiber > 1:
                k = k[:-1] + (k[-1] % space.fiber,)
            if not isinstance(f, Field):
                f = ConstantField(f)
            if f.is_zero():
                continue
            norm[k] = norm[k].plus(f) if k in norm else f
        self.stencil = {k: norm[k] for k in sorted(norm)}

    @property
    def propagation(self):
        if not self.stencil:
            return 0
        return max(_offset_length(self.space, k) for k in self.stencil)

    @property
    def exact(self):
        return all(f.exact for f in self.stencil.values())

    def coefficient(self, k):
        k = _normalize_shift(self.space, k)
        return self.stencil.get(k, ConstantField(0.0))

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
        point arrays)."""
        rows_pts, cols_pts = _points(rows), _points(cols)
        M = np.zeros((rows_pts.shape[0], cols_pts.shape[0]), dtype=np.complex128)
        if not rows_pts.size or not cols_pts.size:
            return M
        loc = PointLocator(cols_pts)
        for k, f in self.stencil.items():
            shifted = rows_pts + np.asarray(k, dtype=np.int64)[None, :]
            if self.space.fiber > 1:
                shifted[:, -1] %= self.space.fiber
            idx = loc.locate(shifted)
            ok = idx >= 0
            if ok.any():
                M[np.nonzero(ok)[0], idx[ok]] += f.eval(self.space, rows_pts[ok])
        return M

    def apply(self, vec, out_window):
        """Exact action on a finitely supported vector.

        vec maps points to values; its support must sit inside the output
        window shrunk by the propagation, so no contribution can fall outside
        the requested window.
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
            shifted = pts + np.asarray(k, dtype=np.int64)[None, :]
            if self.space.fiber > 1:
                shifted[:, -1] %= self.space.fiber
            src = np.asarray(
                [fdict.get(tuple(p), 0.0) for p in shifted.tolist()], dtype=np.complex128
            )
            hit = src != 0
            if hit.any():
                out[hit] += f.eval(self.space, pts[hit]) * src[hit]
        return out

    def to_descriptor(self):
        return {
            "stencil": [
                {"offset": list(k), "coeff": f.to_descriptor()}
                for k, f in self.stencil.items()
            ],
            "omega": self.propagation,
        }

    def __repr__(self):
        return f"BandOperator(offsets={list(self.stencil)}, omega={self.propagation})"


def _points(pts):
    return pts.points if isinstance(pts, Window) else np.asarray(pts)


def _abs_diagonal(A, pts):
    """|a(u, u)| at the given points."""
    f = A.stencil.get((0,) * A.space.point_arity)
    if f is None:
        return np.zeros(pts.shape[0])
    return np.abs(f.eval(A.space, pts))


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


def _diagonal_norm(A, rows_pts, cols_pts):
    """max |c(u)| over the points rows and cols share, for a multiplication
    operator; None where the dense SVD must decide (a repeated point, or a
    non-finite value)."""
    if not (rows_pts.size and cols_pts.size):
        return 0.0
    if _distinct_sorted(rows_pts) is None or _distinct_sorted(cols_pts) is None:
        return None
    shared = rows_pts[PointLocator(cols_pts).locate(rows_pts) >= 0]
    c = _abs_diagonal(A, shared)
    if not np.isfinite(c).all():
        return None
    return float(c.max()) if c.size else 0.0


def window_norm(A, rows, cols, p=2):
    """Norm of the two-sided truncation M_rows A M_cols.

    p = 2: largest singular value (float). For a multiplication operator
    (propagation 0) on a lattice the block is diagonal and this is max |c(u)|
    over the points rows and cols share, without forming the block; it
    equals the SVD value bitwise for real coefficients and to rounding for
    complex ones. Other operators, repeated points and non-finite
    coefficients (so that the SVD's error surfaces) take a dense SVD.
    Other p in (1, inf): certified interval (lower, upper).
    """
    if p == 2 and A.propagation == 0 and A.space.kind == "lattice":
        g = _diagonal_norm(A, _points(rows), _points(cols))
        if g is not None:
            return g
    M = A.block(rows, cols)
    if p == 2:
        if M.size == 0 or not np.any(M):
            return 0.0
        return float(np.linalg.svd(M, compute_uv=False)[0])
    return _pnorm_bounds(M, p)


def commutator_stack_norm(A, partition, scope, p=2):
    """Norm of the stacked commutators f -> ([A, M_phi_j] f)_j over tents of
    the partition, for f supported in the scope, with phi_j = rho_j^(1/p).

    p = 2 returns the exact stacked-block singular value via the Gram matrix;
    other exponents return a certified interval.
    """
    space = A.space
    omega = A.propagation
    rows = scope.pad(omega)
    lo_s, hi_s = partition.scope.bounds()
    lo_r, hi_r = rows.bounds()
    if (lo_s > lo_r).any() or (hi_s < hi_r).any():
        raise ScopeError(
            "partition scope does not cover the evaluation scope padded by the "
            "propagation; rebuild the partition with a larger scope"
        )
    block = A.block(rows, scope)
    rpts, cpts = rows.points, scope.points
    lo = np.minimum(lo_r, cpts[:, : space.dim].min(axis=0))
    hi = np.maximum(hi_r, cpts[:, : space.dim].max(axis=0))
    tents = partition.tents_meeting(lo, hi)
    if p == 2:
        G = np.zeros((cpts.shape[0], cpts.shape[0]), dtype=np.complex128)
        for j in tents:
            pc = partition.root_values(j, cpts, 2)
            pr = partition.root_values(j, rpts, 2)
            C = block * (pc[None, :] - pr[:, None])
            G += C.conj().T @ C
        lam = float(np.linalg.eigvalsh(G)[-1]) if np.any(G) else 0.0
        return float(np.sqrt(max(lam, 0.0)))
    stack = []
    for j in tents:
        pc = partition.root_values(j, cpts, p)
        pr = partition.root_values(j, rpts, p)
        stack.append(block * (pc[None, :] - pr[:, None]))
    return _pnorm_bounds(np.vstack(stack), p)


def bdo_diagnostic(A, t_grid, scope, p=2, partition_builder=None):
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
    build = partition_builder or (
        lambda t: build_partition(A.space, scope.pad(A.propagation), t)
    )
    values = []
    for t in t_grid:
        part = build(t)
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
    """Norm of A M_1F restricted to the scope: columns are the points of the
    scope satisfying the predicate, rows the scope padded by the
    propagation."""
    pts = scope.points
    keep = predicate.test(A.space, pts)
    if not keep.any():
        warnings.warn("predicate selects no scope point; restricted norm is 0")
        return 0.0 if p == 2 else (0.0, 0.0)
    cols = pts[keep]
    rows = scope.pad(A.propagation)
    M = A.block(rows, cols)
    if p == 2:
        return float(np.linalg.svd(M, compute_uv=False)[0]) if np.any(M) else 0.0
    return _pnorm_bounds(M, p)


def localized_norm(A, predicate, partition, scope, p=2):
    """max over scope centers x of the norm of A restricted to
    B[x, r_t] intersected with the predicate and the scope. Dominated by
    restricted_norm by construction (every local support is a subset)."""
    space = A.space
    pts = scope.points
    keep = predicate.test(space, pts)
    if not keep.any():
        warnings.warn("predicate selects no scope point; localized norm is 0")
        return 0.0
    rt = partition.support_diam
    rows = scope.pad(A.propagation)
    dmat = space.dist_block(pts, pts)
    best = 0.0
    seen = set()
    for i in range(pts.shape[0]):
        mask = (dmat[i] <= rt) & keep
        key = mask.tobytes()
        if key in seen or not mask.any():
            continue
        seen.add(key)
        M = A.block(rows, pts[mask])
        if np.any(M):
            if p == 2:
                best = max(best, float(np.linalg.svd(M, compute_uv=False)[0]))
            else:
                best = max(best, _pnorm_bounds(M, p)[0])
    return best


def operator_from_descriptor(space, desc):
    """Build a band operator from a descriptor, flattening composite
    expressions (sums, products, scalar multiples, adjoints, translates)
    eagerly into a single stencil."""
    from .fields import _parse_cplx, field_from_descriptor

    if not isinstance(desc, dict):
        raise InvalidConfigError("operator descriptor must be an object")
    kind = desc.get("kind", "band" if "stencil" in desc else None)
    if kind == "band":
        stencil = {}
        for item in desc["stencil"]:
            k = tuple(int(c) for c in item["offset"])
            f = field_from_descriptor(item.get("coeff", item.get("field")))
            stencil[k] = stencil[k].plus(f) if k in stencil else f
        return BandOperator(space, stencil)
    if kind == "identity":
        return identity(space)
    if kind == "laplacian":
        return laplacian_stencil(space)
    if kind == "shift":
        return shift_operator(space, tuple(int(c) for c in desc["v"]))
    if kind == "multiplication":
        return multiplication(space, field_from_descriptor(desc["field"]))
    if kind == "sum":
        terms = [operator_from_descriptor(space, t) for t in desc["terms"]]
        if not terms:
            raise InvalidConfigError("operator sum needs at least one term")
        out = terms[0]
        for t in terms[1:]:
            out = out + t
        return out
    if kind == "product":
        factors = [operator_from_descriptor(space, t) for t in desc["factors"]]
        if not factors:
            raise InvalidConfigError("operator product needs at least one factor")
        out = factors[0]
        for t in factors[1:]:
            out = out @ t
        return out
    if kind == "scaled":
        return operator_from_descriptor(space, desc["operator"]).scaled(
            _parse_cplx(desc["factor"])
        )
    if kind == "adjoint":
        return operator_from_descriptor(space, desc["operator"]).adjoint()
    if kind == "translated":
        return operator_from_descriptor(space, desc["operator"]).translated(
            tuple(int(c) for c in desc["x"])
        )
    raise InvalidConfigError(f"unknown operator kind {kind!r}")
