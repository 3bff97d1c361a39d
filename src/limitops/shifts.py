"""Translation conjugates and limit operators along sequences to infinity.

Limits are indexed by user-declared sequences (rays, explicit point lists,
subsequences); structurally convergent coefficient classes (constant,
periodic along a compatible ray, finitely supported, half-space indicators)
get their limits symbolically with exact certificates, everything else goes
through a doubling-index Cauchy scan in window norms. Divergence is reported
as a value (with a witness), not raised.
"""

from dataclasses import dataclass, field as dc_field
from functools import reduce
from math import gcd, lcm

import numpy as np

from .errors import InvalidConfigError, UnsupportedConstructionError
from .fields import (
    AndPredicate,
    ConstantField,
    EmptyPredicate,
    Field,
    FiniteSetPredicate,
    FullPredicate,
    HalfspacePredicate,
    IndicatorField,
    NotPredicate,
    PeriodicField,
    ProductField,
    ScaledField,
    SublatticePredicate,
    SumField,
    TableField,
    _GenericConj,
    _GenericShifted,
    _normalize_shift,
)
# window_norm stays bound here for callers that read limitops.shifts.window_norm
from .operator import BandOperator, _coefficient_values, _window_upper, window_norm  # noqa: F401
from .space import Window, basepoint_windows


@dataclass(frozen=True)
class Ray:
    """x_n = n * direction + offset."""

    direction: tuple
    offset: tuple = ()
    label: str = ""

    def bind(self, space):
        v = _normalize_shift(space, self.direction)
        if all(c == 0 for c in v[: space.dim]):
            raise InvalidConfigError("ray direction must be nonzero in the lattice part")
        w = _normalize_shift(space, self.offset) if self.offset else (0,) * space.point_arity
        name = self.label or f"ray{list(v)}+{list(w)}"
        return _BoundRay(space, v, w, name)

    def subsequence(self, modulus, residue=0):
        """The arithmetic subsequence n -> residue + n * modulus, itself a
        ray."""
        v = tuple(c * modulus for c in self.direction)
        base = self.offset or (0,) * len(self.direction)
        w = tuple(b + residue * c for b, c in zip(base, self.direction))
        return Ray(v, w, label=(self.label or "ray") + f"[{residue} mod {modulus}]")

    def to_descriptor(self):
        out = {"kind": "ray", "label": self.label, "v": list(self.direction)}
        return {**out, "w": list(self.offset)} if self.offset else out


class _BoundRay:
    def __init__(self, space, v, w, label):
        self.space, self.v, self.w, self.label = space, v, w, label
        self.finite = None

    def points(self, ns):
        """The points w + n v of the space, as an int64 array over ns."""
        return self.space.translate(self.w, np.multiply.outer(ns, self.v))

    def point(self, n):
        return tuple(self.points(n).tolist())


@dataclass(frozen=True)
class ExplicitSequence:
    """A user-supplied point sequence; must wander off to infinity."""

    points: tuple
    label: str = "explicit"

    def bind(self, space):
        pts = [space._check_point(p) for p in self.points]
        if len(pts) < 2:
            raise InvalidConfigError("explicit sequence needs at least two points")
        d0 = space.dist(space.basepoint, pts[0])
        d1 = space.dist(space.basepoint, pts[-1])
        if d1 <= d0:
            raise InvalidConfigError(
                "explicit sequence does not move away from the basepoint"
            )
        return _BoundExplicit(pts, self.label)

    def to_descriptor(self):
        return {"kind": "explicit", "label": self.label,
                "points": [list(p) if isinstance(p, tuple) else p for p in self.points]}


class _BoundExplicit:
    def __init__(self, pts, label):
        self.pts, self.label = pts, label
        self.finite = len(pts)

    def point(self, n):
        return self.pts[min(n, len(self.pts) - 1)]


@dataclass(frozen=True)
class Subsequence:
    """Index-restricted view of a parent sequence."""

    parent: object
    indices: tuple
    label: str = "subsequence"

    def bind(self, space):
        par = self.parent.bind(space)
        idx = tuple(int(i) for i in self.indices)
        if list(idx) != sorted(set(idx)):
            raise InvalidConfigError("subsequence indices must be strictly increasing")
        return _BoundExplicit([par.point(i) for i in idx], self.label)

    def to_descriptor(self):
        return {"kind": "subsequence", "label": self.label,
                "parent": self.parent.to_descriptor(), "indices": list(self.indices)}


@dataclass
class LimitOperator:
    op: BandOperator
    sequence_label: str
    exact: bool
    certificate: list  # (radius, shift index, achieved window-norm gap)
    message: str = ""

    def verify(self, A, seq, p=2):
        """Recompute every certificate entry; returns the largest deviation
        from the recorded gaps."""
        bound = seq.bind(A.space)
        omega = max(A.propagation, self.op.propagation)
        window = basepoint_windows(A.space)
        worst = 0.0
        for radius, n, gap in self.certificate:
            x = bound.point(n)
            g = _gap(A, conjugate(A, x) - self.op, window(radius), window(radius + omega), p, x)
            worst = max(worst, abs(g - gap))
        return worst

    def to_descriptor(self):
        return {
            "sequence": self.sequence_label,
            "exact": self.exact,
            "operator": self.op.to_descriptor(),
            "certificate": [
                {"radius": r, "index": n, "gap": g} for r, n, g in self.certificate
            ],
            "message": self.message,
        }


@dataclass
class DivergenceReport:
    sequence_label: str
    witness_indices: tuple
    radius: float
    gap: float
    message: str
    suggested: list = dc_field(default_factory=list)

    def to_descriptor(self):
        return {
            "sequence": self.sequence_label,
            "witnessIndices": list(self.witness_indices),
            "radius": self.radius,
            "gap": self.gap,
            "message": self.message,
            "suggested": self.suggested,
        }


def conjugate(A, x):
    """U_x A U_x^{-1}: every coefficient becomes c_k(. + x); the propagation
    is unchanged because the shift is an isometry."""
    if A.space.kind == "graph":
        raise UnsupportedConstructionError(
            "graph spaces carry no declared transitive shift action"
        )
    return A.translated(x)


class _Divergent(Exception):
    def __init__(self, n1, n2, detail, suggested=None):
        self.n1, self.n2, self.detail = n1, n2, detail
        self.suggested = suggested or []


def _orbit_length(moduli, steps):
    """Length of the orbit of n * step modulo the moduli: the lcm over axes
    of m / gcd(step, m)."""
    return lcm(1, *(m // gcd(int(c), m) for m, c in zip(moduli, steps)))


def _residue_rays(space, ray, q):
    """Descriptors of the subsequence rays of the first residues r mod q,
    suggested by a divergence report."""
    d = space.dim
    return [{"kind": "ray", "v": [q * c for c in ray.v[:d]],
             "w": [b + r * c for b, c in zip(ray.w[:d], ray.v)],
             "label": f"residue {r} mod {q}"} for r in range(min(q, 4))]


def _periodic_limit(space, f, ray):
    # orbit of n*v modulo the period lattice (and the fiber, if resolved)
    fiber = f.fiber_resolved and space.fiber > 1
    q = _orbit_length(f.period + ((space.fiber,) if fiber else ()),
                      ray.v[: space.dim] + (ray.v[-1:] if fiber else ()))
    base = f.shifted(space, ray.w)
    # rolls compose, so the table at x_n equals the base for every n exactly
    # when it does at n = 1: one comparison decides, with witness (0, 1)
    if q > 1 and not np.array_equal(base.values, f.shifted(space, ray.point(1)).values):
        raise _Divergent(0, 1, f"periodic field cycles with period {q} along the ray",
                         suggested=_residue_rays(space, ray, q))
    return base


def _halfspace_limit(space, pred, ray):
    drift = sum(a * b for a, b in zip(pred.normal, ray.v[: space.dim]))
    if drift > 0:
        return FullPredicate()
    if drift < 0:
        return EmptyPredicate()
    return pred.shifted(space, ray.w)


def _sublattice_limit(space, pred, ray):
    q = _orbit_length(pred.modulus, ray.v[: space.dim])
    if q == 1:
        return pred.shifted(space, ray.w)
    raise _Divergent(0, 1, f"sublattice indicator alternates with period {q}",
                     suggested=_residue_rays(space, ray, q))


def _predicate_limit(space, pred, ray):
    if isinstance(pred, (FullPredicate, EmptyPredicate)):
        return pred
    if isinstance(pred, HalfspacePredicate):
        return _halfspace_limit(space, pred, ray)
    if isinstance(pred, SublatticePredicate):
        return _sublattice_limit(space, pred, ray)
    if isinstance(pred, FiniteSetPredicate):
        return EmptyPredicate()
    if isinstance(pred, NotPredicate):
        inner = _predicate_limit(space, pred.base, ray)
        if inner is None:
            return None
        if isinstance(inner, FullPredicate):
            return EmptyPredicate()
        if isinstance(inner, EmptyPredicate):
            return FullPredicate()
        return NotPredicate(inner)
    if isinstance(pred, AndPredicate):
        parts = [_predicate_limit(space, p, ray) for p in pred.parts]
        if any(p is None for p in parts):
            return None
        if any(isinstance(p, EmptyPredicate) for p in parts):
            return EmptyPredicate()
        parts = [p for p in parts if not isinstance(p, FullPredicate)]
        if not parts:
            return FullPredicate()
        return AndPredicate(parts) if len(parts) > 1 else parts[0]
    return None


def _analytic_limit(space, f, ray):
    """Symbolic limit of a field along a bound ray; None when unknown."""
    if isinstance(f, ConstantField):
        return f
    if isinstance(f, PeriodicField):
        return _periodic_limit(space, f, ray)
    if isinstance(f, TableField):
        return ConstantField(f.default)
    if isinstance(f, IndicatorField):
        p = _predicate_limit(space, f.predicate, ray)
        if p is None:
            return None
        if isinstance(p, FullPredicate):
            return ConstantField(1.0)
        if isinstance(p, EmptyPredicate):
            return ConstantField(0.0)
        return IndicatorField(p)
    if isinstance(f, ScaledField):
        inner = _analytic_limit(space, f.base, ray)
        return None if inner is None else inner.scaled(f.factor)
    if isinstance(f, _GenericConj):
        inner = _analytic_limit(space, f.base, ray)
        return None if inner is None else inner.conj()
    if isinstance(f, _GenericShifted):
        moved = _BoundRay(space, ray.v, tuple(a + b for a, b in zip(ray.w, f.offset)),
                          ray.label)
        return _analytic_limit(space, f.base, moved)
    if isinstance(f, (SumField, ProductField)):
        parts = [_analytic_limit(space, p, ray) for p in f.parts]
        if any(p is None for p in parts):
            return None
        return reduce(Field.plus if isinstance(f, SumField) else Field.times, parts)
    return None


def _schedule(budget):
    n = 1
    while n <= budget:
        yield n
        n *= 2


def _gap(A, diff, rows, cols, p, *shifts, floor=None):
    """``_window_upper`` of a difference of conjugates of A; None for a gap
    that cannot read <= floor. The gap windows cover A's stencil, so the
    gap is decided from coefficient values and a block is formed only to
    be valued. A non-finite coefficient is named at the user's points: A's
    own coefficients on the gap rows moved by each of ``shifts`` in turn,
    in stencil order, raise at the first that holds it, as A's block on
    the moved windows would."""
    try:
        return _window_upper(diff, rows, cols, p, floor)
    except InvalidConfigError:
        space = A.space
        for x in shifts:
            moved = space.translate(rows.points, _normalize_shift(space, x))
            for k, f in A.stencil.items():
                _coefficient_values(space, k, f, moved)
        raise


def _check_tolerance(tol, name="tolerance"):
    """Refuse a tolerance (or a level such as tau, by its ``name``) that is
    nan or negative, which no value can meet, rather than clamp it."""
    if not tol >= 0:
        raise InvalidConfigError(f"{name} {tol} must be a number >= 0")


def limit_operator(A, seq, radii=(5, 10, 20), tol=1e-8, budget=2 ** 20, p=2):
    """Limit of the conjugates of A along the sequence, or a divergence
    report.

    Structurally convergent coefficients give an exact limit; the certificate
    still records measured window-norm gaps (which are then exactly zero from
    the settling index on). Otherwise conjugates are compared along a doubling
    index schedule until the gaps fall below tol on every requested radius.
    A gap whose block holds an entry above twice the settle threshold cannot
    settle, so it takes no SVD; it is valued only where the result reads it:
    the skipped steps of a radius that never settles, in index order, and
    the last step's gaps of a divergence report. The gap windows cover the
    stencil, so a gap is decided from its coefficient values: its dense
    block is formed only where it is valued, and an all-zero gap is
    exactly 0.0 without one.
    A non-finite coefficient of A raises InvalidConfigError naming it at
    the user's point: on the smallest gap windows before the scan, and in a
    later gap with u and v moved out of the conjugate's frame. A tol that
    is nan or negative is refused.
    """
    _check_tolerance(tol)
    if budget < 1:
        raise InvalidConfigError(f"limit budget {budget} must be at least 1")
    if not radii:
        raise InvalidConfigError("limit_operator needs at least one radius")
    space = A.space
    if space.kind == "graph":
        raise UnsupportedConstructionError(
            "graph spaces carry no declared transitive shift action"
        )
    bound = seq.bind(space)
    radii = sorted(radii)
    omega = A.propagation
    # the gap windows of each radius, built once for the whole scan
    window = basepoint_windows(space)
    pairs = {r: (window(r), window(r + omega)) for r in radii}
    # A's own coefficients on the smallest gap rows name a non-finite one as
    # written, before a gap turns it into nan (inf - inf)
    rows = pairs[radii[0]][0].points
    for k, f in A.stencil.items():
        _coefficient_values(space, k, f, rows)

    analytic = None
    if isinstance(bound, _BoundRay):
        try:
            limits = {k: _analytic_limit(space, f, bound) for k, f in A.stencil.items()}
            if all(v is not None for v in limits.values()):
                analytic = BandOperator(space, limits)
        except _Divergent as d:
            x1, x2 = bound.point(d.n1), bound.point(d.n2)
            g = _gap(A, conjugate(A, x1) - conjugate(A, x2), *pairs[radii[-1]], p, x1, x2)
            return DivergenceReport(
                sequence_label=bound.label,
                witness_indices=(d.n1, d.n2),
                radius=radii[-1],
                gap=g,
                message=d.detail,
                suggested=d.suggested,
            )

    if analytic is not None:
        # one doubling scan: each conjugate's difference serves every radius
        # not yet settled; a gap that cannot settle stays unvalued (None)
        settle = max(tol * 1e-3, 1e-14)
        steps = [[] for _ in radii]
        unsettled = list(range(len(radii)))
        for n in _schedule(budget):
            x = bound.point(n)
            diff = conjugate(A, x) - analytic
            for i in list(unsettled):
                g = _gap(A, diff, *pairs[radii[i]], p, x, floor=settle)
                steps[i].append((n, x, diff, g))
                if g is not None and g <= settle:
                    unsettled.remove(i)
            if not unsettled:
                break
        # each radius keeps its first smallest gap; a skipped gap exceeds a
        # settling one, so only a radius that never settled values them
        best = []
        for i, radius in enumerate(radii):
            b = (radius, None, np.inf)
            for n, x, diff, g in steps[i]:
                if g is None and i in unsettled:
                    g = _gap(A, diff, *pairs[radius], p, x)
                if g is not None and g < b[2]:
                    b = (radius, n, g)
            best.append(b)
        return LimitOperator(op=analytic, sequence_label=bound.label, exact=True,
                             certificate=best)

    # numeric path: a step with a skipped gap is not settled
    maxrad = radii[-1]
    sample = window(maxrad + omega)
    prev_idx, prev = None, None
    settled_at = None
    last = None
    for n in _schedule(budget):
        if bound.finite is not None and n >= bound.finite:
            n = bound.finite - 1
        cur = conjugate(A, bound.point(n))
        if prev is not None:
            diff, shifts = cur - prev, (bound.point(n), bound.point(prev_idx))
            gaps = [_gap(A, diff, *pairs[r], p, *shifts, floor=tol) for r in radii]
            last = (prev_idx, n, diff, shifts, gaps)
            if None not in gaps and max(gaps) <= tol:
                settled_at = n
                break
        prev_idx, prev = n, cur
        if bound.finite is not None and n >= bound.finite - 1:
            break
    if settled_at is None:
        n1, n2, gaps = 0, 0, [np.inf]
        if last:
            # the report reads the last step's gaps: value the skipped ones
            n1, n2, diff, shifts, gaps = last
            gaps = [_gap(A, diff, *pairs[r], p, *shifts) if g is None else g
                    for r, g in zip(radii, gaps)]
        return DivergenceReport(
            sequence_label=bound.label,
            witness_indices=(n1, n2),
            radius=radii[int(np.argmax(gaps))],
            gap=float(max(gaps)),
            message="conjugates failed the Cauchy test within the index budget",
        )

    final = conjugate(A, bound.point(settled_at))
    stencil = {}
    collapse_note = []
    for k, f in final.stencil.items():
        vals = f.eval(space, sample.points)
        mean = complex(vals.mean())
        if np.max(np.abs(vals - mean)) <= tol:
            stencil[k] = ConstantField(mean)
            collapse_note.append(f"offset {k}: constant")
        else:
            entries = {tuple(pt): complex(v)
                       for pt, v in zip(map(tuple, sample.points.tolist()), vals)}
            stencil[k] = TableField(entries, default=mean)
    limit = BandOperator(space, stencil)
    cert = []
    for radius in radii:
        cert.append((radius, settled_at,
                     _gap(A, final - limit, *pairs[radius], p, bound.point(settled_at))))
    msg = ("coefficients sampled on the certificate windows; values beyond "
           "radius %d are extrapolated" % (maxrad + omega))
    return LimitOperator(op=limit, sequence_label=bound.label, exact=False,
                         certificate=cert, message=msg)


def limit_set(space, predicate, seq, radii=(5, 10, 20), tol=1e-8, budget=2 ** 20):
    """Limit of the translated set indicator along the sequence: a predicate,
    or a divergence report for oscillating sets."""
    out = limit_operator(
        BandOperator(space, {(0,) * space.point_arity: IndicatorField(predicate)}),
        seq, radii=radii, tol=tol, budget=budget,
    )
    if isinstance(out, DivergenceReport):
        return out
    f = out.op.coefficient((0,) * space.point_arity)
    if isinstance(f, IndicatorField):
        return f.predicate
    if isinstance(f, ConstantField):
        if abs(f.value - 1) <= tol:
            return FullPredicate()
        if abs(f.value) <= tol:
            return EmptyPredicate()
    # sampled 0/1 table: report the points present on the certified window
    pts = Window(space, space.basepoint, max(radii)).points
    vals = f.eval(space, pts)
    return FiniteSetPredicate(
        {tuple(p) for p, v in zip(map(tuple, pts.tolist()), vals) if abs(v - 1) <= 0.5}
    )


def limit_algebra_check(A, B, seq, radii=(5, 10, 20), tol=1e-8, p=2):
    """Window-norm defects of (A+B)_x vs A_x + B_x and (AB)_x vs A_x B_x."""
    la = limit_operator(A, seq, radii=radii, tol=tol, p=p)
    if isinstance(la, DivergenceReport):
        return la
    lb = limit_operator(B, seq, radii=radii, tol=tol, p=p)
    if isinstance(lb, DivergenceReport):
        return lb
    ls = limit_operator(A + B, seq, radii=radii, tol=tol, p=p)
    if isinstance(ls, DivergenceReport):
        return ls
    lp = limit_operator(A @ B, seq, radii=radii, tol=tol, p=p)
    if isinstance(lp, DivergenceReport):
        return lp
    window = basepoint_windows(A.space)
    sum_defects, prod_defects = [], []
    omega_s = max(ls.op.propagation, (la.op + lb.op).propagation)
    omega_p = max(lp.op.propagation, (la.op @ lb.op).propagation)
    for radius in radii:
        sum_defects.append(_window_upper(ls.op - (la.op + lb.op), window(radius),
                                         window(radius + omega_s), p))
        prod_defects.append(_window_upper(lp.op - (la.op @ lb.op), window(radius),
                                          window(radius + omega_p), p))
    combined = 2 * tol
    return {
        "sum_defects": sum_defects,
        "product_defects": prod_defects,
        "tolerance": combined,
        "ok": max(sum_defects + prod_defects) <= combined,
        "limits": {"A": la, "B": lb, "A+B": ls, "AB": lp},
    }


def subsequence_targeting(space, field, ray, value, count=8, tol=1e-2,
                          budget=2 ** 16, start=1):
    """Indices n along the ray where the field at x_n is within tol of the
    target value; used to refine a ray toward a declared accumulation value of
    a slowly oscillating coefficient."""
    bound = ray.bind(space)
    hits = []
    chunk = 4096
    n = start
    while n <= budget and len(hits) < count:
        ns = np.arange(n, min(n + chunk, budget + 1))
        vals = field.eval(space, bound.points(ns))
        ok = np.abs(vals - value) <= tol
        for m in ns[ok]:
            if not hits or m > hits[-1]:
                hits.append(int(m))
                if len(hits) >= count:
                    break
        n += chunk
    if len(hits) < 2:
        raise InvalidConfigError(
            f"no subsequence hits for target {value} within the budget"
        )
    return Subsequence(ray, tuple(hits), label=f"{ray.label or 'ray'}->"
                       f"{np.round(value, 6)}")
