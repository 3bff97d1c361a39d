"""Coefficient fields: bounded functions on a space, one per stencil offset.

A field evaluates vectorized on point arrays and knows how to shift itself
(precompose with a translation), conjugate, and combine pointwise. Structural
field types (constant, periodic, finite table, indicator, seeded random,
expression) carry enough shape information for the limit machinery to take
translation limits symbolically where possible; combinators recurse.
"""

from functools import lru_cache

import numpy as np

from ._kernels import PointLocator
from .errors import InvalidConfigError, InvalidPointError
from .expr import Expression
from .space import _int_offset

_U64 = np.uint64


def _pad(space, v, what="point"):
    """Shift vectors and table keys may omit the fiber coordinate; fill it
    with 0. A non-integer entry is refused (``_int_offset``)."""
    v = _int_offset(v, what)
    if len(v) == space.dim and space.fiber > 1:
        v = v + (0,)
    if len(v) != space.point_arity:
        raise InvalidPointError(f"{what} {v} has arity {len(v)}, expected {space.point_arity}")
    return v


def _normalize_shift(space, v):
    if space.kind == "graph":
        raise InvalidConfigError("graph spaces carry no translation action")
    return _pad(space, v, "shift")


# limit scans rebuild operators on every conjugate, sum and difference, so
# each (space, offset) is normalised once
@lru_cache(maxsize=4096)
def _wrapped_shift(space, v):
    """A shift vector or stencil offset (a tuple), padded, with its fiber
    coordinate wrapped into 0..fiber-1."""
    return tuple(space.translate(_normalize_shift(space, v), 0).tolist())


def _moved_keys(space, keys, v):
    """The padded keys translated by -v, in order: where a field or set
    shifted by v keeps what it had at each key."""
    keys = np.asarray([_pad(space, k) for k in keys], dtype=np.int64)
    moved = space.translate(keys.reshape(-1, space.point_arity),
                            np.negative(_normalize_shift(space, v)))
    return list(map(tuple, moved.tolist()))


def _locate_keys(space, keys, pts):
    """Index of each point (int64 rows) among the padded keys, -1 where absent.
    Only the keys inside the points' bounding box are indexed, so keys spread
    far apart cannot overflow the locator's packed box."""
    keys = np.asarray(list(keys), dtype=np.int64).reshape(-1, space.point_arity)
    big = np.iinfo(np.int64)
    near = np.flatnonzero(((keys >= pts.min(axis=0, initial=big.max))
                           & (keys <= pts.max(axis=0, initial=big.min))).all(axis=1))
    return np.append(near, -1)[PointLocator(keys[near]).locate(pts)]  # a miss stays -1


class Field:
    """Base class; subclasses implement eval/bound/to_descriptor, and
    shifted/conj where they have a closed form (the fallbacks wrap the
    field)."""

    exact = True  # values are structurally known, not sampled estimates

    def eval(self, space, pts):
        raise NotImplementedError

    def bound(self, space):
        """(sup bound estimate, certified flag)."""
        raise NotImplementedError

    def shifted(self, space, v):
        return _GenericShifted(self, _wrapped_shift(space, tuple(v)))

    def conj(self):
        return _GenericConj(self)

    def scaled(self, c):
        """c times the field; a constant or periodic field stays one."""
        c = complex(c)
        if c == 1:
            return self
        if c == 0:
            return ConstantField(0.0)
        if isinstance(self, ConstantField):
            return ConstantField(self.value * c)
        if isinstance(self, PeriodicField):
            return PeriodicField(self.values * c, self.period)
        return ScaledField(self, c)

    def plus(self, other):
        if isinstance(self, ConstantField) and isinstance(other, ConstantField):
            return ConstantField(self.value + other.value)
        return SumField([self, other])

    def times(self, other):
        if isinstance(self, ConstantField) and isinstance(other, ConstantField):
            return ConstantField(self.value * other.value)
        return ProductField([self, other])

    def is_zero(self):
        return isinstance(self, ConstantField) and self.value == 0

    def to_descriptor(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_descriptor()})"


class ConstantField(Field):
    def __init__(self, value):
        self.value = complex(value)

    def eval(self, space, pts):
        return np.full(np.asarray(pts).reshape(-1, space.point_arity).shape[0],
                       self.value, dtype=np.complex128)

    def bound(self, space):
        return abs(self.value), True

    def shifted(self, space, v):
        return self

    def conj(self):
        return ConstantField(np.conj(self.value))

    def to_descriptor(self):
        return {"type": "constant", "value": _cplx(self.value)}


class PeriodicField(Field):
    """Values repeat with the given per-axis period over the lattice
    coordinates; an optional trailing axis of the value table indexes the
    fiber coordinate."""

    def __init__(self, values, period=None):
        self.values = np.asarray(values, dtype=np.complex128)
        if period is None:
            period = self.values.shape
        self.period = _int_offset(period, "period")
        if any(p < 1 for p in self.period):
            raise InvalidConfigError("periods must be positive")
        if self.values.shape[: len(self.period)] != self.period:
            raise InvalidConfigError(
                f"periodic table shape {self.values.shape} does not start with "
                f"the period {self.period}"
            )

    @property
    def fiber_resolved(self):
        return self.values.ndim == len(self.period) + 1

    def _table_ok(self, space):
        if self.values.ndim == len(self.period) and len(self.period) == space.dim:
            return
        if self.fiber_resolved and len(self.period) == space.dim \
                and self.values.shape[-1] == space.fiber:
            return
        raise InvalidConfigError(
            f"periodic table shape {self.values.shape} does not match dim "
            f"{space.dim} / fiber {space.fiber}"
        )

    def eval(self, space, pts):
        self._table_ok(space)
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, space.point_arity)
        idx = tuple(
            np.mod(pts[:, a], self.period[a]) for a in range(space.dim)
        )
        if self.fiber_resolved:
            idx = idx + (pts[:, -1],)
        return self.values[idx]

    def bound(self, space):
        return float(np.abs(self.values).max()), True

    def shifted(self, space, v):
        v = _normalize_shift(space, v)
        rolled = self.values
        for a in range(space.dim):
            rolled = np.roll(rolled, -v[a], axis=a)
        if self.fiber_resolved and space.fiber > 1:
            rolled = np.roll(rolled, -v[-1], axis=-1)
        return PeriodicField(rolled, self.period)

    def conj(self):
        return PeriodicField(np.conj(self.values), self.period)

    def to_descriptor(self):
        return {
            "type": "periodic",
            "period": list(self.period),
            "values": _cplx_array(self.values),
            "shape": list(self.values.shape),
        }


class ExpressionField(Field):
    def __init__(self, source):
        self.expression = source if isinstance(source, Expression) else Expression(source)
        self._bounds = {}

    def eval(self, space, pts):
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, space.point_arity)
        return np.asarray(self.expression.eval(pts.astype(np.float64)),
                          dtype=np.complex128)

    def bound(self, space):
        # no symbolic sup; sample a wide window around the origin, once per
        # space shape
        key = (space.kind, space.dim, space.fiber)
        if key not in self._bounds:
            self._bounds[key] = self._sampled_bound(space)
        return self._bounds[key]

    def _sampled_bound(self, space):
        rad = {1: 20000, 2: 300, 3: 40}.get(space.dim, 12)
        vals = self.eval(space, space.box_points([-rad] * space.dim, [rad] * space.dim))
        vals = vals[np.isfinite(vals)]
        return float(np.abs(vals).max()) if vals.size else 0.0, False

    def to_descriptor(self):
        return {"type": "expression", "source": self.expression.source}


class TableField(Field):
    """Finitely supported perturbation over a constant background."""

    def __init__(self, entries, default=0.0):
        self.default = complex(default)
        self.entries = {_int_offset(k, "table key"): complex(val)
                        for k, val in entries.items()}

    def eval(self, space, pts):
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, space.point_arity)
        out = np.full(pts.shape[0], self.default, dtype=np.complex128)
        # keys padded to the same point keep the last value, as in shifted
        table = {_pad(space, k): v for k, v in self.entries.items()}
        idx = _locate_keys(space, table, pts)
        hit = idx >= 0
        out[hit] = np.asarray(list(table.values()), dtype=np.complex128)[idx[hit]]
        return out

    def bound(self, space):
        vals = [abs(self.default)] + [abs(v) for v in self.entries.values()]
        return max(vals), True

    def shifted(self, space, v):
        return TableField(dict(zip(_moved_keys(space, self.entries, v), self.entries.values())),
                          self.default)

    def conj(self):
        return TableField({k: np.conj(v) for k, v in self.entries.items()},
                          np.conj(self.default))

    def to_descriptor(self):
        return {
            "type": "table",
            "default": _cplx(self.default),
            "entries": [
                {"point": list(k), "value": _cplx(v)}
                for k, v in sorted(self.entries.items())
            ],
        }


def _splitmix(state):
    with np.errstate(over="ignore"):
        z = state + _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


class SeededRandomField(Field):
    """Pseudorandom but fully deterministic values: each point is hashed
    (together with the seed) by a splitmix64 chain, so evaluation order,
    chunking, and thread count cannot change the values.

    Modes: "disk" (uniform on the closed unit disk), "phase" (uniform on the
    unit circle), "real" (uniform on [-1, 1]).
    """

    exact = False

    def __init__(self, seed, mode="disk", scale=1.0):
        if mode not in ("disk", "phase", "real"):
            raise InvalidConfigError(f"unknown random mode {mode!r}")
        self.seed = int(seed)
        self.mode = mode
        self.scale = complex(scale)

    def _hash(self, pts, salt):
        state = np.full(pts.shape[0], _U64(self.seed & 0xFFFFFFFFFFFFFFFF))
        state = _splitmix(state + _U64(salt))
        with np.errstate(over="ignore"):
            for a in range(pts.shape[1]):
                col = pts[:, a].astype(np.int64).view(np.uint64)
                state = _splitmix(state ^ (col * _U64(0x9E3779B97F4A7C15 + 2 * a + 1)))
        return (state >> _U64(11)).astype(np.float64) * (2.0 ** -53)

    def eval(self, space, pts):
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, space.point_arity)
        u1 = self._hash(pts, 1)
        if self.mode == "phase":
            vals = np.exp(2j * np.pi * u1)
        elif self.mode == "real":
            vals = (2.0 * u1 - 1.0).astype(np.complex128)
        else:
            u2 = self._hash(pts, 2)
            vals = np.sqrt(u1) * np.exp(2j * np.pi * u2)
        return self.scale * vals

    def bound(self, space):
        return abs(self.scale), True

    def to_descriptor(self):
        return {"type": "seededRandom", "seed": self.seed, "mode": self.mode,
                "scale": _cplx(self.scale)}


# -- indicator fields and predicates ----------------------------------------


class Predicate:
    def test(self, space, pts):
        raise NotImplementedError

    def shifted(self, space, v):
        raise NotImplementedError

    def to_descriptor(self):
        raise NotImplementedError


class FullPredicate(Predicate):
    def test(self, space, pts):
        return np.ones(np.asarray(pts).reshape(-1, space.point_arity).shape[0], dtype=bool)

    def shifted(self, space, v):
        return self

    def to_descriptor(self):
        return {"type": "full"}


class EmptyPredicate(Predicate):
    def test(self, space, pts):
        return np.zeros(np.asarray(pts).reshape(-1, space.point_arity).shape[0], dtype=bool)

    def shifted(self, space, v):
        return self

    def to_descriptor(self):
        return {"type": "empty"}


class HalfspacePredicate(Predicate):
    """normal . x >= threshold over the lattice coordinates."""

    def __init__(self, normal, threshold):
        self.normal = tuple(float(c) for c in normal)
        self.threshold = float(threshold)
        if all(c == 0 for c in self.normal):
            raise InvalidConfigError("halfspace normal must be nonzero")

    def test(self, space, pts):
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, space.point_arity)
        if len(self.normal) != space.dim:
            raise InvalidConfigError("halfspace normal arity != space dim")
        dots = pts[:, : space.dim].astype(np.float64) @ np.asarray(self.normal)
        return dots >= self.threshold

    def shifted(self, space, v):
        v = _normalize_shift(space, v)
        dot = sum(a * b for a, b in zip(self.normal, v))
        return HalfspacePredicate(self.normal, self.threshold - dot)

    def to_descriptor(self):
        return {"type": "halfspace", "normal": list(self.normal),
                "threshold": self.threshold}


class SublatticePredicate(Predicate):
    """x == residue (mod modulus), per lattice axis."""

    def __init__(self, modulus, residue=None):
        self.modulus = _int_offset(modulus, "modulus")
        if any(m < 1 for m in self.modulus):
            raise InvalidConfigError("moduli must be positive")
        if residue is None:
            residue = (0,) * len(self.modulus)
        self.residue = tuple(r % m for r, m in
                             zip(_int_offset(residue, "residue"), self.modulus))

    def test(self, space, pts):
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, space.point_arity)
        ok = np.ones(pts.shape[0], dtype=bool)
        for a, (m, r) in enumerate(zip(self.modulus, self.residue)):
            ok &= np.mod(pts[:, a], m) == r
        return ok

    def shifted(self, space, v):
        v = _normalize_shift(space, v)
        res = tuple((r - w) % m for r, w, m in zip(self.residue, v, self.modulus))
        return SublatticePredicate(self.modulus, res)

    def to_descriptor(self):
        return {"type": "sublattice", "modulus": list(self.modulus),
                "residue": list(self.residue)}


class FiniteSetPredicate(Predicate):
    def __init__(self, points):
        self.points = {_int_offset(p, "point") for p in points}

    def test(self, space, pts):
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, space.point_arity)
        return _locate_keys(space, {_pad(space, p) for p in self.points}, pts) >= 0

    def shifted(self, space, v):
        return FiniteSetPredicate(_moved_keys(space, self.points, v))

    def to_descriptor(self):
        return {"type": "finiteSet", "points": sorted(list(p) for p in self.points)}


class ExpressionPredicate(Predicate):
    """expr(x) > 0. ``source`` is a source, an Expression or the (shifted)
    ExpressionField to test; a shift is the field's own, so a
    ``_GenericShifted`` owns the offset and wraps its fiber coordinate."""

    def __init__(self, source, offset=None):
        field = source if isinstance(source, Field) else ExpressionField(source)
        self.field = _GenericShifted(field, offset) if offset else field

    @property
    def offset(self):
        return getattr(self.field, "offset", None)

    def test(self, space, pts):
        return np.real(self.field.eval(space, pts)) > 0

    def shifted(self, space, v):
        return ExpressionPredicate(self.field.shifted(space, v))

    def to_descriptor(self):
        unshifted = getattr(self.field, "base", self.field)
        d = {"type": "expressionPredicate", "source": unshifted.expression.source}
        if self.offset:
            d["offset"] = list(self.offset)
        return d


class NotPredicate(Predicate):
    def __init__(self, base):
        self.base = base

    def test(self, space, pts):
        return ~self.base.test(space, pts)

    def shifted(self, space, v):
        return NotPredicate(self.base.shifted(space, v))

    def to_descriptor(self):
        return {"type": "not", "base": self.base.to_descriptor()}


class AndPredicate(Predicate):
    def __init__(self, parts):
        self.parts = list(parts)

    def test(self, space, pts):
        out = np.ones(np.asarray(pts).reshape(-1, space.point_arity).shape[0], dtype=bool)
        for p in self.parts:
            out &= p.test(space, pts)
        return out

    def shifted(self, space, v):
        return AndPredicate([p.shifted(space, v) for p in self.parts])

    def to_descriptor(self):
        return {"type": "and", "parts": [p.to_descriptor() for p in self.parts]}


class IndicatorField(Field):
    def __init__(self, predicate):
        self.predicate = predicate

    def eval(self, space, pts):
        return self.predicate.test(space, pts).astype(np.complex128)

    def bound(self, space):
        return 1.0, True

    def shifted(self, space, v):
        return IndicatorField(self.predicate.shifted(space, v))

    def conj(self):
        return self

    def to_descriptor(self):
        return {"type": "indicator", "predicate": self.predicate.to_descriptor()}


# -- combinators -------------------------------------------------------------


class _FoldField(Field):
    """Pointwise left fold of the parts by one ufunc; shifts and conjugates
    go to the parts."""

    tag = op = total = None  # descriptor tag, ufunc, total of the part bounds

    def __init__(self, parts):
        self.parts = list(parts)

    @property
    def exact(self):
        return all(p.exact for p in self.parts)

    def eval(self, space, pts):
        out = self.parts[0].eval(space, pts).copy()
        for p in self.parts[1:]:
            self.op(out, p.eval(space, pts), out=out)
        return out

    def bound(self, space):
        vals, certs = zip(*(p.bound(space) for p in self.parts))
        return float(self.total(vals)), all(certs)

    def shifted(self, space, v):
        return type(self)([p.shifted(space, v) for p in self.parts])

    def conj(self):
        return type(self)([p.conj() for p in self.parts])

    def to_descriptor(self):
        return {"type": self.tag, "parts": [p.to_descriptor() for p in self.parts]}


class SumField(_FoldField):
    tag, op, total = "sum", np.add, sum

    def __init__(self, parts):
        super().__init__(q for p in parts
                         for q in (p.parts if isinstance(p, SumField) else [p]))


class ProductField(_FoldField):
    tag, op, total = "product", np.multiply, staticmethod(np.prod)


class _Wrapper(Field):
    """A field made from one base field; it is exact when the base is and,
    unless it says otherwise, has the base's bound."""

    def __init__(self, base):
        self.base = base

    @property
    def exact(self):
        return self.base.exact

    def bound(self, space):
        return self.base.bound(space)


class ScaledField(_Wrapper):
    def __init__(self, base, factor):
        super().__init__(base)
        self.factor = complex(factor)

    def eval(self, space, pts):
        return self.factor * self.base.eval(space, pts)

    def bound(self, space):
        v, c = self.base.bound(space)
        return abs(self.factor) * v, c

    def shifted(self, space, v):
        return ScaledField(self.base.shifted(space, v), self.factor)

    def conj(self):
        return ScaledField(self.base.conj(), np.conj(self.factor))

    def scaled(self, c):
        return self.base.scaled(self.factor * complex(c))

    def to_descriptor(self):
        return {"type": "scaled", "factor": _cplx(self.factor),
                "base": self.base.to_descriptor()}


class _GenericShifted(_Wrapper):
    """Fallback shift wrapper for fields without a closed-form translate."""

    def __init__(self, base, offset):
        offset = _int_offset(offset)
        if isinstance(base, _GenericShifted):
            offset = tuple(a + b for a, b in zip(base.offset, offset))
            base = base.base
        super().__init__(base)
        self.offset = offset

    def eval(self, space, pts):
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, space.point_arity)
        return self.base.eval(space, space.translate(pts, self.offset))

    def shifted(self, space, v):
        v = _wrapped_shift(space, tuple(v))
        if not any(v):
            return self
        total = tuple(space.translate(self.offset, v).tolist())
        if all(c == 0 for c in total):
            return self.base
        return _GenericShifted(self.base, total)

    def conj(self):
        return _GenericShifted(self.base.conj(), self.offset)

    def to_descriptor(self):
        return {"type": "shifted", "offset": list(self.offset),
                "base": self.base.to_descriptor()}


class _GenericConj(_Wrapper):
    def eval(self, space, pts):
        return np.conj(self.base.eval(space, pts))

    def shifted(self, space, v):
        return _GenericConj(self.base.shifted(space, v))

    def conj(self):
        return self.base

    def to_descriptor(self):
        return {"type": "conj", "base": self.base.to_descriptor()}


# -- serialization -----------------------------------------------------------


def _cplx(z):
    z = complex(z)
    if z.imag == 0:
        return z.real
    return {"re": z.real, "im": z.imag}


def _cplx_array(arr):
    return [_cplx(z) for z in np.asarray(arr).reshape(-1)]

