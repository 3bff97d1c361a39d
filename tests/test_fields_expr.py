import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitops import (
    AndPredicate,
    ConstantField,
    ExpressionField,
    ExpressionPredicate,
    FiniteSetPredicate,
    HalfspacePredicate,
    IndicatorField,
    InvalidConfigError,
    InvalidPointError,
    NotPredicate,
    PeriodicField,
    ScaledField,
    SeededRandomField,
    Space,
    SublatticePredicate,
    TableField,
    field_from_descriptor,
    predicate_from_descriptor,
)
from limitops.expr import Expression
from limitops.fields import Field, _GenericConj, _GenericShifted


def pts1(*xs):
    return np.asarray([[x] for x in xs], dtype=np.int64)


# -- expression language -------------------------------------------------------


def test_expression_precedence_and_power():
    x = np.zeros((1, 1))
    assert Expression("2+3*4").eval(x)[0] == 14
    assert Expression("(2+3)*4").eval(x)[0] == 20
    assert Expression("2^3^2").eval(x)[0] == 512  # right associative
    assert Expression("2**3**2").eval(x)[0] == 512
    assert Expression("-3^2").eval(x)[0] == -9
    assert Expression("6/4").eval(x)[0] == 1.5


def test_expression_variables_and_constants():
    pts = np.asarray([[3.0, -2.0], [0.0, 5.0]])
    e = Expression("n1*n2")
    assert np.allclose(e.eval(pts), [-6.0, 0.0])
    assert Expression("n").max_variable() == 1
    assert Expression("n2 + 0*n1").max_variable() == 2
    one = np.zeros((1, 1))
    assert np.isclose(Expression("cos(pi)").eval(one)[0], -1.0)
    assert np.isclose(Expression("exp(1) - e").eval(one)[0], 0.0)
    v = Expression("i*i").eval(one)[0]
    assert np.isclose(v, -1.0)


def test_expression_functions():
    pts = np.asarray([[4.0]])
    assert np.isclose(Expression("sqrt(abs(n))").eval(pts)[0], 2.0)
    assert np.isclose(Expression("sin(n)^2 + cos(n)^2").eval(pts)[0], 1.0)
    assert Expression("floor(1.7) + ceil(0.2) + sign(-5)").eval(pts)[0] == 1.0


@pytest.mark.parametrize("bad", ["2 +", "foo(3)", "n0", "(1", "1 2", "n10", ""])
def test_expression_rejects_malformed_sources(bad):
    with pytest.raises(InvalidConfigError):
        Expression(bad).eval(np.zeros((1, 1)))


# Python's parser reads these differently or refuses them; the expression
# language keeps its own reading. None marks a refused source.
@pytest.mark.parametrize("source, value", [
    ("010", 10.0),  # a leading zero, which Python refuses
    ("3.010", 3.01),
    ("1e05", 1e5),
    ("00.5 + .5", 1.0),
    ("n01 * n001", 9.0),  # zero-padded variable names
    ("\tn +\n 1", 4.0),  # tabs and newlines between tokens
    ("   n", 3.0),  # leading spaces
    ("sin (0) + abs((-2))", 2.0),
    ("n\u0661 + \u0663.\u0665", 6.5),  # float() and int() read any decimal digit
    ("1_0", None), ("0x1", None), ("1j", None), ("True", None), ("...", None),
    ("sin(1, 2)", None), ("sin(x=1)", None), ("sin(1,)", None), ("sin(*n)", None),
    ("(sin)(1)", None), ("n1 < 2", None), ("(1, 2)", None), ("n.real", None), ("n[0]", None),
    # fullwidth sin and n and a script e, which the parser folds to ASCII
    ("\uff53\uff49\uff4e(1)", None), ("\uff4e1", None), ("\u212f", None),
    ("2n", None), ("n1\u00b2", None), ("1 # comment", None), ("(yield)", None),
    ("1or 2", None),
])
def test_expression_number_forms_whitespace_and_refusals(source, value):
    x = np.asarray([[3.0]])
    if value is None:
        with warnings.catch_warnings(record=True) as caught, pytest.raises(InvalidConfigError):
            warnings.simplefilter("always")
            Expression(source)
        assert not caught  # Python's parser warns of "1or 2"
    else:
        assert Expression(source).eval(x).tolist() == [value]


def test_expression_warnings_follow_each_operators_errstate():
    # calls and / ignore invalid and divide, ^ ignores invalid only, and
    # overflow always warns
    x = np.asarray([[-1.0], [0.0], [4.0]])
    for source, warns in [("log(n - n)", False), ("sqrt(n)", False), ("n / (n - n)", False),
                          ("n^0.5", False), ("(n - n)^(0 - 1)", True), ("exp(1000 * n)", True)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Expression(source).eval(x)
        assert bool(caught) == warns, source


def test_expression_variables_are_spelled_as_written():
    e = Expression("n01 + n + n1 * n3")
    assert e.variables == ["n01", "n1", "n3"]
    assert e.max_variable() == 3 and not e.is_complex
    assert Expression("exp(i * pi)").is_complex


_DEEP = {
    "unary": "-" * 1000 + "1",
    "parentheses": "(" * 250 + "1" + ")" * 250,
    "calls": "abs(" * 250 + "1" + ")" * 250,
    "sum": "+".join(["1"] * 1000),
    "power": "^".join(["2"] * 5000),
}


@pytest.mark.parametrize("source", _DEEP.values(), ids=_DEEP.keys())
def test_deeply_nested_expressions_are_refused(source):
    # each once raised RecursionError (or MemoryError inside Python's parser)
    with pytest.raises(InvalidConfigError, match="nested"):
        Expression(source)


def test_expression_nested_too_deeply_for_the_caller_is_refused():
    # built near the top of the stack, evaluated deep inside it
    depth = sys.getrecursionlimit() // 2
    e = Expression("-" * depth + "n")

    def deep(k):
        return deep(k - 1) if k else e.eval(np.zeros((1, 1)))

    with pytest.raises(InvalidConfigError, match="nested too deeply"):
        deep(depth)


# a drawn tree is (source, direct numpy evaluation, whether it uses i)
_LEAVES = st.one_of(
    st.sampled_from(["0", "7", "010", "2.5", ".25", "3.", "1e-3", "1.5E+2", "2e1"])
    .map(lambda t: (t, lambda x, v=np.float64(t): v, False)),
    st.sampled_from(["n", "n1", "n2", "n3"])
    .map(lambda t: (t, lambda x, k=int(t[1:] or 1): x[:, k - 1], False)),
    st.sampled_from([("pi", np.float64(np.pi)), ("e", np.float64(np.e)), ("i", np.complex128(1j))])
    .map(lambda t: (t[0], lambda x, v=t[1]: v, t[0] == "i")),
)
_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
           "/": lambda a, b: a / b, "^": lambda a, b: a ** b, "**": lambda a, b: a ** b}
_FUNCTIONS = ["sin", "cos", "tan", "sqrt", "abs", "exp", "log", "sign", "floor", "ceil"]
_SPACE = st.sampled_from(["", " ", "\t", "\n "])


def _extend(trees):
    unary = st.tuples(st.sampled_from("+-"), _SPACE, trees).map(
        lambda t: (f"({t[0]}{t[1]}{t[2][0]})",
                   t[2][1] if t[0] == "+" else lambda x, f=t[2][1]: -f(x), t[2][2]))
    binary = st.tuples(trees, _SPACE, st.sampled_from(sorted(_BINARY)), _SPACE, trees).map(
        lambda t: (f"({t[0][0]}{t[1]}{t[2]}{t[3]}{t[4][0]})",
                   lambda x, f=t[0][1], op=_BINARY[t[2]], g=t[4][1]: op(f(x), g(x)),
                   t[0][2] or t[4][2]))
    call = st.tuples(st.sampled_from(_FUNCTIONS), trees).map(
        lambda t: (f"{t[0]}({t[1][0]})",
                   lambda x, fn=getattr(np, t[0]), f=t[1][1]: fn(f(x)), t[1][2]))
    return st.one_of(unary, binary, call)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _extend, max_leaves=12))
def test_expression_matches_numpy_on_the_drawn_tree(drawn):
    source, direct, uses_i = drawn
    x = np.asarray([[0.0, 1.0, 2.0], [3.0, -4.0, 5.0], [-1.0, 0.5, 7.0]])
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            want = direct(x)
            if np.ndim(want) == 0:  # a constant tree, as a column
                want = np.full(3, want, dtype=np.complex128 if uses_i else np.float64)
        except TypeError as exc:  # e.g. floor of a complex value
            with pytest.raises(type(exc)):
                Expression(source).eval(x)
            return
        got = Expression(source).eval(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), source


def test_constant_subexpressions_evaluate_like_coordinates():
    # 1/0 and n + 1/0 once raised ZeroDivisionError, 10^400 OverflowError,
    # and (0-8)^(1/3) dropped the imaginary part of a Python complex power
    x = np.asarray([[0.0], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for source, value in [("1/0", np.inf), ("n + 1/0", np.inf), ("10^400", np.inf),
                              ("(0-8)^(1/3)", np.nan)]:
            got = Expression(source).eval(x)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, [value, value])
    assert Expression("1/3 + 2*pi").eval(x).tolist() == [1 / 3 + 2 * np.pi] * 2


def test_expression_field_checks_arity(z1):
    f = ExpressionField("n2")
    with pytest.raises(InvalidConfigError):
        f.eval(z1, pts1(0))


# -- concrete fields -----------------------------------------------------------


def test_constant_field_algebra(z1):
    a, b = ConstantField(2.0), ConstantField(3 + 1j)
    assert a.plus(b).value == 5 + 1j
    assert a.times(b).value == 6 + 2j
    assert b.conj().value == 3 - 1j
    assert a.scaled(0).is_zero()
    assert a.scaled(1) is a
    assert a.shifted(z1, (5,)) is a
    assert a.bound(z1) == (2.0, True)


def test_periodic_field_eval_and_shift(z1):
    f = PeriodicField([1.0, 2.0, 3.0])
    xs = pts1(-3, -2, -1, 0, 1, 2, 3)
    assert np.allclose(f.eval(z1, xs).real, [1, 2, 3, 1, 2, 3, 1])
    g = f.shifted(z1, (1,))
    assert np.allclose(g.eval(z1, xs), f.eval(z1, xs + 1))
    h = f.shifted(z1, (-2,))
    assert np.allclose(h.eval(z1, xs), f.eval(z1, xs - 2))


def test_periodic_field_2d(z2):
    vals = np.arange(6.0).reshape(2, 3)
    f = PeriodicField(vals)
    assert f.eval(z2, np.asarray([[4, 7]]))[0] == vals[0, 1]
    g = f.shifted(z2, (1, 2))
    pts = np.asarray([[0, 0], [1, 1], [-3, 5]])
    assert np.allclose(g.eval(z2, pts), f.eval(z2, pts + np.array([1, 2])))


def test_periodic_field_shape_mismatch(z2):
    with pytest.raises(InvalidConfigError):
        PeriodicField([1.0, 2.0]).eval(z2, np.asarray([[0, 0]]))


def test_periodic_table_must_match_its_period(z1):
    # a length-4 table with period 2 once evaluated to 1, 2, 1, 2 while its
    # shift by 1 evaluated to 4, 1, 4, 1, so limits came out wrong and exact
    with pytest.raises(InvalidConfigError, match="does not start with the period"):
        PeriodicField([1, 2, 3, 4], period=(2,))
    with pytest.raises(InvalidConfigError, match="does not start with the period"):
        PeriodicField([[1, 2], [3, 4]], period=(2, 1))
    # a trailing fiber axis is allowed
    f = PeriodicField([[1, 2, 3], [4, 5, 6]], period=(2,))
    assert f.fiber_resolved


def test_table_field(z1):
    f = TableField({(0,): 5.0, (2,): -1j}, default=0.5)
    got = f.eval(z1, pts1(-1, 0, 1, 2))
    assert np.allclose(got, [0.5, 5.0, 0.5, -1j])
    g = f.shifted(z1, (2,))
    xs = pts1(-3, -2, -1, 0, 1)
    assert np.allclose(g.eval(z1, xs), f.eval(z1, xs + 2))
    assert f.conj().eval(z1, pts1(2))[0] == 1j
    assert f.bound(z1)[0] == 5.0


def test_table_and_finite_set_with_spread_or_no_keys(z1):
    # keys far apart (a packed box over all of them would not fit in int64)
    # and no keys at all; only the keys in the points' box are indexed
    z9 = Space(dim=9)
    big = 2 ** 62
    for space, keys, pts, hits in (
            (z9, [(0,) * 9, (1000,) * 9], [[0] * 9, [1] * 9, [0] * 8 + [1]], [0, -1, -1]),
            (z1, [(-big,), (big,), (1,)], [[0], [1], [2]], [-1, 2, -1]),
            (z1, [(-big,), (big,), (1,)], [[big], [big - 1]], [1, -1]),
            (z1, [], [[0], [1]], [-1, -1])):
        pts = np.asarray(pts, dtype=np.int64)
        values = [2.0 + k for k in range(len(keys))]
        got = TableField(dict(zip(keys, values)), default=-1.0).eval(space, pts)
        assert got.tolist() == [values[h] if h >= 0 else -1.0 for h in hits]
        assert FiniteSetPredicate(keys).test(space, pts).tolist() == [h >= 0 for h in hits]


def test_expression_bound_sampled_once(z1, z2, monkeypatch):
    # the sampled sup is computed once per space shape and kept
    f = ExpressionField("sin(n1) / 2")
    first = {sp: f.bound(sp) for sp in (z1, z2)}
    calls = []
    ev = f.expression.eval
    monkeypatch.setattr(f.expression, "eval", lambda x: calls.append(x) or ev(x))
    for sp in (z1, z2):
        assert f.bound(sp) == first[sp]
        assert ExpressionField(f.expression.source).bound(sp) == first[sp]
    assert calls == []


def test_table_keys_without_fiber_coordinate():
    # keys may omit the fiber coordinate, which then reads as 0
    sp = Space(kind="lattice", dim=1, fiber=2)
    xs = np.asarray([[3, 0], [3, 1], [4, 0], [-1, 1]])
    f = TableField({(3,): 5.0, (-1, 1): 2j}, default=0.5)
    assert np.allclose(f.eval(sp, xs), [5.0, 0.5, 0.5, 2j])
    assert np.array_equal(f.eval(sp, xs), f.shifted(sp, (0,)).eval(sp, xs))
    s = FiniteSetPredicate([(3,), (-1, 1)])
    assert s.test(sp, xs).tolist() == [True, False, False, True]
    assert s.test(sp, xs).tolist() == s.shifted(sp, (0,)).test(sp, xs).tolist()
    for bad in (TableField({(1, 0, 0): 1.0}).eval, FiniteSetPredicate([(1, 0, 0)]).test):
        with pytest.raises(InvalidPointError):
            bad(sp, xs)


def test_expression_field_shift_and_conj(z1):
    f = ExpressionField("n*i + n^2")
    xs = pts1(-2, 0, 3)
    g = f.shifted(z1, (4,))
    assert np.allclose(g.eval(z1, xs), f.eval(z1, xs + 4))
    assert np.allclose(f.conj().eval(z1, xs), np.conj(f.eval(z1, xs)))


class _Ramp(Field):
    """A field with no closed-form shift or conjugate: i * n."""

    def eval(self, space, pts):
        return 1j * np.asarray(pts, dtype=np.float64)[:, 0]

    def bound(self, space):
        return np.inf, False

    def to_descriptor(self):
        return {"type": "ramp"}


def test_fields_without_closed_forms_shift_and_conjugate_generically(z1):
    f, xs = _Ramp(), pts1(-2, 0, 3)
    g = f.shifted(z1, (4,))
    assert type(g) is _GenericShifted and g.offset == (4,) and g.base is f
    assert g.eval(z1, xs).tolist() == f.eval(z1, xs + 4).tolist()
    h = f.conj()
    assert type(h) is _GenericConj and h.conj() is f
    assert h.eval(z1, xs).tolist() == np.conj(f.eval(z1, xs)).tolist()
    assert g.bound(z1) == h.bound(z1) == (np.inf, False)


def test_seeded_random_field_determinism(z1):
    xs = pts1(*range(-50, 51))
    a = SeededRandomField(7).eval(z1, xs)
    b = SeededRandomField(7).eval(z1, xs)
    assert np.array_equal(a, b)
    c = SeededRandomField(8).eval(z1, xs)
    assert not np.allclose(a, c)


def test_seeded_random_field_modes(z1):
    xs = pts1(*range(200))
    disk = SeededRandomField(1, mode="disk").eval(z1, xs)
    assert np.abs(disk).max() <= 1.0
    phase = SeededRandomField(1, mode="phase").eval(z1, xs)
    assert np.allclose(np.abs(phase), 1.0)
    real = SeededRandomField(1, mode="real").eval(z1, xs)
    assert np.allclose(real.imag, 0.0)
    assert real.real.min() >= -1.0 and real.real.max() <= 1.0
    big = SeededRandomField(1, mode="disk", scale=2.5).eval(z1, xs)
    assert np.abs(big).max() <= 2.5
    assert not SeededRandomField(1).exact


def test_seeded_random_field_is_shift_covariant(z1):
    # the shifted field re-hashes absolute coordinates, not window offsets
    f = SeededRandomField(3)
    xs = pts1(0, 1, 2)
    assert np.allclose(f.shifted(z1, (5,)).eval(z1, xs), f.eval(z1, xs + 5))


def test_sum_product_scaled(z1):
    f = ConstantField(2.0).plus(ExpressionField("n"))
    xs = pts1(0, 1, 4)
    assert np.allclose(f.eval(z1, xs).real, [2, 3, 6])
    g = f.times(ConstantField(1j)).scaled(2.0)
    assert np.allclose(g.eval(z1, xs), [4j, 6j, 12j])


@pytest.mark.parametrize("field", [ConstantField(2 - 3j), PeriodicField([[1, 2j], [0.3, -4]]),
                                   PeriodicField([[0.1, 0.7 + 0.2j, -1.5]], (1, 3))])
def test_scaling_keeps_constant_and_periodic_fields(z2, field):
    # once wrapped in a ScaledField, which the Bloch oracles and auto routing
    # do not read; the values keep the wrapper's bits (complex products
    # commute), and the scaled descriptor builds the same field
    c = 0.3 - 1.7j
    got = field.scaled(c)
    assert type(got) is type(field)
    if isinstance(field, PeriodicField):
        assert got.period == field.period
    pts = np.asarray([[0, 0], [1, -2], [5, 3], [-4, 7]])
    assert got.eval(z2, pts).tobytes() == ScaledField(field, c).eval(z2, pts).tobytes()
    back = field_from_descriptor({"type": "scaled", "base": field.to_descriptor(),
                                  "factor": {"re": c.real, "im": c.imag}})
    assert type(back) is type(field)
    assert back.eval(z2, pts).tobytes() == got.eval(z2, pts).tobytes()


# -- predicates ----------------------------------------------------------------


def test_halfspace_predicate(z2):
    p = HalfspacePredicate((1, -1), 2)
    pts = np.asarray([[3, 0], [2, 0], [0, 0], [5, 4]])
    assert p.test(z2, pts).tolist() == [True, True, False, False]
    # shifted predicate tests the shifted points
    q = p.shifted(z2, (1, 0))
    assert q.test(z2, np.asarray([[1, 0]])).tolist() == [True]


def test_sublattice_and_finite_set(z1, z2):
    p = SublatticePredicate((2,))
    assert p.test(z1, pts1(-2, -1, 0, 3, 4)).tolist() == [True, False, True, False, True]
    q = SublatticePredicate((3,), (1,))
    assert q.test(z1, pts1(0, 1, 4, 5)).tolist() == [False, True, True, False]
    f = FiniteSetPredicate([(0, 0), (2, 1)])
    got = f.test(z2, np.asarray([[0, 0], [1, 1], [2, 1]]))
    assert got.tolist() == [True, False, True]


def test_not_and_combinators(z1):
    even = SublatticePredicate((2,))
    pos = HalfspacePredicate((1,), 1)
    both = AndPredicate([even, pos])
    xs = pts1(-2, 1, 2, 3, 4)
    assert both.test(z1, xs).tolist() == [False, False, True, False, True]
    neg = NotPredicate(pos)
    assert neg.test(z1, xs).tolist() == [True, False, False, False, False]


def test_expression_predicate(z1):
    p = ExpressionPredicate("n^2 - 4")  # membership means strictly positive
    assert p.test(z1, pts1(-3, -1, 0, 2, 5)).tolist() == [True, False, False, False, True]
    q = p.shifted(z1, (3,))
    assert q.test(z1, pts1(0)).tolist() == [True]  # tests the shifted point 3


def test_expression_predicate_shifts_wrap_the_fiber_offset():
    # shifts by (0, -1) and (0, 2) once serialised with offsets [0, -1] and
    # [0, 2]; the shifted field now owns the offset and wraps it
    f3 = Space(kind="lattice", dim=1, fiber=3)
    p = ExpressionPredicate("n2 - 0.5")
    down, up = p.shifted(f3, (0, -1)), p.shifted(f3, (0, 2))
    assert down.to_descriptor() == up.to_descriptor() == {
        "type": "expressionPredicate", "source": "n2 - 0.5", "offset": [0, 2]}
    assert down.offset == (0, 2) and p.offset is None
    pts = np.asarray([(x, c) for x in range(-2, 3) for c in range(3)], dtype=np.int64)
    assert down.test(f3, pts).tolist() == up.test(f3, pts).tolist() == \
        ((pts[:, 1] + 2) % 3 > 0.5).tolist()
    assert down.shifted(f3, (0, 1)).to_descriptor() == p.to_descriptor()
    again = predicate_from_descriptor(down.to_descriptor())
    assert again.test(f3, pts).tolist() == down.test(f3, pts).tolist()


@pytest.mark.parametrize("zero", [(0, 0), (0,), (0, 3), (0, -6)])
def test_a_zero_shift_keeps_a_shifted_field_as_written(zero):
    # a zero shift once rewrapped the stored offset: [0, -1] came back as
    # [0, 2], the same field under another descriptor
    f3 = Space(kind="lattice", dim=1, fiber=3)
    desc = {"type": "shifted", "offset": [0, -1], "base": {"type": "expression", "source": "n2"}}
    f = field_from_descriptor(desc)
    assert f.shifted(f3, zero) is f
    assert f.shifted(f3, zero).to_descriptor() == desc
    assert field_from_descriptor(f.shifted(f3, zero).to_descriptor()).to_descriptor() == desc
    # a nonzero shift still adds and wraps, and one that cancels the offset
    # gives the base
    assert f.shifted(f3, (0, 2)).to_descriptor()["offset"] == [0, 1]
    assert f.shifted(f3, (0, 1)).to_descriptor() == desc["base"]
    with pytest.raises(InvalidConfigError, match="integer entries"):
        f.shifted(f3, (0, 0.5))


@pytest.mark.parametrize("offset", [(0.9,), (-0.5,), (np.nan,), (np.inf,), ("1",)])
def test_non_integer_offsets_are_refused(z1, offset):
    # an offset is never truncated: 0.9 once tested like offset 0
    with pytest.raises(InvalidConfigError, match="integer entries"):
        ExpressionPredicate("n1", offset)
    with pytest.raises(InvalidConfigError, match="integer entries"):
        _GenericShifted(ExpressionField("n1"), offset)
    # shifting an already shifted field checks the new offset before adding it
    once = _GenericShifted(ExpressionField("n1"), (0.0,))
    with pytest.raises(InvalidConfigError, match="integer entries"):
        _GenericShifted(once, offset)


def test_integral_offsets_of_any_type_are_accepted(z1):
    for offset in ((1,), (1.0,), (np.int64(1),), (np.float64(1.0),)):
        assert ExpressionPredicate("n1", offset).offset == (1,)
        assert ExpressionPredicate("n1", offset).test(z1, pts1(0)).tolist() == [True]
        shifted = _GenericShifted(ExpressionField("n1"), offset)
        assert shifted.offset == (1,)
        assert np.allclose(shifted.eval(z1, pts1(0, 2)).real, [1, 3])


@pytest.mark.parametrize("bad", [0.5, 2.7, np.nan, np.inf, "1"])
def test_non_integer_vectors_are_refused_not_truncated(z1, bad):
    # each of these once truncated: a shift by 0.5 acted as a shift by 0, a
    # modulus 2.5 became 2 and a period 2.7 became 2
    with pytest.raises(InvalidConfigError, match="shift .* must have integer entries"):
        ExpressionField("n1").shifted(z1, (bad,))
    with pytest.raises(InvalidConfigError, match="modulus .* must have integer entries"):
        SublatticePredicate((bad,))
    with pytest.raises(InvalidConfigError, match="residue .* must have integer entries"):
        SublatticePredicate((2,), (bad,))
    with pytest.raises(InvalidConfigError, match="period .* must have integer entries"):
        PeriodicField([1, 2, 3], period=(bad,))
    with pytest.raises(InvalidConfigError, match="table key .* must have integer entries"):
        TableField({(bad,): 1.0})
    with pytest.raises(InvalidConfigError, match="point .* must have integer entries"):
        FiniteSetPredicate({(bad,)})
    with pytest.raises(InvalidConfigError, match="must have integer entries"):
        SublatticePredicate((2,)).shifted(z1, (bad,))


def test_integral_vectors_of_any_type_are_accepted(z1):
    for one in (1, 1.0, np.int64(1), np.float64(1.0)):
        assert np.allclose(ExpressionField("n1").shifted(z1, (one,)).eval(z1, pts1(0)).real, 1)
        assert SublatticePredicate((2 * one,), (one,)).modulus == (2,)
        assert SublatticePredicate((2 * one,), (one,)).residue == (1,)
        assert PeriodicField([1, 2, 3], period=(3 * one,)).period == (3,)
        assert TableField({(one,): 5.0}).eval(z1, pts1(1)).tolist() == [5.0]
        assert FiniteSetPredicate({(one,)}).test(z1, pts1(0, 1)).tolist() == [False, True]


def test_indicator_field(z1):
    f = IndicatorField(SublatticePredicate((2,)))
    assert np.allclose(f.eval(z1, pts1(0, 1, 2)).real, [1, 0, 1])
    assert f.bound(z1) == (1.0, True)


# -- descriptor round trips ------------------------------------------------------


@pytest.mark.parametrize(
    "field",
    [
        ConstantField(2 - 3j),
        PeriodicField([[1, 2j], [3, 4]]),
        TableField({(1, 0): 2.0}, default=-1.0),
        ExpressionField("sin(n1) + i*n2"),
        SeededRandomField(11, mode="phase", scale=0.5),
        ConstantField(1.0).plus(ExpressionField("n1")).times(ConstantField(2j)),
        IndicatorField(HalfspacePredicate((1, 0), 0)),
        ConstantField(0.25).scaled(4),
    ],
)
def test_field_descriptor_roundtrip(z2, field):
    back = field_from_descriptor(field.to_descriptor())
    pts = np.asarray([[0, 0], [1, -2], [5, 3], [-4, 7]])
    assert np.allclose(back.eval(z2, pts), field.eval(z2, pts))


def test_shifted_conj_descriptor_roundtrip(z1):
    f = ExpressionField("n^2 + i*n").shifted(z1, (3,)).conj()
    back = field_from_descriptor(f.to_descriptor())
    xs = pts1(-2, 0, 1, 6)
    assert np.allclose(back.eval(z1, xs), f.eval(z1, xs))


@pytest.mark.parametrize(
    "pred,probe",
    [
        (HalfspacePredicate((1, 1), -1), [[0, 0], [-3, 0], [1, 2]]),
        (SublatticePredicate((2, 3), (1, 0)), [[1, 0], [1, 3], [2, 0]]),
        (FiniteSetPredicate([(0, 0)]), [[0, 0], [1, 0]]),
        (NotPredicate(HalfspacePredicate((0, 1), 0)), [[0, 0], [0, -4]]),
        (
            AndPredicate([HalfspacePredicate((1, 0), 0), SublatticePredicate((2, 1))]),
            [[2, 5], [3, 5], [-2, 0]],
        ),
    ],
)
def test_predicate_descriptor_roundtrip(z2, pred, probe):
    back = predicate_from_descriptor(pred.to_descriptor())
    probe = np.asarray(probe)
    assert back.test(z2, probe).tolist() == pred.test(z2, probe).tolist()


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_seeded_descriptor_roundtrip_any_seed(z1, seed):
    f = SeededRandomField(seed)
    back = field_from_descriptor(f.to_descriptor())
    xs = pts1(0, 1, -7, 100)
    assert np.array_equal(back.eval(z1, xs), f.eval(z1, xs))
