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
    SeededRandomField,
    Space,
    SublatticePredicate,
    TableField,
    field_from_descriptor,
    predicate_from_descriptor,
)
from limitops.expr import Expression


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


def test_table_field(z1):
    f = TableField({(0,): 5.0, (2,): -1j}, default=0.5)
    got = f.eval(z1, pts1(-1, 0, 1, 2))
    assert np.allclose(got, [0.5, 5.0, 0.5, -1j])
    g = f.shifted(z1, (2,))
    xs = pts1(-3, -2, -1, 0, 1)
    assert np.allclose(g.eval(z1, xs), f.eval(z1, xs + 2))
    assert f.conj().eval(z1, pts1(2))[0] == 1j
    assert f.bound(z1)[0] == 5.0


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
