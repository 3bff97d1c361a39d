"""The lattice geometry agrees with itself on fiber spaces: distances, balls,
propagation, blocks and the shifts of every field and predicate type rest on
the one metric (``Space.norm``) and the one translation (``Space.translate``).
"""

from itertools import product

import numpy as np
import pytest

from limitops import (
    AndPredicate,
    BandOperator,
    ConstantField,
    EmptyPredicate,
    ExpressionField,
    ExpressionPredicate,
    FiniteSetPredicate,
    FullPredicate,
    HalfspacePredicate,
    IndicatorField,
    NotPredicate,
    PeriodicField,
    ProductField,
    SeededRandomField,
    Space,
    SublatticePredicate,
    SumField,
    TableField,
    Window,
)

FIBER_SPACES = [Space(kind="lattice", dim=d, metric=m, fiber=f)
                for d, m, f in product((1, 2), ("linf", "l1"), (2, 3, 4))]
IDS = [f"Z{s.dim}-{s.metric}-fiber{s.fiber}" for s in FIBER_SPACES]
fiber_spaces = pytest.mark.parametrize("space", FIBER_SPACES, ids=IDS)


def box(space, center, r):
    c = np.asarray(center[: space.dim])
    return space.box_points(c - r, c + r)


def offset(space, lattice, fiber):
    return tuple(lattice[: space.dim]) + (fiber,)


def fiber_operator(space):
    """Constant coefficients at offsets whose fiber steps are negative or
    beyond the fiber, so every stencil key is wrapped."""
    m = space.fiber
    return BandOperator(space, {
        offset(space, (1, 0), -1): 2.0,
        offset(space, (-2, 1), m + 1): 1.5 - 0.5j,
        offset(space, (0, 0), 1): ExpressionField("n1 + 1"),
    })


@fiber_spaces
def test_dist_dist_block_and_norm_agree(space):
    pts = box(space, (0, 0), 2)
    block = space.dist_block(pts, pts)
    np.testing.assert_array_equal(block, space.norm(pts[:, None, :] - pts[None, :, :]))
    for i, j in product(range(0, len(pts), 3), repeat=2):
        assert space.dist(pts[i], pts[j]) == block[i, j]
    m = space.fiber
    assert space.norm(offset(space, (0, 0), -1)) == 1
    assert space.norm(offset(space, (0, 0), m + 1)) == 1
    assert space.norm(offset(space, (0, 0), m // 2)) == m // 2


@fiber_spaces
def test_ball_is_the_brute_force_ball(space):
    for center in (space.basepoint, offset(space, (3, -2), space.fiber - 1)):
        for r in range(4):
            cand = box(space, center, r)
            near = cand[space.dist_block(cand, [center])[:, 0] <= r]
            ball = space.ball(center, r)
            assert sorted(map(tuple, ball.tolist())) == sorted(map(tuple, near.tolist()))
            d = space.dist_block(ball, [center])[:, 0]
            assert (np.diff(d) >= 0).all()


@fiber_spaces
def test_propagation_is_the_largest_distance_in_the_block(space):
    A = fiber_operator(space)
    rows = Window(space, space.basepoint, 3)
    cols = rows.pad(A.propagation + 1)
    i, j = np.nonzero(A.block(rows, cols))
    d = space.dist_block(rows.points, cols.points)[i, j]
    assert d.max() == A.propagation


@fiber_spaces
def test_block_times_vector_is_apply(space):
    A = fiber_operator(space)
    out = Window(space, space.basepoint, A.propagation + 2)
    inner = out.shrink(A.propagation).points
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(len(inner)) + 1j * rng.standard_normal(len(inner))
    vec = dict(zip(map(tuple, inner.tolist()), vals))
    np.testing.assert_allclose(A.apply(vec, out), A.block(out, inner) @ vals, atol=1e-12)


@fiber_spaces
def test_coefficient_wraps_the_fiber_offset(space):
    m = space.fiber
    A = BandOperator(space, {offset(space, (1, 0), -1): 2.0})
    for f in (-1, m - 1, 2 * m - 1):
        assert A.coefficient(offset(space, (1, 0), f)).value == 2.0
    assert A.coefficient(offset(space, (1, 0), 0)).value == 0.0


def _fields(space):
    d, m = space.dim, space.fiber
    fiber_var = f"n{d + 1}"
    keys = {offset(space, (1, 1), m - 1): 5.0, offset(space, (0, 0), 0): 2.0,
            offset(space, (-1, 2), 1): -1j}
    period = (2, 3)[:d]
    table = np.arange(np.prod(period) * m).reshape(period + (m,))
    return {
        "constant": ConstantField(2 - 1j),
        "periodic": PeriodicField(np.arange(np.prod(period)).reshape(period)),
        "periodic-fiber": PeriodicField(table, period=period),
        "expression": ExpressionField(f"n1 + 3 * {fiber_var}"),
        "table": TableField(keys, default=0.5),
        "seeded-random": SeededRandomField(7),
        "sum": SumField([ExpressionField(fiber_var), TableField(keys)]),
        "product": ProductField([ExpressionField(f"{fiber_var} - 1"), SeededRandomField(3)]),
        "scaled": ExpressionField(fiber_var).scaled(2j),
        "shifted": ExpressionField(f"n1 * {fiber_var}").shifted(space, offset(space, (1, 0), -2)),
        "conj": SeededRandomField(2).conj(),
        "indicator": IndicatorField(FiniteSetPredicate(keys)),
    }


def _predicates(space):
    d, m = space.dim, space.fiber
    keys = [offset(space, (1, 1), m - 1), offset(space, (0, -1), 0)]
    expr = ExpressionPredicate(f"n{d + 1} - 0.5", offset(space, (0, 0), -1))
    return {
        "full": FullPredicate(),
        "empty": EmptyPredicate(),
        "halfspace": HalfspacePredicate((1.0, -0.5)[:d], 0.5),
        "sublattice": SublatticePredicate((2, 3)[:d], (1, 0)[:d]),
        "finite-set": FiniteSetPredicate(keys),
        "expression": expr,
        "not": NotPredicate(expr),
        "and": AndPredicate([FiniteSetPredicate(keys), NotPredicate(expr)]),
    }


@fiber_spaces
@pytest.mark.parametrize("fiber_step", ["-1", "m+1"])
def test_shifts_evaluate_at_translated_points(space, fiber_step):
    v = offset(space, (1, -2), -1 if fiber_step == "-1" else space.fiber + 1)
    pts = box(space, (0, 0), 3)
    moved = space.translate(pts, v)
    for name, f in _fields(space).items():
        np.testing.assert_array_equal(f.shifted(space, v).eval(space, pts),
                                      f.eval(space, moved), err_msg=name)
    for name, p in _predicates(space).items():
        np.testing.assert_array_equal(p.shifted(space, v).test(space, pts),
                                      p.test(space, moved), err_msg=name)


@fiber_spaces
def test_generic_shifts_wrap_the_fiber_offset(space):
    # on fiber 3 the first shift once kept the offset [0, -1], and shifting
    # it by zero gave [0, 2]: one field, two descriptors
    zero = (0,) * space.point_arity
    for field in (ExpressionField("n1 + 1"), SeededRandomField(7)):
        once = field.shifted(space, offset(space, (1, 0), -1))
        assert once.to_descriptor()["offset"][-1] == space.fiber - 1
        assert once.shifted(space, zero).to_descriptor() == once.to_descriptor()
