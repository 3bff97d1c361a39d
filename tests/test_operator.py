from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limitops.fredholm
import limitops.operator
from limitops import (
    BandOperator,
    ConstantField,
    Space,
    ExpressionField,
    FiniteSetPredicate,
    FullPredicate,
    HalfspacePredicate,
    IndicatorField,
    InvalidConfigError,
    PeriodicField,
    TruncationError,
    SeededRandomField,
    TableField,
    Window,
    bdo_diagnostic,
    build_partition,
    commutator_stack_norm,
    identity,
    laplacian_stencil,
    localized_norm,
    lower_norm_window,
    multiplication,
    operator_from_descriptor,
    restricted_norm,
    shift_operator,
    window_norm,
)

from conftest import GRID, Z1_FIBER3, svd_norm, window


def laplacian(space):
    return laplacian_stencil(space)


def random_band(space, omega, seed, scale=1.0):
    stencil = {}
    for k in range(-omega, omega + 1):
        stencil[(k,)] = SeededRandomField(seed + k + 100, scale=scale)
    return BandOperator(space, stencil)


# -- structure ----------------------------------------------------------------


def test_stencil_normalization_and_zero_dropping(z1):
    A = BandOperator(z1, {(1,): 2.0, (-1,): 0.0})
    assert list(A.stencil) == [(1,)]
    assert A.coefficient((1,)).value == 2.0
    assert A.coefficient((5,)).value == 0.0
    sp = Space(kind="lattice", dim=1, fiber=2)
    B = BandOperator(sp, {(1, 1): 1.0, (1, 3): 1.0})  # same offset mod fiber, merged
    assert B.coefficient((1, 1)).value == 2.0


def test_propagation(z1, z2):
    assert identity(z1).propagation == 0
    assert laplacian(z2).propagation == 1
    assert BandOperator(z1, {(3,): 1.0, (-2,): 1.0}).propagation == 3


def test_propagation_respects_metric(z2, z2_l1):
    A = BandOperator(z2, {(1, 1): 1.0})
    B = BandOperator(z2_l1, {(1, 1): 1.0})
    assert A.propagation == 1
    assert B.propagation == 2


def test_algebra_propagation_bounds(z1):
    A = random_band(z1, 2, seed=0)
    B = random_band(z1, 1, seed=9)
    assert (A + B).propagation <= 2
    assert (A @ B).propagation <= 3
    assert (2.0 * A).propagation == A.propagation
    assert multiplication(z1, ExpressionField("n")).propagation == 0


def test_apply_matches_block(z1):
    A = random_band(z1, 2, seed=4)
    out = window(z1, 10)
    cols = window(z1, 8)
    vec = {(-3,): 1.0, (0,): -2.0, (8,): 1j}
    got = A.apply(vec, out)
    M = A.block(out.points, cols.points)
    x = np.zeros(cols.npoints, dtype=np.complex128)
    for pt, v in vec.items():
        x[cols.locate([pt])[0]] = v
    assert np.allclose(got, M @ x)


def test_apply_rejects_support_leak(z1):
    A = laplacian(z1)
    with pytest.raises(TruncationError):
        A.apply({(10,): 1.0}, window(z1, 10))  # contribution would spill outside


def test_block_kernel_values(z1):
    A = BandOperator(z1, {(1,): ExpressionField("n"), (0,): 7.0})
    rows = np.asarray([[2], [3]])
    cols = np.asarray([[2], [3], [4]])
    M = A.block(rows, cols)
    # entry (u, v) = c_{v-u}(u)
    assert M[0, 0] == 7.0 and M[1, 1] == 7.0
    assert M[0, 1] == 2.0 and M[1, 2] == 3.0
    assert M[1, 0] == 0.0


def test_block_repeated_columns_fill_the_first(z1):
    # of repeated columns only the first holds the kernel entry
    M = shift_operator(z1, (1,)).block(np.asarray([[0], [1]]), np.asarray([[1], [1], [2]]))
    assert np.array_equal(M, [[1, 0, 0], [0, 0, 1]])


# -- adjoints -------------------------------------------------------------------


def test_adjoint_block_is_conjugate_transpose(z1):
    A = random_band(z1, 2, seed=1)
    w = window(z1, 9)
    M = A.block(w.points, w.points)
    Mstar = A.adjoint().block(w.points, w.points)
    assert np.allclose(Mstar, M.conj().T, atol=1e-14)


def test_adjoint_twice_is_identity_on_blocks(z2):
    A = BandOperator(
        z2,
        {(1, 0): ExpressionField("n1 + i*n2"), (0, -1): 2.5, (0, 0): ExpressionField("sin(n1)")},
    )
    w = window(z2, 4)
    assert np.allclose(A.adjoint().adjoint().block(w.points, w.points),
                       A.block(w.points, w.points))


def test_product_block_matches_matrix_product(z1):
    A = random_band(z1, 1, seed=2)
    B = random_band(z1, 2, seed=3)
    w = window(z1, 6)
    mid = window(z1, 6 + B.propagation + A.propagation)
    got = (A @ B).block(w.points, w.points)
    ref = A.block(w.points, mid.points) @ B.block(mid.points, w.points)
    assert np.allclose(got, ref, atol=1e-13)


def test_translated_conjugation(z1):
    A = BandOperator(z1, {(1,): ExpressionField("n"), (0,): ExpressionField("n^2")})
    x = (5,)
    T = A.translated(x)
    w = window(z1, 4)
    shifted_rows = w.points + np.asarray([5])
    assert np.allclose(T.block(w.points, w.points),
                       A.block(shifted_rows, shifted_rows))


# -- norms ----------------------------------------------------------------------


def test_window_norm_matches_dense_svd(z1):
    A = random_band(z1, 2, seed=5)
    rows, cols = window(z1, 12), window(z1, 10)
    got = window_norm(A, rows, cols)
    assert np.isclose(got, svd_norm(A.block(rows.points, cols.points)), atol=1e-12)


def test_window_norm_interval_for_general_p(z1):
    A = random_band(z1, 1, seed=6)
    rows, cols = window(z1, 8), window(z1, 6)
    lo, hi = window_norm(A, rows, cols, p=3)
    assert 0 < lo <= hi
    assert hi <= A.norm_bound()[0] + 1e-12


def test_window_norm_monotone_in_window(z1):
    A = random_band(z1, 2, seed=7)
    vals = [window_norm(A, window(z1, r + 2), window(z1, r)) for r in (4, 8, 16)]
    assert vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12


def test_norm_bound_dominates_window_norms(z1):
    A = random_band(z1, 2, seed=8)
    bound, certified = A.norm_bound()
    assert certified
    assert window_norm(A, window(z1, 30), window(z1, 28)) <= bound + 1e-12


def test_sub_scalar(z1):
    A = laplacian(z1)
    w = window(z1, 5)
    M = A.sub_scalar(2.5j).block(w.points, w.points)
    assert np.allclose(np.diag(M), -2.5j)


def _localized_by_definition(A, predicate, rt, scope):
    """localized_norm from the full distance block: the largest norm of A
    restricted to B[x, rt], the predicate and the scope, over scope centres x,
    and the distinct column sets in the order they first occur."""
    space, pts = A.space, scope.points
    keep = predicate.test(space, pts)
    dmat = space.dist_block(pts, pts)
    balls = []
    for i in range(pts.shape[0]):
        ball = pts[(dmat[i] <= rt) & keep]
        if ball.size and not any(np.array_equal(ball, b) for b in balls):
            balls.append(ball)
    rows = scope.pad(A.propagation)
    return max(limitops.operator._sigma_max(A.block(rows, b)) for b in balls), balls


def _localized_cases():
    """(operator, predicate, scope, partition) on Z, on Z x Z/3 and on a grid
    graph."""
    z1 = Space(kind="lattice", dim=1)
    scope = window(z1, 40)
    yield random_band(z1, 1, seed=10), HalfspacePredicate((1,), 0), scope, \
        build_partition(z1, scope.pad(1), 0.5)
    fib = Z1_FIBER3
    A = BandOperator(fib, {(1, 0): SeededRandomField(4), (0, 1): 0.5,
                           (-1, 2): SeededRandomField(5, scale=2.0)})
    scope = window(fib, 12, (0, 1))
    yield A, HalfspacePredicate((1,), -3), scope, \
        build_partition(fib, scope.pad(A.propagation), 0.6)
    # graph spaces carry no shift, so only the empty band operator lives on
    # one: its norms are 0, and the balls are checked through the blocks formed
    nodes = FiniteSetPredicate({(n,) for n in range(0, 42, 2)})
    yield BandOperator(GRID, {}), nodes, window(GRID, 4, 17), \
        SimpleNamespace(support_diam=2)


def test_restricted_and_localized_norms(monkeypatch):
    block = BandOperator.block
    for A, pred, scope, part in _localized_cases():
        full = restricted_norm(A, pred, scope)
        want, balls = _localized_by_definition(A, pred, part.support_diam, scope)
        seen = []
        monkeypatch.setattr(BandOperator, "block",
                            lambda op, rows, cols: seen.append(cols) or block(op, rows, cols))
        local = localized_norm(A, pred, part, scope)
        monkeypatch.setattr(BandOperator, "block", block)
        assert len(seen) == len(balls) > 1
        assert all(np.array_equal(got, b) for got, b in zip(seen, balls))
        assert local == want
        assert local <= full + 1e-12
        assert full <= A.norm_bound()[0] + 1e-12


def test_restricted_norm_empty_predicate_warns(z1):
    A = laplacian(z1)
    with pytest.warns(UserWarning):
        got = restricted_norm(A, HalfspacePredicate((1,), 10**9), window(z1, 5))
    assert got == 0.0


# -- the float64 lane of dense p = 2 norms -------------------------------------


def _record_dtypes(monkeypatch, name):
    """The dtype of every array handed to np.linalg.<name> from now on."""
    seen = []
    orig = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return seen


def _complex_lane(monkeypatch):
    """Hand every dense block to LAPACK as complex128, as before the lane."""
    for mod in (limitops.operator, limitops.fredholm):
        monkeypatch.setattr(mod, "_real_lane", lambda M: M)


def _shift_gap(z2, c, x=(3, 0), y=(-3, 0)):
    """The difference of the conjugates at x and y of I + c S_(0,1) M_H, H a
    halfspace. Near the origin it is c S_(0,1) when x and y lie on either
    side of H (a block that is real exactly when c is), and 0 when they lie
    on one side."""
    H = multiplication(z2, IndicatorField(HalfspacePredicate((1, 0), 0)))
    A = identity(z2) + c * (shift_operator(z2, (0, 1)) @ H)
    return A.translated(x) - A.translated(y)


@pytest.mark.parametrize("c, dtype", [(0.3, np.float64), (0.3 + 0.2j, np.complex128)])
def test_window_norm_hands_real_blocks_to_lapack_in_float64(z2, monkeypatch, c, dtype):
    D = _shift_gap(z2, c)
    rows, cols = window(z2, 4), window(z2, 5)
    block = D.block(rows, cols)
    assert block.dtype == np.complex128  # blocks stay complex
    ref = float(np.linalg.svd(block, compute_uv=False)[0])
    seen = _record_dtypes(monkeypatch, "svd")
    got = window_norm(D, rows, cols)
    assert seen == [dtype]
    assert got > 0.1
    assert got == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("mode, dtype", [("real", np.float64), ("phase", np.complex128)])
def test_commutator_of_a_real_operator_runs_in_float64(z2, monkeypatch, mode, dtype):
    A = laplacian(z2) + multiplication(z2, SeededRandomField(31, mode=mode))
    scope = window(z2, 3)
    part = build_partition(z2, scope.pad(1), 0.5)
    with monkeypatch.context() as m:
        _complex_lane(m)
        ref = commutator_stack_norm(A, part, scope)
    seen = _record_dtypes(monkeypatch, "eigvalsh")
    got = commutator_stack_norm(A, part, scope)
    assert seen == [dtype]
    assert got > 0.1
    assert got == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("mode, dtype", [("real", np.float64), ("phase", np.complex128)])
def test_dense_norms_hand_real_blocks_to_lapack_in_float64(z1, monkeypatch, mode, dtype):
    A = laplacian(z1) + multiplication(z1, SeededRandomField(32, mode=mode))
    scope = window(z1, 12)
    part = build_partition(z1, scope.pad(1), 0.5)
    pred = HalfspacePredicate((1,), 0)
    calls = [
        lambda: restricted_norm(A, pred, scope),
        lambda: localized_norm(A, pred, part, scope),
        # explicit rows: the dense fallback of the lower norm
        lambda: lower_norm_window(A, window(z1, 5), rows=window(z1, 6)),
    ]
    for call in calls:
        with monkeypatch.context() as m:
            _complex_lane(m)
            ref = call()
        with monkeypatch.context() as m:
            seen = _record_dtypes(m, "svd")
            got = call()
        assert seen and set(seen) == {np.dtype(dtype)}
        assert got > 0.1
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_all_zero_blocks_give_exactly_zero_without_an_svd(z2, monkeypatch):
    far = BandOperator(z2, {(0, 1): TableField({(50, 50): 1.0})})
    assert far.propagation == 1
    w = window(z2, 3)
    seen = _record_dtypes(monkeypatch, "svd")
    for got in (window_norm(far, w, w.pad(1)), restricted_norm(far, FullPredicate(), w),
                window_norm(_shift_gap(z2, 0.3, y=(4, 0)), window(z2, 2), window(z2, 3))):
        assert type(got) is float and got == 0.0
    assert seen == []


def test_window_points_are_read_only(z2):
    w = window(z2, 2)
    with pytest.raises(ValueError):
        w.points[0, 0] = 7
    assert w.points[0].tolist() == [0, 0]


# -- commutators with partition multipliers --------------------------------------


def test_commutator_vanishes_for_multiplication_operators(z1):
    M = multiplication(z1, ExpressionField("sin(n) + n^2"))
    scope = window(z1, 30)
    part = build_partition(z1, scope.pad(0), 0.5)
    assert commutator_stack_norm(M, part, scope) == 0.0


def test_commutator_scales_with_band_coefficients(z1):
    scope = window(z1, 40)
    part = build_partition(z1, scope.pad(1), 0.4)
    A = BandOperator(z1, {(1,): 1.0})
    B = BandOperator(z1, {(1,): 3.0})
    a = commutator_stack_norm(A, part, scope)
    b = commutator_stack_norm(B, part, scope)
    assert np.isclose(b, 3 * a, rtol=1e-10)
    assert a > 0


def test_bdo_diagnostic_band_operator_consistent(z1):
    A = laplacian(z1)
    out = bdo_diagnostic(A, (0.5, 0.25, 0.125), window(z1, 64))
    assert out["classification"] == "band-consistent"
    assert out["spread"] <= 2.0
    assert len(out["values"]) == 3
    assert out["fitted_constant"] > 0


def test_bdo_diagnostic_slow_offdiagonal_decay_inconclusive(z1):
    # kernel ~ 1/(1 + |x-y|^2) truncated far out: decay too slow for one
    # constant across this grid
    stencil = {(k,): 1.0 / (1.0 + k * k) for k in range(-200, 201)}
    A = BandOperator(z1, stencil)
    out = bdo_diagnostic(A, (0.5, 0.25, 0.125), window(z1, 64))
    assert out["classification"] == "inconclusive"
    assert out["spread"] > 2.0


def test_bdo_diagnostic_multiplication_trivially_consistent(z1):
    M = multiplication(z1, ExpressionField("cos(n)"))
    out = bdo_diagnostic(M, (0.5, 0.25), window(z1, 32))
    assert out["classification"] == "band-consistent"
    assert max(out["values"]) <= 1e-12


def test_bdo_diagnostic_requires_decreasing_grid(z1):
    with pytest.raises(InvalidConfigError):
        bdo_diagnostic(laplacian(z1), (0.25, 0.5), window(z1, 16))


# -- descriptors -----------------------------------------------------------------


def test_operator_descriptor_roundtrip(z1):
    A = BandOperator(z1, {(1,): ExpressionField("n"), (-1,): 2 - 1j})
    B = operator_from_descriptor(z1, A.to_descriptor())
    w = window(z1, 6)
    assert np.allclose(B.block(w.points, w.points), A.block(w.points, w.points))


def test_operator_descriptor_composites(z1):
    desc = {
        "kind": "sum",
        "terms": [
            {"kind": "laplacian"},
            {
                "kind": "scaled",
                "factor": {"re": 0.0, "im": 1.0},
                "operator": {"kind": "multiplication",
                             "field": {"type": "expression", "source": "sin(n)"}},
            },
            {"kind": "adjoint", "operator": {"kind": "shift", "v": [1]}},
        ],
    }
    A = operator_from_descriptor(z1, desc)
    ref = (
        laplacian(z1)
        + multiplication(z1, ExpressionField("sin(n)")).scaled(1j)
        + shift_operator(z1, (1,)).adjoint()
    )
    w = window(z1, 5)
    assert np.allclose(A.block(w.points, w.points), ref.block(w.points, w.points))


def test_operator_descriptor_product_and_translated(z2):
    desc = {
        "kind": "translated",
        "x": [1, -1],
        "operator": {
            "kind": "product",
            "factors": [
                {"kind": "shift", "v": [1, 0]},
                {"kind": "multiplication",
                 "field": {"type": "expression", "source": "n1 + 2*n2"}},
            ],
        },
    }
    A = operator_from_descriptor(z2, desc)
    ref = (shift_operator(z2, (1, 0)) @ multiplication(z2, ExpressionField("n1 + 2*n2"))).translated((1, -1))
    w = window(z2, 3)
    assert np.allclose(A.block(w.points, w.points), ref.block(w.points, w.points))


def test_shift_operator_is_isometric_on_blocks(z1):
    S = shift_operator(z1, (1,))
    w = window(z1, 10)
    M = S.block(w.points, w.points)
    # unitary up to truncation: interior singular values are 1
    s = np.linalg.svd(M, compute_uv=False)
    assert np.isclose(s[0], 1.0)


@given(omega=st.integers(0, 3), seed=st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_adjoint_is_involution_property(z1, omega, seed):
    A = random_band(z1, omega, seed=seed)
    w = window(z1, 5)
    assert np.allclose(A.adjoint().adjoint().block(w.points, w.points),
                       A.block(w.points, w.points), atol=1e-14)
