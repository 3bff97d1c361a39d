from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limitops._kernels
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


@pytest.mark.filterwarnings("error")
def test_apply_names_a_non_finite_coefficient(z1):
    # once returned inf+nanj at 0 with a numpy RuntimeWarning, where block
    # refuses the same operator in one line
    A = laplacian(z1) + multiplication(z1, ExpressionField("1/n"))
    with pytest.raises(InvalidConfigError, match=r"^non-finite coefficient a\(u, v\) = inf "
                                                 r"at u = \[0\], v = \[0\]: "):
        A.apply({(0,): 1.0}, window(z1, 3))


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
    return max(limitops.operator._singular(A.block(rows, b), 0) for b in balls), balls


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


@pytest.mark.parametrize("mode", ["real", "disk"])
def test_restricted_and_localized_norms_of_a_potential_take_no_svd(z2, monkeypatch, mode):
    A = multiplication(z2, SeededRandomField(33, mode=mode))
    scope = window(z2, 6)
    part = build_partition(z2, scope.pad(0), 0.5)
    pred = HalfspacePredicate((1, 0), 0)
    _, balls = _localized_by_definition(A, pred, part.support_diam, scope)
    full_ref = svd_norm(A.block(scope, scope.points[pred.test(z2, scope.points)]))
    local_ref = max(svd_norm(A.block(scope, ball)) for ball in balls)
    seen = _record_dtypes(monkeypatch, "svd")
    full, local = restricted_norm(A, pred, scope), localized_norm(A, pred, part, scope)
    assert seen == []
    # every ball holds its centre, so the largest |c| is in some ball
    assert local == full
    if mode == "real":
        assert (full, local) == (full_ref, local_ref)
    else:
        assert full == pytest.approx(full_ref, rel=1e-12, abs=0)
        assert local == pytest.approx(local_ref, rel=1e-12, abs=0)


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
    """Hand every dense block and Gram band to LAPACK as complex128, as
    before the lane."""
    monkeypatch.setattr(limitops.operator, "_real_lane", lambda M: M)


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


def _record_band_calls(monkeypatch):
    """(routine, dtype) of every LAPACK ?sbevx/?hbevx call from now on."""
    seen, lapack = [], limitops._kernels._lapack()

    class Recording:
        def __getattr__(self, name):
            routine = getattr(lapack, name)
            if not name.endswith("bevx"):
                return routine

            def call(ab, *args, **kwargs):
                seen.append((name, np.asarray(ab).dtype))
                return routine(ab, *args, **kwargs)

            call.__name__ = name
            return call

    recording = Recording()
    monkeypatch.setattr(limitops._kernels, "_lapack", lambda: recording)
    return seen


@pytest.mark.parametrize("mode, dtype", [("real", np.float64), ("phase", np.complex128)])
def test_commutator_of_a_real_operator_runs_in_float64(z2, monkeypatch, mode, dtype):
    routine = "dsbevx" if dtype is np.float64 else "zhbevx"
    # a potential commutes with every multiplier, so the hop carries the phase
    A = laplacian(z2) + BandOperator(z2, {(1, 0): SeededRandomField(31, mode=mode)})
    scope = window(z2, 3)
    part = build_partition(z2, scope.pad(1), 0.5)
    with monkeypatch.context() as m:
        _complex_lane(m)
        ref = commutator_stack_norm(A, part, scope)
    seen = _record_band_calls(monkeypatch)
    got = commutator_stack_norm(A, part, scope)
    assert seen == [(routine, dtype)]
    assert got > 0.1
    assert got == pytest.approx(ref, rel=1e-12, abs=0)


LOWER_NORM_LANES = {
    # I + 0.3 S: a tridiagonal Gram on 81 points
    "z1-shift": (lambda z1, z2: identity(z1) + 0.3 * shift_operator(z1, (1,)), 40,
                 "dsbevx", np.float64),
    # 81 points, Gram bandwidth 18: one band call, no bisection
    "z2-real-potential": (
        lambda z1, z2: laplacian(z2) + multiplication(z2, SeededRandomField(34, mode="real")),
        4, "dsbevx", np.float64),
    "z2-phase-hop": (
        lambda z1, z2: laplacian(z2) + BandOperator(
            z2, {(1, 0): SeededRandomField(31, mode="phase")}),
        4, "zhbevx", np.complex128),
}


@pytest.mark.parametrize("case", list(LOWER_NORM_LANES))
def test_lower_norm_gram_of_a_real_operator_runs_in_float64(z1, z2, monkeypatch, case):
    build, radius, routine, dtype = LOWER_NORM_LANES[case]
    B = build(z1, z2)
    w = window(B.space, radius)
    with monkeypatch.context() as m:
        _complex_lane(m)
        ref = lower_norm_window(B, w)
    seen = _record_band_calls(monkeypatch)
    got = lower_norm_window(B, w)
    assert seen == [(routine, dtype)]
    assert got > 0.05
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


def test_dense_norms_name_a_non_finite_entry_before_the_svd(z1, monkeypatch):
    # each once reached LAPACK and failed with "SVD did not converge"
    B = BandOperator(z1, {(0,): 2.0, (1,): TableField({(2,): np.inf}, default=0.5)})
    w = window(z1, 4)
    seen = _record_dtypes(monkeypatch, "svd")
    for call in (lambda: window_norm(B, w, w.pad(1)),
                 lambda: restricted_norm(B, FullPredicate(), w)):
        with pytest.raises(InvalidConfigError,
                           match=r"^non-finite coefficient a\(u, v\) = inf at u = \[2\], v = \[3\]: "):
            call()
    assert seen == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [1.5, 2, 3])
def test_norms_refuse_a_non_finite_entry_at_every_p(z1, p):
    # at p = 1.5 the window norm once read (inf, inf) and the lower norm
    # 2.1634 after hundreds of warnings; at p = 2 the lower norm's dense SVD
    # read nan, and the localized norm 0.0 (max(0.0, nan))
    B = BandOperator(z1, {(0,): TableField({(2,): np.inf}, default=2.0), (1,): 1.0})
    w = window(z1, 4)
    part = build_partition(z1, w.pad(1), 0.5)
    for call in (lambda: window_norm(B, w, w.pad(1), p=p),
                 lambda: restricted_norm(B, FullPredicate(), w, p=p),
                 lambda: lower_norm_window(B, w, p=p),
                 lambda: commutator_stack_norm(B, part, w, p=p),
                 lambda: localized_norm(B, FullPredicate(), part, w, p=p)):
        with pytest.raises(InvalidConfigError,
                           match=r"^non-finite coefficient a\(u, v\) = inf at u = \[2\], v = \[2\]: "):
            call()


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


def _dense_commutator_norm(A, part, scope):
    """sqrt of the top eigenvalue of sum_t C_t^H C_t over every tent, each
    C_t the block on the padded scope and the scope scaled by
    phi_t(column) - phi_t(row)."""
    rows = scope.pad(A.propagation)
    M = A.block(rows, scope)
    G = np.zeros((scope.npoints, scope.npoints), dtype=np.complex128)
    for t in range(part.ntents):
        C = M * (part.root_values(t, scope.points, 2)[None, :]
                 - part.root_values(t, rows.points, 2)[:, None])
        G += C.conj().T @ C
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def _hermitian_fiber2():
    f2 = Space(kind="lattice", dim=1, fiber=2)
    B = BandOperator(f2, {(1, 0): SeededRandomField(3), (0, 1): 0.5,
                          (0, 0): SeededRandomField(4, mode="real")})
    return B + B.adjoint()


COMMUTATOR_CASES = {
    "z1-complex-band": (lambda z1, z2, l1: random_band(z1, 2, 7), 30),
    "z2-laplacian-potential": (
        lambda z1, z2, l1: laplacian(z2) + multiplication(z2, SeededRandomField(5, mode="real")), 6),
    "z1-fiber2-hermitian": (lambda z1, z2, l1: _hermitian_fiber2(), 12),
    "z2-l1-scope": (
        lambda z1, z2, l1: laplacian(l1) + BandOperator(l1, {(1, 1): SeededRandomField(9, mode="phase")}),
        7),
}


@pytest.mark.parametrize("case", list(COMMUTATOR_CASES))
@pytest.mark.parametrize("t", [0.5, 0.25])
def test_commutator_band_route_matches_the_dense_gram(z1, z2, z2_l1, case, t):
    build, radius = COMMUTATOR_CASES[case]
    A = build(z1, z2, z2_l1)
    scope = window(A.space, radius)
    part = build_partition(A.space, scope.pad(A.propagation), t)
    ref = _dense_commutator_norm(A, part, scope)
    assert ref > 0.05
    assert commutator_stack_norm(A, part, scope) == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("case", [*COMMUTATOR_CASES, "wide-stencil"])
def test_commutator_route_follows_the_gram_bandwidth(z1, z2, z2_l1, monkeypatch, case):
    """A Gram band holding more than half the matrix (a 401-offset stencil
    on 129 points) goes to the dense eigvalsh; the narrow ones to one LAPACK
    band call, real or complex as the band is."""
    if case == "wide-stencil":
        A, radius = BandOperator(z1, {(k,): 1.0 / (1.0 + k * k) for k in range(-200, 201)}), 64
    else:
        build, radius = COMMUTATOR_CASES[case]
        A = build(z1, z2, z2_l1)
    scope = window(A.space, radius)
    part = build_partition(A.space, scope.pad(A.propagation), 0.5)
    dense = _record_dtypes(monkeypatch, "eigvalsh")
    band = _record_band_calls(monkeypatch)
    commutator_stack_norm(A, part, scope)
    routines = {"z1-complex-band": "zhbevx", "z2-laplacian-potential": "dsbevx",
                "z1-fiber2-hermitian": "zhbevx", "z2-l1-scope": "zhbevx"}
    if case == "wide-stencil":
        assert (len(dense), band) == (1, [])
    else:
        assert (dense, [name for name, _ in band]) == ([], [routines[case]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("route", ["band", "dense"])
def test_commutator_refuses_a_gram_that_overflows(z1, monkeypatch, route):
    """Both routes refuse a Gram whose products overflow, with the sweep's
    message; the band route once handed its overflowing Gram to the dense
    one, which ended in "Eigenvalues did not converge"."""
    if route == "band":
        A, radius = BandOperator(z1, {(1,): 1e300, (0,): 1.0}), 10
    else:
        stencil = {(k,): 1.0 / (1.0 + k * k) for k in range(-200, 201)}
        A, radius = BandOperator(z1, {**stencil, (3,): 1e300}), 64
    scope = window(z1, radius)
    part = build_partition(z1, scope.pad(A.propagation), 0.5)
    block = BandOperator.block
    blocks = []
    monkeypatch.setattr(BandOperator, "block",
                        lambda op, rows, cols: blocks.append(cols) or block(op, rows, cols))
    with pytest.raises(InvalidConfigError, match=r"^the window's Gram bands overflow: a "
                                                 r"coefficient is too large to square in float64$"):
        commutator_stack_norm(A, part, scope)
    assert len(blocks) == (route == "dense")


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


# -- gaps decided from coefficient values ---------------------------------------

Z1_FIBER2 = Space(kind="lattice", dim=1, fiber=2)
_SPACES = {"z1": Space(kind="lattice", dim=1), "z2": Space(kind="lattice", dim=2),
           "z1-fiber2": Z1_FIBER2}


def _block_route(A, rows, cols, p, floor=None):
    """``_window_value`` with the coefficient route off: the block is formed
    and its entries read by np.abs(M).max()."""
    with mock.patch.object(limitops.operator, "_covers", lambda A, rows, cols: False):
        return limitops.operator._window_value(A, rows, cols, p, floor)


_REAL = st.one_of(st.just(0.0), st.sampled_from([1.0, -0.5, 0.25]),
                  st.floats(-4, 4, allow_nan=False, allow_infinity=False))
_VALUE = st.one_of(_REAL, st.complex_numbers(max_magnitude=4, allow_nan=False,
                                             allow_infinity=False))


def _point(space, coord):
    """A strategy for points (or offsets) with lattice coordinates drawn from
    coord and, on a fiber, a fiber coordinate in 0..fiber-1."""
    fiber = (st.integers(0, space.fiber - 1),) if space.fiber > 1 else ()
    return st.tuples(*[coord] * space.dim, *fiber)


@st.composite
def _coefficients(draw, space):
    kind = draw(st.sampled_from(["constant", "table", "periodic", "complex"]))
    if kind == "constant":
        return ConstantField(draw(_VALUE))
    if kind == "table":
        entries = draw(st.dictionaries(_point(space, st.integers(-4, 4)), _VALUE, max_size=5))
        return TableField(entries, default=draw(st.one_of(st.just(0.0), _VALUE)))
    if kind == "periodic":
        period = tuple(draw(st.integers(1, 3)) for _ in range(space.dim))
        shape = period + ((space.fiber,) if space.fiber > 1 and draw(st.booleans()) else ())
        values = draw(st.lists(_REAL, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        return PeriodicField(np.reshape(values, shape), period)
    # a real table or periodic field times a complex factor
    base = draw(_coefficients(space).filter(lambda f: not isinstance(f, ConstantField)))
    return base.scaled(draw(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                               allow_infinity=False)))


@st.composite
def _gap_cases(draw):
    space = _SPACES[draw(st.sampled_from(sorted(_SPACES)))]
    # fiber coordinates outside 0..fiber-1 wrap (and merge) in __init__
    offsets = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * space.point_arity),
                            min_size=1, max_size=3))
    A = BandOperator(space, {k: draw(_coefficients(space)) for k in offsets})
    centre = draw(_point(space, st.integers(-3, 3)))
    radius = draw(st.sampled_from([0, 1, 2, 3, 1.5, 2.7]))
    rows = Window(space, centre, radius)
    cols = Window(space, centre, radius + A.propagation + draw(st.sampled_from([0, 1, 0.5])))
    M = A.block(rows, cols)
    # floors exactly at half an entry, and one ulp either side
    half = draw(st.sampled_from(np.abs(M[M != 0]).tolist() or [1.0])) / 2
    floor = draw(st.sampled_from([None, 0.0, half, np.nextafter(half, 0.0),
                                  np.nextafter(half, np.inf)]))
    return A, rows, cols, M, draw(st.sampled_from([2, 1.5])), floor


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_gap_cases())
def test_the_coefficient_route_decides_every_gap_like_the_block(case):
    A, rows, cols, M, p, floor = case
    assert limitops.operator._covers(A, rows, cols)
    got = limitops.operator._window_value(A, rows, cols, p, floor)
    assert repr(got) == repr(_block_route(A, rows, cols, p, floor))
    # the block's entries are exactly the coefficient values
    top = max((np.abs(limitops.operator._coefficient_values(A.space, k, f, rows.points)).max()
               for k, f in A.stencil.items()), default=0.0)
    assert repr(float(top)) == repr(float(np.abs(M).max()))
    assert (top == 0) == (got in (0.0, (0.0, 0.0)))


def test_fiber_offsets_that_wrap_together_are_one_stencil_entry():
    # on fiber 2, (0, 1) and (0, -1) are one offset: __init__ merges them, so
    # no two values of a row share a block entry
    A = BandOperator(Z1_FIBER2, {(0, 1): 0.5, (0, -1): TableField({(1, 0): 2.0}, default=0.25)})
    assert list(A.stencil) == [(0, 1)] and A.propagation == 1
    rows, cols = window(Z1_FIBER2, 2), window(Z1_FIBER2, 3)
    assert limitops.operator._covers(A, rows, cols)
    for p in (2, 1.5):
        # the largest entry is 0.5 + 2.0 at (1, 0)
        for floor in (None, 1.25, np.nextafter(1.25, 0.0)):
            got = limitops.operator._window_value(A, rows, cols, p, floor)
            assert repr(got) == repr(_block_route(A, rows, cols, p, floor))
            assert (got is None) == (floor is not None and floor < 1.25)


@pytest.mark.parametrize("value", [5e-324, 1e-300])
def test_a_tiny_gap_is_valued_not_taken_for_zero(z1, value):
    # only an exactly zero set of values skips the block
    A = BandOperator(z1, {(1,): TableField({(2,): value})})
    rows, cols = window(z1, 3), window(z1, 4)
    for p in (2, 1.5):
        got = limitops.operator._window_value(A, rows, cols, p)
        assert repr(got) == repr(_block_route(A, rows, cols, p))
        assert got not in (0.0, (0.0, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, floor", [(2, None), (2, 1e-9), (1.5, 1e-9)])
def test_a_non_finite_coefficient_reads_the_same_through_both_routes(z1, p, floor):
    A = laplacian_stencil(z1) + multiplication(z1, ExpressionField("1/n"))
    messages = []
    for value in (limitops.operator._window_value, _block_route):
        with pytest.raises(InvalidConfigError) as exc:
            value(A, window(z1, 3), window(z1, 4), p, floor)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == (
        "non-finite coefficient a(u, v) = inf at u = [0], v = [0]: "
        "band operators need finite coefficients")
