import warnings

import numpy as np
import pytest

from limitops import (
    BandOperator,
    ConstantField,
    ExpressionField,
    FAMILY_CAVEAT,
    HalfspacePredicate,
    InvalidConfigError,
    PeriodicField,
    Ray,
    SeededRandomField,
    Space,
    SubspaceProjection,
    TableField,
    UnsupportedConstructionError,
    Window,
    build_partition,
    compactness_test,
    ess_norm_estimate,
    essential_spectrum_estimate,
    floquet_spectrum,
    fredholm_test,
    hausdorff_distance,
    identity,
    invertibility_estimate,
    laplacian_stencil,
    lower_norm_localized,
    lower_norm_window,
    multiplication,
    nu_grid_indicator,
    shift_operator,
    spectrum_estimate_for,
    symbol_spectrum,
    window_norm,
)

from limitops.fredholm import _banded_data, _grid, _tall_block

from conftest import window


# -- lower norms ------------------------------------------------------------


def test_lower_norm_window_matches_dense_oracle(z1):
    A = laplacian_stencil(z1) + multiplication(z1, SeededRandomField(2))
    w = window(z1, 10)
    rows = window(z1, 11)
    M = A.block(rows.points, w.points)
    ref = np.linalg.svd(M, compute_uv=False)[-1]
    assert np.isclose(lower_norm_window(A, w), ref, atol=1e-12)


def test_lower_norm_monotone_under_enlargement(z1):
    A = laplacian_stencil(z1) + multiplication(z1, PeriodicField([0.3, -0.8, 1.1]))
    vals = [lower_norm_window(A, window(z1, r)) for r in (5, 10, 20, 40)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_lower_norm_empty_support_warns(z1):
    A = laplacian_stencil(z1)
    with pytest.warns(UserWarning):
        v = lower_norm_window(A, np.empty((0, 1), dtype=np.int64))
    assert v == np.inf


def test_lower_norm_identity_is_one_for_any_p(z1):
    I = identity(z1)
    w = window(z1, 6)
    assert np.isclose(lower_norm_window(I, w), 1.0, atol=1e-12)
    for p in (1.5, 3.0):
        # every quotient ||Ix||_p / ||x||_p equals one
        assert np.isclose(lower_norm_window(I, w, p=p), 1.0, atol=1e-9)


def test_lower_norm_scaled_shift(z1):
    V = shift_operator(z1, (1,)).scaled(0.25)
    w = window(z1, 6)
    assert np.isclose(lower_norm_window(V, w), 0.25, atol=1e-12)


def test_localized_lower_norm_dominates_plain(z1):
    A = laplacian_stencil(z1) + multiplication(z1, SeededRandomField(7))
    pred = HalfspacePredicate((1,), -100)
    scope = window(z1, 30)
    part = build_partition(z1, window(z1, 31), 0.5)
    sup = scope.points[pred.test(z1, scope.points)]
    nu = lower_norm_window(A, sup)
    nut = lower_norm_localized(A, pred, part, scope)
    assert nu <= nut + 1e-12


def test_lower_norm_zero_when_rows_fewer_than_support(z1):
    # an 11-point support mapped onto 7 rows leaves a unit vector in the kernel
    S = shift_operator(z1, (1,))
    assert lower_norm_window(S, window(z1, 5), rows=window(z1, 3)) == 0.0
    M = S.block(window(z1, 3).points, window(z1, 5).points)
    x = np.zeros(M.shape[1])
    x[np.nonzero(~M.any(axis=0))[0][0]] = 1.0  # a column no row reaches
    assert np.linalg.norm(M @ x) == 0.0


# -- structured p = 2 paths against the dense SVD -----------------------------

STRUCTURED_SPACES = [
    Space(kind="lattice", dim=1),
    Space(kind="lattice", dim=1, fiber=3),
    Space(kind="lattice", dim=2, metric="linf"),
    Space(kind="lattice", dim=2, metric="l1"),
]
STRUCTURED_IDS = ["z1", "z1-fiber3", "z2-linf", "z2-l1"]


def _dense_lower(B, pts):
    return float(np.linalg.svd(_tall_block(B, pts), compute_uv=False)[-1])


def _dense_norm(A, rows, cols):
    M = A.block(rows, cols)
    return float(np.linalg.svd(M, compute_uv=False)[0]) if np.any(M) else 0.0


def _supports(space):
    """Two windows, a point set with holes (as lower_norm_localized passes),
    a single point, and a point set with a repeat (dense SVD decides)."""
    arity = space.point_arity
    big = Window(space, (1,) + (0,) * (arity - 1), 4)
    holes = big.points[SeededRandomField(4, mode="real").eval(space, big.points).real > -0.4]
    return [Window(space, (0,) * arity, 2), big, holes, big.points[:1],
            np.vstack([holes, holes[-1:]])]


@pytest.mark.parametrize("space", STRUCTURED_SPACES, ids=STRUCTURED_IDS)
def test_structured_diagonal_paths_match_dense_svd(space):
    real = multiplication(space, ExpressionField("n1 * n1 - 3"))
    complex_ops = [multiplication(space, SeededRandomField(24, mode="phase")),
                   multiplication(space, SeededRandomField(25))]
    for sup in _supports(space):
        pts = sup.points if isinstance(sup, Window) else sup
        assert lower_norm_window(real, sup) == _dense_lower(real, pts)
        for A in complex_ops:
            assert abs(lower_norm_window(A, sup) - _dense_lower(A, pts)) <= 1e-10
    for r in (0, 3):
        rows, cols = Window(space, space.basepoint, r), Window(space, space.basepoint, r + 1)
        repeat = np.vstack([rows.points, rows.points[:1]])
        for rw, cl in ((rows, cols), (cols, rows), (rows, rows), (repeat, cols),
                       (cols, repeat)):
            assert window_norm(real, rw, cl) == _dense_norm(real, rw, cl)
            for A in complex_ops:
                assert abs(window_norm(A, rw, cl) - _dense_norm(A, rw, cl)) <= 1e-10
    empty = BandOperator(space, {})
    w = Window(space, space.basepoint, 3)
    assert window_norm(empty, w, w) == 0.0
    assert lower_norm_window(empty, w) == 0.0


@pytest.mark.parametrize("space", STRUCTURED_SPACES, ids=STRUCTURED_IDS)
def test_structured_gram_path_matches_dense_svd(space):
    arity = space.point_arity
    lap = laplacian_stencil(space)
    rnd = BandOperator(space, {
        (0,) * arity: SeededRandomField(21),
        (1,) + (0,) * (arity - 1): SeededRandomField(22),
        (0,) * (arity - 1) + (1,): SeededRandomField(23, mode="phase"),
    })
    ops = [lap + multiplication(space, ExpressionField("n1 - 0.5")),
           rnd,
           (0.5 + 0.25j) * (lap @ rnd) - rnd.adjoint() + 2.0]
    for sup in _supports(space):
        pts = sup.points if isinstance(sup, Window) else sup
        for B in ops:
            assert abs(lower_norm_window(B, sup) - _dense_lower(B, pts)) <= 1e-10


def test_structured_paths_at_verdict_sizes_skip_the_svd(z1, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("dense SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    w = window(z1, 400)
    got = lower_norm_window(shift_operator(z1, (1,)) - identity(z1), w)
    assert abs(got - 2 * np.sin(np.pi / 1604)) <= 1e-12
    assert lower_norm_window(identity(z1), w) == 1.0
    assert window_norm(identity(z1), w, w.pad(1)) == 1.0


def test_structured_gram_path_falls_back_on_a_kernel(z1):
    # (e_2 - e_3) / sqrt 2 is in the kernel: the Gram eigenvalue is below the
    # floor and the dense SVD decides, bit for bit
    B = BandOperator(z1, {(0,): TableField({(3,): 0.0}, default=1.0),
                          (1,): TableField({(1,): 0.0}, default=1.0)})
    w = window(z1, 6)
    got = lower_norm_window(B, w)
    assert got == _dense_lower(B, w.points)
    assert got < 1e-12


@pytest.mark.parametrize("offset", [(0,), (1,)])
def test_structured_paths_raise_on_nan_like_the_svd(z1, offset):
    nan = TableField({(2,): np.nan}, default=0.5)
    B = BandOperator(z1, {(0,): 2.0, offset: nan})
    w = window(z1, 5)
    with pytest.raises(np.linalg.LinAlgError):
        _dense_lower(B, w.points)
    with pytest.raises(np.linalg.LinAlgError):
        lower_norm_window(B, w)
    if offset == (0,):
        with pytest.raises(np.linalg.LinAlgError):
            window_norm(B, w, w)


# -- invertibility ----------------------------------------------------------


def test_invertibility_of_clearly_invertible_operator(z1):
    A = laplacian_stencil(z1) + multiplication(z1, ConstantField(5.0))
    est = invertibility_estimate(A, (10, 20, 40))
    assert est.verdict == "evidenceInvertible"
    assert est.margin > 1.0
    assert est.nu_upper == sorted(est.nu_upper, reverse=True)
    d = est.to_descriptor()
    assert d["verdict"] == est.verdict
    assert d["radii"] == [10, 20, 40]


def test_invertibility_flags_shifted_laplacian(z1):
    # 0 lies in the spectrum; window lower norms collapse
    A = laplacian_stencil(z1)
    est = invertibility_estimate(A, (20, 40, 80))
    assert est.verdict == "notInvertibleAtLevel"
    assert est.margin < 0.05


def test_invertibility_requires_increasing_schedule(z1):
    with pytest.raises(InvalidConfigError):
        invertibility_estimate(identity(z1), (10, 10))


def test_invertibility_uses_adjoint_exponent(z1):
    est = invertibility_estimate(identity(z1), (4, 8, 16), p=1.5)
    assert est.p == 1.5
    assert est.verdict == "evidenceInvertible"
    assert np.isclose(est.margin, 1.0, atol=1e-6)


# -- oracles ----------------------------------------------------------------


def test_symbol_spectrum_of_laplacian_is_interval(z1):
    pts = symbol_spectrum(laplacian_stencil(z1))
    assert np.abs(pts.imag).max() <= 1e-12
    assert np.isclose(pts.real.min(), -2.0, atol=1e-5)
    assert np.isclose(pts.real.max(), 2.0, atol=1e-5)


def test_symbol_spectrum_rejects_varying_coefficients(z1):
    with pytest.raises(InvalidConfigError):
        symbol_spectrum(multiplication(z1, ExpressionField("n")))


def test_symbol_spectrum_shift_is_circle(z1):
    pts = symbol_spectrum(shift_operator(z1, (1,)), theta_grid=512)
    assert np.allclose(np.abs(pts), 1.0, atol=1e-12)


def test_symbol_spectrum_2d(z2):
    pts = symbol_spectrum(laplacian_stencil(z2), theta_grid=4096)
    assert np.abs(pts.imag).max() <= 1e-12
    assert np.isclose(pts.real.min(), -4.0, atol=1e-2)
    assert np.isclose(pts.real.max(), 4.0, atol=1e-2)


def test_symbol_spectrum_fiber_matrix():
    # both hoppings target the other fiber slot, so the 2x2 symbol is
    # off-diagonal with entry 2 + 2 cos(theta); eigenvalues sweep [-4, 4]
    sp = Space(kind="lattice", dim=1, fiber=2)
    A = BandOperator(sp, {(0, 1): 1.0, (1, 1): 1.0})
    A = A + A.adjoint()
    pts = symbol_spectrum(A, theta_grid=1024)
    assert np.abs(pts.imag).max() <= 1e-8
    assert np.isclose(pts.real.min(), -4.0, atol=1e-9)
    assert np.isclose(pts.real.max(), 4.0, atol=1e-9)
    assert np.abs(pts).min() <= 1e-12


def test_floquet_period2_band_edges(z1):
    v = PeriodicField([1.0, -1.0])
    A = laplacian_stencil(z1) + multiplication(z1, v)
    pts = floquet_spectrum(A, theta_grid=2048)
    assert np.abs(pts.imag).max() <= 1e-9
    a = np.abs(pts.real)
    # bands are +-sqrt(3 + 2 cos theta): every value in [1, sqrt(5)]
    assert np.isclose(a.min(), 1.0, atol=1e-3)
    assert np.isclose(a.max(), np.sqrt(5.0), atol=1e-3)
    assert ((a >= 1.0 - 1e-9) & (a <= np.sqrt(5.0) + 1e-9)).all()


def test_floquet_matches_symbol_for_constant_operators(z1):
    A = laplacian_stencil(z1) + multiplication(z1, ConstantField(0.5))
    f = floquet_spectrum(A, theta_grid=512)
    s = symbol_spectrum(A, theta_grid=512)
    assert hausdorff_distance(f, s) <= 1e-9


def test_floquet_rejects_unsupported_shapes(z2):
    with pytest.raises(UnsupportedConstructionError):
        floquet_spectrum(laplacian_stencil(z2))


# -- banded nu-grid ----------------------------------------------------------


def _dense_banded_reference(B, radius):
    """The sweep's band data from the dense tall window block T0 and the
    dense product T0^H T0, diagonal by diagonal."""
    m = B.space.fiber
    wl = max((abs(k[0]) for k in B.stencil), default=0)
    n, pad = (2 * radius + 1) * m, wl * m

    def pts(lo, hi):
        us = np.arange(lo, hi + 1, dtype=np.int64)
        if m == 1:
            return us.reshape(-1, 1)
        return np.stack([np.repeat(us, m), np.tile(np.arange(m), us.size)], axis=1)

    T0 = B.block(pts(-radius - wl, radius + wl), pts(-radius, radius))
    G0 = T0.conj().T @ T0
    S = T0[pad : pad + n]
    bw = 2 * (wl * m + m - 1)
    gb, sl, su = (np.zeros((bw + 1, n), dtype=np.complex128) for _ in range(3))
    for i in range(min(bw + 1, n)):
        gb[i, : n - i] = np.diagonal(G0, offset=-i)
        sl[i, : n - i] = np.diagonal(S, offset=-i)
        su[i, : n - i] = np.diagonal(S, offset=i)
    return gb, sl, su, bw, n


_FIB3 = Space(kind="lattice", dim=1, fiber=3)
_Z1 = Space(kind="lattice", dim=1)
BANDED_CASES = {
    "z1": laplacian_stencil(_Z1) + multiplication(_Z1, PeriodicField([0.5, 0.0, -0.5])),
    "z1-fiber3": BandOperator(_FIB3, {(1, 0): 1.0, (-1, 2): 0.5j, (0, 1): 0.6,
                                      (2, 5): SeededRandomField(3)}),
    "non-hermitian": BandOperator(_Z1, {(0,): PeriodicField([1 + 1j, -0.5j, 2.0]),
                                        (1,): PeriodicField([0.3, 1j]),
                                        (-2,): 0.7 - 0.2j}),
    # the Gram matrix is the identity (bandwidth 0), the slice has bandwidth 2
    "pure-shift": shift_operator(_Z1, (2,)),
    "zero": BandOperator(_Z1, {}),
}


@pytest.mark.parametrize("name", list(BANDED_CASES))
def test_banded_data_matches_dense_reference(name):
    B = BANDED_CASES[name]
    eps_scale = 8 * np.finfo(float).eps * B.norm_bound()[0] ** 2
    for radius in (0, 1, 7, 60):
        gb, sl, su, bw, n = _banded_data(B, radius)
        rgb, rsl, rsu, rbw, rn = _dense_banded_reference(B, radius)
        assert (bw, n) == (rbw, rn)
        assert gb.shape == rgb.shape and sl.shape == rsl.shape and su.shape == rsu.shape
        assert np.array_equal(sl, rsl) and np.array_equal(su, rsu)
        assert np.abs(gb - rgb).max() <= eps_scale


def test_sweep_setup_forms_no_dense_block(z1, monkeypatch):
    # the dense set-up took about 6 s and an n^2 block at this radius
    def no_block(*args, **kwargs):
        raise AssertionError("dense block formed")

    monkeypatch.setattr(BandOperator, "block", no_block)
    A = laplacian_stencil(z1) + multiplication(z1, PeriodicField([0.5, 0.0, -0.5]))
    got = nu_grid_indicator(A, [0.3 + 0.1j, 2.5 + 0.5j], radius=2000)
    assert np.isfinite(got).all() and (got > 0).all()


@pytest.mark.parametrize("tau", [None, 0.6])
def test_nu_grid_zero_operator(z1, tau):
    # the empty stencil is the zero operator: nu(0 - z) = |z|
    zs = np.array([0.0, 0.5, 1j, -0.75, 0.75 + 1j, -2 - 0.5j])
    got = nu_grid_indicator(BandOperator(z1, {}), zs, radius=5, tau=tau)
    above = np.abs(zs) > (np.inf if tau is None else tau)
    assert np.array_equal(np.isinf(got), above)
    assert np.array_equal(got[~above], np.abs(zs[~above]))


def test_nu_grid_matches_dense_lower_norms(z1):
    A = laplacian_stencil(z1) + multiplication(z1, PeriodicField([0.5, 0.0, -0.5]))
    zs = np.array([0.0 + 0.0j, 1.0 + 0.0j, 2.5 + 0.5j, 0.3 - 1.2j])
    got = nu_grid_indicator(A, zs, radius=60)
    w = window(z1, 60)
    rows = window(z1, 61)
    for i, z in enumerate(zs):
        Mz = A.sub_scalar(z)
        direct = np.linalg.svd(Mz.block(rows.points, w.points), compute_uv=False)[-1]
        adj = np.linalg.svd(Mz.adjoint().block(rows.points, w.points),
                            compute_uv=False)[-1]
        assert np.isclose(got[i], min(direct, adj), rtol=1e-4, atol=1e-8)


def test_nu_grid_real_kernel_mirror_symmetry(z1):
    A = laplacian_stencil(z1)
    zs = np.array([0.5 + 0.7j, 0.5 - 0.7j, -1.0 + 0.2j, -1.0 - 0.2j])
    got = nu_grid_indicator(A, zs, radius=50)
    assert got[0] == got[1]
    assert got[2] == got[3]


def test_grid_holds_exact_conjugate_pairs():
    # the real-kernel fold merges z and conj z only when both are on the
    # grid bit for bit
    zs = _grid((-3.2, 3.2, -0.48, 0.48), 0.08)
    assert zs.size == 81 * 13
    assert set(zs.tolist()) == set(np.conj(zs).tolist())
    assert np.unique(np.where(zs.imag < 0, np.conj(zs), zs)).size == 81 * 7


def test_nu_grid_threads_deterministic(z1):
    # 1100 points span several sweep chunks, so the pool really runs
    A = laplacian_stencil(z1) + multiplication(z1, PeriodicField([0.2, -0.2]))
    zs = (np.linspace(-2.5, 2.5, 1100) + 0.1j).astype(np.complex128)
    a = nu_grid_indicator(A, zs, radius=40, threads=1)
    b = nu_grid_indicator(A, zs, radius=40, threads=8)
    assert np.array_equal(a, b)


def test_nu_grid_cloud_values_match_dense_svd():
    # fibered Hermitian stencil: every cloud indicator is the window lower
    # norm itself, not an estimate above it
    sp = Space(kind="lattice", dim=1, fiber=2)
    A = BandOperator(sp, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 0.6})
    est = spectrum_estimate_for(A, "fib", method="nuGrid", radius=30, pitch=0.08,
                                tau=0.12, z_box=(-3.2, 3.2, -0.4, 0.4))
    assert est.cloud.size > 150
    cols = np.stack([np.repeat(np.arange(-30, 31), 2), np.tile([0, 1], 61)], axis=1)
    for z, got in zip(est.cloud[::6], est.cloud_indicators[::6]):
        Mz = A.sub_scalar(z)
        direct = np.linalg.svd(_tall_block(Mz, cols), compute_uv=False)[-1]
        adj = np.linalg.svd(_tall_block(Mz.adjoint(), cols), compute_uv=False)[-1]
        assert np.isclose(got, min(direct, adj), rtol=1e-9, atol=0)


def test_nu_grid_rejects_non_finite_input(z1):
    lap = laplacian_stencil(z1)
    for src in ("1/n", "log(abs(n))", "sqrt(n)"):
        A = lap + multiplication(z1, ExpressionField(src))
        with np.errstate(all="ignore"), pytest.raises(InvalidConfigError,
                                                      match="not finite"):
            nu_grid_indicator(A, [0.3 + 0.1j, 5], radius=10)
    with pytest.raises(InvalidConfigError, match="grid point"):
        nu_grid_indicator(lap, [0.3, complex(np.nan, 0.0)], radius=10)


def test_nu_grid_non_finite_coefficient_raises_before_any_arithmetic(z1):
    # the coefficients are checked before any band product is formed, so no
    # numpy warning precedes the error
    A = laplacian_stencil(z1) + multiplication(z1, ExpressionField("1/n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfigError, match="not finite"):
            nu_grid_indicator(A, [0.3 + 0.1j, 5], radius=10)


def test_spectrum_estimate_method_dispatch(z1):
    lap = laplacian_stencil(z1)
    est = spectrum_estimate_for(lap, "lap")
    assert est.method == "symbolOracle"
    per = lap + multiplication(z1, PeriodicField([1.0, -1.0]))
    est2 = spectrum_estimate_for(per, "per")
    assert est2.method == "floquet"
    rand = lap + multiplication(z1, SeededRandomField(3))
    est3 = spectrum_estimate_for(rand, "rand", radius=40, pitch=0.25, tau=0.5)
    assert est3.method == "nuGrid"
    assert est3.meta["windowRadius"] == 40
    assert est3.indicators.size == est3.points.size
    assert 0 < est3.cloud.size < est3.points.size


def test_spectrum_estimate_descriptor(z1):
    est = spectrum_estimate_for(laplacian_stencil(z1), "lap", tau=0.05)
    d = est.to_descriptor()
    assert d["method"] == "symbolOracle"
    assert d["limitOperatorLabel"] == "lap"
    assert len(d["points"]) == est.cloud.size
    assert d["meta"]["thetaGrid"] == 2048


# -- verdicts ----------------------------------------------------------------


def test_compactness_of_finitely_supported_kernel(z1):
    A = BandOperator(z1, {(0,): TableField({(0,): 3.0, (1,): -1.0}),
                          (2,): TableField({(5,): 2.0})})
    out = compactness_test(A, [Ray((1,)), Ray((-1,))])
    assert out["verdict"] == "compact-consistent"
    assert out["maxLimitNorm"] == 0.0
    for cert in out["sequences"]:
        assert max(cert["limitNorms"]) == 0.0
        assert cert["exact"]


def test_identity_is_not_compact(z1):
    out = compactness_test(identity(z1), [Ray((1,))])
    assert out["verdict"] == "not-compact-consistent"
    assert out["maxLimitNorm"] == 1.0


def test_decaying_potential_is_compact_consistent(z1):
    M = multiplication(z1, ExpressionField("exp(0 - abs(n) / 6)"))
    out = compactness_test(M, [Ray((1,)), Ray((-1,))], tol=1e-9)
    assert out["verdict"] == "compact-consistent"
    for cert in out["sequences"]:
        assert not cert["exact"]
        assert max(cert["limitNorms"]) <= 1e-9
    assert out["caveat"] == FAMILY_CAVEAT


def test_fredholm_compressed_shift_consistent(z1):
    proj = SubspaceProjection(z1, HalfspacePredicate((1,), 0))
    V = shift_operator(z1, (1,))
    out = fredholm_test(V, proj, [Ray((1,)), Ray((-1,))], schedule=(25, 50, 100))
    assert out["verdict"] == "Fredholm-consistent"
    assert not out["certified"]
    assert out["supInverseNormEstimate"] <= 1.0 + 1e-9
    assert out["caveat"] == FAMILY_CAVEAT


def test_fredholm_detects_spectrum_through_zero(z1):
    # compressed shift minus identity: the limit toward the subspace interior
    # is V - 1 whose spectrum circles through 0
    proj = SubspaceProjection(z1, HalfspacePredicate((1,), 0))
    A = shift_operator(z1, (1,)) - identity(z1)
    out = fredholm_test(A, proj, [Ray((1,)), Ray((-1,))],
                        schedule=(25, 50, 100, 200))
    assert out["verdict"] == "notFredholm"
    assert out["certified"]
    assert out["witnessSequence"]
    assert out["witnessMargin"] < 0.05


def test_fredholm_divergent_sequence_inconclusive(z1):
    A = laplacian_stencil(z1) + multiplication(z1, SeededRandomField(1))
    proj = SubspaceProjection(z1, HalfspacePredicate((1,), 0))
    out = fredholm_test(A, proj, [Ray((1,))], schedule=(10, 20, 40),
                        budget=2 ** 12)
    assert out["verdict"] == "inconclusive"
    assert out["divergences"]


def test_ess_norm_bounds_nested(z1):
    A = laplacian_stencil(z1)
    proj = SubspaceProjection(z1, HalfspacePredicate((1,), 0))
    out = ess_norm_estimate(A, proj, [Ray((1,)), Ray((-1,))])
    assert out["lower"] <= out["upper"] + 1e-12
    assert out["upper"] <= 2.0 + 1e-9
    assert out["lower"] >= 1.9  # window-100 view of the true value 2


def test_essential_spectrum_symbol_route(z1):
    A = laplacian_stencil(z1)
    out = essential_spectrum_estimate(A, None, [Ray((1,)), Ray((-1,))],
                                      method="symbolOracle")
    assert out["estimates"]
    ref = np.linspace(-2, 2, 801).astype(complex)
    assert hausdorff_distance(out["unionCloud"], ref) <= 0.01
    assert out["caveat"] == FAMILY_CAVEAT
    assert out["divergences"] == []
    assert out["params"]["method"] == "symbolOracle"


def test_hausdorff_distance_basics():
    a = np.array([0 + 0j, 1 + 0j])
    b = np.array([0 + 0j, 1 + 0j, 1 + 1j])
    assert hausdorff_distance(a, a) == 0.0
    assert np.isclose(hausdorff_distance(a, b), 1.0)
    assert np.isclose(hausdorff_distance(b, a), 1.0)
    assert hausdorff_distance(np.empty(0), a) == np.inf
    assert hausdorff_distance(np.empty(0), np.empty(0)) == 0.0
