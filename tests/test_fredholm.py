import warnings
from types import SimpleNamespace

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

from limitops import _kernels, fredholm
from limitops.fredholm import _banded_data, _grid, _tall_block

from conftest import GRID, Z1_FIBER3, window


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


def _sorted_points(pts):
    return pts[np.lexsort(pts.T[::-1])]


@pytest.mark.parametrize("case", ["z1", "z2-l1", "z1-fiber3"])
def test_lower_norm_localized_values_the_whole_balls(z1, z2_l1, monkeypatch, case):
    """The supports valued are the distinct non-empty B(x, r_t) ∩ F over the
    scope centres x, in full (past the scope's edge), each once, in the
    order they first occur; the value is the least lower norm over them."""
    if case == "z1":
        A = laplacian_stencil(z1) + multiplication(z1, SeededRandomField(7)) + 2.5
        scope, pred, rt = window(z1, 20), HalfspacePredicate((1,), -12), 6
    elif case == "z2-l1":
        A = laplacian_stencil(z2_l1) + multiplication(z2_l1, SeededRandomField(8)) + 5.0
        scope, pred, rt = window(z2_l1, 4), HalfspacePredicate((1, 1), 0), 3
    else:
        A = BandOperator(Z1_FIBER3, {(1, 0): SeededRandomField(4), (0, 1): 0.5,
                                     (0, 0): 3.0})
        scope, pred, rt = window(Z1_FIBER3, 6, (0, 1)), HalfspacePredicate((1,), -2), 4
    space = A.space
    # the localised norm reads only the partition's support diameter
    part = SimpleNamespace(support_diam=rt)
    # every point within rt of the scope, from the full distance block
    lo, hi = scope.bounds()
    cands = space.box_points(lo - int(rt), hi + int(rt))
    near = space.dist_block(scope.points, cands) <= rt
    balls = []
    for row in near:
        ball = _sorted_points(cands[row & pred.test(space, cands)])
        if ball.size and not any(np.array_equal(ball, b) for b in balls):
            balls.append(ball)
    assert len(balls) > 1
    want = min(lower_norm_window(A, b) for b in balls)
    seen = []
    plain = fredholm.lower_norm_window
    monkeypatch.setattr(fredholm, "lower_norm_window",
                        lambda B, sup, p=2: seen.append(sup) or plain(B, sup, p))
    got = lower_norm_localized(A, pred, part, scope)
    assert [_sorted_points(s).tolist() for s in seen] == [b.tolist() for b in balls]
    assert got == want
    # some ball reaches past the scope: the supports are not cut to it
    assert any((scope.locate(s) < 0).any() for s in seen)


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


def _svdvals(M):
    """Singular values on the library's lane: a block with no imaginary part
    goes to LAPACK in float64."""
    return np.linalg.svd(M if M.imag.any() else M.real, compute_uv=False)


def _dense_lower(B, pts):
    return float(_svdvals(_tall_block(B, pts)[1])[-1])


def _dense_norm(A, rows, cols):
    M = A.block(rows, cols)
    return float(_svdvals(M)[0]) if np.any(M) else 0.0


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_structured_gram_path_falls_back_on_an_overflow(z1):
    # the Gram of 3e200 I + 1e200 S overflows, the dense SVD does not: the
    # lower norm is 2e200 up to the window's edge effect
    B = BandOperator(z1, {(1,): 1e200, (0,): 3e200})
    w = window(z1, 20)
    got = lower_norm_window(B, w)
    assert got == pytest.approx(_dense_lower(B, w.points), rel=1e-12, abs=0)
    assert 2e200 < got < 2.01e200


@pytest.mark.parametrize("offset", [(0,), (1,)])
def test_structured_paths_raise_on_nan_like_the_svd(z1, offset):
    # LAPACK's SVD fails on a NaN entry
    M = np.diag([2.0, np.nan, 2.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(M, compute_uv=False)
    nan = TableField({(2,): np.nan}, default=0.5)
    B = BandOperator(z1, {(0,): 2.0, offset: nan})
    w = window(z1, 5)
    # the structured paths and the dense block itself name the entry before
    # the SVD would fail on it
    v = [2] if offset == (0,) else [3]
    for call in (lambda: lower_norm_window(B, w), lambda: window_norm(B, w, w),
                 lambda: _dense_lower(B, w.points)):
        with pytest.raises(InvalidConfigError, match=rf"^non-finite coefficient a\(u, v\) = nan "
                                                     rf"at u = \[2\], v = \[{v[0]}\]: "):
            call()


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


def test_empty_schedule_is_refused(z1):
    with pytest.raises(InvalidConfigError, match="at least one radius"):
        invertibility_estimate(identity(z1), [])
    proj = SubspaceProjection(z1, HalfspacePredicate((1,), 0))
    with pytest.raises(InvalidConfigError, match="at least one radius"):
        fredholm_test(shift_operator(z1, (1,)), proj, [Ray((1,))], schedule=())


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


def test_floquet_rejects_graph_spaces():
    # graph spaces carry no translations, so only the empty stencil lives there
    with pytest.raises(UnsupportedConstructionError):
        floquet_spectrum(BandOperator(GRID, {}))


def test_floquet_rejects_other_coefficients(z2):
    with pytest.raises(InvalidConfigError, match="constant or periodic"):
        floquet_spectrum(laplacian_stencil(z2) + multiplication(z2, SeededRandomField(1)))
    with pytest.raises(InvalidConfigError, match="does not match dim"):
        floquet_spectrum(multiplication(z2, PeriodicField(np.ones((2, 2, 2)))))


def test_floquet_separable_z2_potential(z2):
    # V(x) = a (-1)^{x_1} on Z^2 separates: the period-(2, 1) Bloch matrix at
    # (t1, t2) has eigenvalues +-sqrt(a^2 + 2 + 2 cos t1) + 2 cos t2
    a = 2.5
    A = laplacian_stencil(z2) + multiplication(z2, PeriodicField([[a], [-a]]))
    pts = floquet_spectrum(A, theta_grid=512)
    per_axis = max(16, int(round(512 ** 0.5)))
    assert pts.size == 2 * per_axis ** 2
    t = np.linspace(0.0, 2 * np.pi, per_axis, endpoint=False)
    t1, t2 = (g.reshape(-1) for g in np.meshgrid(t, t, indexing="ij"))
    root = np.sqrt(a * a + 2 + 2 * np.cos(t1))
    want = np.concatenate([root, -root]) + np.tile(2 * np.cos(t2), 2)
    assert np.abs(pts.imag).max() <= 1e-12
    assert hausdorff_distance(pts, want) <= 1e-12
    # theta = 0 is a grid point, so the top band edge is attained
    assert abs(pts.real.max() - (np.sqrt(a * a + 4) + 2)) <= 1e-12
    assert np.abs(pts).min() >= a - 2 - 1e-12


def test_floquet_fibered_matches_nu_grid():
    # fiber 3, a period-2 potential and period-3 hoppings (period-6 cell).
    # The operator is Hermitian, so a window lower norm bounds the distance
    # to the spectrum and the forced nuGrid cloud is within tau + pitch
    pot = PeriodicField([[0.5, -0.2, 0.1], [-0.6, 0.3, 0.0]], period=(2,))
    A = BandOperator(Z1_FIBER3, {(1, 0): PeriodicField([1.0, 0.8, 1.2]),
                                 (-1, 0): PeriodicField([1.2, 1.0, 0.8]),
                                 (0, 1): 0.4, (0, 2): 0.4, (0, 0): pot})
    w = window(Z1_FIBER3, 6)
    assert np.array_equal(A.adjoint().block(w, w), A.block(w, w))
    tau, pitch = 0.12, 0.08
    grid = spectrum_estimate_for(A, "fib", method="nuGrid", radius=30, pitch=pitch,
                                 tau=tau, z_box=(-3.6, 3.6, -0.32, 0.32))
    assert spectrum_estimate_for(A, "fib").method == "floquet"
    pts = floquet_spectrum(A, theta_grid=512)
    assert pts.size == 512 * 18
    assert np.abs(pts.imag).max() <= 1e-12
    assert hausdorff_distance(pts, grid.cloud) <= tau + pitch


def test_bloch_stack_slices_keep_the_bits(z2, monkeypatch):
    # a stack too large for one eigvals call is solved in slices; each Bloch
    # matrix is assembled and solved on its own, so the bits do not move
    A = laplacian_stencil(z2) + multiplication(z2, PeriodicField([[0.5, 1j], [-0.3, 0.2]]))
    whole = floquet_spectrum(A, theta_grid=512)
    monkeypatch.setattr(fredholm, "_BLOCH_STACK", 7 * 16)
    assert floquet_spectrum(A, theta_grid=512).tobytes() == whole.tobytes()


def test_symbol_spectrum_bits_are_the_scalar_symbol(z1):
    # the oracle the symbolOracle payload comes from: sum_k c_k exp(i k theta)
    # in stencil order, summed from zero, bit for bit
    c1, c2, c3 = 0.43, 1.05 - 0.2j, 0.25
    A = BandOperator(z1, {(1,): c2, (-1,): c1, (2,): c3})
    theta = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
    vals = np.zeros(theta.size, dtype=np.complex128)
    for k, c in ((-1, c1), (1, c2), (2, c3)):
        vals += c * np.exp(1j * (k * theta))
    want = fredholm._sorted_complex(vals)
    assert symbol_spectrum(A).tobytes() == want.tobytes()


def test_scalar_bloch_matrices_skip_eigvals(monkeypatch, z1):
    # a 1 x 1 Bloch matrix is its own eigenvalue: no eigvals call, and at
    # |entry| ~ 1e200, where zgeev's rescaling would move the last bits, the
    # entry itself is returned; a fiber still takes eigvals
    shapes = []
    eigvals = np.linalg.eigvals

    def recording(M):
        shapes.append(M.shape[1:])
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    c1, c2 = 3e199 - 1e200j, 7e200
    theta = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
    vals = np.zeros(theta.size, dtype=np.complex128)
    for k, c in ((1, c1), (-1, c2)):
        vals += c * np.exp(1j * (k * theta))
    got = symbol_spectrum(BandOperator(z1, {(1,): c1, (-1,): c2}))
    assert got.tobytes() == fredholm._sorted_complex(vals).tobytes()
    assert shapes == []
    floquet_spectrum(BandOperator(Z1_FIBER3, {(1, 1): 1.0}), theta_grid=64)
    assert shapes and all(s == (3, 3) for s in shapes)


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


def _periodic(z1, values):
    return laplacian_stencil(z1) + multiplication(z1, PeriodicField(values))


def test_nu_grid_real_kernel_mirror_symmetry(z1):
    # constant or not, real bands give sigma(z) = sigma(conj z) bit for bit
    zs = np.array([0.5 + 0.7j, 0.5 - 0.7j, -1.0 + 0.2j, -1.0 - 0.2j])
    for A in (laplacian_stencil(z1), _periodic(z1, [0.5, 0.0, -0.5])):
        got = nu_grid_indicator(A, zs, radius=50)
        assert got[0] == got[1]
        assert got[2] == got[3]


def _unfolded(A, zs, radius, tau):
    """The indicator without folds: direct and adjoint passes over every z."""
    direct, adjoint = _banded_data(A, radius), _banded_data(A.adjoint(), radius)
    return np.minimum(_kernels.sigma_min_sweep(*direct[:3], zs, tau),
                      _kernels.sigma_min_sweep(*adjoint[:3], np.conj(zs), tau))


def _record_sweeps(monkeypatch):
    """Record the points of every sweep pass (one kernel call each)."""
    passes = []

    def sweep(gb, sl, su, zs, tau=None):
        passes.append(zs)
        return sweep_kernel(gb, sl, su, zs, tau)

    sweep_kernel = _kernels.sigma_min_sweep
    monkeypatch.setattr(_kernels, "sigma_min_sweep", sweep)
    return passes


@pytest.mark.parametrize("tau", [None, 0.3])
def test_nu_grid_folds_are_exact(z1, tau):
    # Laplacian + a real periodic potential is real and self-adjoint, which
    # only its bands tell: the folded indicator is bitwise the unfolded
    # minimum of the direct and adjoint passes
    A = _periodic(z1, [0.5, 0.0, -0.5])
    zs = _grid((-3.0, 3.0, -0.6, 0.6), 0.1)
    got = nu_grid_indicator(A, zs, radius=40, tau=tau)
    assert np.array_equal(got, _unfolded(A, zs, 40, tau))


def test_nu_grid_sweeps_each_folded_point_once(z1, monkeypatch):
    # real, self-adjoint bands: one pass over the distinct points of the
    # grid with each conjugate pair folded into the upper half plane
    A = _periodic(z1, [0.5, 0.0, -0.5])
    zs = _grid((-3.0, 3.0, -0.6, 0.6), 0.1)
    passes = _record_sweeps(monkeypatch)
    nu_grid_indicator(A, zs, radius=40, tau=0.3)
    folded = np.unique(np.where(zs.imag < 0, np.conj(zs), zs))
    assert len(passes) == 1 and np.array_equal(passes[0], folded)


def test_nu_grid_complex_non_self_adjoint_runs_both_passes(z1, monkeypatch):
    A = _periodic(z1, [0.3 + 0.2j, -0.1j])
    zs = _grid((-3.0, 3.0, -0.6, 0.6), 0.1)
    passes = _record_sweeps(monkeypatch)
    got = nu_grid_indicator(A, zs, radius=40, tau=0.3)
    assert len(passes) == 2
    assert all(np.array_equal(p, np.unique(v)) for p, v in zip(passes, (zs, np.conj(zs))))
    assert np.array_equal(got, _unfolded(A, zs, 40, 0.3))


def _gate_calls(monkeypatch, call):
    """What ``call()`` returns and the number of _gate calls it makes."""
    calls = []
    gate = _kernels._gate

    def counting(base, tau2):
        calls.append(1)
        return gate(base, tau2)

    with monkeypatch.context() as m:
        m.setattr(_kernels, "_gate", counting)
        got = call()
    return got, len(calls)


_NORMAL_LIMITS = {
    "1.05 S + 0.4 S^-1": {(1,): 1.05, (-1,): 0.4},
    "(1+0.2i) S + 0.4 S^-1 + 0.25 S^2": {(1,): 1 + 0.2j, (-1,): 0.4, (2,): 0.25},
}


@pytest.mark.parametrize("name", list(_NORMAL_LIMITS))
def test_nu_grid_adjoint_fold_is_exact_and_halves_the_gates(z1, name, monkeypatch):
    # a normal limit with a non-Hermitian slice: the adjoint has B's Gram
    # and the conjugated swap of its slices, so its G(conj z) is G(z) with
    # the slice terms summed in the other order; one pass gives the bits of
    # both. On the open first quadrant no other fold applies, so the one
    # pass makes half the gates of the two
    A = BandOperator(z1, _NORMAL_LIMITS[name])
    passes = _record_sweeps(monkeypatch)
    for box in ((-1.3, 2.9, -0.7, 0.3), (0.05, 2.95, 0.05, 0.65)):
        zs = _grid(box, 0.1)
        for tau in (None, 0.3):
            passes.clear()
            got = nu_grid_indicator(A, zs, radius=40, tau=tau)
            assert len(passes) == 1
            assert np.array_equal(got, _unfolded(A, zs, 40, tau))
    got, folded = _gate_calls(monkeypatch, lambda: nu_grid_indicator(A, zs, radius=40, tau=0.3))
    same, both = _gate_calls(monkeypatch, lambda: _unfolded(A, zs, 40, 0.3))
    assert np.array_equal(got, same)
    assert folded == zs.size and both == 2 * folded


def test_nu_grid_no_adjoint_fold_for_a_non_normal_limit(z1, monkeypatch):
    # the period-2 weighted shift (1, 2): B* B and B B* differ, so both
    # passes run, each over its own distinct points
    A = BandOperator(z1, {(1,): PeriodicField([1.0, 2.0])})
    adjoint = _banded_data(A.adjoint(), 40)
    assert not np.array_equal(adjoint[0], _banded_data(A, 40)[0])
    zs = _grid((0.05, 2.95, 0.05, 0.65), 0.1)
    passes = _record_sweeps(monkeypatch)
    got = nu_grid_indicator(A, zs, radius=40, tau=0.3)
    assert len(passes) == 2
    assert np.array_equal(got, _unfolded(A, zs, 40, 0.3))


def _eig_calls(monkeypatch, A, zs, fold=True):
    """The indicator and the number of min_eig_banded calls it makes, with
    the sublattice fold on or off."""
    calls = []
    eig = _kernels.min_eig_banded

    def counting(ab):
        calls.append(1)
        return eig(ab)

    with monkeypatch.context() as m:
        m.setattr(_kernels, "min_eig_banded", counting)
        if not fold:
            m.setattr(fredholm, "_sublattice_fold", lambda *bands: False)
        got = nu_grid_indicator(A, zs, radius=40)
    return got, len(calls)


def _chiral_limits(z1):
    fiber2 = Space(kind="lattice", dim=1, fiber=2)
    return {"laplacian": laplacian_stencil(z1),
            "a S + b S^-1": BandOperator(z1, {(1,): 1.05, (-1,): 0.4}),
            "fiber-2 hop + coupling": BandOperator(
                fiber2, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 0.6})}


@pytest.mark.parametrize("name", ["laplacian", "a S + b S^-1", "fiber-2 hop + coupling"])
def test_nu_grid_sublattice_fold_is_exact_and_halves_the_work(z1, name, monkeypatch):
    # a sign pattern D with D A D = -A gives G(-z) = D G(z) D: each pair
    # z, -z is valued once, with the bits of the unfolded sweep, also on a
    # box not symmetric about Re z = 0
    A = _chiral_limits(z1)[name]
    assert fredholm._sublattice_fold(*_banded_data(A, 40)[:3])
    for box in ((-1.3, 2.9, -0.7, 0.3), (-3.0, 3.0, -0.6, 0.6)):
        zs = _grid(box, 0.1)
        for tau in (None, 0.3):
            assert np.array_equal(nu_grid_indicator(A, zs, radius=40, tau=tau),
                                  _unfolded(A, zs, 40, tau))
    got, folded = _eig_calls(monkeypatch, A, zs)
    same, unfolded = _eig_calls(monkeypatch, A, zs, fold=False)
    assert np.array_equal(got, same)
    assert 0.45 <= folded / unfolded <= 0.55


def test_nu_grid_no_sublattice_fold_without_a_pattern(z1, monkeypatch):
    # a potential puts S on the diagonal; offsets {1, 2} link sites by odd
    # and even steps alike: no pattern, no fold, the same work
    zs = _grid((-3.0, 3.0, -0.6, 0.6), 0.1)
    for A in (laplacian_stencil(z1) + multiplication(z1, SeededRandomField(5)),
              _periodic(z1, [0.5, 0.0, -0.5]),
              BandOperator(z1, {(1,): 1.0, (2,): 0.5})):
        assert not fredholm._sublattice_fold(*_banded_data(A, 40)[:3])
        got, calls = _eig_calls(monkeypatch, A, zs)
        same, unfolded = _eig_calls(monkeypatch, A, zs, fold=False)
        assert np.array_equal(got, same) and calls == unfolded
        assert np.array_equal(got, _unfolded(A, zs, 40, None))


def test_grid_holds_exact_conjugate_pairs():
    # the real-kernel fold merges z and conj z only when both are on the
    # grid bit for bit
    zs = _grid((-3.2, 3.2, -0.48, 0.48), 0.08)
    assert zs.size == 81 * 13
    assert set(zs.tolist()) == set(np.conj(zs).tolist())
    assert np.unique(np.where(zs.imag < 0, np.conj(zs), zs)).size == 81 * 7


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
        direct = np.linalg.svd(_tall_block(Mz, cols)[1], compute_uv=False)[-1]
        adj = np.linalg.svd(_tall_block(Mz.adjoint(), cols)[1], compute_uv=False)[-1]
        assert np.isclose(got, min(direct, adj), rtol=1e-9, atol=0)


def test_nu_grid_rejects_non_finite_input(z1):
    lap = laplacian_stencil(z1)
    for src, value, u in (("1/n", "inf", 0), ("log(abs(n))", "-inf", 0), ("sqrt(n)", "nan", -10)):
        A = lap + multiplication(z1, ExpressionField(src))
        with np.errstate(all="ignore"), pytest.raises(
                InvalidConfigError, match=rf"^non-finite coefficient a\(u, v\) = {value} "
                                          rf"at u = \[{u}\], v = \[{u}\]: "):
            nu_grid_indicator(A, [0.3 + 0.1j, 5], radius=10)
    with pytest.raises(InvalidConfigError, match="grid point"):
        nu_grid_indicator(lap, [0.3, complex(np.nan, 0.0)], radius=10)


def test_nu_grid_non_finite_coefficient_raises_before_any_arithmetic(z1):
    # the coefficients are checked before any band product is formed, so no
    # numpy warning precedes the error
    A = laplacian_stencil(z1) + multiplication(z1, ExpressionField("1/n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfigError, match=r"^non-finite coefficient a\(u, v\) = inf "
                                                     r"at u = \[0\], v = \[0\]: "):
            nu_grid_indicator(A, [0.3 + 0.1j, 5], radius=10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bloch_oracle_names_a_non_finite_coefficient(z1):
    # it once ended in LinAlgError after a RuntimeWarning
    A = laplacian_stencil(z1) + multiplication(z1, PeriodicField([1.0, np.inf]))
    with pytest.raises(InvalidConfigError, match=r"^non-finite coefficient a\(u, v\) = inf "
                                                 r"at u = \[1\], v = \[1\]: "):
        floquet_spectrum(A, 64)


def test_spectrum_estimate_method_dispatch(z1, z2):
    lap = laplacian_stencil(z1)
    est = spectrum_estimate_for(lap, "lap")
    assert est.method == "symbolOracle"
    per = lap + multiplication(z1, PeriodicField([1.0, -1.0]))
    est2 = spectrum_estimate_for(per, "per")
    assert est2.method == "floquet"
    # periodic limits on Z^d and on fibers take the Bloch oracle too
    per2 = laplacian_stencil(z2) + multiplication(z2, PeriodicField([[2.5], [-2.5]]))
    est_z2 = spectrum_estimate_for(per2, "per2", theta_grid=4096)
    assert est_z2.method == "floquet"
    assert est_z2.meta["thetaGrid"] == 512
    fib = BandOperator(Z1_FIBER3, {(1, 0): 1.0, (0, 1): PeriodicField([0.2, 0.7])})
    assert spectrum_estimate_for(fib, "fib").method == "floquet"
    rand = lap + multiplication(z1, SeededRandomField(3))
    est3 = spectrum_estimate_for(rand, "rand", radius=40, pitch=0.25, tau=0.5)
    assert est3.method == "nuGrid"
    assert est3.meta["windowRadius"] == 40
    assert est3.indicators.size == est3.points.size
    assert 0 < est3.cloud.size < est3.points.size


def test_symbol_oracle_takes_a_scaled_constant(z1):
    # I + 0.3 S: scaling keeps the shift's coefficient constant, so the
    # symbol oracle accepts it (it once refused a ScaledField) and auto routes
    # it there (it once took the nuGrid sweep)
    A = identity(z1) + 0.3 * shift_operator(z1, (1,))
    theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    want = np.sort_complex(1 + 0.3 * np.exp(1j * theta))
    got = spectrum_estimate_for(A, "scaled", method="symbolOracle", theta_grid=512)
    assert np.allclose(np.sort_complex(got.points), want)
    assert spectrum_estimate_for(A, "scaled").method == "symbolOracle"
    out = essential_spectrum_estimate(A, None, [Ray((1,))], method="symbol")
    assert [e.method for e in out["estimates"]] == ["symbolOracle"]


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


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_compactness_refuses_a_nan_or_negative_tol(z1, tol):
    # -1.0 once called this zero limit not-compact-consistent (0.0 > -1.0)
    A = BandOperator(z1, {(0,): TableField({(0,): 3.0})})
    with pytest.raises(InvalidConfigError, match=rf"^tolerance {tol} must be a number >= 0$"):
        compactness_test(A, [Ray((1,))], tol=tol)


def _never_extracted(monkeypatch):
    """Fail a test that extracts a limit."""
    def extract(*args, **kwargs):
        raise AssertionError("a limit was extracted")
    monkeypatch.setattr(fredholm, "limit_operator", extract)


@pytest.mark.parametrize("tau", [float("nan"), -1.0])
def test_every_tau_entry_refuses_a_nan_or_negative_tau(z1, tau, monkeypatch):
    # fredholm_test on S - I compressed to n >= 0 once read inconclusive at
    # either tau, and the symbol route returned every grid point
    proj = SubspaceProjection(z1, HalfspacePredicate((1,), 0))
    A = shift_operator(z1, (1,)) - identity(z1)
    refused = pytest.raises(InvalidConfigError, match=rf"^tau {tau} must be a number >= 0$")
    _never_extracted(monkeypatch)
    with refused:
        fredholm_test(A, proj, [Ray((1,)), Ray((-1,))], tau=tau)
    with refused:
        essential_spectrum_estimate(A, proj, [Ray((1,))], tau=tau, method="symbol")
    with refused:
        invertibility_estimate(A, (10, 20), tau=tau)
    with refused:
        spectrum_estimate_for(A, "A", tau=tau, method="symbolOracle")


@pytest.mark.parametrize("report", [
    lambda A: compactness_test(A, []), lambda A: fredholm_test(A, None, []),
    lambda A: essential_spectrum_estimate(A, None, []), lambda A: ess_norm_estimate(A, None, []),
])
def test_limit_reports_refuse_an_empty_family(z1, report):
    with pytest.raises(InvalidConfigError, match="^a limit report needs at least one sequence$"):
        report(identity(z1))


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
