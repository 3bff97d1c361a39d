import numpy as np
import pytest

from limitops import (
    BandOperator,
    DivergenceReport,
    ExplicitSequence,
    ExpressionField,
    FullPredicate,
    HalfspacePredicate,
    IndicatorField,
    InvalidConfigError,
    LimitOperator,
    PeriodicField,
    Ray,
    SeededRandomField,
    Space,
    Subsequence,
    TableField,
    conjugate,
    identity,
    laplacian_stencil,
    limit_algebra_check,
    limit_operator,
    limit_set,
    multiplication,
    sequence_from_descriptor,
    shift_operator,
    subsequence_targeting,
    window_norm,
)

import limitops.operator
from limitops import shifts
from conftest import window


# -- conjugation ------------------------------------------------------------


def test_conjugate_moves_coefficients(z1):
    A = multiplication(z1, ExpressionField("n"))
    B = conjugate(A, (7,))
    w = window(z1, 3)
    got = np.diag(B.block(w.points, w.points))
    assert np.allclose(got.real, w.points[:, 0] + 7)


def test_conjugate_composes(z1):
    A = multiplication(z1, ExpressionField("n^2"))
    w = window(z1, 3)
    twice = conjugate(conjugate(A, (3,)), (-8,))
    once = conjugate(A, (-5,))
    assert np.allclose(twice.block(w.points, w.points), once.block(w.points, w.points))


# -- exact structural limits --------------------------------------------------


def test_constant_coefficients_are_their_own_limit(z1):
    A = laplacian_stencil(z1)
    out = limit_operator(A, Ray((1,)))
    assert isinstance(out, LimitOperator)
    assert out.exact
    w = window(z1, 4)
    assert np.allclose(out.op.block(w.points, w.points), A.block(w.points, w.points))
    assert all(gap == 0.0 for _, _, gap in out.certificate)


def test_periodic_limit_along_matching_ray(z1):
    # period-2 potential along the even ray: the limit is the translate picked
    # out by the ray offset, and it is exact
    v = PeriodicField([3.0, -1.0])
    A = laplacian_stencil(z1) + multiplication(z1, v)
    out = limit_operator(A, Ray((2,), offset=(1,)))
    assert isinstance(out, LimitOperator)
    assert out.exact
    w = window(z1, 5)
    ref = laplacian_stencil(z1) + multiplication(z1, v.shifted(z1, (1,)))
    assert np.allclose(out.op.block(w.points, w.points), ref.block(w.points, w.points))


def test_periodic_mismatched_ray_diverges_with_suggestions(z1):
    v = PeriodicField([3.0, -1.0])
    A = laplacian_stencil(z1) + multiplication(z1, v)
    out = limit_operator(A, Ray((1,)))
    assert isinstance(out, DivergenceReport)
    assert out.suggested, "expected residue-refined subsequence suggestions"
    subs = [sequence_from_descriptor(d) for d in out.suggested]
    # each suggested ray must actually converge
    for sub in subs:
        lo = limit_operator(A, sub)
        assert isinstance(lo, LimitOperator)
    assert len(subs) == 2


def test_finitely_supported_coefficients_vanish_in_the_limit(z1):
    A = laplacian_stencil(z1) + multiplication(
        z1, TableField({(0,): 50.0, (3,): -2.0})
    )
    out = limit_operator(A, Ray((1,)))
    assert isinstance(out, LimitOperator)
    assert out.exact
    w = window(z1, 4)
    assert np.allclose(out.op.block(w.points, w.points),
                       laplacian_stencil(z1).block(w.points, w.points))
    assert all(gap == 0.0 for _, _, gap in out.certificate)


def test_halfspace_indicator_limits(z2):
    # drifting into the interior of the halfspace: limit is the full space
    pred = HalfspacePredicate((1, 0), 0)
    got = limit_set(z2, pred, Ray((1, 0)))
    assert isinstance(got, FullPredicate)
    # drifting along the boundary: the halfspace is shift invariant that way
    got2 = limit_set(z2, pred, Ray((0, 1)))
    assert got2.test(z2, np.asarray([[1, 0], [-1, 0]])).tolist() == [True, False]


def test_certificate_verify_recomputes_gaps(z1):
    v = PeriodicField([1.0, 2.0, 4.0])
    A = laplacian_stencil(z1) + multiplication(z1, v)
    out = limit_operator(A, Ray((3,)))
    assert isinstance(out, LimitOperator)
    assert out.verify(A, Ray((3,))) <= 1e-12


@pytest.mark.parametrize("decay", [False, True])
def test_certificate_verify_at_p3(z1, decay):
    # window norms at p != 2 are intervals; verify once subtracted the whole
    # interval from the recorded gap and raised TypeError
    v = ExpressionField("exp(0-abs(n)/10)") if decay else PeriodicField([1.0, 2.0, 4.0])
    A = laplacian_stencil(z1) + multiplication(z1, v)
    out = limit_operator(A, Ray((3,)), p=3)
    assert isinstance(out, LimitOperator) and out.exact is not decay
    got = out.verify(A, Ray((3,)), p=3)
    assert type(got) is float and got <= 1e-12


# -- numeric limits -----------------------------------------------------------


def test_numeric_limit_of_decaying_perturbation(z1):
    # exp decay is not structurally recognized; the doubling schedule must
    # settle to the unperturbed operator
    decay = ExpressionField("exp(0-abs(n)/10)")
    A = laplacian_stencil(z1) + multiplication(z1, decay)
    out = limit_operator(A, Ray((1,)), tol=1e-8)
    assert isinstance(out, LimitOperator)
    assert not out.exact
    w = window(z1, 5)
    assert np.allclose(out.op.block(w.points, w.points),
                       laplacian_stencil(z1).block(w.points, w.points), atol=1e-7)
    assert out.certificate[-1][2] <= 1e-8


def _ball_calls(monkeypatch):
    """(center, radius) of every Space.ball call from now on."""
    calls = []
    ball = Space.ball

    def counting(self, x, radius):
        calls.append((tuple(x), radius))
        return ball(self, x, radius)

    monkeypatch.setattr(Space, "ball", counting)
    return calls


@pytest.mark.parametrize("field, exact", [
    (TableField({(0, 0): 2.0, (3, 1): -1.0}), True),
    (ExpressionField("exp(0-abs(n1)/2)"), False),
], ids=["exact", "numeric"])
def test_limit_scan_enumerates_each_window_once(z2, monkeypatch, field, exact):
    A = laplacian_stencil(z2) + multiplication(z2, field)
    calls = _ball_calls(monkeypatch)
    out = limit_operator(A, Ray((1, 0)), radii=(2, 3, 4), tol=1e-6)
    assert out.exact == exact and len(out.certificate) == 3
    assert calls and len(calls) == len(set(calls)), calls


def test_exact_certificate_is_one_doubling_scan(z1, monkeypatch):
    # each radius once ran its own scan: 1, 2 | 1, 2, 4 | 1, 2, 4, 8 was nine
    # conjugates where the shared scan takes one per index
    A = multiplication(z1, IndicatorField(HalfspacePredicate((1,), 0)))
    calls = []
    monkeypatch.setattr(shifts, "conjugate", lambda A, x: calls.append(x) or conjugate(A, x))
    out = limit_operator(A, Ray((1,)), radii=(2, 4, 8))
    assert out.exact and calls == [(1,), (2,), (4,), (8,)]
    assert out.certificate == [(2, 2, 0.0), (4, 4, 0.0), (8, 8, 0.0)]


def _compressed(space, A, normal):
    P = multiplication(space, IndicatorField(HalfspacePredicate(normal, 0)))
    return P @ A @ P


def _floor_case(name, z1, z2):
    """(A, sequence, kwargs) of a limit scan the floor rule skips gaps in."""
    S = shift_operator(z1, (1,))
    decay = laplacian_stencil(z1) + multiplication(z1, ExpressionField("exp(0-abs(n)/10)"))
    return {
        "exact-z1": (_compressed(z1, S, (1,)), Ray((1,)), {}),
        "exact-z2": (_compressed(z2, identity(z2) + 0.5 * shift_operator(z2, (0, 1)), (1, 0)),
                     Ray((1, 0)), {"radii": (3, 6)}),
        # the difference is -I on every window: every gap is 1, first at index 1
        "unsettled-first": (S + multiplication(z1, IndicatorField(HalfspacePredicate((1,), 40))),
                            Ray((1,)), {"radii": (3, 6), "budget": 4}),
        # gaps 1, 1, 1/3, 1/7, 1/15 at radius 2: the smallest is the last, at index 16
        "unsettled-last": (S + multiplication(z1, TableField({(m,): 1 / (m + 1)
                                                               for m in range(21)})),
                           Ray((1,)), {"radii": (2, 3), "budget": 16}),
        "numeric": (decay, Ray((1,)), {}),
        "divergent": (laplacian_stencil(z1) + multiplication(z1, SeededRandomField(5)), Ray((1,)),
                      {"radii": (4, 8), "tol": 1e-6, "budget": 2 ** 6}),
        "exact-p1.5": (_compressed(z1, S, (1,)), Ray((1,)), {"p": 1.5}),
        "numeric-p1.5": (decay, Ray((1,)), {"p": 1.5}),
    }[name]


def _without_floor(monkeypatch):
    """Value every scan gap, as a scan without the floor rule does."""
    upper = shifts._window_upper
    monkeypatch.setattr(shifts, "_window_upper",
                        lambda A, rows, cols, p=2, floor=None: upper(A, rows, cols, p))


@pytest.mark.parametrize("name", ["exact-z1", "exact-z2", "unsettled-first", "unsettled-last",
                                  "numeric", "divergent", "exact-p1.5", "numeric-p1.5"])
def test_floor_rule_keeps_every_bit(z1, z2, monkeypatch, name):
    # a gap block with an entry above twice the settle threshold takes no
    # SVD; the result, certificate or report, is the one valuing every gap
    A, seq, kwargs = _floor_case(name, z1, z2)
    value = limitops.operator._window_value
    skipped = []

    def counting(*args):
        g = value(*args)
        skipped.append(g is None)
        return g

    monkeypatch.setattr(limitops.operator, "_window_value", counting)
    got = limit_operator(A, seq, **kwargs)
    assert any(skipped)
    monkeypatch.undo()
    _without_floor(monkeypatch)
    ref = limit_operator(A, seq, **kwargs)
    assert type(got) is type(ref)
    assert repr(got.to_descriptor()) == repr(ref.to_descriptor())
    assert name.startswith("divergent") == isinstance(got, DivergenceReport)
    if name.startswith("unsettled"):
        assert not any(g == 0 for _, _, g in got.certificate)
        assert got.certificate[0][1] == (1 if name == "unsettled-first" else 16)


def test_floor_rule_skips_every_svd_of_a_settled_scan(z1, z2, monkeypatch):
    A, seq, kwargs = _floor_case("exact-z2", z1, z2)
    svd, block = np.linalg.svd, BandOperator.block

    def counted():
        calls = {"svd": 0, "block": 0}

        def counting_svd(*a, **k):
            calls["svd"] += 1
            return svd(*a, **k)

        def counting_block(self, rows, cols):
            calls["block"] += 1
            return block(self, rows, cols)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(BandOperator, "block", counting_block)
        return calls

    got = counted()
    limit_operator(A, seq, **kwargs)
    monkeypatch.undo()
    ref = counted()
    _without_floor(monkeypatch)
    limit_operator(A, seq, **kwargs)
    assert got["svd"] == 0 and ref["svd"] > 0
    assert got["block"] <= ref["block"]


def test_diagonal_of_one_window_makes_no_locate(z2, monkeypatch):
    A = multiplication(z2, ExpressionField("exp(0-abs(n1)/3)*cos(n2)"))
    calls = []
    locate = limitops.operator._locate
    monkeypatch.setattr(limitops.operator, "_locate", lambda w: calls.append(w) or locate(w))
    w = window(z2, 4)
    got = limitops.operator._diagonal(A, w, w)
    assert calls == []
    ref = limitops.operator._diagonal(A, w, window(z2, 4))
    assert len(calls) == 1
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("A, kwargs", [
    # an UnboundLocalError, an exact limit with an empty certificate, and an
    # IndexError
    ("shift", {"budget": 0}),
    ("shift", {"radii": ()}),
    ("decay", {"radii": ()}),
], ids=["budget-0-exact", "no-radii-exact", "no-radii-numeric"])
def test_limit_operator_refuses_an_empty_scan(z1, A, kwargs):
    A = (identity(z1) + 0.3 * shift_operator(z1, (1,)) if A == "shift"
         else multiplication(z1, ExpressionField("exp(0-abs(n))")))
    with pytest.raises(InvalidConfigError):
        limit_operator(A, Ray((1,)), **kwargs)


def test_random_coefficients_diverge(z1):
    A = laplacian_stencil(z1) + multiplication(z1, SeededRandomField(5))
    out = limit_operator(A, Ray((1,)), radii=(4, 8), tol=1e-6, budget=2**14)
    assert isinstance(out, DivergenceReport)
    assert out.gap > 1e-6
    assert out.witness_indices


def test_explicit_sequence_and_subsequence(z1):
    v = PeriodicField([1.0, -1.0])
    A = multiplication(z1, v)
    seq = ExplicitSequence(((2,), (4,), (8,), (16,), (32,), (64,), (128,), (256,)))
    out = limit_operator(A, seq)
    assert isinstance(out, LimitOperator)
    sub = Subsequence(Ray((1,)), (2, 4, 6, 8, 10, 12))
    out2 = limit_operator(A, sub)
    assert isinstance(out2, LimitOperator)
    w = window(z1, 2)
    assert np.allclose(out.op.block(w.points, w.points),
                       out2.op.block(w.points, w.points))


def test_explicit_sequence_refuses_non_integer_points(z1):
    # these points once bound as [(0,), (3,)]
    with pytest.raises(InvalidConfigError, match="must have integer entries"):
        ExplicitSequence(((0.5,), (3.7,))).bind(z1)


def test_subsequence_targeting_slow_oscillation(z1):
    f = ExpressionField("sin(sqrt(abs(n)))")
    sub = subsequence_targeting(z1, f, Ray((1,)), 0.5, count=6, tol=5e-3,
                                budget=2**16, start=2**12)
    assert isinstance(sub, Subsequence)
    assert len(sub.indices) == 6
    pts = np.asarray([[n] for n in sub.indices])
    assert np.abs(f.eval(z1, pts) - 0.5).max() <= 5e-3


def test_ray_points_wrap_the_fiber_coordinate():
    # a ray steps the fiber coordinate modulo the fiber, so a fiber-resolved
    # field is read at points of the space; the fiber index once ran past the
    # table (IndexError) and a table field read (2, 4) for (2, 1)
    z1f3 = Space(kind="lattice", dim=1, fiber=3)
    assert Ray((1, 2)).bind(z1f3).point(2) == (2, 1)
    f = PeriodicField([[1, 2, 3], [4, 5, 6]], period=(2,))
    sub = subsequence_targeting(z1f3, f, Ray((1, 1)), 5.0, count=3)
    assert sub.indices == (1, 7, 13)
    sub = subsequence_targeting(z1f3, TableField({(2, 1): 7.0, (8, 1): 7.0}),
                                Ray((1, 2)), 7.0, count=2, budget=16)
    assert sub.indices == (2, 8)


def test_subsequence_targeting_unreachable_value(z1):
    f = ExpressionField("sin(n)")
    with pytest.raises(Exception):
        subsequence_targeting(z1, f, Ray((1,)), 9.0, budget=2**10)


# -- limit algebra --------------------------------------------------------------


def test_limit_algebra_for_periodic_pair(z1):
    va = PeriodicField([1.0, 2.0])
    vb = PeriodicField([0.5, -0.5])
    A = laplacian_stencil(z1) + multiplication(z1, va)
    B = multiplication(z1, vb) + BandOperator(z1, {(1,): 0.5})
    out = limit_algebra_check(A, B, Ray((2,)), tol=1e-10)
    assert out["ok"]
    assert max(out["sum_defects"]) <= 1e-10
    assert max(out["product_defects"]) <= 1e-10


def test_limit_norm_never_exceeds_global_bound(z1):
    v = PeriodicField([1.0, -2.0, 0.5])
    A = laplacian_stencil(z1) + multiplication(z1, v)
    out = limit_operator(A, Ray((3,)))
    w_in, w_out = window(z1, 20), window(z1, 21)
    lim_norm = window_norm(out.op, w_in, w_out)
    assert lim_norm <= A.norm_bound()[0] + 1e-9


def test_divergence_report_descriptor(z1):
    v = PeriodicField([3.0, -1.0])
    A = multiplication(z1, v)
    out = limit_operator(A, Ray((1,)))
    d = out.to_descriptor()
    assert d["sequence"]
    assert d["gap"] > 0
    assert isinstance(d["suggested"], list) and d["suggested"]


def test_limit_operator_descriptor(z1):
    A = laplacian_stencil(z1)
    out = limit_operator(A, Ray((1,), label="east"))
    d = out.to_descriptor()
    assert d["sequence"] == "east"
    assert d["exact"] is True
    assert d["certificate"][0]["gap"] == 0.0


def test_sequence_descriptor_roundtrip(z1):
    for seq in (
        Ray((1,), label="e"),
        Ray((2,), offset=(1,), label="odd"),
        ExplicitSequence(((1,), (2,), (4,)), label="xs"),
        Subsequence(Ray((1,)), (3, 6, 9), label="sub"),
    ):
        back = sequence_from_descriptor(seq.to_descriptor())
        b1, b2 = seq.bind(z1), back.bind(z1)
        for n in (0, 1, 2):
            assert tuple(b1.point(n + 1)) == tuple(b2.point(n + 1))
