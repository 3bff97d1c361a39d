import json

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
    field_from_descriptor,
    identity,
    laplacian_stencil,
    limit_algebra_check,
    limit_operator,
    limit_set,
    multiplication,
    operator_from_descriptor,
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


def _counting_shifts(monkeypatch):
    """The list of ``PeriodicField.shifted`` calls, one entry per call."""
    calls, shifted = [], PeriodicField.shifted
    monkeypatch.setattr(PeriodicField, "shifted",
                        lambda f, space, v: calls.append(v) or shifted(f, space, v))
    return calls


def test_periodic_limit_compares_one_step(z1, monkeypatch):
    # shifts compose, so a table that the first step of v leaves alone is
    # exact at every index: a period-4096 constant-valued table once paid
    # 4095 rolls to show it
    f = PeriodicField(np.full(4096, 0.5 - 2j))
    calls = _counting_shifts(monkeypatch)
    got = shifts._periodic_limit(z1, f, Ray((1,), offset=(7,)).bind(z1))
    assert calls == [(7,), (8,)]
    assert got.values.tobytes() == f.values.tobytes() and got.period == (4096,)


def test_periodic_limit_divergence_keeps_its_report(z1, monkeypatch):
    f = PeriodicField([3.0, -1.0, 0.5])
    calls = _counting_shifts(monkeypatch)
    with pytest.raises(shifts._Divergent) as info:
        shifts._periodic_limit(z1, f, Ray((1,)).bind(z1))
    assert len(calls) == 2
    err = info.value
    assert (err.n1, err.n2) == (0, 1)
    assert err.detail == "periodic field cycles with period 3 along the ray"
    assert err.suggested == [{"kind": "ray", "v": [3], "w": [r], "label": f"residue {r} mod 3"}
                             for r in range(3)]


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


def _indicator(predicate):
    return {"type": "indicator", "predicate": predicate}


def _halfspace(normal, threshold):
    return {"type": "halfspace", "normal": normal, "threshold": threshold}


_N_AT_LEAST_4 = _halfspace([1], 4)
_EAST_AND_ODD_ROWS = {"type": "and", "parts": [
    _halfspace([1, 0], 0), {"type": "sublattice", "modulus": [1, 2]}]}
_NOT_NORTH_AND_EVEN = {"type": "not", "base": {"type": "and", "parts": [
    _halfspace([0, 1], 0), {"type": "sublattice", "modulus": [2, 1]}]}}
_COMPLEX_PERIODIC = {"type": "periodic", "values": [{"re": 1, "im": 2}, {"re": 0, "im": -1}],
                     "period": [2]}

# name -> (dim, coefficient descriptor, ray v, ray w, the limit's coefficient
# descriptor, or None for the zero operator)
ANALYTIC_LIMITS = {
    "finite-set": (1, _indicator({"type": "finiteSet", "points": [[3], [5]]}), (1,), (), None),
    "not-halfspace-east": (1, _indicator({"type": "not", "base": _N_AT_LEAST_4}), (1,), (),
                           None),
    "not-halfspace-west": (1, _indicator({"type": "not", "base": _N_AT_LEAST_4}), (-1,), (),
                           {"type": "constant", "value": 1.0}),
    "and-sublattice": (2, _indicator(_EAST_AND_ODD_ROWS), (1, 0), (),
                       _indicator({"type": "sublattice", "modulus": [1, 2],
                                   "residue": [0, 0]})),
    "not-and-shifted": (2, _indicator(_NOT_NORTH_AND_EVEN), (2, 0), (0, 3), _indicator(
        {"type": "not", "base": {"type": "and", "parts": [
            _halfspace([0.0, 1.0], -3.0),
            {"type": "sublattice", "modulus": [2, 1], "residue": [0, 0]}]}})),
    "conj-periodic": (1, {"type": "conj", "base": _COMPLEX_PERIODIC}, (2,), (),
                      {"type": "periodic", "period": [2], "shape": [2],
                       "values": [{"re": 1.0, "im": -2.0}, {"re": 0.0, "im": 1.0}]}),
    "scaled-indicator": (1, {"type": "scaled", "factor": 2, "base": _indicator(_halfspace([1], 2))},
                         (1,), (), {"type": "constant", "value": 2.0}),
}


@pytest.mark.parametrize("name", list(ANALYTIC_LIMITS))
def test_analytic_limit_rules(z1, z2, name):
    dim, coeff, v, w, limit = ANALYTIC_LIMITS[name]
    space = {1: z1, 2: z2}[dim]
    A = multiplication(space, field_from_descriptor(coeff))
    seq = Ray(v, w)
    out = limit_operator(A, seq, radii=(2, 4), budget=64)
    assert isinstance(out, LimitOperator) and out.exact
    assert out.verify(A, seq) == 0.0
    stencil = [] if limit is None else [{"offset": [0] * dim, "coeff": limit}]
    desc = out.op.to_descriptor()
    assert desc == {"kind": "band", "stencil": stencil}
    back = operator_from_descriptor(space, json.loads(json.dumps(desc)))
    w4 = window(space, 4)
    assert np.array_equal(back.block(w4, w4), out.op.block(w4, w4))


def test_analytic_limit_rules_name_their_divergences(z1, z2):
    A = multiplication(z2, field_from_descriptor(_indicator(_EAST_AND_ODD_ROWS)))
    out = limit_operator(A, Ray((1, 1)), radii=(2, 4), budget=64)
    assert isinstance(out, DivergenceReport)
    assert out.message == "sublattice indicator alternates with period 2"
    assert out.witness_indices == (0, 1)
    assert out.suggested == [{"kind": "ray", "v": [2, 2], "w": [r, r],
                              "label": f"residue {r} mod 2"} for r in range(2)]
    # a scaled field whose base has no analytic rule takes the numeric scan
    B = multiplication(z1, field_from_descriptor(
        {"type": "scaled", "factor": 2, "base": {"type": "expression", "source": "n"}}))
    out = limit_operator(B, Ray((1,)), radii=(2, 4), budget=64)
    assert isinstance(out, DivergenceReport)
    assert out.message == "conjugates failed the Cauchy test within the index budget"


def test_ray_subsequence_is_a_ray(z1):
    sub = Ray((1,), (2,), "r").subsequence(3, 1)
    assert sub == Ray((3,), (3,), "r[1 mod 3]")
    assert sub.bind(z1).point(2) == (9,)


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


def _hop(space, v):
    """The shift along v with a table coefficient of default 1: the same
    operator as ``shift_operator``, but its coefficient does not cancel in a
    difference of conjugates, so each gap keeps offset v (its values 0) and
    is decided under the floor rule, not valued as a multiplication."""
    return BandOperator(space, {v: TableField({}, default=1.0)})


def _floor_case(name, z1, z2):
    """(A, sequence, kwargs) of a limit scan the floor rule skips gaps in."""
    S = shift_operator(z1, (1,))
    T, hops = _hop(z1, (1,)), _hop(z1, (1,)) + _hop(z1, (-1,))
    decay = multiplication(z1, ExpressionField("exp(0-abs(n)/10)"))
    return {
        "exact-z1": (_compressed(z1, S, (1,)), Ray((1,)), {}),
        "exact-z2": (_compressed(z2, identity(z2) + 0.5 * shift_operator(z2, (0, 1)), (1, 0)),
                     Ray((1, 0)), {"radii": (3, 6)}),
        # the difference is -I on every window: every gap is 1, first at index 1
        "unsettled-first": (T + multiplication(z1, IndicatorField(HalfspacePredicate((1,), 40))),
                            Ray((1,)), {"radii": (3, 6), "budget": 4}),
        # gaps 1, 1, 1/3, 1/7, 1/15 at radius 2: the smallest is the last, at index 16
        "unsettled-last": (T + multiplication(z1, TableField({(m,): 1 / (m + 1)
                                                               for m in range(21)})),
                           Ray((1,)), {"radii": (2, 3), "budget": 16}),
        "numeric": (hops + decay, Ray((1,)), {}),
        "divergent": (hops + multiplication(z1, SeededRandomField(5)), Ray((1,)),
                      {"radii": (4, 8), "tol": 1e-6, "budget": 2 ** 6}),
        "exact-p1.5": (_compressed(z1, S, (1,)), Ray((1,)), {"p": 1.5}),
        "numeric-p1.5": (laplacian_stencil(z1) + decay, Ray((1,)), {"p": 1.5}),
    }[name]


def _without_floor(monkeypatch):
    """Value every scan gap, as a scan without the floor rule does."""
    upper = shifts._window_upper
    monkeypatch.setattr(shifts, "_window_upper",
                        lambda A, rows, cols, p=2, floor=None: upper(A, rows, cols, p))


def _without_coefficient_route(monkeypatch):
    """Form every gap block and read its entries (``BandOperator.block`` and
    np.abs(M).max()), as a scan did before gaps were decided from
    coefficient values."""
    monkeypatch.setattr(limitops.operator, "_covers", lambda A, rows, cols: False)


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
    # the reference above still decides gaps from coefficient values
    monkeypatch.undo()
    _without_coefficient_route(monkeypatch)
    blocks = limit_operator(A, seq, **kwargs)
    assert type(got) is type(blocks)
    assert repr(got.to_descriptor()) == repr(blocks.to_descriptor())
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
    # every gap is decided from its coefficient values: none forms a block
    assert got["block"] == 0 < ref["block"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [2, 1.5])
def test_a_non_finite_gap_coefficient_reads_the_same_through_both_routes(z1, monkeypatch, p):
    # 1/(n - 130) is finite on the first windows and inf in the gap of the
    # conjugates at 128 and 64, named at the user's point
    A = laplacian_stencil(z1) + multiplication(z1, ExpressionField("1/(n-130)"))
    messages = []
    for route in ("coefficients", "blocks"):
        if route == "blocks":
            _without_coefficient_route(monkeypatch)
        with pytest.raises(InvalidConfigError) as exc:
            limit_operator(A, Ray((1,)), p=p)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == (
        "non-finite coefficient a(u, v) = inf at u = [130], v = [130]: "
        "band operators need finite coefficients")


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_limit_operator_refuses_a_nan_or_negative_tol(z1, tol):
    # nan once ran the exact scan to its whole budget (nothing settles below
    # nan), and -1.0 was clamped to 1e-14
    A = _compressed(z1, shift_operator(z1, (1,)), (1,))
    with pytest.raises(InvalidConfigError, match=rf"^tolerance {tol} must be a number >= 0$"):
        limit_operator(A, Ray((1,)), tol=tol)


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


def test_a_subsequence_past_a_finite_parent_is_refused(z1):
    # indices 5 and 9 once bound to copies of the parent's last point, and
    # sin(n) along them read a limit with gap 0.0
    parent = ExplicitSequence(((10,), (20,), (40,)))
    sub = Subsequence(parent, (1, 5, 9))
    msg = "^index 5 lies outside the sequence 'explicit' of 3 points$"
    with pytest.raises(InvalidConfigError, match=msg):
        sub.bind(z1)
    with pytest.raises(InvalidConfigError, match=msg):
        limit_operator(multiplication(z1, ExpressionField("sin(n)")), sub, radii=(2,))


def test_a_negative_index_into_a_finite_parent_is_refused(z1):
    # Python would read index -1 as the parent's last point
    parent = ExplicitSequence(((10,), (20,), (40,)), label="xs")
    with pytest.raises(InvalidConfigError,
                       match="^index -1 lies outside the sequence 'xs' of 3 points$"):
        Subsequence(parent, (-1, 1)).bind(z1)


def test_a_finite_scan_settles_at_its_last_point(z1):
    # the doubling schedule 1, 2, 4, 8 reads index 5 for 8, the last point
    A = shift_operator(z1, (1,)) + multiplication(z1, ExpressionField("1/(1+n^2)"))
    seq = ExplicitSequence(tuple((x,) for x in (0, 10, 20, 40, 80, 160)))
    out = limit_operator(A, seq, tol=1e-3)
    assert isinstance(out, LimitOperator) and not out.exact
    assert [n for _, n, _ in out.certificate] == [5, 5, 5]
    assert out.verify(A, seq) == 0.0


def test_a_finite_scan_diverges_at_its_last_point(z1):
    A = multiplication(z1, ExpressionField("sin(n)"))
    out = limit_operator(A, ExplicitSequence(tuple((x,) for x in range(5))))
    assert isinstance(out, DivergenceReport)
    assert out.witness_indices == (2, 4)


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
        assert b1.finite == b2.finite
        for n in range(b1.finite or 6):  # a ray: its first six points
            assert tuple(b1.point(n)) == tuple(b2.point(n))
