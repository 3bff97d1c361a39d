import numpy as np
import pytest

from limitops import (
    BandOperator,
    ExpressionField,
    HalfspacePredicate,
    InvalidConfigError,
    SublatticePredicate,
    SubspaceProjection,
    TableField,
    commutator_with_projection,
    hat,
    identity,
    laplacian_stencil,
    multiplication,
    shift_operator,
    toeplitz,
)

from conftest import window


def halfline(z1):
    return SubspaceProjection(z1, HalfspacePredicate((1,), 0))


def test_projection_is_idempotent_entrywise(z1):
    proj = halfline(z1)
    w = window(z1, 8)
    P = proj.P.block(w.points, w.points)
    Q = proj.Q.block(w.points, w.points)
    assert np.array_equal(P @ P, P)
    assert np.array_equal(P @ Q, np.zeros_like(P))
    assert np.array_equal(P + Q, np.eye(w.npoints))


def test_rank_on_counts_members(z1):
    proj = SubspaceProjection(z1, SublatticePredicate((3,)))
    w = window(z1, 9)  # points -9..9, multiples of 3: -9,-6,-3,0,3,6,9
    assert proj.rank_on(w) == 7
    assert proj.membership(w).sum() == 7


def test_projection_requires_predicate(z1):
    with pytest.raises(InvalidConfigError):
        SubspaceProjection(z1, "evens")


def test_hat_commutes_with_projection_exactly(z1):
    A = laplacian_stencil(z1) + multiplication(z1, ExpressionField("sin(n)"))
    proj = halfline(z1)
    H = hat(A, proj)
    assert commutator_with_projection(H, proj, window(z1, 10)) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_commutator_names_a_non_finite_coefficient(z1):
    # it once read nan: the commutator's block went to abs().max() unchecked;
    # its coefficient at u = 2 is inf - inf = nan
    B = BandOperator(z1, {(0,): TableField({(2,): np.inf}, default=2.0), (1,): 1.0})
    proj = halfline(z1)
    for A in (B, hat(B, proj)):
        with pytest.raises(InvalidConfigError, match=r"^non-finite coefficient a\(u, v\) = "
                                                     r"\(nan\+nanj\) at u = \[2\], v = \[2\]: "):
            commutator_with_projection(A, proj, window(z1, 4))


def test_hat_acts_as_identity_on_complement(z1):
    A = laplacian_stencil(z1)
    proj = halfline(z1)
    H = hat(A, proj)
    w = window(z1, 6)
    M = H.block(w.points, w.points)
    member = proj.membership(w)
    out = ~member
    sub = M[np.ix_(out, out)]
    assert np.array_equal(sub, np.eye(out.sum()))
    # no coupling between the subspace and its complement
    assert not M[np.ix_(member, out)].any()
    assert not M[np.ix_(out, member)].any()


def test_toeplitz_compression_of_shift(z1):
    proj = halfline(z1)
    V = shift_operator(z1, (1,))
    T = toeplitz(z1, V, proj)
    w = window(z1, 6)
    M = T.block(w.points, w.points)
    member = proj.membership(w)
    inside = M[np.ix_(member, member)]
    # compression of a shift: ones exactly where both endpoints stay inside
    pts = w.points[member][:, 0]
    expect = (pts[None, :] == pts[:, None] + 1).astype(complex)
    assert np.array_equal(inside, expect)
    assert not M[np.ix_(~member, ~member)].any()


def test_toeplitz_accepts_fields(z1):
    T = toeplitz(z1, ExpressionField("n"), halfline(z1))
    w = window(z1, 4)
    M = T.block(w.points, w.points)
    d = np.diag(M).real
    pts = w.points[:, 0]
    assert np.allclose(d, np.where(pts >= 0, pts, 0.0))
    with pytest.raises(InvalidConfigError):
        toeplitz(z1, "n", halfline(z1))


def test_from_operator_accepts_band_idempotent(z1):
    P_op = halfline(z1).P
    proj = SubspaceProjection.from_operator(z1, P_op, window(z1, 12))
    assert proj.general
    A = laplacian_stencil(z1)
    H = hat(A, proj)
    assert commutator_with_projection(H, proj, window(z1, 8)) <= 1e-12


def test_from_operator_rejects_non_idempotent(z1):
    with pytest.raises(InvalidConfigError):
        SubspaceProjection.from_operator(z1, laplacian_stencil(z1), window(z1, 10))


def test_projection_descriptor_roundtrip(z1):
    proj = SubspaceProjection(z1, SublatticePredicate((2,), (1,)))
    back = SubspaceProjection.from_descriptor(z1, proj.to_descriptor())
    w = window(z1, 7)
    assert np.array_equal(back.membership(w), proj.membership(w))


def test_hat_of_identity_is_identity(z1):
    proj = halfline(z1)
    H = hat(identity(z1), proj)
    w = window(z1, 5)
    assert np.array_equal(H.block(w.points, w.points), np.eye(w.npoints))
