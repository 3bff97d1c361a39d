"""Subspace projections P = M_1Y, Toeplitz compressions, and the extension
A -> PAP + Q of a subspace operator to the whole space."""

import numpy as np

from .errors import InvalidConfigError, UnsupportedConstructionError
from .descriptors import predicate_from_descriptor
from .fields import Field, IndicatorField, NotPredicate, Predicate
from .operator import BandOperator, identity, multiplication


class SubspaceProjection:
    """Multiplication by the indicator of a point set Y.

    P and Q = I - P are exact band operators of propagation 0; P^2 = P and
    PQ = 0 hold entrywise. A general (non-indicator) idempotent can be wrapped
    via from_operator, with the invariants downgraded to tolerance checks;
    it has no predicate, so rank_on, membership and to_descriptor refuse it.
    """

    def __init__(self, space, predicate):
        if not isinstance(predicate, Predicate):
            raise InvalidConfigError("projection needs a point predicate")
        self.space = space
        self.predicate = predicate
        self.general = False
        self.P = multiplication(space, IndicatorField(predicate))
        self.Q = multiplication(space, IndicatorField(NotPredicate(predicate)))

    def _predicate(self, what):
        if self.predicate is None:
            raise UnsupportedConstructionError(
                f"{what} needs an indicator projection, not a general idempotent")
        return self.predicate

    def rank_on(self, window):
        """rank(M_1K P) = |K intersect Y|, exact in the discrete setting."""
        return int(self._predicate("rank_on").test(self.space, window.points).sum())

    def membership(self, window):
        return self._predicate("membership").test(self.space, window.points)

    def to_descriptor(self):
        return {"predicate": self._predicate("to_descriptor").to_descriptor()}

    @staticmethod
    def from_descriptor(space, desc):
        return SubspaceProjection(space, predicate_from_descriptor(desc["predicate"]))

    @staticmethod
    def from_operator(space, P_op, window, tol=1e-8):
        """Wrap a band operator claimed idempotent; checks P^2 = P on the
        given window only (window evidence, not a certificate)."""
        diff = (P_op @ P_op) - P_op
        from .operator import window_norm

        defect = window_norm(diff, window, window.pad(2 * P_op.propagation))
        if defect > tol:
            raise InvalidConfigError(
                f"operator is not idempotent within {tol} on the test window "
                f"(defect {defect:.3e})"
            )
        proj = SubspaceProjection.__new__(SubspaceProjection)
        proj.space = space
        proj.predicate = None
        proj.general = True
        proj.P = P_op
        proj.Q = identity(space) - P_op
        return proj


def toeplitz(space, symbol, proj):
    """Compression P A P of a multiplication (or band) operator to the
    subspace carried by the projection."""
    if isinstance(symbol, Field):
        op = multiplication(space, symbol)
    elif isinstance(symbol, BandOperator):
        op = symbol
    else:
        raise InvalidConfigError("symbol must be a coefficient field or band operator")
    return proj.P @ op @ proj.P


def hat(A, proj):
    """The extension PAP + Q: acts as (the compression of) A on the subspace
    and as the identity on its complement, so it commutes with P entrywise.

    Limit operators factor accordingly: hat(A)_x = A_x P_x + Q_x along every
    sequence where the limits exist.
    """
    P = proj.P
    return (P @ A @ P) + proj.Q


def commutator_with_projection(A_hat, proj, window):
    """Entrywise max of |[A_hat, P]| on the window; zero for hat outputs."""
    P = proj.P
    comm = (A_hat @ P) - (P @ A_hat)
    rows = window.pad(A_hat.propagation)
    M = comm.block(rows, window)
    return float(np.abs(M).max()) if M.size else 0.0
