"""Lower norms, invertibility evidence, compactness and Fredholm verdicts,
and essential-spectrum estimation.

Window lower norms only ever certify one direction: they are upper bounds for
the true lower norm, so a small value witnesses non-invertibility at that
level while a large stabilized value is evidence only. All verdicts encode
this asymmetry, and every limit-operator-based report carries the caveat that
the declared sequence family need not exhaust the boundary.
"""

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from ._kernels import PointLocator
from .errors import InvalidConfigError, UnsupportedConstructionError
from .fields import ConstantField, PeriodicField
from .operator import (
    GRAM_OVERFLOW,
    _coefficient_values,
    _diagonal,
    _distinct_sorted,
    _gram_bands,
    _gram_eig,
    _localization_balls,
    _points,
    _singular,
    _window_upper,
    window_norm,
)
from .shifts import DivergenceReport, _check_tolerance, limit_operator
from .space import Window, basepoint_windows
from .subspace import hat

FAMILY_CAVEAT = (
    "limit operators were taken along the declared sequence family only; no "
    "finite family exhausts the boundary, so 'for all limit operators' claims "
    "are relative to this family"
)

# below this multiple of norm_bound()^2 the Gram eigenvalue has lost too many
# digits to squaring, and the dense SVD decides
GRAM_FLOOR = 1e-8
# complex entries in one stack of Bloch matrices handed to eigvals (32 MiB)
_BLOCH_STACK = 1 << 21


# -- lower norms ---------------------------------------------------------------


def _tall_block(B, support_pts, rows_pts=None):
    """The row points (by default all that the support can reach) and the
    block of B on them and the support."""
    space = B.space
    if rows_pts is None:
        # all rows that columns in the support can reach
        reach = B.propagation
        if space.kind == "lattice":
            rows_pts = space.box_points(support_pts.min(axis=0)[: space.dim] - reach,
                                        support_pts.max(axis=0)[: space.dim] + reach)
        else:
            raise InvalidConfigError("graph lower norms need explicit row points")
    return rows_pts, B.block(rows_pts, support_pts)


def _lower_norm_p(M, p, starts=4, iters=200):
    """Upper bound on inf ||Mx||_p / ||x||_p via minimization restarts."""
    from scipy.optimize import minimize

    n = M.shape[1]
    col = np.sum(np.abs(M) ** p, axis=0) ** (1.0 / p)
    best = float(col.min())
    x0s = [np.eye(n)[int(np.argmin(col))]]
    rng = np.random.default_rng(777)
    for _ in range(starts - 1):
        x0s.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def fun(u):
        x = u[:n] + 1j * u[n:]
        nx = np.sum(np.abs(x) ** p) ** (1.0 / p)
        if nx == 0:
            return 1e30
        return float(np.sum(np.abs(M @ x) ** p) ** (1.0 / p) / nx)

    for x0 in x0s:
        u0 = np.concatenate([np.real(x0), np.imag(x0)])
        res = minimize(fun, u0, method="L-BFGS-B",
                       options={"maxiter": iters, "ftol": 1e-12})
        best = min(best, float(res.fun))
    return best


def lower_norm_window(B, support, p=2, rows=None):
    """inf over unit vectors supported in the window of ||Bf||_p.

    p = 2: smallest singular value of the tall block whose rows cover
    everything the support can reach. On a lattice, multiplication operators
    (propagation 0) give min |c(u)| over the support, exactly (``_diagonal``);
    other operators the square root of the smallest eigenvalue of the tall
    block's Gram band (``_gram_eig``, the sweep's ``min_eig_banded``). That
    differs from the singular value by about eps * norm^2 / value, plus on a
    long band of kd >= 2 the bisection bracket's relative width 1e-10 (the
    value stays an upper bound). The dense SVD (``_singular``) takes over
    where the eigenvalue is below GRAM_FLOOR * norm_bound^2, where the Gram
    overflows or where a point repeats. Explicit rows always take the dense
    SVD; when they are fewer than the support points a kernel vector exists
    and the value is 0, for every p. Other exponents: a certified upper
    bound from minimization restarts. A non-finite coefficient raises
    InvalidConfigError (``operator._coefficient_values``). Nonincreasing
    under support enlargement.
    """
    support_pts = _points(support)
    if support_pts.shape[0] == 0:
        warnings.warn("empty support; lower norm is +inf")
        return np.inf
    if p == 2 and rows is None and B.space.kind == "lattice":
        if B.propagation == 0:
            diag = _diagonal(B, support, support)
            if diag is not None:
                return float(diag.min())
        elif (pts := _distinct_sorted(support_pts)) is not None:
            lam = _gram_eig(B, pts, 1)
            if lam is not None and lam >= GRAM_FLOOR * B.norm_bound()[0] ** 2:
                return float(np.sqrt(lam))
    _, M = _tall_block(B, support_pts, rows.points if isinstance(rows, Window) else rows)
    if M.shape[0] < M.shape[1]:
        return 0.0
    return _singular(M, -1) if p == 2 else _lower_norm_p(M, p)


def lower_norm_localized(B, predicate, partition, scope, p=2):
    """min over scope centers x of the lower norm on B[x, r_t] intersected
    with the predicate; dominates the plain lower norm over the predicate by
    construction (each local support is a subset of the full one). The
    balls are whole: their points are found in the scope padded by r_t,
    and each distinct ball is valued once."""
    rt = partition.support_diam
    cands = scope.pad(rt).points
    balls = _localization_balls(B.space, predicate, scope.points, cands, rt)
    if not balls:
        warnings.warn("predicate misses every localization ball; +inf")
        return float(np.inf)
    return float(min(lower_norm_window(B, cands[ball], p) for ball in balls))


@dataclass
class InvertibilityEstimate:
    nu_upper: list
    nu_star_upper: list
    radii: list
    tau: float
    p: float
    verdict: str  # notInvertibleAtLevel | evidenceInvertible | inconclusive
    margin: float

    def to_descriptor(self):
        return {
            "nuUpper": self.nu_upper,
            "nuStarUpper": self.nu_star_upper,
            "radii": self.radii,
            "tau": self.tau,
            "p": self.p,
            "verdict": self.verdict,
            "margin": self.margin,
        }


def invertibility_estimate(B, schedule, tau=0.05, p=2):
    """Window lower norms of B and its adjoint along an increasing window
    schedule.

    The values upper-bound the true lower norms, so falling below tau
    certifies non-invertibility at that level; staying above tau with
    stabilized values (< 1% relative change over the last step) is evidence
    of invertibility, never a certificate. A nan or negative tau is refused.
    """
    _check_tolerance(tau, "tau")
    windows = list(map(basepoint_windows(B.space), schedule))
    radii = [w.radius for w in windows]
    if not radii:
        raise InvalidConfigError("window schedule must hold at least one radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidConfigError("window schedule must be strictly increasing")
    q = 2 if p == 2 else p / (p - 1.0)
    Bstar = B.adjoint()
    nu = [lower_norm_window(B, w, p) for w in windows]
    nustar = [lower_norm_window(Bstar, w, q) for w in windows]

    def settled(seq):
        if len(seq) < 2:
            return False
        a, b = seq[-2], seq[-1]
        return abs(a - b) <= 0.01 * max(abs(b), 1e-30)

    floor = min(nu[-1], nustar[-1])
    if floor < tau:
        verdict = "notInvertibleAtLevel"
    elif settled(nu) and settled(nustar):
        verdict = "evidenceInvertible"
    else:
        verdict = "inconclusive"
    return InvertibilityEstimate(
        nu_upper=[float(v) for v in nu],
        nu_star_upper=[float(v) for v in nustar],
        radii=radii,
        tau=tau,
        p=p,
        verdict=verdict,
        margin=float(floor),
    )


# -- analytic oracles -----------------------------------------------------------


def _bloch_spectrum(op, theta_grid):
    """Eigenvalues of the Bloch matrices of a lattice operator with constant
    or periodic coefficients, over a torus grid: theta_grid points for d = 1,
    else max(16, round(theta_grid^(1/d))) per axis. For the period lattice
    diag(L), L the lcm of the periods, row u of the cell 0 <= u <= L - 1
    (every fiber slot) takes c_k(u) exp(i q . theta) in column s, where
    u + k = q L + s. Stacks hold at most _BLOCH_STACK entries."""
    space = op.space
    if space.kind != "lattice":
        raise UnsupportedConstructionError("Bloch oracles are lattice notions")
    d = space.dim
    L = np.ones(d, dtype=np.int64)
    for k, f in op.stencil.items():
        if isinstance(f, PeriodicField):
            f._table_ok(space)
            L = np.lcm(L, f.period)
        elif not isinstance(f, ConstantField):
            raise InvalidConfigError(
                f"Bloch oracle needs constant or periodic coefficients; offset {k} "
                f"is {type(f).__name__}"
            )
    cell = space.box_points([0] * d, L - 1)
    loc, n = PointLocator(cell), cell.shape[0]
    entries = []  # (row, column, coefficient, q) in stencil order
    for k, f in op.stencil.items():
        tgt = space.translate(cell, k)
        q, tgt[:, :d] = np.divmod(tgt[:, :d], L)
        entries += zip(range(n), loc.locate(tgt), _coefficient_values(space, k, f, cell), q)
    per_axis = theta_grid if d == 1 else max(16, int(round(theta_grid ** (1.0 / d))))
    axis = np.linspace(0.0, 2 * np.pi, per_axis, endpoint=False)
    thetas = np.stack(np.meshgrid(*[axis] * d, indexing="ij")).reshape(d, -1)
    step = max(1, _BLOCH_STACK // (n * n))
    out = []
    for th in (thetas[:, i : i + step] for i in range(0, thetas.shape[1], step)):
        M = np.zeros((th.shape[1], n, n), dtype=np.complex128)
        for u, s, c, q in entries:
            phase = sum((q[a] * th[a] for a in range(d)), np.zeros(th.shape[1]))
            M[:, u, s] += c * np.exp(1j * phase)
        # a 1 x 1 Bloch matrix is its own eigenvalue
        out.append(M[:, 0] if n == 1 else np.linalg.eigvals(M))
    return _sorted_complex(np.concatenate(out))


def symbol_spectrum(op, theta_grid=2048):
    """Range of the Fourier symbol of a translation-invariant band operator
    on Z^d (matrix-valued over the cyclic fiber): the Bloch oracle with every
    period 1. Non-constant coefficients raise InvalidConfigError."""
    for k, f in op.stencil.items():
        if not isinstance(f, ConstantField):
            raise InvalidConfigError(
                f"symbol oracle needs constant coefficients; offset {k} is "
                f"{type(f).__name__}"
            )
    return _bloch_spectrum(op, theta_grid)


def _sorted_complex(vals):
    vals = np.asarray(vals, dtype=np.complex128).reshape(-1)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def floquet_spectrum(op, theta_grid=512):
    """Eigenvalues of the Bloch matrices of a band operator with periodic or
    constant coefficients on Z^d, any fiber, over a grid on the torus."""
    return _bloch_spectrum(op, theta_grid)


# -- banded sweep ----------------------------------------------------------------


def _banded_data(B, radius):
    """``_gram_bands`` of B on the window -radius..radius about 0 of the
    one-dimensional lattice (optional fiber m), each band array zero-padded
    to bw + 1 rows, bw = 2 (w m + m - 1) for reach w: (gram, slice_lower,
    slice_upper, bw, n). No dense block is formed. Gram bands that overflow
    raise InvalidConfigError."""
    space = B.space
    if space.kind != "lattice" or space.dim != 1:
        raise UnsupportedConstructionError(
            "the banded sweep covers one-dimensional lattices (optional fiber); "
            "use dense windows for other spaces"
        )
    m = space.fiber
    wl = max((abs(k[0]) for k in B.stencil), default=0)
    pts = space.box_points([-radius], [radius])
    bands = _gram_bands(B, pts)
    if bands is None:
        raise InvalidConfigError(GRAM_OVERFLOW)
    bw = 2 * (wl * m + m - 1)
    gb, sl, su = (np.pad(b, ((0, bw + 1 - b.shape[0]), (0, 0))) for b in bands)
    return gb, sl, su, bw, pts.shape[0]


def _sublattice_fold(gb, sl, su):
    """Whether a +-1 pattern D on the window sites leaves the Gram bands
    even (D gb D = gb) and makes both slice triangles odd (D S D = -S), so
    that G(-z) = D G(z) D. Each site takes its colour from its nearest
    earlier stored neighbour, flipped across a slice entry and kept across a
    Gram entry (pointer doubling along that parent chain); then every stored
    entry is checked against the colours. A non-zero slice diagonal rules D
    out at once."""
    odd = (sl != 0) | (su != 0)
    if odd[0].any():
        return False
    # entry (i, j) of the lower storage links sites j and k = j + i; read it at k
    i = np.arange(gb.shape[0])[:, None]
    k = np.arange(gb.shape[1])
    inside = (k >= i) & (i > 0)
    j = np.where(inside, k - i, 0)
    flips = odd[i, j] & inside
    keeps = (gb[i, j] != 0) & inside
    link = flips | keeps
    first = np.argmax(link, axis=0)
    anc = np.where(link[first, k], k - first, k)
    colour = flips[first, k]
    while not np.array_equal(anc[anc], anc):
        colour = colour ^ colour[anc]
        anc = anc[anc]
    differ = colour != colour[j]
    return not ((flips & ~differ) | (keeps & differ)).any()


def nu_grid_indicator(B, zs, radius=400, tau=None):
    """min(nu_window(B - z), nu_window((B - z)*)) over the grid, via the
    banded sweep. The bands come straight from the stencil
    (``_banded_data``), O(n |stencil|^2), for B and for its adjoint, and
    four exact symmetries are read off them. Bands with no imaginary part
    give sigma(z) = sigma(conj z), so each conjugate pair is swept once.
    An adjoint whose Gram bands equal B's and whose slices are the
    conjugated swap of B's (sl' = conj(su), su' = conj(sl)), as for a
    self-adjoint B or any normal band operator with constant coefficients,
    has G'(conj z) = G(z) with the two slice terms in the other order; the
    kernel sums them before subtracting, and complex addition commutes
    exactly, so the adjoint pass would repeat the direct one bit for bit
    and only the direct pass runs. Equal bands give equal bits, so these
    two folds never change a value. Bands with a sublattice pattern D
    (``_sublattice_fold``: Gram even, slice odd, as for Delta or
    a S + b S^-1) give G(-z) = D G(z) D, so each pair z, -z is swept once.
    The sign flips of D are exact and a banded Cholesky of D G D is D L D
    operation for operation, so gates and bisection steps decide alike, and
    ?sbevx/?hbevx return the same bits for G and D G D: this fold keeps the
    bits as well.
    On real bands the two point folds leave one point of each
    {+-z, +-conj z}. Each pass is one ``_kernels.sigma_min_sweep`` call on
    its distinct folded points, on the calling thread: scipy's LAPACK
    wrappers hold the GIL, so threads would only take turns.
    A Hermitian window slice S makes G(x + iy) = G(x) + y^2 I, so
    the sweep works per column x = Re z: one gate and at most one
    eigenvalue per column, and no work at all for a point with
    |Im z| > tau (``_kernels.sigma_min_sweep``). Its values agree with the
    point-by-point ones up to rounding.

    tau=None values every point. With tau given, a point whose value is
    certified above tau reads inf, and the points at or below tau carry the
    same bits as without tau (a long band's bisection bracket, [0, g], never
    depends on tau). A short band's values are LAPACK ?sbevx/?hbevx's; a long
    one's (``_kernels.min_eig_banded``) are upper ends of bisection brackets,
    so they stay upper bounds on the window lower norm. A non-finite grid
    point raises InvalidConfigError before any band is formed, a non-finite
    coefficient while the bands are (``operator._coefficient_values``).
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128).reshape(-1)
    bad = zs[~np.isfinite(zs)]
    if bad.size:
        raise InvalidConfigError(
            f"non-finite input to the banded sweep: grid point {complex(bad[0])}")

    def run(bands, vals):
        gb, sl, su = bands[:3]
        # -z first: the conjugate fold below keeps Re z
        if _sublattice_fold(gb, sl, su):
            flip = (vals.real < 0) | ((vals.real == 0) & (vals.imag < 0))
            vals = np.where(flip, -vals, vals)
        if not any(b.imag.any() for b in (gb, sl, su)):
            vals = np.where(vals.imag < 0, np.conj(vals), vals)
        uniq, inv = np.unique(vals, return_inverse=True)
        return _kernels.sigma_min_sweep(gb, sl, su, uniq, tau)[inv]

    bands = _banded_data(B, radius)
    adj_bands = _banded_data(B.adjoint(), radius)
    gb, sl, su = bands[:3]
    if all(np.array_equal(a, b) for a, b in zip(adj_bands[:3],
                                                (gb, np.conj(su), np.conj(sl)))):
        return run(bands, zs)
    return np.minimum(run(bands, zs), run(adj_bands, np.conj(zs)))


# -- spectra ---------------------------------------------------------------------


@dataclass
class SpectrumEstimate:
    """Indicators on the grid ``points``; the ``cloud`` holds the points
    whose indicator is at most ``tau``, and ``cloud_indicators`` their
    indicators. The oracle routes return the spectrum points themselves as
    grid and cloud, each with indicator 0."""

    method: str
    limit_label: str
    tau: float
    points: np.ndarray
    indicators: np.ndarray
    cloud: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    def to_descriptor(self):
        return {
            "method": self.method,
            "limitOperatorLabel": self.limit_label,
            "tau": self.tau,
            "points": np.stack([self.cloud.real, self.cloud.imag,
                                self.cloud_indicators], axis=1),
            "meta": self.meta,
        }

    @property
    def cloud_indicators(self):
        return self.indicators[self.indicators <= self.tau]


def _grid(box, pitch):
    """Grid over the box, each axis symmetric about the box centre from
    integer steps, so a box symmetric about the real axis holds exact
    conjugate pairs."""
    re0, re1, im0, im1 = box

    def axis(lo, hi):
        steps = (hi - lo) / pitch
        if not np.isfinite(steps):
            raise InvalidConfigError(
                f"zBox {list(box)} is too wide to grid at pitch {pitch}: its axis "
                f"count overflows")
        n = int(round(steps)) + 1
        return 0.5 * (lo + hi) + pitch * (np.arange(n) - 0.5 * (n - 1))

    R, I = np.meshgrid(axis(re0, re1), axis(im0, im1), indexing="ij")
    return (R + 1j * I).reshape(-1)


def _auto_method(op):
    """symbolOracle when every coefficient is constant, floquet when every
    coefficient is constant or periodic (Z^d, any fiber), nuGrid otherwise."""
    fields = op.stencil.values()
    if all(isinstance(f, ConstantField) for f in fields):
        return "symbolOracle"
    if all(isinstance(f, (ConstantField, PeriodicField)) for f in fields):
        return "floquet"
    return "nuGrid"


def spectrum_estimate_for(op, label, tau=0.05, pitch=0.02, radius=400,
                          z_box=None, theta_grid=2048, method="auto"):
    """Spectrum estimate for a single (limit) operator by the requested or
    auto-selected method. nuGrid indicators read inf at grid points whose
    window lower norm is certified above tau. The floquet route caps
    theta_grid at 512 and reports the capped value in meta["thetaGrid"]. A
    nan or negative tau is refused."""
    _check_tolerance(tau, "tau")
    chosen = _auto_method(op) if method == "auto" else method
    if chosen == "floquet":
        theta_grid = min(theta_grid, 512)
        pts = floquet_spectrum(op, theta_grid)
    elif chosen == "symbolOracle":
        pts = symbol_spectrum(op, theta_grid)
    if chosen in ("symbolOracle", "floquet"):
        return SpectrumEstimate(
            method=chosen, limit_label=label, tau=tau, points=pts,
            indicators=np.zeros(pts.size), cloud=pts, meta={"thetaGrid": theta_grid},
        )
    if chosen != "nuGrid":
        raise InvalidConfigError(f"unknown spectrum method {chosen!r}")
    if z_box is None:
        bound, _ = op.norm_bound()
        b = float(np.ceil((bound + 0.1) / pitch) * pitch)
        z_box = (-b, b, -b, b)
    zs = _grid(z_box, pitch)
    ind = nu_grid_indicator(op, zs, radius=radius, tau=tau)
    cloud = zs[ind <= tau]
    return SpectrumEstimate(
        method="nuGrid", limit_label=label, tau=tau, points=zs,
        indicators=ind, cloud=cloud,
        meta={"zBox": list(z_box), "pitch": pitch, "windowRadius": radius},
    )


# -- limit-operator driven reports ------------------------------------------------


def _extract_limits(A, proj, sequences, radii, tol, budget, p=2):
    """The limits of A, or of hat(A, proj), and the keys every limit report
    shares: {"divergences": one descriptor per sequence that diverged,
    "caveat": FAMILY_CAVEAT}. Each sequence gives one limit or one divergence."""
    if not sequences:
        raise InvalidConfigError("a limit report needs at least one sequence")
    if proj is not None:
        A = hat(A, proj)
    limits, divergences = [], []
    for seq in sequences:
        out = limit_operator(A, seq, radii=radii, tol=tol, budget=budget, p=p)
        if isinstance(out, DivergenceReport):
            divergences.append(out.to_descriptor())
        else:
            limits.append(out)
    return limits, {"divergences": divergences, "caveat": FAMILY_CAVEAT}


def compactness_test(A, sequences, radii=(5, 10, 20), tol=1e-9, budget=2 ** 20,
                     p=2):
    """Compact-consistency: every declared limit operator must vanish in
    window norm on every certified radius. The report holds the keys of
    ``_extract_limits``; a nan or negative tol is refused."""
    _check_tolerance(tol)
    limits, shared = _extract_limits(A, None, sequences, radii, min(tol, 1e-9), budget, p)
    window = basepoint_windows(A.space)
    per_seq = []
    worst = 0.0
    for lim in limits:
        omega = lim.op.propagation
        norms = [_window_upper(lim.op, window(r), window(r + omega), p) for r in sorted(radii)]
        worst = max(worst, max(norms))
        per_seq.append({
            "sequence": lim.sequence_label,
            "exact": lim.exact,
            "limitNorms": norms,
            "certificate": [
                {"radius": r, "index": n, "gap": g} for r, n, g in lim.certificate
            ],
        })
    if worst > tol:
        verdict = "not-compact-consistent"
    elif shared["divergences"]:
        verdict = "inconclusive"
    else:
        verdict = "compact-consistent"
    return {
        "verdict": verdict,
        "maxLimitNorm": worst,
        "tolerance": tol,
        "sequences": per_seq,
        **shared,
    }


def fredholm_test(A, proj, sequences, schedule=(50, 100, 200, 400), tau=0.05,
                  p=2, radii=(5, 10, 20), tol=1e-8, budget=2 ** 20):
    """Fredholm verdict through the limit operators of PAP + Q.

    notFredholm is certified when some limit operator is not invertible at
    level tau (its window lower norm, an upper bound for the true lower norm,
    falls below tau); Fredholm-consistency requires invertibility evidence for
    every declared limit and no divergence, and stays evidence. The report
    holds the keys of ``_extract_limits``; a nan or negative tau is refused
    before any limit is extracted.
    """
    _check_tolerance(tau, "tau")
    limits, shared = _extract_limits(A, proj, sequences, radii, tol, budget, p)
    per_seq = []
    witness = None
    all_evidence = bool(limits)
    for lim in limits:
        est = invertibility_estimate(lim.op, schedule, tau=tau, p=p)
        per_seq.append({
            "sequence": lim.sequence_label,
            "exact": lim.exact,
            "estimate": est.to_descriptor(),
        })
        if est.verdict == "notInvertibleAtLevel" and witness is None:
            witness = (lim, est)
        if est.verdict != "evidenceInvertible":
            all_evidence = False
    if witness is not None:
        verdict = "notFredholm"
    elif all_evidence and not shared["divergences"]:
        verdict = "Fredholm-consistent"
    else:
        verdict = "inconclusive"
    certified = witness is not None and witness[0].exact
    report = {
        "verdict": verdict,
        "certified": certified,
        "tau": tau,
        "sequences": per_seq,
        **shared,
    }
    margins = [e["estimate"]["margin"] for e in per_seq]
    if margins and min(margins) > 0:
        report["supInverseNormEstimate"] = 1.0 / min(margins)
    if witness is not None:
        report["witnessSequence"] = witness[0].sequence_label
        report["witnessMargin"] = witness[1].margin
    return report


def essential_spectrum_estimate(A, proj, sequences, tau=0.05, pitch=0.02,
                                radius=400, z_box=None, theta_grid=2048,
                                method="auto", radii=(5, 10, 20), tol=1e-8,
                                budget=2 ** 20):
    """Union of per-limit-operator spectrum estimates, with provenance.

    With method "auto", limits whose coefficients are all constant use the
    symbol oracle, limits with constant or periodic coefficients on Z^d (any
    fiber) the Floquet oracle (both are the Bloch oracle), everything else
    the lower-norm grid sweep; the method argument can force a route
    ("symbol" is short for "symbolOracle"). The report holds the keys of
    ``_extract_limits``; a nan or negative tau is refused first.
    """
    _check_tolerance(tau, "tau")
    method = {"symbol": "symbolOracle"}.get(method, method)
    limits, shared = _extract_limits(A, proj, sequences, radii, tol, budget)
    estimates = [
        spectrum_estimate_for(lim.op, lim.sequence_label, tau=tau, pitch=pitch,
                              radius=radius, z_box=z_box, theta_grid=theta_grid,
                              method=method)
        for lim in limits
    ]
    clouds = [e.cloud for e in estimates if e.cloud.size]
    # return_index keeps np.unique from importing numpy.ma (numpy 2.x)
    union = (np.unique(np.concatenate(clouds), return_index=True)[0] if clouds
             else np.empty(0, dtype=np.complex128))
    return {
        "estimates": estimates,
        "unionCloud": union,
        **shared,
        "params": {
            "tau": tau, "pitch": pitch, "windowRadius": radius,
            "thetaGrid": theta_grid, "method": method,
        },
    }


def ess_norm_estimate(A, proj, sequences, schedule=(25, 50, 100),
                      radii=(5, 10, 20), tol=1e-8, budget=2 ** 20):
    """Interval for the essential norm over the declared family: window lower
    bounds against coefficient-sum upper bounds of the limit operators. The
    report holds the keys of ``_extract_limits``."""
    if proj is not None and getattr(proj, "general", False):
        warnings.warn("essential norm formula assumes a norm-one projection; "
                      "general projections give a heuristic only")
    limits, shared = _extract_limits(A, proj, sequences, radii, tol, budget)
    window = basepoint_windows(A.space)
    per_limit = []
    for lim in limits:
        omega = lim.op.propagation
        lo = max((window_norm(lim.op, window(r), window(r + omega)) for r in schedule),
                 default=0.0)
        up, certified = lim.op.norm_bound()
        per_limit.append({
            "sequence": lim.sequence_label,
            "windowLowerBound": float(lo),
            "coefficientUpperBound": float(up),
            "upperCertified": certified,
        })
    return {
        "lower": max((e["windowLowerBound"] for e in per_limit), default=0.0),
        "upper": max((e["coefficientUpperBound"] for e in per_limit), default=0.0),
        "perLimit": per_limit,
        **shared,
    }


def hausdorff_distance(a, b):
    """Hausdorff distance between two finite complex point sets."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    if a.size == 0 or b.size == 0:
        return np.inf if a.size != b.size else 0.0

    def one_sided(u, v):
        worst = 0.0
        for i in range(0, u.size, 1024):
            chunk = u[i : i + 1024]
            d = np.abs(chunk[:, None] - v[None, :]).min(axis=1)
            worst = max(worst, float(d.max()))
        return worst

    return max(one_sided(a, b), one_sided(b, a))
