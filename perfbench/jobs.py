"""Fixed job lists for the three benchmark workloads.

Every job is one ``limitops`` CLI call: a subcommand, a JSON config and the
CLI ``--seed``. Sizes (window radii, grids, scopes, schedules) are fixed per
job; the workload seed only draws values: potentials, stencil coefficients,
halfspace normals, ray directions, centres and the CLI seed. Each job also
carries the facts its oracle needs (reference stencils, expected verdicts),
derived here from the drawn values and never from limitops itself.

Why these workloads:

* ``spectrum``: ``essential-spectrum`` on 1-D lattices, dominated by the
  banded lower-norm sweep (``_kernels.sigma_min_sweep``) and the banded Gram
  set-up in ``fredholm``; two cheap ``auto`` jobs take the symbol and Floquet
  oracles instead.
* ``verdicts``: ``limits``, ``compactness``, ``fredholm`` and ``ess-norm`` on
  Z^1 and Z^2, dominated by dense SVDs behind ``window_norm`` and
  ``lower_norm_window`` and by the limit-operator doubling scan; the sweep
  never runs.
* ``geometry``: ``covering``, ``partition``, ``bdo-diagnostic`` and
  ``geometry``, dominated by ``space`` (big scopes, not many small windows),
  the net and cell scans in ``_kernels``, and by writing large payloads.
"""

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("spectrum", "verdicts", "geometry")

Z1 = {"kind": "lattice", "dim": 1}
Z2 = {"kind": "lattice", "dim": 2}


@dataclass(frozen=True)
class Job:
    """One CLI call plus what its oracle needs to judge the payload."""

    name: str
    task: str
    config: dict
    check: dict
    seed: int = 0

    def argv(self, config_path):
        """CLI arguments, less ``--out`` and ``--threads`` (default 1)."""
        return [self.task, "--config", config_path, "--seed", str(self.seed)]


def _const(z):
    z = complex(z)
    value = z.real if z.imag == 0 else {"re": z.real, "im": z.imag}
    return {"type": "constant", "value": value}


def _band(entries):
    """Constant-coefficient band operator from {offset tuple: coefficient}."""
    return {"kind": "band",
            "stencil": [{"offset": list(k), "coeff": _const(c)}
                        for k, c in entries.items()]}


def _laplacian_plus(field_desc):
    return {"kind": "sum", "terms": [
        {"kind": "laplacian"},
        {"kind": "multiplication", "field": field_desc},
    ]}


def _round(x, digits=4):
    return float(round(float(x), digits))


def _reference(stencil, period=1, fiber=1):
    """Reference Bloch data for an oracle: offsets (lattice step, fiber
    step) mapped to per-residue coefficient lists of length ``period``."""
    return {"period": period, "fiber": fiber,
            "stencil": [[list(k), [complex(c) for c in np.broadcast_to(v, (period,))]]
                        for k, v in stencil.items()]}


# -- spectrum -----------------------------------------------------------------


def spectrum_jobs(seed):
    rng = np.random.default_rng([seed, 1])
    jobs = []

    # Laplacian plus a real period-3 potential: self-adjoint, Floquet bands.
    pot = [_round(v) for v in rng.uniform(-0.5, 0.5, 3)]
    prm = {"method": "nuGrid", "windowRadius": 32, "pitch": 0.08, "tau": 0.12,
           "zBox": [-3.2, 3.2, -0.48, 0.48]}
    jobs.append(Job(
        "periodic", "essential-spectrum",
        {"space": Z1,
         "operator": _laplacian_plus({"type": "periodic", "values": pot,
                                      "period": [3]}),
         "sequences": [{"v": [3], "label": "right"}],
         "task": prm},
        {"kind": "cloud", "ref": _reference({(1, 0): 1.0, (-1, 0): 1.0,
                                             (0, 0): pot}, period=3)},
    ))

    # Constant Laplacian at window 400: the largest banded system.
    prm = {"method": "nuGrid", "windowRadius": 400, "pitch": 0.1, "tau": 0.1,
           "zBox": [-2.4, 2.4, -0.4, 0.4]}
    jobs.append(Job(
        "laplacian-r400", "essential-spectrum",
        {"space": Z1, "operator": {"kind": "laplacian"},
         "sequences": [{"v": [1], "label": "right"}], "task": prm},
        {"kind": "cloud", "ref": _reference({(1, 0): 1.0, (-1, 0): 1.0})},
    ))

    # Non-Hermitian real shift stencil a S + b S^-1: an ellipse, normal.
    a = _round(rng.uniform(0.9, 1.1))
    b = _round(rng.uniform(0.35, 0.5))
    prm = {"method": "nuGrid", "windowRadius": 32, "pitch": 0.1, "tau": 0.12,
           "zBox": [-1.8, 1.8, -1.0, 1.0]}
    jobs.append(Job(
        "shift-ellipse", "essential-spectrum",
        {"space": Z1, "operator": _band({(1,): a, (-1,): b}),
         "sequences": [{"v": [1], "label": "right"}], "task": prm},
        {"kind": "cloud", "ref": _reference({(1, 0): a, (-1, 0): b})},
    ))

    # Decaying expression potential: the limit goes through the numeric
    # doubling scan, then the sweep runs on the sampled limit.
    amp = _round(rng.uniform(0.5, 1.0))
    prm = {"method": "nuGrid", "windowRadius": 40, "pitch": 0.08, "tau": 0.12,
           "zBox": [-2.4, 2.4, -0.4, 0.4]}
    jobs.append(Job(
        "decaying-numeric-limit", "essential-spectrum",
        {"space": Z1,
         "operator": _laplacian_plus({"type": "expression",
                                      "source": f"{amp}*exp(0-abs(n)/4)"}),
         "sequences": [{"v": [1], "label": "right"}], "task": prm},
        {"kind": "cloud", "ref": _reference({(1, 0): 1.0, (-1, 0): 1.0})},
    ))

    # Fibered (two-component) Hermitian stencil: matrix symbol 2cos(t) +/- g.
    g = _round(rng.uniform(0.5, 0.8))
    prm = {"method": "nuGrid", "windowRadius": 30, "pitch": 0.08, "tau": 0.12,
           "zBox": [-3.2, 3.2, -0.4, 0.4]}
    jobs.append(Job(
        "fibered", "essential-spectrum",
        {"space": {"kind": "lattice", "dim": 1, "fiber": 2},
         "operator": _band({(1, 0): 1.0, (-1, 0): 1.0, (0, 1): g}),
         "sequences": [{"v": [1, 0], "label": "right"}], "task": prm},
        {"kind": "cloud", "ref": _reference({(1, 0): 1.0, (-1, 0): 1.0, (0, 1): g},
                                            fiber=2)},
    ))

    # Quick auto jobs: the symbol oracle and the Floquet oracle.
    c1 = complex(_round(rng.uniform(0.8, 1.2)), _round(rng.uniform(-0.3, 0.3)))
    c2 = _round(rng.uniform(0.2, 0.6))
    jobs.append(Job(
        "auto-symbol", "essential-spectrum",
        {"space": Z1, "operator": _band({(1,): c1, (-1,): c2, (2,): 0.25}),
         "sequences": [{"v": [1], "label": "right"}],
         "task": {"method": "auto", "thetaGrid": 2048}},
        {"kind": "oracle", "thetas": 2048, "method": "symbolOracle",
         "ref": _reference({(1, 0): c1, (-1, 0): c2, (2, 0): 0.25})},
    ))
    pot2 = [_round(v) for v in rng.uniform(-0.6, 0.6, 4)]
    jobs.append(Job(
        "auto-floquet", "essential-spectrum",
        {"space": Z1,
         "operator": _laplacian_plus({"type": "periodic", "values": pot2,
                                      "period": [4]}),
         "sequences": [{"v": [4], "label": "right"}],
         "task": {"method": "auto", "thetaGrid": 512}},
        {"kind": "oracle", "thetas": 512, "method": "floquet",
         "ref": _reference({(1, 0): 1.0, (-1, 0): 1.0, (0, 0): pot2}, period=4)},
    ))
    return jobs


# -- verdicts -----------------------------------------------------------------


def _unit_normal(rng):
    """A halfspace normal with both components bounded away from zero, so
    every axis ray has a nonzero drift."""
    sx, sy = rng.choice([-1.0, 1.0], 2)
    return [_round(sx * rng.uniform(0.3, 1.0)), _round(sy * rng.uniform(0.3, 1.0))]


def verdicts_jobs(seed):
    rng = np.random.default_rng([seed, 2])
    jobs = []

    # Halfspace indicator on Z^2 along the four axis rays: exact limits, the
    # identity where the ray drifts into the halfspace, zero where it leaves.
    normal = _unit_normal(rng)
    thr = _round(rng.uniform(-3.0, 3.0))
    rays = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    jobs.append(Job(
        "halfspace-limits-z2", "limits",
        {"space": Z2,
         "operator": {"kind": "multiplication",
                      "field": {"type": "indicator",
                                "predicate": {"type": "halfspace", "normal": normal,
                                              "threshold": thr}}},
         "sequences": [{"v": v, "label": f"ray{v}"} for v in rays],
         "task": {"radii": [3, 5, 8]}},
        {"kind": "limits",
         "expect": [1.0 if np.dot(normal, v) > 0 else 0.0 for v in rays]},
    ))

    # Toeplitz shift and shift minus identity, compressed to a halfspace.
    proj = {"predicate": {"type": "halfspace", "normal": [1], "threshold": 0}}
    lr = [{"v": [1], "label": "right"}, {"v": [-1], "label": "left"}]
    jobs.append(Job(
        "toeplitz-shift", "fredholm",
        {"space": Z1, "operator": {"kind": "shift", "v": [1]}, "projection": proj,
         "sequences": lr, "task": {"schedule": [100, 200, 400]}},
        {"kind": "verdict", "expect": {"verdict": "Fredholm-consistent"}},
    ))
    jobs.append(Job(
        "toeplitz-shift-minus-identity", "fredholm",
        {"space": Z1,
         "operator": {"kind": "sum", "terms": [
             {"kind": "shift", "v": [1]},
             {"kind": "scaled", "operator": {"kind": "identity"}, "factor": -1.0}]},
         "projection": proj, "sequences": lr,
         "task": {"schedule": [100, 200, 400]}},
        {"kind": "verdict", "expect": {"verdict": "notFredholm", "certified": True}},
    ))

    # 2-D Fredholm: I + c S_e compressed to a halfspace, invertible limits.
    c = _round(rng.uniform(0.2, 0.4))
    n2 = _unit_normal(rng)
    rays2 = [[1, 0], [-1, 0]]
    jobs.append(Job(
        "fredholm-z2", "fredholm",
        {"space": Z2,
         "operator": {"kind": "sum", "terms": [
             {"kind": "identity"},
             {"kind": "scaled", "operator": {"kind": "shift", "v": [0, 1]},
              "factor": c}]},
         "projection": {"predicate": {"type": "halfspace", "normal": n2,
                                      "threshold": 0}},
         "sequences": [{"v": v, "label": f"ray{v}"} for v in rays2],
         "task": {"schedule": [4, 8, 12], "radii": [3, 6]}},
        {"kind": "verdict", "expect": {"verdict": "Fredholm-consistent"}},
    ))

    # Decaying expression fields: compact, through the numeric limit path.
    amp = _round(rng.uniform(1.0, 3.0))
    jobs.append(Job(
        "decaying-compact-z1", "compactness",
        {"space": Z1,
         "operator": {"kind": "multiplication",
                      "field": {"type": "expression",
                                "source": f"{amp}*exp(0-abs(n)/6)"}},
         "sequences": lr},
        {"kind": "verdict", "expect": {"verdict": "compact-consistent"}},
    ))
    amp2 = _round(rng.uniform(1.0, 3.0))
    jobs.append(Job(
        "decaying-compact-z2", "compactness",
        {"space": Z2,
         "operator": {"kind": "multiplication",
                      "field": {"type": "expression",
                                "source": f"{amp2}*exp(0-(abs(n1)+abs(n2))/3)"}},
         "sequences": [{"v": v, "label": f"ray{v}"} for v in ([1, 0], [0, 1])],
         "task": {"radii": [2, 4, 8]}},
        {"kind": "verdict", "expect": {"verdict": "compact-consistent"}},
    ))
    jobs.append(Job(
        "shift-not-compact", "compactness",
        {"space": Z1, "operator": {"kind": "shift", "v": [1]}, "sequences": lr},
        {"kind": "verdict", "expect": {"verdict": "not-compact-consistent"}},
    ))

    # Essential norm of a Hermitian periodic operator: the window lower bound
    # may not exceed the spectral radius of its Floquet bands.
    pot = [_round(v) for v in rng.uniform(-0.8, 0.8, 2)]
    jobs.append(Job(
        "ess-norm-periodic", "ess-norm",
        {"space": Z1,
         "operator": _laplacian_plus({"type": "periodic", "values": pot,
                                      "period": [2]}),
         "sequences": [{"v": [2], "label": "even"}],
         "task": {"schedule": [25, 50, 100]}},
        {"kind": "ess-norm",
         "ref": _reference({(1, 0): 1.0, (-1, 0): 1.0, (0, 0): pot}, period=2)},
    ))

    # A random potential has no limit along a ray: divergence, exit code 2.
    jobs.append(Job(
        "random-divergent", "limits",
        {"space": Z1,
         "operator": _laplacian_plus({"type": "seededRandom"}),
         "sequences": [{"v": [int(rng.choice([-1, 1]))], "label": "ray"}],
         "task": {"budget": 256, "radii": [3, 6]}},
        {"kind": "divergent"},
        seed=int(rng.integers(1, 2 ** 31)),
    ))
    return jobs


# -- geometry -----------------------------------------------------------------


def _grid_graph(rows, cols):
    adj = {}
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            nb = []
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                a, b = i + di, j + dj
                if 0 <= a < rows and 0 <= b < cols:
                    nb.append(a * cols + b)
            adj[str(u)] = sorted(nb)
    return adj


def geometry_jobs(seed):
    rng = np.random.default_rng([seed, 3])
    jobs = []

    def centre(dim, span=50):
        return [int(v) for v in rng.integers(-span, span + 1, dim)]

    jobs.append(Job(
        "covering-z2-linf", "covering",
        {"space": Z2, "task": {"scopeRadius": 24, "r": 2, "center": centre(2)}},
        {"kind": "covering"},
    ))
    jobs.append(Job(
        "covering-z3-l1", "covering",
        {"space": {"kind": "lattice", "dim": 3, "metric": "l1"},
         "task": {"scopeRadius": 12, "r": 2, "center": centre(3)}},
        {"kind": "covering"},
    ))
    base = int(rng.integers(0, 42))
    jobs.append(Job(
        "covering-grid-graph", "covering",
        {"space": {"kind": "graph", "adjacency": _grid_graph(6, 7), "basepoint": base},
         "task": {"scopeRadius": 6, "r": 1}},
        {"kind": "covering"},
    ))
    jobs.append(Job(
        "partition-z1", "partition",
        {"space": Z1, "task": {"variation": 0.1}},
        {"kind": "partition", "samples": 64},
    ))
    jobs.append(Job(
        "partition-z2", "partition",
        {"space": Z2, "task": {"variation": 0.5, "scopeFactor": 2}},
        {"kind": "partition", "samples": 64},
    ))
    jobs.append(Job(
        "bdo-z1-random-band", "bdo-diagnostic",
        {"space": Z1,
         "operator": {"kind": "band", "stencil": [
             {"offset": [k], "coeff": {"type": "seededRandom", "seed": int(s)}}
             for k, s in zip((-2, -1, 0, 1, 2), rng.integers(0, 2 ** 31, 5))]},
         "task": {"tGrid": [0.1, 0.05], "scopeRadius": 150}},
        {"kind": "verdict", "expect": {"classification": "band-consistent"}},
    ))
    jobs.append(Job(
        "bdo-z2-random-potential", "bdo-diagnostic",
        {"space": Z2,
         "operator": _laplacian_plus({"type": "seededRandom", "mode": "real"}),
         "task": {"tGrid": [0.5, 0.25], "scopeRadius": 6}},
        {"kind": "verdict", "expect": {"classification": "band-consistent"}},
        seed=int(rng.integers(1, 2 ** 31)),
    ))
    jobs.append(Job(
        "geometry-z3-l1", "geometry",
        {"space": {"kind": "lattice", "dim": 3, "metric": "l1"},
         "task": {"rMax": 12, "probeRadius": 2, "probeCenter": centre(3)}},
        {"kind": "geometry", "dim": 3, "metric": "l1"},
    ))
    jobs.append(Job(
        "geometry-grid-graph", "geometry",
        {"space": {"kind": "graph", "adjacency": _grid_graph(6, 7), "basepoint": base},
         "task": {"rMax": 6, "probeRadius": 3}},
        {"kind": "geometry-graph"},
    ))
    return jobs


_JOB_LISTS = {"spectrum": spectrum_jobs, "verdicts": verdicts_jobs,
             "geometry": geometry_jobs}


def jobs_for(workload, seed):
    """The fixed job list of a workload, with values drawn from the seed."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _JOB_LISTS[workload](int(seed))


# The spectrum job rerun with --threads 2; its stripped payload must match.
THREADED_JOB = "periodic"
