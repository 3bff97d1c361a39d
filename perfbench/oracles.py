"""Independent oracle checks for CLI payloads.

Nothing here imports limitops. Spectra come from Bloch matrices assembled
from the reference stencils that ``jobs.py`` records; coverings, partitions
and ball counts are recomputed from first principles.

``check(job, payload, code)`` returns ``None`` when the payload passes and a
one-line reason when it fails.
"""

import numpy as np

REF_THETAS = 2048


def _complex(v):
    if isinstance(v, dict):
        return complex(v.get("re", 0.0), v.get("im", 0.0))
    return complex(v)


def bloch_spectrum(ref, thetas=REF_THETAS):
    """Eigenvalues of the (period * fiber)-square Bloch matrices of a 1-D
    periodic band operator, over ``thetas`` equally spaced quasimomenta.

    The kernel is a(u, u + k) = c_k(u): row u = qL + s couples to column
    (u + k) mod L with phase exp(i q theta), and the fiber step j moves the
    fiber index f to (f + j) mod fiber.
    """
    L, m = ref["period"], ref["fiber"]
    n = L * m
    th = 2 * np.pi * np.arange(thetas) / thetas
    M = np.zeros((thetas, n, n), dtype=np.complex128)
    for (k, j), coeffs in ref["stencil"]:
        for u in range(L):
            q, s = divmod(u + k, L)
            phase = coeffs[u] * np.exp(1j * q * th)
            for f in range(m):
                M[:, u * m + f, s * m + (f + j) % m] += phase
    return np.linalg.eigvals(M).reshape(-1)


def lipschitz(ref):
    """Bound on |d lambda / d theta| for the Bloch eigenvalues of a normal
    symbol: the sum over offsets of |k| times the largest |coefficient|."""
    return sum(abs(k) * max(abs(c) for c in coeffs) for (k, _), coeffs in ref["stencil"])


def hausdorff(a, b):
    """Hausdorff distance between two finite sets of complex numbers."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else np.inf

    def directed(u, v):
        worst = 0.0
        for i in range(0, u.size, 512):
            d = np.abs(u[i:i + 512, None] - v[None, :]).min(axis=1)
            worst = max(worst, float(d.max()))
        return worst

    return max(directed(a, b), directed(b, a))


def _cloud(result):
    return np.array([complex(re, im) for re, im in result["unionCloud"]])


def _check_cloud(job, result):
    """Lower-norm grid cloud against the Bloch spectrum. For a normal limit
    operator a window lower norm bounds the distance to the spectrum from
    above, so cloud points lie within tau of it; a spectrum point lies within
    pitch of a grid point whose indicator stays below tau while the window
    error is below tau - pitch. Hence the bound tau + pitch."""
    prm = job.config["task"]
    methods = {e["method"] for e in result["estimates"]}
    if methods != {"nuGrid"}:
        return f"methods {sorted(methods)} instead of nuGrid"
    hd = hausdorff(_cloud(result), bloch_spectrum(job.check["ref"]))
    bound = prm["tau"] + prm["pitch"]
    if not hd <= bound:
        return f"Hausdorff {hd:.4f} > tau + pitch = {bound:.4f}"
    return None


def _check_oracle(job, result):
    """Symbol or Floquet samples against a denser benchmark-side sampling.
    Both sample Lipschitz curves, so they are within Lip * pi / N of each
    other for the coarser spacing N, plus the same for the finer one."""
    methods = {e["method"] for e in result["estimates"]}
    if methods != {job.check["method"]}:
        return f"methods {sorted(methods)} instead of {job.check['method']}"
    ref = job.check["ref"]
    hd = hausdorff(_cloud(result), bloch_spectrum(ref, REF_THETAS))
    bound = lipschitz(ref) * np.pi * (1.0 / job.check["thetas"] + 1.0 / REF_THETAS) + 1e-9
    if not hd <= bound:
        return f"Hausdorff {hd:.2e} > {bound:.2e}"
    return None


def _check_verdict(job, result):
    for key, want in job.check["expect"].items():
        if result.get(key) != want:
            return f"{key} is {result.get(key)!r}, expected {want!r}"
    return None


def _check_limits(job, result):
    """Halfspace indicators have exact limits: the constant 1 along rays that
    drift into the halfspace, the zero operator along rays that leave it."""
    entries = result["limits"]
    if len(entries) != len(job.check["expect"]):
        return f"{len(entries)} limits for {len(job.check['expect'])} rays"
    for entry, want in zip(entries, job.check["expect"]):
        if entry.get("status") != "limit" or not entry.get("exact"):
            return f"{entry.get('sequence')}: not an exact limit"
        coeffs = [_complex(s["coeff"]["value"]) for s in entry["operator"]["stencil"]
                  if s["coeff"]["type"] == "constant"]
        if len(coeffs) != len(entry["operator"]["stencil"]):
            return f"{entry['sequence']}: non-constant limit coefficient"
        got = sum(coeffs) if coeffs else 0.0
        if got != want:
            return f"{entry['sequence']}: limit coefficient {got}, expected {want}"
        if entry["certificate"][-1]["gap"] > 1e-12:
            return f"{entry['sequence']}: certificate gap {entry['certificate'][-1]['gap']}"
    return None


def _check_ess_norm(job, result):
    """The window lower bound and the coefficient upper bound must bracket
    the norm of the limit, the spectral radius of its Hermitian Bloch
    matrices; windows of radius 100 get within 1% of it from below."""
    rho = float(np.abs(bloch_spectrum(job.check["ref"])).max())
    lo, hi = result["lower"], result["upper"]
    if not (0.99 * rho <= lo <= rho + 1e-9 and hi >= rho - 1e-9):
        return f"[{lo}, {hi}] does not bracket the norm {rho} from within 1%"
    return None


def _check_divergent(job, result, code):
    if code != 2:
        return f"exit code {code}, expected 2"
    if any(e.get("status") != "divergent" for e in result["limits"]):
        return "a random potential reported a limit"
    return None


def lattice_ball(center, radius, dim, metric):
    rng = np.arange(-radius, radius + 1)
    offs = np.stack(np.meshgrid(*([rng] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    norm = np.abs(offs).max(axis=1) if metric == "linf" else np.abs(offs).sum(axis=1)
    return offs[norm <= radius] + np.asarray(center)


def _graph_distances(adj):
    """All-pairs BFS distances of a small graph, keyed by node id."""
    nodes = sorted(int(u) for u in adj)
    nbrs = {int(u): [int(v) for v in vs] for u, vs in adj.items()}
    dist = {}
    for s in nodes:
        seen = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            frontier = nxt
        dist[s] = seen
    return nodes, dist


def _check_covering(job, result):
    """The net must be 2r-separated and cover the scope within 2r (maximal),
    and the CLI's own report must agree that every invariant holds."""
    space, prm = job.config["space"], job.config["task"]
    r = prm["r"]
    net = result.get("net")
    if net is None:
        return "payload carries no net"
    if not result["report"].get("ok") or result["cells"] != len(net):
        return "covering report is not ok"
    if space["kind"] == "graph":
        _, dist = _graph_distances(space["adjacency"])
        base = space["basepoint"]
        scope = [u for u, d in dist[base].items() if d <= prm["scopeRadius"]]
        net = [int(p[0]) for p in net]
        pair = np.array([[dist[a][b] for b in net] for a in net])
        reach = np.array([min(dist[a][b] for b in net) for a in scope])
    else:
        dim, metric = space["dim"], space.get("metric", "linf")
        scope = lattice_ball(prm.get("center", [0] * dim), prm["scopeRadius"], dim, metric)
        net = np.asarray(net, dtype=np.int64).reshape(-1, dim)

        def dist(a, b):
            d = np.abs(a[:, None, :] - b[None, :, :])
            return d.max(axis=2) if metric == "linf" else d.sum(axis=2)

        pair = dist(net, net)
        reach = np.concatenate([dist(scope[i:i + 4096], net).min(axis=1)
                                for i in range(0, len(scope), 4096)])
    np.fill_diagonal(pair, 2 * r)
    if pair.min() < 2 * r:
        return f"net points {pair.min()} apart, below 2r = {2 * r}"
    if reach.max() >= 2 * r:
        return f"a scope point is {reach.max()} from the net, not below 2r"
    return None


def _check_partition(job, result, rng):
    """Tents are values in (0, 1] and sum to one on sampled support points."""
    tents = result["tents"]
    pts = [tuple(p) for t in tents for p in t["support"]]
    if not pts:
        return "empty partition"
    pick = rng.choice(len(pts), size=min(job.check["samples"], len(pts)), replace=False)
    total = {pts[i]: 0.0 for i in pick}
    for t in tents:
        vals = t["values"]
        if vals and not (min(vals) > 0 and max(vals) <= 1):
            return f"tent {t['tent']} has values outside (0, 1]"
        for p, v in zip(t["support"], vals):
            key = tuple(p)
            if key in total:
                total[key] += v
    worst = max(abs(v - 1.0) for v in total.values())
    if worst > 1e-12:
        return f"tents sum to 1 +/- {worst:.1e} on sampled points"
    return None


def _l1_ball_size(dim, r):
    """Points of Z^dim with taxicab norm <= r, by counting per axis."""
    counts = np.zeros(r + 1, dtype=np.int64)
    counts[0] = 1
    for _ in range(dim):
        new = np.zeros_like(counts)
        for s in range(r + 1):
            for step in range(0, r + 1 - s):
                new[s + step] += counts[s] * (1 if step == 0 else 2)
        counts = new
    return int(counts.sum())


def _check_geometry(job, result):
    chk = job.check
    if chk["kind"] == "geometry":
        want = [[r, _l1_ball_size(chk["dim"], r) if chk["metric"] == "l1"
                 else (2 * r + 1) ** chk["dim"]]
                for r in range(1, job.config["task"]["rMax"] + 1)]
    else:
        space, prm = job.config["space"], job.config["task"]
        _, dist = _graph_distances(space["adjacency"])
        probe = [u for u, d in dist[space["basepoint"]].items() if d <= prm["probeRadius"]]
        want = [[r, max(sum(1 for d in dist[u].values() if d <= r) for u in probe)]
                for r in range(1, prm["rMax"] + 1)]
    if result["profile"] != want:
        return "ball-size profile differs from the recount"
    return None


def check(job, payload, code, rng=None):
    """Judge one job's payload; ``None`` on success, else the reason."""
    kind = job.check["kind"]
    if payload is None:
        return f"no payload (exit code {code})"
    result = payload.get("result")
    if kind == "divergent":
        return _check_divergent(job, result, code)
    if code != 0:
        return f"exit code {code}"
    if kind == "cloud":
        return _check_cloud(job, result)
    if kind == "oracle":
        return _check_oracle(job, result)
    if kind == "verdict":
        return _check_verdict(job, result)
    if kind == "limits":
        return _check_limits(job, result)
    if kind == "ess-norm":
        return _check_ess_norm(job, result)
    if kind == "covering":
        return _check_covering(job, result)
    if kind == "partition":
        return _check_partition(job, result, rng or np.random.default_rng(job.seed))
    if kind in ("geometry", "geometry-graph"):
        return _check_geometry(job, result)
    raise ValueError(f"unknown check kind {kind!r}")
