"""Discrete metric spaces of bounded geometry.

Two kinds of space are supported: integer lattices Z^d under the sup or
taxicab metric, optionally crossed with a cyclic fiber {0..m-1} carrying the
wrap-around distance (the standard encoding of vector-valued sequence spaces
as scalar ones on a product space), and finite bounded-degree graphs under the
path metric. On top of these sit windows (metric balls used as finite scopes),
greedy separated nets, the disjoint covering construction with cells pinched
between the r- and 2r-balls of the net, and product-tent partitions of unity
with summed-variation control.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import (
    InvalidConfigError,
    InvalidPointError,
    UnsupportedConstructionError,
)

_METRICS = ("linf", "l1")


@dataclass(frozen=True)
class Space:
    """A discrete proper metric space of bounded geometry.

    Lattice spaces: points are integer tuples of length ``dim`` (plus one
    trailing cyclic-fiber coordinate when ``fiber > 1``). Graph spaces: points
    are integer node ids of a finite symmetric adjacency structure.
    """

    kind: str = "lattice"
    dim: int = 1
    metric: str = "linf"
    fiber: int = 1
    adjacency: dict | None = None
    basepoint: tuple | int | None = None

    def __post_init__(self):
        if self.kind == "lattice":
            if self.dim < 1:
                raise InvalidConfigError("lattice dim must be >= 1")
            if self.metric not in _METRICS:
                raise InvalidConfigError(f"unknown metric {self.metric!r}")
            if self.fiber < 1:
                raise InvalidConfigError("fiber size must be >= 1")
            bp = self.basepoint
            if bp is None:
                bp = (0,) * self.point_arity
            bp = self._check_point(tuple(bp))
            object.__setattr__(self, "basepoint", bp)
        elif self.kind == "graph":
            if not self.adjacency:
                raise InvalidConfigError("graph space needs a nonempty adjacency")
            adj = {int(u): tuple(sorted(int(v) for v in vs)) for u, vs in self.adjacency.items()}
            nodes = set(adj)
            for u, vs in adj.items():
                for v in vs:
                    if v not in nodes:
                        raise InvalidConfigError(f"edge {u}-{v} leaves the node set")
                    if u not in adj[v]:
                        raise InvalidConfigError(f"adjacency not symmetric at {u}-{v}")
            object.__setattr__(self, "adjacency", adj)
            object.__setattr__(self, "_nodes", np.asarray(sorted(nodes), dtype=np.int64))
            bp = min(nodes) if self.basepoint is None else int(self.basepoint)
            if bp not in nodes:
                raise InvalidPointError(f"basepoint {bp} not a node")
            object.__setattr__(self, "basepoint", bp)
        else:
            raise InvalidConfigError(f"unknown space kind {self.kind!r}")

    # -- points ------------------------------------------------------------

    @property
    def point_arity(self):
        if self.kind == "graph":
            return 1
        return self.dim + (1 if self.fiber > 1 else 0)

    def _check_point(self, x):
        if self.kind == "graph":
            x = int(x)
            if x not in self.adjacency:
                raise InvalidPointError(f"{x} is not a node of the graph")
            return x
        x = tuple(int(c) for c in x)
        if len(x) != self.point_arity:
            raise InvalidPointError(
                f"point {x} has arity {len(x)}, expected {self.point_arity}"
            )
        if self.fiber > 1 and not 0 <= x[-1] < self.fiber:
            raise InvalidPointError(f"fiber coordinate of {x} outside [0, {self.fiber})")
        return x

    def as_array(self, pts):
        """Points -> int64 array of shape (n, point_arity); such an array
        passes through uncopied. Graph points must be nodes."""
        if (isinstance(pts, np.ndarray) and pts.dtype == np.int64 and pts.ndim == 2
                and pts.shape[1] == self.point_arity):
            a = pts
        elif self.kind == "graph":
            a = np.asarray([[int(p)] for p in pts], dtype=np.int64).reshape(-1, 1)
        else:
            a = np.asarray(list(pts), dtype=np.int64)
            if a.ndim == 1:
                a = a.reshape(1, -1)
            if a.size and a.shape[1] != self.point_arity:
                raise InvalidPointError(f"point array arity {a.shape[1]} != {self.point_arity}")
        if self.kind == "graph":
            bad = a[~np.isin(a[:, 0], self._nodes), 0]
            if bad.size:
                raise InvalidPointError(f"{int(bad[0])} is not a node of the graph")
        return a

    def from_array(self, arr):
        if self.kind == "graph":
            return [int(v) for v in np.asarray(arr).reshape(-1)]
        return [tuple(int(c) for c in row) for row in np.asarray(arr).reshape(-1, self.point_arity)]

    # -- metric ------------------------------------------------------------

    def dist(self, x, y):
        """Distance between two points."""
        x, y = self._check_point(x), self._check_point(y)
        if self.kind == "graph":
            return int(self.dist_block([x], [y])[0, 0])
        d = self.dim
        diffs = [abs(a - b) for a, b in zip(x[:d], y[:d])]
        base = max(diffs) if self.metric == "linf" else sum(diffs)
        if self.fiber > 1:
            df = abs(x[-1] - y[-1])
            base += min(df, self.fiber - df)
        return base

    def dist_block(self, pts_a, pts_b):
        """Pairwise int64 distance matrix between two point arrays (graphs:
        one breadth-first search per row)."""
        a, b = self.as_array(pts_a), self.as_array(pts_b)
        if self.kind == "graph":
            out = np.empty((a.shape[0], b.shape[0]), dtype=np.int64)
            targets = b[:, 0].tolist()
            for i, x in enumerate(a[:, 0].tolist()):
                seen = self._bfs(x)
                try:
                    out[i] = [seen[y] for y in targets]
                except KeyError as exc:
                    raise InvalidPointError(
                        f"nodes {x} and {exc.args[0]} are not connected") from None
            return out
        d = self.dim
        diff = np.abs(a[:, None, :d] - b[None, :, :d])
        out = diff.max(axis=2) if self.metric == "linf" else diff.sum(axis=2)
        if self.fiber > 1:
            df = np.abs(a[:, None, d] - b[None, :, d])
            out = out + np.minimum(df, self.fiber - df)
        return out

    def _bfs(self, x, radius=np.inf):
        """Graph distance from node x to every node within radius, found
        layer by layer."""
        seen = {x: 0}
        frontier = [x]
        d = 0
        while frontier and d < radius:
            d += 1
            nxt = []
            for u in frontier:
                for v in self.adjacency[u]:
                    if v not in seen:
                        seen[v] = d
                        nxt.append(v)
            frontier = nxt
        return seen

    # -- balls and ordering --------------------------------------------------

    def ball(self, x, radius):
        """Closed metric ball as a point array, in the deterministic order:
        breadth-first by distance from the center, lexicographic within a
        shell."""
        x = self._check_point(x)
        if self.kind == "graph":
            return self._graph_ball(x, radius)
        offs = _lattice_offsets(self.dim, self.metric, self.fiber, int(np.floor(radius)))
        pts = offs.copy()
        pts[:, : self.dim] += np.asarray(x[: self.dim], dtype=np.int64)
        if self.fiber > 1:
            pts[:, -1] = (pts[:, -1] + x[-1]) % self.fiber
        d = self.dist_block(pts, self.as_array([x])).reshape(-1)
        return pts[_bfs_order(pts, d)]

    def _graph_ball(self, x, radius):
        seen = self._bfs(x, radius)
        pts = np.asarray(sorted(seen), dtype=np.int64).reshape(-1, 1)
        dist = np.asarray([seen[int(p)] for p in pts.reshape(-1)])
        return pts[_bfs_order(pts, dist)]

    def ball_size(self, radius):
        """Cardinality of a closed ball (lattice spaces: center independent)."""
        if self.kind == "graph":
            return max(len(self._graph_ball(u, radius)) for u in self.adjacency)
        return _lattice_ball_size(self.dim, self.metric, self.fiber, int(np.floor(radius)))

    # -- serialization -------------------------------------------------------

    def to_descriptor(self):
        if self.kind == "graph":
            return {
                "kind": "graph",
                "adjacency": {str(u): list(vs) for u, vs in sorted(self.adjacency.items())},
                "basepoint": self.basepoint,
            }
        return {
            "kind": "lattice",
            "dim": self.dim,
            "metric": self.metric,
            "fiber": self.fiber,
            "basepoint": list(self.basepoint),
        }

    @staticmethod
    def from_descriptor(desc):
        kind = desc.get("kind", "lattice")
        if kind == "graph":
            adj = {int(u): [int(v) for v in vs] for u, vs in desc["adjacency"].items()}
            return Space(kind="graph", adjacency=adj, basepoint=desc.get("basepoint"))
        return Space(
            kind="lattice",
            dim=int(desc.get("dim", 1)),
            metric=desc.get("metric", "linf"),
            fiber=int(desc.get("fiber", 1)),
            basepoint=desc.get("basepoint"),
        )


@lru_cache(maxsize=128)
def _lattice_offsets(dim, metric, fiber, radius):
    """All offsets of norm <= radius, as an int64 array."""
    if radius < 0:
        return np.empty((0, dim + (1 if fiber > 1 else 0)), dtype=np.int64)

    def base(rad):
        rng = np.arange(-rad, rad + 1, dtype=np.int64)
        grids = np.meshgrid(*([rng] * dim), indexing="ij")
        offs = np.stack([g.reshape(-1) for g in grids], axis=1)
        if metric == "l1":
            offs = offs[np.abs(offs).sum(axis=1) <= rad]
        return offs

    if fiber == 1:
        return base(radius)
    parts = []
    for f in range(fiber):
        c = min(f, fiber - f)
        if c > radius:
            continue
        b = base(radius - c)
        col = np.full((b.shape[0], 1), f, dtype=np.int64)
        parts.append(np.hstack([b, col]))
    return np.vstack(parts)


@lru_cache(maxsize=1024)
def _lattice_ball_size(dim, metric, fiber, radius):
    if radius < 0:
        return 0

    def base(rad):
        if metric == "linf":
            return (2 * rad + 1) ** dim
        cnt = np.zeros(rad + 1, dtype=object)
        cnt[0] = 1
        for _ in range(dim):
            new = np.zeros(rad + 1, dtype=object)
            for s in range(rad + 1):
                if cnt[s] == 0:
                    continue
                new[s] += cnt[s]
                for step in range(1, rad - s + 1):
                    new[s + step] += 2 * cnt[s]
            cnt = new
        return int(cnt.sum())

    if fiber == 1:
        return base(radius)
    return sum(
        base(radius - min(f, fiber - f))
        for f in range(fiber)
        if min(f, fiber - f) <= radius
    )


def _bfs_order(pts, dist):
    keys = tuple(pts[:, a] for a in range(pts.shape[1] - 1, -1, -1)) + (dist,)
    return np.lexsort(keys)


@dataclass
class Window:
    """A closed metric ball used as a finite scope.

    Points materialize lazily (in the deterministic breadth-first order), so a
    window can describe a large scope without ever enumerating it.
    """

    space: Space
    center: tuple | int
    radius: float
    _points: np.ndarray | None = field(default=None, repr=False, compare=False)
    _locator: _kernels.PointLocator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.center = self.space._check_point(self.center)
        if self.radius < 0:
            raise InvalidConfigError("window radius must be >= 0")

    @property
    def points(self):
        if self._points is None:
            self._points = self.space.ball(self.center, self.radius)
        return self._points

    @property
    def npoints(self):
        return self.points.shape[0]

    def shrink(self, margin):
        return Window(self.space, self.center, max(self.radius - margin, 0))

    def pad(self, margin):
        return Window(self.space, self.center, self.radius + margin)

    def contains(self, pt):
        return self.space.dist(self.center, pt) <= self.radius

    def bounds(self):
        """Per-axis closed coordinate bounds of the window (lattice only).
        For the sup metric this box is exactly the ball; for the taxicab
        metric it circumscribes it."""
        if self.space.kind == "graph":
            raise UnsupportedConstructionError("bounds are a lattice notion")
        c = np.asarray(self.center[: self.space.dim], dtype=np.int64)
        r = int(np.floor(self.radius))
        return c - r, c + r

    def locate(self, pts):
        """Indices of the given points inside this window's point array
        (-1 where absent)."""
        if self._locator is None:
            self._locator = _kernels.PointLocator(self.points)
        return self._locator.locate(self.space.as_array(pts))


def geometry_profile(space, r_max, probe):
    """Measured bounded-geometry profile: for r = 1..r_max the maximal closed
    ball cardinality over the probe window."""
    if probe.npoints == 0:
        raise InvalidConfigError("probe window is empty")
    out = []
    for r in range(1, int(r_max) + 1):
        if space.kind == "lattice":
            n = space.ball_size(r)
        else:
            n = max(len(space._graph_ball(int(p), r)) for p in probe.points.reshape(-1))
        out.append((r, int(n)))
    return out


def separated_net(space, scope, sep):
    """Greedy maximal sep-separated net over the scope, in selection order.

    Pairwise distances are >= sep and every scope point lies within < sep of
    some net point; re-running on the net itself returns it unchanged.
    """
    if sep <= 0:
        raise InvalidConfigError("separation must be positive")
    pts = scope.points
    return pts[_kernels.greedy_net(pts, float(sep), space.dist_block)]


@dataclass
class Covering:
    """Disjoint covering of a scope by cells pinched between the r-balls and
    open 2r-balls of a maximal 2r-separated net."""

    space: Space
    scope: Window
    r: float
    net: np.ndarray
    cell_of: np.ndarray

    @property
    def ncells(self):
        return self.net.shape[0]

    def cell_points(self, j):
        return self.scope.points[self.cell_of == j]

    def verify(self, probe=None):
        """Exhaustively check the covering invariants; returns a report."""
        pts = self.scope.points
        r = self.r
        dn = self.space.dist_block(pts, self.net)
        report = {
            "cells": self.ncells,
            "cover_total": bool((self.cell_of >= 0).all()),
        }
        # pinching: open r-ball inside own cell, every cell inside open 2r-ball
        own = dn[np.arange(pts.shape[0]), self.cell_of]
        report["cells_inside_open_2r"] = bool((own < 2 * r).all())
        inner = dn < r
        rows, cols = np.nonzero(inner)
        report["open_r_ball_inside_cell"] = bool((self.cell_of[rows] == cols).all())
        adj, diam = _kernels.cell_scan(
            pts, self.cell_of, self.ncells, float(r), self.space.dist_block
        )
        report["max_cell_diam"] = float(diam.max()) if diam.size else 0.0
        report["diam_bound"] = 4.0 * r
        report["diam_ok"] = report["max_cell_diam"] <= 4 * r
        counts = adj.astype(np.int64).sum(axis=1)
        report["max_neighbor_count"] = int(counts.max()) if counts.size else 0
        n6 = self.space.ball_size(6 * r) if self.space.kind == "lattice" else max(
            n for _, n in geometry_profile(self.space, int(6 * r), self.scope)
        )
        report["neighbor_bound"] = int(n6)
        report["neighbor_ok"] = report["max_neighbor_count"] <= n6
        report["ok"] = all(
            report[k]
            for k in ("cover_total", "cells_inside_open_2r", "open_r_ball_inside_cell",
                      "diam_ok", "neighbor_ok")
        )
        return report

    def export(self):
        pts = self.scope.points
        cells = []
        for j in range(self.ncells):
            cell = pts[self.cell_of == j]
            cells.append({
                "cell": j,
                "net_point": _point_json(self.space, self.net[j]),
                "points": [_point_json(self.space, row) for row in cell],
            })
        return {
            "schema_version": 1,
            "space": self.space.to_descriptor(),
            "r": self.r,
            "cells": cells,
        }


def _point_json(space, row):
    row = np.asarray(row).reshape(-1)
    if space.kind == "graph":
        return int(row[0])
    return [int(v) for v in row]


def build_covering(space, scope, r):
    """Construct the disjoint covering of the scope at parameter r.

    A maximal 2r-separated net is selected greedily in scope order; a point
    joins the cell of the unique net point at open distance < r when one
    exists, otherwise the earliest net point at open distance < 2r. This is
    the standard peeling construction, evaluated pointwise.
    """
    if r < 1:
        raise InvalidConfigError("covering parameter r must be >= 1")
    net = separated_net(space, scope, 2 * r)
    pts = scope.points
    cell_of = np.full(pts.shape[0], -1, dtype=np.int64)
    chunk = max(1, int(4_000_000 // max(net.shape[0], 1)))
    for lo in range(0, pts.shape[0], chunk):
        hi = min(lo + chunk, pts.shape[0])
        d = space.dist_block(pts[lo:hi], net)
        inner = d < r
        has_inner = inner.any(axis=1)
        cell_of[lo:hi][has_inner] = np.argmax(inner[has_inner], axis=1)
        outer = d < 2 * r
        rest = ~has_inner
        cell_of[lo:hi][rest] = np.argmax(outer[rest], axis=1)
    return Covering(space=space, scope=scope, r=r, net=net, cell_of=cell_of)


@dataclass
class PartitionOfUnity:
    """Product-tent partition of unity on a lattice scope.

    Tents sit on the grid pitch*Z^d (the fiber coordinate, if any, is ignored);
    each tent is a product of per-axis hats of half-width ``pitch``. The family
    sums to one everywhere and pairs of points at distance <= 1/variation have
    summed variation strictly below ``variation``.
    """

    space: Space
    scope: Window
    variation: float
    pitch: int
    centers: np.ndarray  # (m, dim) tent grid indices (multiples of pitch)

    @property
    def ntents(self):
        return self.centers.shape[0]

    @property
    def support_diam(self):
        """Metric diameter bound of a tent support, the scale r_t that
        localization radii are measured in."""
        d = self.space.dim
        L = self.pitch
        base = 2 * (L - 1) if self.space.metric == "linf" else 2 * d * (L - 1)
        if self.space.fiber > 1:
            base += self.space.fiber // 2
        return base

    def support_box(self, j):
        c = self.centers[j] * self.pitch
        return c - (self.pitch - 1), c + (self.pitch - 1)

    def values(self, j, pts):
        """Tent j evaluated at the given points."""
        a = self.space.as_array(pts)[:, : self.space.dim].astype(np.float64)
        c = (self.centers[j] * self.pitch).astype(np.float64)
        h = np.maximum(0.0, 1.0 - np.abs(a - c[None, :]) / self.pitch)
        return h.prod(axis=1)

    def root_values(self, j, pts, p):
        """values(j, .) ** (1/p): the family whose p-th powers sum to one."""
        return self.values(j, pts) ** (1.0 / p)

    def tents_meeting(self, lo, hi):
        """Indices of tents whose support box intersects the coordinate box
        [lo, hi] (per-axis closed bounds)."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        c = self.centers * self.pitch
        ok = ((c - (self.pitch - 1)) <= hi[None, :]) & ((c + (self.pitch - 1)) >= lo[None, :])
        return np.nonzero(ok.all(axis=1))[0]

    def sum_values(self, pts):
        a = self.space.as_array(pts)
        lo = a[:, : self.space.dim].min(axis=0)
        hi = a[:, : self.space.dim].max(axis=0)
        total = np.zeros(a.shape[0])
        for j in self.tents_meeting(lo, hi):
            total += self.values(j, pts)
        return total

    def export(self, max_points=200_000):
        pts = self.scope.points
        if pts.shape[0] > max_points:
            raise InvalidConfigError(
                f"partition export materializes the scope ({pts.shape[0]} points); "
                f"cap is {max_points}"
            )
        tents = []
        for j in range(self.ntents):
            lo, hi = self.support_box(j)
            mask = (
                (pts[:, : self.space.dim] >= lo[None, :])
                & (pts[:, : self.space.dim] <= hi[None, :])
            ).all(axis=1)
            sup = pts[mask]
            vals = self.values(j, sup) if sup.size else np.empty(0)
            keep = vals > 0
            tents.append({
                "tent": j,
                "center": [int(v) for v in self.centers[j] * self.pitch],
                "support": [_point_json(self.space, row) for row in sup[keep]],
                "values": [float(v) for v in vals[keep]],
            })
        return {
            "schema_version": 1,
            "space": self.space.to_descriptor(),
            "variation": self.variation,
            "pitch": self.pitch,
            "support_diam": self.support_diam,
            "tents": tents,
        }


def build_partition(space, scope, variation):
    """Partition of unity with summed-variation control on a lattice scope.

    Pairs x, y with d(x, y) <= D := floor(1/variation) satisfy
    sum_j |tent_j(x) - tent_j(y)| <= 2 * dim * D / pitch < variation, strictly.
    Graph spaces are rejected: no comparable generic construction is provided.
    """
    if space.kind != "lattice":
        raise UnsupportedConstructionError(
            "partitions of unity are constructed on lattice spaces only"
        )
    t = float(variation)
    if not 0.0 < t < 1.0:
        raise InvalidConfigError("variation parameter must lie in (0, 1)")
    d = space.dim
    big_d = int(np.floor(1.0 / t + 1e-12))
    pitch = int(np.floor(2.0 * d * big_d / t)) + 1
    # total variation over a unit step is 2*d*D/pitch; keep it strictly below t
    while 2.0 * d * big_d / pitch >= t:
        pitch += 1
    lo, hi = scope.bounds()
    klo = np.ceil((lo - (pitch - 1)) / pitch).astype(np.int64)
    khi = np.floor((hi + (pitch - 1)) / pitch).astype(np.int64)
    grids = np.meshgrid(
        *[np.arange(a, b + 1, dtype=np.int64) for a, b in zip(klo, khi)], indexing="ij"
    )
    centers = np.stack([g.reshape(-1) for g in grids], axis=1)
    return PartitionOfUnity(
        space=space, scope=scope, variation=t, pitch=pitch, centers=centers
    )
