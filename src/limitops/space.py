"""Discrete metric spaces of bounded geometry.

Two kinds of space are supported: integer lattices Z^d under the sup or
taxicab metric, optionally crossed with a cyclic fiber {0..m-1} carrying the
wrap-around distance (the standard encoding of vector-valued sequence spaces
as scalar ones on a product space), and finite bounded-degree graphs under the
path metric. On top of these sit windows (metric balls used as finite scopes),
greedy separated nets, the disjoint covering construction with cells pinched
between the r- and 2r-balls of the net, and product-tent partitions of unity
with summed-variation control.

Coverings read only ball-local information, as bounded geometry allows:
``Space.pairs_within`` enumerates each point's neighbours within a radius, so
net selection, cell assignment and verification cost O(n |B(R)|) for n scope
points rather than O(n^2).
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product
from math import comb, prod

import numpy as np

from . import _kernels
from .errors import (
    InvalidConfigError,
    InvalidPointError,
    UnsupportedConstructionError,
)

_METRICS = ("linf", "l1")
# candidate rows per chunk of a pairs_within scan
_PAIRS_CHUNK = 1 << 20


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

    def pairs_within(self, pts_a, pts_b, radius):
        """Index pairs (i, j) with d(a_i, b_j) <= radius, and those int64
        distances d, as three arrays sorted by i then j.

        Around each row of the shorter array the radius ball is enumerated
        (the cached ball stencil on lattices, a breadth-first search cut at
        the radius on graphs) and looked up in the other array by packed
        coordinate keys, so under bounded geometry the cost is
        O(min(|a|, |b|) |B(radius)|). On lattices, when the stencil would
        hold more points than the other array has rows (an infinite radius
        included), every pair is compared instead, so the cost never exceeds
        that of the full distance block. The rows of each array must be
        distinct, as the rows of a window are.
        """
        a, b = self.as_array(pts_a), self.as_array(pts_b)
        if radius < 0 or not a.shape[0] or not b.shape[0]:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        if a.shape[0] > b.shape[0]:
            j, i, d = self._ball_pairs(b, a, radius)
        else:
            i, j, d = self._ball_pairs(a, b, radius)
        order = np.argsort(i * b.shape[0] + j)
        return i[order], j[order], d[order]

    def _ball_pairs(self, a, b, radius):
        """``pairs_within`` in no particular order, enumerating balls around
        the rows of a."""
        nb = b.shape[0]
        if self.kind == "graph":
            per_row, index = len(self.adjacency), _BoxIndex(b)
        else:
            per_row = np.inf if np.isinf(radius) else self.ball_size(radius)
            if per_row > nb:
                per_row, index = nb, None
            else:
                offs, offs_d = _lattice_offsets(
                    self.dim, self.metric, self.fiber, int(np.floor(radius)))
                index = _BoxIndex(b)
        step = max(1, _PAIRS_CHUNK // per_row)
        parts = []
        for lo in range(0, a.shape[0], step):
            chunk = a[lo : lo + step]
            if index is None:
                d = self.dist_block(chunk, b)
                i, j = np.nonzero(d <= radius)
                parts.append((i + lo, j, d[i, j]))
                continue
            if self.kind == "graph":
                balls = [self._bfs(x, np.floor(radius)) for x in chunk[:, 0].tolist()]
                i = np.repeat(np.arange(len(balls)), [len(s) for s in balls])
                cand = np.fromiter(chain.from_iterable(balls), np.int64, i.size)[:, None]
                d = np.fromiter(chain.from_iterable(s.values() for s in balls),
                                np.int64, i.size)
            else:
                i = np.repeat(np.arange(chunk.shape[0]), offs.shape[0])
                cand = self._translate(chunk, offs).reshape(-1, self.point_arity)
                d = np.tile(offs_d, chunk.shape[0])
            j = index.locate(cand)
            hit = j >= 0
            parts.append((i[hit] + lo, j[hit], d[hit]))
        return tuple(np.concatenate(p) for p in zip(*parts))

    # -- balls and ordering --------------------------------------------------

    def ball(self, x, radius):
        """Closed metric ball as a point array, in the deterministic order:
        breadth-first by distance from the center, lexicographic within a
        shell."""
        x = self._check_point(x)
        if self.kind == "graph":
            return self._graph_ball(x, radius)
        offs, d = _lattice_offsets(self.dim, self.metric, self.fiber, int(np.floor(radius)))
        pts = self._translate(self.as_array([x]), offs).reshape(-1, self.point_arity)
        return pts[_bfs_order(pts, d)]

    def box_points(self, lo, hi):
        """The lattice points with lo <= u <= hi on every axis, each with every
        fiber slot, in lexicographic order."""
        axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
        if self.fiber > 1:
            axes.append(np.arange(self.fiber, dtype=np.int64))
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    def _translate(self, pts, offs):
        """(n, m, point_arity) array of every point shifted by every offset,
        the fiber coordinate wrapping."""
        out = pts[:, None, :] + offs[None, :, :]
        if self.fiber > 1:
            out[..., -1] %= self.fiber
        return out

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
    """All offsets of norm <= radius and their norms, as int64 arrays. The
    arrays are shared by every caller: read them, never write."""
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    offs = np.stack([g.reshape(-1) for g in grids], axis=1)
    norm = np.abs(offs).max(axis=1) if metric == "linf" else np.abs(offs).sum(axis=1)
    if fiber > 1:
        f = np.arange(fiber, dtype=np.int64)
        offs = np.hstack([np.repeat(offs, fiber, axis=0), np.tile(f, norm.size)[:, None]])
        norm = np.repeat(norm, fiber) + np.tile(np.minimum(f, fiber - f), norm.size)
    keep = norm <= radius
    return offs[keep], norm[keep]


@lru_cache(maxsize=1024)
def _lattice_ball_size(dim, metric, fiber, radius):
    def base(rad):
        if rad < 0:
            return 0
        if metric == "linf":
            return (2 * rad + 1) ** dim
        # points of Z^dim with k nonzero coordinates and l1 norm <= rad
        return sum(2 ** k * comb(dim, k) * comb(rad, k) for k in range(dim + 1))

    return sum(base(radius - min(f, fiber - f)) for f in range(fiber))


def _bfs_order(pts, dist):
    keys = tuple(pts[:, a] for a in range(pts.shape[1] - 1, -1, -1)) + (dist,)
    return np.lexsort(keys)


class _BoxIndex:
    """Row indices of query points in an array of distinct points (-1 where
    absent), by binary search over int64 keys packed row-major over the
    array's bounding box; queries outside the box miss without a search."""

    def __init__(self, pts):
        self.lo = pts.min(axis=0)
        self.shape = [int(h) - int(l) + 1 for l, h in zip(self.lo, pts.max(axis=0))]
        # The indexed points are a subset of a materialised window, whose box
        # fits in int64; refuse rather than overflow if one ever does not.
        if prod(self.shape) >= 2 ** 63:
            raise InvalidConfigError(
                f"point box {tuple(self.shape)} is too large to index by int64 keys")
        keys, _ = self._pack(pts)
        self.order = np.argsort(keys)
        self.keys = keys[self.order]

    def _pack(self, pts):
        """Packed keys of the rows, and which rows lie in the box (keys of
        the others are meaningless)."""
        rel = pts - self.lo
        keys = np.zeros(pts.shape[0], dtype=np.int64)
        inside = np.ones(pts.shape[0], dtype=bool)
        for c, size in enumerate(self.shape):
            col = rel[:, c]
            inside &= col.view(np.uint64) < size  # 0 <= col < size
            keys = keys * size + col
        return keys, inside

    def locate(self, query):
        keys, inside = self._pack(query)
        inside = np.flatnonzero(inside)
        keys = keys[inside]
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        found = self.keys[pos] == keys
        out = np.full(query.shape[0], -1, dtype=np.int64)
        out[inside[found]] = self.order[pos[found]]
        return out


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
    if not sep > 0:
        raise InvalidConfigError("separation must be positive")
    pts = scope.points
    return pts[_kernels.greedy_net(pts, float(sep), space.pairs_within)]


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

    def verify(self):
        """Exhaustively check the covering invariants; returns a report.

        Every check reads only the point-to-net pairs at distance < 2r, the
        point pairs at distance <= r and the distances inside each cell. A
        point whose cell index is not one of the net's lies in no cell and in
        no open 2r-ball of its own.
        """
        pts = self.scope.points
        r = self.r
        i, j, d = self.space.pairs_within(pts, self.net, np.ceil(2 * r) - 1)
        report = {
            "cells": self.ncells,
            "cover_total": bool((self.cell_of >= 0).all()),
        }
        # pinching: open r-ball inside own cell, every cell inside open 2r-ball
        own = self.cell_of[i] == j
        report["cells_inside_open_2r"] = int(own.sum()) == pts.shape[0]
        report["open_r_ball_inside_cell"] = bool(own[d < r].all())
        adj, diam = _kernels.cell_scan(
            pts, self.cell_of, self.ncells, float(r), self.space.pairs_within
        )
        report["max_cell_diam"] = float(diam.max()) if diam.size else 0.0
        report["diam_bound"] = 4.0 * r
        report["diam_ok"] = report["max_cell_diam"] <= 4 * r
        counts = adj.astype(np.int64).sum(axis=1)
        report["max_neighbor_count"] = int(counts.max()) if counts.size else 0
        # graph balls are nested, so the largest radius-6r ball over the scope
        # is the largest ball of every radius up to 6r
        n6 = self.space.ball_size(6 * r) if self.space.kind == "lattice" else max(
            len(self.space._bfs(x, int(6 * r))) for x in pts[:, 0].tolist()
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
        net = _points_out(self.space, self.net)
        cells = [
            {"cell": j, "net_point": net[j], "points": _points_out(self.space, pts[members])}
            for j, members in enumerate(_kernels.cell_members(self.cell_of, self.ncells))
        ]
        return {
            "schema_version": 1,
            "space": self.space.to_descriptor(),
            "r": self.r,
            "cells": cells,
        }


def _points_out(space, pts):
    """A point array as exported: flat node ids on graphs, rows of
    coordinates on lattices."""
    return pts[:, 0] if space.kind == "graph" else pts


def build_covering(space, scope, r):
    """Construct the disjoint covering of the scope at parameter r.

    A maximal 2r-separated net is selected greedily in scope order; a point
    joins the cell of the unique net point at open distance < r when one
    exists, otherwise the earliest net point at open distance < 2r. This is
    the standard peeling construction, evaluated pointwise over each point's
    net neighbours within 2r.
    """
    if not r >= 1:
        raise InvalidConfigError("covering parameter r must be >= 1")
    net = separated_net(space, scope, 2 * r)
    pts = scope.points
    cell_of = np.full(pts.shape[0], -1, dtype=np.int64)
    # pairs come sorted by point then net index, so the first pair of a point
    # is its earliest net point; the inner pass overwrites the outer choice
    i, j, d = space.pairs_within(pts, net, np.ceil(2 * r) - 1)
    inner = d < r
    for rows, nets in ((i, j), (i[inner], j[inner])):
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        cell_of[rows[first]] = nets[first]
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
        """Every tent with its support (in scope order) and its values there.

        The scope's size is checked against ``max_points`` before any point
        is materialised. A point x lies in the support box of the tent at
        grid index k exactly when, on every axis, k is floor(x/pitch) or
        ceil(x/pitch); so each point's at most 2^dim tents are enumerated
        and located among the centers directly, O(n 2^dim) for n scope
        points, rather than one mask over the scope per tent.
        """
        npoints = self.space.ball_size(self.scope.radius)
        if npoints > max_points:
            raise InvalidConfigError(
                f"partition export materializes the scope ({npoints} points); "
                f"cap is {max_points}"
            )
        pts = self.scope.points
        x = pts[:, : self.space.dim]
        floor = x // self.pitch
        up = x % self.pitch != 0  # ceil(x/pitch) = floor + up
        # every 0/1 corner of the candidate box; a corner rounds an axis up
        # only where that axis has a distinct ceiling
        corners = np.array(list(product((0, 1), repeat=self.space.dim)), dtype=np.int64)
        ok = ~((corners[None, :, :] > up[:, None, :]).any(axis=2))
        point, corner = np.nonzero(ok)  # point-major: scope order within a tent
        tent = _BoxIndex(self.centers).locate(floor[point] + corners[corner])
        found = tent >= 0
        order = np.argsort(tent[found], kind="stable")
        tent, support = tent[found][order], pts[point[found][order]]
        bounds = np.searchsorted(tent, np.arange(self.ntents + 1)).tolist()
        # every hat is >= 1/pitch on its support box, so no value is 0
        tents = [
            {
                "tent": j,
                "center": self.centers[j] * self.pitch,
                "support": _points_out(self.space, support[lo:hi]),
                "values": self.values(j, support[lo:hi]),
            }
            for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
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
