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
from functools import cache, lru_cache
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
# a lattice ball lookup tables its key frame when the frame has at most this
# many cells per candidate of one chunk (counted as at least 4096): the table
# then costs no more memory than the candidates; a larger frame is searched
_TABLE_CELLS_PER_CANDIDATE = 1


def _int_offset(v, what="offset"):
    """The entries of an integer vector (point, offset, shift, period,
    modulus) as ints; a non-integer entry is refused, not truncated, an
    integral float such as 1.0 is accepted, and an entry outside int64 is
    refused."""
    v = tuple(v)
    try:
        out = tuple(map(int, v))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != v:
        raise InvalidConfigError(f"{what} {list(v)} must have integer entries")
    if not all(-2 ** 63 <= c < 2 ** 63 for c in out):
        raise InvalidConfigError(f"{what} {list(v)} does not fit in int64")
    return out


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
    adjacency: dict | None = field(default=None, hash=False)
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
            bp = min(nodes) if self.basepoint is None else self._check_point(self.basepoint)
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
        """The point as ints; a non-integer coordinate is refused."""
        if self.kind == "graph":
            (x,) = _int_offset((x,), "point")
            if x not in self.adjacency:
                raise InvalidPointError(f"{x} is not a node of the graph")
            return x
        x = _int_offset(x, "point")
        if len(x) != self.point_arity:
            raise InvalidPointError(
                f"point {x} has arity {len(x)}, expected {self.point_arity}"
            )
        if self.fiber > 1 and not 0 <= x[-1] < self.fiber:
            raise InvalidPointError(f"fiber coordinate of {x} outside [0, {self.fiber})")
        return x

    def as_array(self, pts):
        """Points -> int64 array of shape (n, point_arity); such an array
        passes through uncopied. A non-integer coordinate, one outside int64
        (of any dtype, uint64 included), a fiber coordinate outside
        0..fiber-1 and a graph point that is no node are refused with the
        errors of ``_check_point``."""
        if (isinstance(pts, np.ndarray) and pts.dtype == np.int64 and pts.ndim == 2
                and pts.shape[1] == self.point_arity):
            a = pts
        else:
            raw = np.asarray(list(pts))
            if self.kind == "graph":
                raw = raw.reshape(-1, 1)
            elif raw.ndim == 1:
                raw = raw.reshape(1, -1)
            if raw.size and raw.shape[1] != self.point_arity:
                raise InvalidPointError(f"point array arity {raw.shape[1]} != {self.point_arity}")
            if raw.dtype.kind not in "biuf":  # strings, None, ...: refused row by row
                for row in raw.tolist():
                    self._check_point(row[0] if self.kind == "graph" else row)
            with np.errstate(invalid="ignore"):
                a = raw.astype(np.int64)
            if raw.dtype.kind not in "bi":  # floats and uint64 can leave int64
                self._refuse_first(raw, (a != raw).any(axis=1))
        if self.kind == "graph":
            self._refuse_first(a, ~np.isin(a[:, 0], self._nodes))
        elif self.fiber > 1 and a.size:
            # one comparison: a negative coordinate reads as a huge unsigned one
            self._refuse_first(a, a[:, -1].view(np.uint64) >= self.fiber)
        return a

    def _refuse_first(self, pts, bad):
        """Raise the error of ``_check_point`` for the first row marked bad."""
        if bad.any():
            row = pts[np.argmax(bad)].tolist()
            self._check_point(row[0] if self.kind == "graph" else row)
            raise InvalidPointError(f"point {row} does not fit in int64")

    # -- metric and translation (lattices) ------------------------------------

    def norm(self, delta):
        """Lattice length of offsets, vectorised over the last axis: the sup
        or taxicab norm of the lattice coordinates plus, on a fiber of size
        m, the wrap distance min(f mod m, m - f mod m) of the fiber
        coordinate f. The only place the metric formula lives. A length
        that leaves int64 raises InvalidConfigError."""
        delta = np.asarray(delta, dtype=np.int64)
        out, signs = self._norm(delta, 0)
        if (signs < 0).any():
            row = delta.reshape(-1, delta.shape[-1])[np.argmax(signs < 0)]
            raise InvalidConfigError(f"offset {row.tolist()} is too long: its length "
                                     f"leaves int64")
        return out

    def _norm(self, delta, signs=None):
        """``norm`` without the refusal: the lengths and, when ``signs`` (an
        int64 array or 0) is given, ``signs`` ORed with every term and
        partial sum, so that its sign bit marks each length that wrapped
        (otherwise None). Every term and partial sum is non-negative unless
        it wrapped, and a sum of two terms wraps at most once."""
        # one elementwise pass per axis: numpy reduces a short last axis slowly
        combine = np.maximum if self.metric == "linf" else np.add
        track = signs is not None
        out = np.abs(delta[..., 0])
        if track:
            signs = signs | out
        for a in range(1, self.dim):
            term = np.abs(delta[..., a])
            out = combine(out, term)
            if track:
                signs = signs | term | out
        if self.fiber > 1:
            f = delta[..., -1] % self.fiber
            out = out + np.minimum(f, self.fiber - f)
            if track:
                signs = signs | out
        return out, signs

    def _lengths(self, a, b):
        """norm(a - b) for int64 lattice point arrays that broadcast. A pair
        whose coordinate difference or length leaves int64 raises
        InvalidConfigError naming the two points. One bound per call
        decides, from the boxes of a and b in Python ints: each
        |a_c - b_c| is at most max(hi_a - lo_b, hi_b - lo_a), and the
        length at most those bounds' max or sum plus m // 2. If that fits
        in int64, nothing can wrap; otherwise one elementwise sign test
        covers every difference and length."""
        if a.size and b.size:
            k = a.shape[-1]
            a2, b2 = a.reshape(-1, k), b.reshape(-1, k)
            lo_a, hi_a, lo_b, hi_b = (f(p, axis=0).tolist() for p in (a2, b2)
                                      for f in (np.min, np.max))
            spans = [max(ha - lb, hb - la) for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b)]
            lat = spans[:self.dim]
            reach = (max(lat) if self.metric == "linf" else sum(lat)) + self.fiber // 2
            if max(max(spans), reach) < 2 ** 63:
                return self._norm(a - b)[0]
        d = a - b
        # a - b wrapped where a and b differ in sign and d has the sign of b
        over = (a ^ b) & (a ^ d)
        signs = over[..., 0]
        for c in range(1, d.shape[-1]):
            signs = signs | over[..., c]
        out, signs = self._norm(d, signs)
        bad = signs < 0
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            x, y = (np.broadcast_to(p, d.shape)[at].tolist() for p in (a, b))
            raise InvalidConfigError(f"points {x} and {y} are too far apart: their "
                                     f"distance leaves int64")
        return out

    def translate(self, pts, v):
        """pts + v as a new int64 array (both broadcast over the last axis),
        the fiber coordinate wrapped into 0..fiber-1. The only place the
        fiber wrap lives."""
        out = np.add(pts, v, dtype=np.int64)
        if self.fiber > 1:
            out[..., -1] %= self.fiber
        return out

    def dist(self, x, y):
        """Distance between two points (on lattices it must fit in int64)."""
        x, y = self._check_point(x), self._check_point(y)
        return int(self.dist_block([x], [y])[0, 0])

    def dist_block(self, pts_a, pts_b):
        """Pairwise int64 distance matrix between two point arrays (graphs:
        one breadth-first search per distinct row of the first; lattices:
        ``_lengths``, which refuses a distance that leaves int64)."""
        a, b = self.as_array(pts_a), self.as_array(pts_b)
        if self.kind == "graph":
            rows = self._dist_rows(np.repeat(a, b.shape[0], axis=0), np.tile(b, (a.shape[0], 1)))
            return rows.reshape(a.shape[0], b.shape[0])
        return self._lengths(a[:, None, :], b[None, :, :])

    def _dist_rows(self, a, b):
        """d(a_k, b_k) for each row k of two int64 point arrays of one
        shape, as int64: on lattices ``_lengths``, on graphs
        one breadth-first search per distinct a_k."""
        if self.kind == "lattice":
            return self._lengths(a, b)
        src, tgt = a[:, 0], b[:, 0]
        out = np.empty(src.size, dtype=np.int64)
        order = np.argsort(src, kind="stable")
        sources, starts = np.unique(src[order], return_index=True)
        for x, rows in zip(sources.tolist(), np.split(order, starts[1:])):
            seen = self._bfs(x)
            try:
                out[rows] = [seen[y] for y in tgt[rows].tolist()]
            except KeyError as exc:
                raise InvalidPointError(
                    f"nodes {x} and {exc.args[0]} are not connected") from None
        return out

    def _bfs(self, x, radius=np.inf):
        """Graph distance from node x to every node at distance <= radius,
        found layer by layer; a fractional radius reaches its floor, as a
        lattice ball does."""
        seen = {x: 0}
        frontier = [x]
        d = 0
        while frontier and d <= radius - 1:
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
        and looked up in the other array, so under bounded geometry the cost
        is O(min(|a|, |b|) |B(radius)|). On graphs the ball is a
        breadth-first search cut at the radius, looked up by packed
        coordinate keys. On lattices keys are linear in the coordinates: the
        other array is packed once over its box padded by twice the radius
        (``_ball_lookup``), each offset of the cached ball stencil once, and
        a row's neighbours are the sums of its key and the offset keys, read
        from a table of the frame's cells (a frame too large for one is
        searched through its sorted keys). When the stencil would hold more
        points than the other array has rows (an infinite radius included),
        every pair is compared instead, so the cost never exceeds that of
        the full distance block. The rows of each array must be distinct,
        as the rows of a window are; of repeated rows the ball lookups find
        the lowest index. A NaN radius is refused.
        """
        a, b = self._pairs_input(radius, pts_a, pts_b)
        if a.shape[0] > b.shape[0]:
            j, i, d = self._ball_pairs(b, a, radius)
        else:
            i, j, d = self._ball_pairs(a, b, radius)
        # i comes in row order, but j within a row in ball order
        order = np.argsort(i * b.shape[0] + j)
        return i[order], j[order], d[order]

    def _self_pairs(self, pts, radius):
        """The pairs of ``pairs_within(pts, pts, radius)`` grouped by i in
        row order, j within a row in no particular order: for the net and
        cell scans, which read no other order."""
        (a,) = self._pairs_input(radius, pts)
        return self._ball_pairs(a, a, radius)

    def _pairs_input(self, radius, *pts):
        if np.isnan(radius):
            raise InvalidConfigError("neighbour radius must be a number, not nan")
        return [self.as_array(p) for p in pts]

    def _ball_pairs(self, a, b, radius):
        """The pairs of ``pairs_within``, enumerating balls around the rows
        of a: grouped by i in row order, j within a row in ball order."""
        nb = b.shape[0]
        if radius < 0 or not a.shape[0] or not nb:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        if self.kind == "graph":
            per_row, index = len(self.adjacency), _kernels.PointLocator(b)
        else:
            ball = np.inf if np.isinf(radius) else self.ball_size(radius)
            per_row = min(ball, nb)
        step = max(1, _PAIRS_CHUNK // per_row)
        lookup = None
        if self.kind == "lattice" and ball <= nb:
            lookup = _ball_lookup(self, b, int(np.floor(radius)), min(a.shape[0], step))
        parts = []
        for lo in range(0, a.shape[0], step):
            chunk = a[lo : lo + step]
            if self.kind == "graph":
                balls = [self._bfs(x, radius) for x in chunk[:, 0].tolist()]
                i = np.repeat(np.arange(len(balls)), [len(s) for s in balls])
                cand = np.fromiter(chain.from_iterable(balls), np.int64, i.size)[:, None]
                d = np.fromiter(chain.from_iterable(s.values() for s in balls),
                                np.int64, i.size)
                j = index.locate(cand)
                hit = j >= 0
                i, j, d = i[hit], j[hit], d[hit]
            elif lookup is None:
                d = self.dist_block(chunk, b)
                i, j = np.nonzero(d <= radius)
                d = d[i, j]
            else:
                i, j, d = lookup(chunk)
            parts.append((i + lo, j, d))
        return tuple(np.concatenate(p) for p in zip(*parts))

    # -- balls and ordering --------------------------------------------------

    def ball(self, x, radius):
        """Closed metric ball as a point array, in the deterministic order:
        breadth-first by distance from the center, lexicographic within a
        shell."""
        x = self._check_point(x)
        if self.kind == "graph":
            return self._graph_ball(x, radius)
        offs, d = _lattice_offsets(self, int(np.floor(radius)))
        pts = self.translate(x, offs)
        return pts[_bfs_order(pts, d)]

    def box_points(self, lo, hi):
        """The lattice points with lo <= u <= hi on every axis, each with every
        fiber slot, in lexicographic order."""
        axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
        if self.fiber > 1:
            axes.append(np.arange(self.fiber, dtype=np.int64))
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    def _graph_ball(self, x, radius):
        seen = self._bfs(x, radius)
        pts = np.asarray(sorted(seen), dtype=np.int64).reshape(-1, 1)
        dist = np.asarray([seen[int(p)] for p in pts.reshape(-1)])
        return pts[_bfs_order(pts, dist)]

    def ball_size(self, radius):
        """Cardinality of a closed ball (lattice spaces: center independent)."""
        if self.kind == "graph":
            return max(len(self._bfs(u, radius)) for u in self.adjacency)
        return _lattice_ball_size(self, int(np.floor(radius)))

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


@lru_cache(maxsize=128)
def _lattice_offsets(space, radius):
    """All offsets of norm <= radius and their norms, as int64 arrays. The
    arrays are shared by every caller: read them, never write."""
    offs = space.box_points([-radius] * space.dim, [radius] * space.dim)
    norm = space.norm(offs)
    keep = norm <= radius
    return offs[keep], norm[keep]


def _ball_lookup(space, b, radius, chunk_rows):
    """The lattice ball lookup of ``Space._ball_pairs``: a function taking a
    chunk of at most ``chunk_rows`` rows x to the triples (row, j, d) with
    b_j = x + o for an offset o of the radius-ball stencil, d its norm,
    grouped by row in row order.

    Packed keys are linear in the coordinates. b's rows are packed once,
    row-major over their bounding box padded by 2 radius on each lattice
    axis, with 2m fiber slots: each row enters at its slot f and at f + m,
    so a fiber slot plus an offset's (0..m-1) needs no modulo. Each offset
    is packed once, unshifted. A row within the radius of b's box on every
    lattice axis then has key(x + o) = key(x) + key(o) inside the frame;
    any other row has no neighbour in b and is skipped. A frame of at most
    ``_TABLE_CELLS_PER_CANDIDATE`` cells per candidate of a chunk is a
    table holding each cell's row of b (-1 for none), so a candidate is one
    gather; a larger frame keeps b's keys sorted, and a candidate is one
    binary search. The frame's bounds are Python ints and rows are moved
    into it in uint64, so a box near either end of int64 does not wrap. Of
    repeated rows of b the lowest index wins, as in ``PointLocator``; a
    frame of 2^63 cells or more is refused."""
    offs, offs_d = _lattice_offsets(space, radius)
    dim, m = space.dim, space.fiber
    lo = b[:, :dim].min(axis=0).tolist()
    hi = b[:, :dim].max(axis=0).tolist()
    shape = [h - l + 4 * radius + 1 for l, h in zip(lo, hi)] + ([2 * m] if m > 1 else [])
    cells = prod(shape)
    if cells >= 2 ** 63:
        raise InvalidConfigError(
            f"point box {tuple(shape)} is too large to index by int64 keys")
    # frame origin lo - 2 radius, as uint64 (it may lie below int64); rows
    # within the radius of the box, clipped to int64, are the ones kept
    origin = np.array([(l - 2 * radius) % 2 ** 64 for l in lo] + [0] * (m > 1), np.uint64)
    first = np.array([max(l - radius, -2 ** 63) for l in lo], np.int64)
    last = np.array([min(h + radius, 2 ** 63 - 1) for h in hi], np.int64)

    def framed(pts):  # exact for the rows inside the frame
        return (pts.view(np.uint64) - origin).view(np.int64)

    def pack(rel):
        keys = rel[:, 0]
        for c in range(1, len(shape)):
            keys = keys * shape[c] + rel[:, c]
        return keys

    keys = pack(framed(b))
    owner = np.arange(b.shape[0])
    if m > 1:  # the fiber is the last axis: slot f + m is key + m
        keys, owner = np.concatenate([keys, keys + m]), np.concatenate([owner, owner])
    okeys = pack(offs)

    def candidates(chunk):
        keep = np.ones(chunk.shape[0], dtype=bool)
        for c in range(dim):
            keep &= (chunk[:, c] >= first[c]) & (chunk[:, c] <= last[c])
        rows = np.flatnonzero(keep)
        return rows, pack(framed(chunk[rows]))[:, None] + okeys

    if cells <= _TABLE_CELLS_PER_CANDIDATE * max(chunk_rows * offs.shape[0], 4096):
        table = np.full(cells, -1, np.int32 if b.shape[0] < 2 ** 31 else np.int64)
        # written in reverse, so of repeated rows the lowest index is written last
        table[keys[::-1]] = owner[::-1]

        def gather(chunk):
            rows, cand = candidates(chunk)
            hit = table[cand]
            r, o = np.nonzero(hit >= 0)
            return rows[r], hit[r, o].astype(np.int64), offs_d[o]

        return gather

    order = np.argsort(keys, kind="stable")
    # a sentinel above every frame key, so each search lands on a key
    table = np.append(keys[order], cells)
    owner = owner[order]

    def search(chunk):
        rows, cand = candidates(chunk)
        pos = np.searchsorted(table, cand)
        r, o = np.nonzero(table[pos] == cand)
        return rows[r], owner[pos[r, o]], offs_d[o]

    return search


@lru_cache(maxsize=1024)
def _lattice_ball_size(space, radius):
    dim = space.dim

    def base(rad):
        if rad < 0:
            return 0
        if space.metric == "linf":
            return (2 * rad + 1) ** dim
        # points of Z^dim with k nonzero coordinates and l1 norm <= rad
        return sum(2 ** k * comb(dim, k) * comb(rad, k) for k in range(dim + 1))

    # one lattice ball per fiber slot, shrunk by the slot's wrap distance
    slots = space.box_points([0] * dim, [0] * dim)
    return sum(base(radius - int(w)) for w in space.norm(slots))


def _bfs_order(pts, dist):
    keys = tuple(pts[:, a] for a in range(pts.shape[1] - 1, -1, -1)) + (dist,)
    return np.lexsort(keys)


@dataclass
class Window:
    """A closed metric ball used as a finite scope.

    Points materialize lazily (in the deterministic breadth-first order), so a
    window can describe a large scope without ever enumerating it. They are
    distinct and read-only: one window, with its cached points and locator,
    can serve every block of a scan. A NaN radius is refused, and so is a
    lattice window unless center +- floor(radius) fits in int64 on every
    axis, so its points do.
    """

    space: Space
    center: tuple | int
    radius: float
    _points: np.ndarray | None = field(default=None, repr=False, compare=False)
    _locator: _kernels.PointLocator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.center = self.space._check_point(self.center)
        if np.isnan(self.radius):
            raise InvalidConfigError("window radius must be a number, not nan")
        if self.radius < 0:
            raise InvalidConfigError("window radius must be >= 0")
        r = int(self.radius) if np.isfinite(self.radius) else 2 ** 64
        if self.space.kind == "lattice" and not all(
                -2 ** 63 <= c - r and c + r < 2 ** 63 for c in self.center[: self.space.dim]):
            raise InvalidConfigError(
                f"window of radius {self.radius} about {list(self.center)} leaves int64: "
                f"center +- floor(radius) must fit on every axis")

    @property
    def points(self):
        if self._points is None:
            self._points = self.space.ball(self.center, self.radius)
            self._points.flags.writeable = False
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


def basepoint_windows(space):
    """radius -> Window(space, basepoint, radius), each built once, so a scan
    over radii enumerates and indexes every window's points once."""
    return cache(lambda radius: Window(space, space.basepoint, radius))


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
            n = max(len(space._bfs(int(p), r)) for p in probe.points.reshape(-1))
        out.append((r, int(n)))
    return out


def separated_net(space, scope, sep):
    """Greedy maximal sep-separated net over the scope, in selection order.

    Pairwise distances are >= sep and every scope point lies within < sep of
    some net point; re-running on the net itself returns it unchanged.
    """
    if not 0 < sep < np.inf:
        raise InvalidConfigError("separation must be positive and finite")
    pts = scope.points
    return pts[_kernels.greedy_net(pts, float(sep), space._self_pairs)]


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
        adj, diam = _kernels.cell_scan(pts, self.cell_of, self.ncells, float(r), self.space)
        report["max_cell_diam"] = float(diam.max()) if diam.size else 0.0
        report["diam_bound"] = 4.0 * r
        report["diam_ok"] = report["max_cell_diam"] <= 4 * r
        counts = np.bincount(adj[0], minlength=self.ncells)
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
    if not 1 <= r < np.inf:
        raise InvalidConfigError("covering parameter r must be >= 1 and finite")
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
        tent = _kernels.PointLocator(self.centers).locate(floor[point] + corners[corner])
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
