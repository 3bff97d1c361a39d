import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitops import (
    Covering,
    InvalidConfigError,
    InvalidPointError,
    Space,
    UnsupportedConstructionError,
    Window,
    build_covering,
    build_partition,
    geometry_profile,
    separated_net,
)
from limitops.cli import _dumps

from conftest import GRID, Z1_FIBER3, window


# -- metric and balls --------------------------------------------------------


def test_dist_linf_and_l1(z2, z2_l1):
    assert z2.dist((0, 0), (3, -4)) == 4
    assert z2_l1.dist((0, 0), (3, -4)) == 7
    assert z2.dist((2, 2), (2, 2)) == 0


@given(
    a=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    b=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    c=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
@settings(max_examples=60, deadline=None)
def test_dist_is_a_metric(z2_l1, a, b, c):
    d = z2_l1.dist
    assert d(a, b) == d(b, a)
    assert d(a, b) >= 0
    assert (d(a, b) == 0) == (a == b)
    assert d(a, c) <= d(a, b) + d(b, c)


def test_ball_size_formulas(z1, z2, z2_l1):
    # linf ball is a cube of side 2r+1
    assert z1.ball_size(3) == 7
    assert z2.ball_size(3) == 49
    # l1 ball on Z^2 has 2r^2 + 2r + 1 points
    for r in range(5):
        assert z2_l1.ball_size(r) == 2 * r * r + 2 * r + 1
    assert z2.ball_size(0) == 1


def test_ball_matches_ball_size_and_is_sorted_by_distance(z2_l1):
    for r in (0, 1, 3):
        pts = z2_l1.ball((1, -2), r)
        assert pts.shape[0] == z2_l1.ball_size(r)
        d = z2_l1.dist_block(pts, np.array([[1, -2]]))[:, 0]
        assert (np.diff(d) >= 0).all()
        assert tuple(pts[0]) == (1, -2)


def test_ball_order_is_deterministic(z2):
    a = z2.ball((0, 0), 2)
    b = z2.ball((0, 0), 2)
    assert np.array_equal(a, b)
    # shells come in increasing distance, ties in lexicographic order
    shell1 = a[1:9]
    assert [tuple(p) for p in shell1] == sorted(tuple(p) for p in shell1)


def test_fiber_points_and_ball(z1):
    # fiber distance is cyclic and adds to the lattice part
    sp = Space(kind="lattice", dim=1, metric="linf", fiber=3)
    assert sp.point_arity == 2
    assert sp.dist((0, 0), (0, 1)) == 1
    assert sp.dist((0, 0), (0, 2)) == 1
    assert sp.dist((2, 0), (0, 2)) == 3
    assert sp.ball_size(1) == 5
    pts = sp.ball((0, 0), 1)
    assert pts.shape == (5, 2)
    assert sp.ball_size(2) == 11  # 3 at x=0, 3 each at x=+-1, 1 each at x=+-2


def test_graph_space_bfs_distance():
    # path 0-1-2-3 with a spur at 2
    adj = {0: [1], 1: [0, 2], 2: [1, 3, 4], 3: [2], 4: [2]}
    g = Space(kind="graph", adjacency=adj, basepoint=0)
    assert g.dist(0, 3) == 3
    assert g.dist(4, 1) == 2
    assert g.ball(2, 1).reshape(-1).tolist() == [2, 1, 3, 4]
    assert g.dist_block([0, 4], [3, 0, 1]).tolist() == [[3, 0, 1], [2, 3, 2]]
    two = Space(kind="graph", adjacency={0: [1], 1: [0], 2: []}, basepoint=0)
    with pytest.raises(InvalidPointError, match="not connected"):
        two.dist(0, 2)


def test_graph_points_must_be_nodes():
    # a point that is not a node is named in either argument of dist_block,
    # and in an int64 array that as_array would otherwise pass through
    g = Space(kind="graph", adjacency={0: [1], 1: [0], 2: []}, basepoint=0)
    for a, b in (([7], [0]), ([0], [7])):
        with pytest.raises(InvalidPointError, match="7 is not a node"):
            g.dist_block(a, b)
    with pytest.raises(InvalidPointError, match="7 is not a node"):
        g.as_array(np.asarray([[1], [7]], dtype=np.int64))


def test_space_descriptor_roundtrip(z2):
    d = z2.to_descriptor()
    assert Space.from_descriptor(d) == z2
    g = Space(kind="graph", adjacency={0: [1], 1: [0]}, basepoint=0)
    assert Space.from_descriptor(g.to_descriptor()) == g


# -- windows -----------------------------------------------------------------


def test_window_basics(z2):
    w = Window(z2, (0, 0), 2)
    assert w.npoints == 25
    assert w.contains((2, -2))
    assert not w.contains((3, 0))
    assert w.shrink(1).npoints == 9
    assert w.pad(1).npoints == 49
    lo, hi = w.bounds()
    assert lo.tolist() == [-2, -2] and hi.tolist() == [2, 2]


def test_window_is_lazy(z2):
    # a huge window carries bounds without materializing its points
    w = Window(z2, (0, 0), 10**6)
    lo, hi = w.bounds()
    assert hi[0] - lo[0] == 2 * 10**6


def test_window_locate(z1):
    w = Window(z1, (0,), 4)
    idx = w.locate([(0,), (-4,), (3,)])
    pts = w.points
    assert [tuple(pts[i]) for i in idx] == [(0,), (-4,), (3,)]


# -- separated nets and coverings ---------------------------------------------


def test_separated_net_frozen_on_line(z1):
    net = separated_net(z1, window(z1, 8), 4)
    got = [int(p) for p in net.reshape(-1)]
    assert got[0] == 0
    assert set(got) == {0, -4, 4, -8, 8}
    d = z1.dist_block(net, net)
    assert (d[~np.eye(len(got), dtype=bool)] >= 4).all()


@pytest.mark.parametrize("r", [1, 2, 4])
def test_covering_invariants_small(z2, r):
    cov = build_covering(z2, window(z2, 12), r)
    rep = cov.verify()
    assert rep["ok"]
    assert rep["max_cell_diam"] <= 4 * r
    assert rep["max_neighbor_count"] <= rep["neighbor_bound"]


def _reference_report(cov):
    """Covering.verify's report from full distance blocks. A point whose cell
    index is not one of the net's lies in no cell."""
    space, pts, net, r = cov.space, cov.scope.points, cov.net, cov.r
    n, m = pts.shape[0], net.shape[0]
    cell = cov.cell_of
    valid = (cell >= 0) & (cell < m)
    dn = space.dist_block(pts, net)
    dp = space.dist_block(pts, pts)
    own = np.where(valid, dn[np.arange(n), np.clip(cell, 0, m - 1)], np.inf)
    rows, cols = np.nonzero(dn < r)
    adj = np.zeros((m, m), dtype=bool)
    diam = np.zeros(m)
    for x in range(n):
        for y in range(n):
            if valid[x] and valid[y]:
                if dp[x, y] <= r:
                    adj[cell[x], cell[y]] = True
                if cell[x] == cell[y]:
                    diam[cell[x]] = max(diam[cell[x]], dp[x, y])
    if space.kind == "lattice":
        n6 = space.ball_size(6 * r)
    else:
        n6 = max(len(space.ball(int(p), int(6 * r))) for p in pts[:, 0])
    rep = {
        "cells": m,
        "cover_total": bool((cell >= 0).all()),
        "cells_inside_open_2r": bool((own < 2 * r).all()),
        "open_r_ball_inside_cell": bool((cell[rows] == cols).all()),
        "max_cell_diam": float(diam.max()),
        "diam_bound": 4.0 * r,
        "diam_ok": bool(diam.max() <= 4 * r),
        "max_neighbor_count": int(adj.sum(axis=1).max()),
        "neighbor_bound": int(n6),
    }
    rep["neighbor_ok"] = rep["max_neighbor_count"] <= n6
    rep["ok"] = all(rep[k] for k in ("cover_total", "cells_inside_open_2r",
                                     "open_r_ball_inside_cell", "diam_ok", "neighbor_ok"))
    return rep


@pytest.mark.parametrize("case", ["z2-r1", "z2-r1.5", "z2-r2", "z1-fiber3-r1.5", "grid-r1"])
def test_covering_verify_matches_reference_on_corrupted_coverings(case):
    space, scope, r = {
        "z2-r1": (Space(dim=2), Window(Space(dim=2), (0, 0), 6), 1),
        "z2-r1.5": (Space(dim=2), Window(Space(dim=2), (1, -2), 6), 1.5),
        "z2-r2": (Space(dim=2), Window(Space(dim=2), (0, 0), 7), 2),
        "z1-fiber3-r1.5": (Z1_FIBER3, Window(Z1_FIBER3, (0, 1), 9), 1.5),
        "grid-r1": (GRID, Window(GRID, 17, 6), 1),
    }[case]
    cov = build_covering(space, scope, r)
    n, m = scope.npoints, cov.ncells
    rng = np.random.default_rng(7)
    drop = int(rng.integers(m))
    foreign = cov.cell_of.copy()
    foreign[rng.choice(n, 3, replace=False)] = [-1, m, int(rng.integers(m))]
    variants = [
        cov,
        Covering(space, scope, r, cov.net, rng.integers(0, m, n)),
        # a net point dropped without relabelling the cells
        Covering(space, scope, r, np.delete(cov.net, drop, axis=0), cov.cell_of),
        Covering(space, scope, r, cov.net, foreign),
    ]
    reports = [c.verify() for c in variants]
    assert reports[0]["ok"] and not any(rep["ok"] for rep in reports[1:])
    for c, rep in zip(variants, reports):
        assert rep == _reference_report(c)


@pytest.mark.parametrize("r", [1, 1.5, 2])
def test_graph_neighbor_bound_is_the_profile_maximum(r):
    # balls are nested, so the radius-6r balls alone give the maximum of the
    # whole profile up to 6r
    scope = Window(GRID, 17, 6)
    rep = build_covering(GRID, scope, r).verify()
    n6 = max(n for _, n in geometry_profile(GRID, int(6 * r), scope))
    assert rep["neighbor_bound"] == n6
    assert rep["neighbor_ok"] == (rep["max_neighbor_count"] <= n6)
    assert rep["ok"]


def test_covering_scans_form_no_block_beyond_one_cell(monkeypatch, z2):
    # the net, the cell assignment and every check of verify() read ball
    # neighbours only; full distance blocks are formed inside one cell at most
    shapes = []
    dist_block = Space.dist_block

    def recording(self, a, b):
        out = dist_block(self, a, b)
        shapes.append(out.shape)
        return out

    scope = window(z2, 20)
    scope.points
    monkeypatch.setattr(Space, "dist_block", recording)
    for r in (1, 1.5, 2):
        shapes.clear()
        cov = build_covering(z2, scope, r)
        assert cov.verify()["ok"]
        biggest = np.bincount(cov.cell_of).max()
        assert shapes and max(a * b for a, b in shapes) <= biggest ** 2


def test_covering_rejects_bad_parameters(z2):
    for r in (0.5, float("nan")):
        with pytest.raises(InvalidConfigError, match="r must be >= 1"):
            build_covering(z2, window(z2, 4), r)
    with pytest.raises(InvalidConfigError, match="positive"):
        separated_net(z2, window(z2, 4), float("nan"))


def test_covering_cells_partition_scope(z2_l1):
    scope = window(z2_l1, 7)
    cov = build_covering(z2_l1, scope, 2)
    sizes = [cov.cell_points(j).shape[0] for j in range(cov.ncells)]
    assert sum(sizes) == scope.npoints
    assert min(sizes) >= 1


def test_covering_export_schema(z1):
    cov = build_covering(z1, window(z1, 6), 2)
    out = cov.export()
    assert out["schema_version"] == 1
    assert out["r"] == 2
    assert len(out["cells"]) == cov.ncells
    total = sum(len(c["points"]) for c in out["cells"])
    assert total == window(z1, 6).npoints


def test_geometry_profile(z2, z1):
    prof = geometry_profile(z2, 4, window(z2, 2))
    assert prof == [(r, (2 * r + 1) ** 2) for r in range(1, 5)]
    counts = [n for _, n in prof]
    assert counts == sorted(counts)
    g = Space(kind="graph", adjacency={0: [1], 1: [0, 2], 2: [1]}, basepoint=0)
    gp = geometry_profile(g, 2, Window(g, 0, 2))
    assert gp == [(1, 3), (2, 3)]


# -- partitions of unity -------------------------------------------------------


@pytest.mark.parametrize(
    "t,pitch,rt", [(0.5, 9, 16), (0.2, 51, 100), (0.1, 201, 400)]
)
def test_partition_pitch_and_support_on_line(z1, t, pitch, rt):
    part = build_partition(z1, window(z1, 4 * rt), t)
    assert part.pitch == pitch
    assert part.support_diam == rt


def test_partition_support_diam_metric_dependence(z2, z2_l1):
    a = build_partition(z2, window(z2, 300), 0.5)
    b = build_partition(z2_l1, window(z2_l1, 300), 0.5)
    assert a.pitch == b.pitch == 17
    assert a.support_diam == 2 * (17 - 1)
    assert b.support_diam == 2 * 2 * (17 - 1)


@given(t=st.floats(0.02, 0.95))
@settings(max_examples=40, deadline=None)
def test_partition_variation_strictly_below_t(z2, t):
    part = build_partition(z2, Window(z2, (0, 0), 50), t)
    big_d = int(np.floor(1.0 / t + 1e-12))
    assert 2.0 * z2.dim * big_d / part.pitch < t


def test_partition_sums_to_one_inside_scope(z1):
    part = build_partition(z1, window(z1, 70), 0.5)
    xs = np.arange(-70, 71, dtype=np.int64)[:, None]
    s = part.sum_values(xs)
    assert np.abs(s - 1.0).max() <= 1e-12


def test_partition_root_values_consistency(z1):
    part = build_partition(z1, window(z1, 70), 0.5)
    xs = np.arange(-20, 21, dtype=np.int64)[:, None]
    j = part.tents_meeting(np.array([-5]), np.array([5]))[0]
    v = part.values(j, xs)
    for p in (1.5, 2.0, 3.0):
        assert np.allclose(part.root_values(j, xs, p) ** p, v, atol=1e-13)


def test_partition_pair_variation_exhaustive_small(z1):
    t = 0.5
    part = build_partition(z1, window(z1, 64), t)
    xs = np.arange(-62, 63, dtype=np.int64)
    for delta in range(-2, 3):
        tot = np.zeros(xs.size)
        X = xs[:, None]
        Y = X + delta
        for j in part.tents_meeting(np.array([-64]), np.array([64])):
            tot += np.abs(part.values(j, X) - part.values(j, Y))
        assert tot.max() < t


def test_partition_rejects_graphs_and_bad_t(z1):
    g = Space(kind="graph", adjacency={0: [1], 1: [0]}, basepoint=0)
    with pytest.raises(UnsupportedConstructionError):
        build_partition(g, Window(g, 0, 1), 0.5)
    with pytest.raises(InvalidConfigError):
        build_partition(z1, window(z1, 5), 1.5)


def test_partition_export_cap(z1):
    part = build_partition(z1, window(z1, 40), 0.5)
    out = part.export()
    assert out["pitch"] == 9
    assert len(out["tents"]) == part.ntents
    with pytest.raises(InvalidConfigError):
        part.export(max_points=10)


def test_partition_export_cap_is_checked_before_the_scope_exists(monkeypatch, z2):
    def no_ball(self, x, radius):
        raise AssertionError("the refused export materialised its scope")

    monkeypatch.setattr(Space, "ball", no_ball)
    probe = build_partition(z2, window(z2, 1), 0.5)
    part = build_partition(z2, window(z2, 20 * probe.support_diam), 0.5)
    with pytest.raises(InvalidConfigError, match=r"^partition export materializes "
                       r"the scope \(1640961 points\); cap is 200000$"):
        part.export(max_points=200_000)


def _export_by_box_masks(part):
    """PartitionOfUnity.export as one box mask over the scope per tent."""
    pts = part.scope.points
    dim = part.space.dim
    tents = []
    for j in range(part.ntents):
        lo, hi = part.support_box(j)
        mask = ((pts[:, :dim] >= lo[None, :]) & (pts[:, :dim] <= hi[None, :])).all(axis=1)
        sup = pts[mask]
        vals = part.values(j, sup) if sup.size else np.empty(0)
        keep = vals > 0
        tents.append({
            "tent": j,
            "center": part.centers[j] * part.pitch,
            "support": sup[keep],
            "values": vals[keep],
        })
    return {
        "schema_version": 1,
        "space": part.space.to_descriptor(),
        "variation": part.variation,
        "pitch": part.pitch,
        "support_diam": part.support_diam,
        "tents": tents,
    }


@pytest.mark.parametrize("space, center, radius, t", [
    (Space(kind="lattice", dim=1), (0,), 40, 0.5),
    (Space(kind="lattice", dim=1), (-57,), 23, 0.3),
    (Space(kind="lattice", dim=2), (0, 0), 35, 0.5),
    (Space(kind="lattice", dim=2), (-31, -8), 22, 0.5),
    (Space(kind="lattice", dim=2, metric="l1"), (-13, 5), 29, 0.5),
    (Space(kind="lattice", dim=3, metric="l1"), (-4, -9, 2), 11, 0.9),
    (Z1_FIBER3, (-20, 2), 25, 0.5),
])
def test_partition_export_matches_box_mask_reference(space, center, radius, t):
    part = build_partition(space, Window(space, center, radius), t)
    assert radius % part.pitch != 0
    assert _dumps(part.export()) == _dumps(_export_by_box_masks(part))
