import numpy as np
import pytest
import scipy.linalg

from limitops import Space, _kernels as K


def banded_random(n, b, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    T = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(max(0, i - b), min(n, i + b + 1)):
            T[i, j] = rng.normal() + 1j * rng.normal()
    if hermitian:
        T = 0.5 * (T + T.conj().T)
    return T


def pack_sweep_inputs(T, b):
    """Lower banded storage of T^H T plus the two triangles of S = T, padded
    to the Gram bandwidth 2b."""
    n = T.shape[0]
    bw = 2 * b
    G0 = T.conj().T @ T
    gb = np.zeros((bw + 1, n), dtype=np.complex128)
    for i in range(bw + 1):
        gb[i, : n - i] = np.diagonal(G0, -i)
    sl = np.zeros((bw + 1, n), dtype=np.complex128)
    su = np.zeros((bw + 1, n), dtype=np.complex128)
    for i in range(bw + 1):
        sl[i, : n - i] = np.diagonal(T, -i)
        su[i, : n - i] = np.diagonal(T, i)
    return gb, sl, su, bw


MIXED_Z = np.array([0.0, 0.5, 2.0 + 0.0j, -1.7 + 0.3j, 0.1 - 2.2j, 5.0])


@pytest.mark.parametrize("hermitian", [False, True])
def test_sweep_matches_dense_svd(hermitian):
    T = banded_random(60, 2, seed=3, hermitian=hermitian)
    gb, sl, su, bw = pack_sweep_inputs(T, 2)
    got = K.sigma_min_sweep(gb, sl, su, MIXED_Z, bw, maxit=30)
    ref = np.array([
        np.linalg.svd(T - z * np.eye(60), compute_uv=False)[-1] for z in MIXED_Z
    ])
    assert np.allclose(got, ref, rtol=1e-5, atol=1e-9)


# 6 x 7 grid graph, node i * 7 + j at row i and column j
GRID = Space(kind="graph", adjacency={
    i * 7 + j: [a * 7 + b for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                if 0 <= a < 6 and 0 <= b < 7]
    for i in range(6) for j in range(7)})


def _point(space, row):
    return int(row[0]) if space.kind == "graph" else tuple(row)


def test_greedy_net_matches_bruteforce(z2_l1):
    for space, pts in ((z2_l1, z2_l1.ball((0, 0), 6)), (GRID, GRID.ball(17, 6))):
        sep = 3.0
        mask = np.asarray(K.greedy_net(pts, sep, space.dist_block), dtype=bool)
        kept = []
        for i, p in enumerate(pts):
            ok = all(space.dist(_point(space, p), _point(space, pts[j])) >= sep
                     for j in kept)
            assert mask[i] == ok
            if ok:
                kept.append(i)
        assert 1 < len(kept) < len(pts)


def test_cell_scan_matches_bruteforce(z2):
    for space, pts in ((z2, z2.ball((0, 0), 4)), (GRID, GRID.ball(17, 6))):
        rng = np.random.default_rng(1)
        ncells = 5
        cell_of = rng.integers(0, ncells, size=pts.shape[0])
        adj, diam = K.cell_scan(pts, cell_of, ncells, 3.0, space.dist_block)
        ref_adj = np.zeros((ncells, ncells), dtype=np.uint8)
        ref_diam = np.zeros(ncells)
        n = pts.shape[0]
        for i in range(n):
            for j in range(n):
                d = space.dist(_point(space, pts[i]), _point(space, pts[j]))
                if d <= 3.0:
                    ref_adj[cell_of[i], cell_of[j]] = 1
                if cell_of[i] == cell_of[j]:
                    ref_diam[cell_of[i]] = max(ref_diam[cell_of[i]], d)
        assert np.array_equal(np.asarray(adj), ref_adj)
        assert np.array_equal(np.asarray(diam), ref_diam)


def test_sweep_clusters_need_restarts():
    # two nearly equal small singular values stall plain inverse iteration;
    # the safeguarded restart must still land on the smallest one
    d = np.array([1e-3, 1.001e-3, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
    T = np.diag(d).astype(np.complex128)
    gb, sl, su, bw = pack_sweep_inputs(T, 0)
    got = K.sigma_min_sweep(gb, sl, su, np.array([0.0 + 0.0j]), 0, maxit=30)
    assert np.isclose(got[0], 1e-3, rtol=1e-4)


def _sweep_cases():
    """Inputs of the sweep tests above, unpacked for ``_sweep_row``."""
    cases = []
    for hermitian in (False, True):
        T = banded_random(60, 2, seed=3, hermitian=hermitian)
        cases.append((*pack_sweep_inputs(T, 2), MIXED_Z.astype(np.complex128), 30))
    T = np.diag([1e-3, 1.001e-3, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]).astype(np.complex128)
    cases.append((*pack_sweep_inputs(T, 0), np.array([0.0 + 0.0j]), 30))
    return cases


def _run_sweep(gb, sl, su, bw, zs, maxit):
    start = (np.cos(0.9 * np.arange(gb.shape[1]) + 0.7) + 0.1).astype(np.complex128)
    return K._sweep_row(gb, sl, su, zs, bw, maxit, 1e-7, start)


def test_sweep_lapack_helpers_match_scipy_bitwise(monkeypatch):
    # the sweep calls LAPACK zpbtrf/zpbtrs directly; scipy's wrappers on
    # the same inputs must give the same bits, iterate included
    direct = [_run_sweep(*case) for case in _sweep_cases()]
    monkeypatch.setattr(K, "cholesky_banded", scipy.linalg.cholesky_banded)
    monkeypatch.setattr(K, "cho_solve_banded", scipy.linalg.cho_solve_banded)
    wrapped = [_run_sweep(*case) for case in _sweep_cases()]
    for (out, x), (ref_out, ref_x) in zip(direct, wrapped):
        assert np.array_equal(out, ref_out)
        assert np.array_equal(x, ref_x)


@pytest.mark.parametrize("where", ["z=nan", "z=inf", "gram nan", "gram inf"])
def test_sweep_flags_non_finite_input(where):
    # -1.0 flags non-finite input, also where LAPACK alone would not fail: it
    # never reads the unused corner of the band storage, and an infinite last
    # pivot factors
    gb, sl, su, bw, _, _ = _sweep_cases()[0]
    zs = np.array([0.5, -1.7 + 0.3j], dtype=np.complex128)
    if where == "z=nan":
        zs[0] = np.nan
    elif where == "z=inf":
        zs[0] = np.inf
    elif where == "gram nan":
        gb[bw, -1] = np.nan
    else:
        gb[0, -1] = np.inf
    with np.errstate(invalid="ignore"):
        out, _ = _run_sweep(gb, sl, su, bw, zs, 30)
    if where.startswith("z="):
        assert out[0] == -1.0 and out[1] > 0.0
    else:
        assert np.all(out == -1.0)
