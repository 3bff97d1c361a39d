import numpy as np
import pytest
import scipy.linalg

from limitops import InvalidConfigError, Space, _kernels as K

from conftest import GRID, Z1_FIBER3


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
    got = K.sigma_min_sweep(gb, sl, su, MIXED_Z)
    ref = np.array([
        np.linalg.svd(T - z * np.eye(60), compute_uv=False)[-1] for z in MIXED_Z
    ])
    assert np.allclose(got, ref, rtol=1e-5, atol=1e-9)


def _point(space, row):
    return int(row[0]) if space.kind == "graph" else tuple(row)


@pytest.mark.parametrize("space", [Z1_FIBER3, Space(dim=2, metric="linf"),
                                   Space(dim=3, metric="l1"), GRID],
                         ids=["z1-fiber3", "z2-linf", "z3-l1", "grid-graph"])
def test_pairs_within_matches_bruteforce(space):
    # b is a shuffled part of a window, so the ball stencil is sometimes
    # smaller and sometimes larger than b, and a's balls leave b's box; the
    # reversed call enumerates balls around the shorter array
    rng = np.random.default_rng(5)
    origin = space.basepoint
    if space.kind == "graph":
        a, b = space.ball(10, 2), space.ball(24, 3)
    else:
        far = tuple(2 if k < space.dim else 0 for k in range(len(origin)))
        a, b = space.ball(origin, 2), space.ball(far, 3)
    b = b[rng.permutation(b.shape[0])[: 2 * b.shape[0] // 3]]
    for radius in (0, 1.5, 2, 3, np.inf):
        i, j, d = space.pairs_within(a, b, radius)
        ref = []
        for x in range(a.shape[0]):
            for y in range(b.shape[0]):
                dxy = space.dist(_point(space, a[x]), _point(space, b[y]))
                if dxy <= radius:
                    ref.append((x, y, dxy))
        assert list(zip(i.tolist(), j.tolist(), d.tolist())) == ref
        assert i.dtype == j.dtype == d.dtype == np.int64
        j, i, d = space.pairs_within(b, a, radius)
        assert list(zip(i.tolist(), j.tolist(), d.tolist())) == sorted(
            ref, key=lambda t: (t[1], t[0]))
    i, j, d = space.pairs_within(a, b[:0], 3)
    assert i.size == j.size == d.size == 0


def test_pairs_within_refuses_unpackable_box():
    big = 2 ** 62
    g = Space(kind="graph", adjacency={-big: [big], big: [-big]})
    with pytest.raises(InvalidConfigError, match="too large"):
        g.pairs_within([-big], [-big, big], 1)


def test_greedy_net_matches_bruteforce(z2_l1):
    for space, pts, sep in ((z2_l1, z2_l1.ball((0, 0), 6), 3.0),
                            (GRID, GRID.ball(17, 6), 3.0),
                            (Z1_FIBER3, Z1_FIBER3.ball((0, 1), 8), 2.5)):
        mask = np.asarray(K.greedy_net(pts, sep, space.pairs_within), dtype=bool)
        kept = []
        for i, p in enumerate(pts):
            ok = all(space.dist(_point(space, p), _point(space, pts[j])) >= sep
                     for j in kept)
            assert mask[i] == ok
            if ok:
                kept.append(i)
        assert 1 < len(kept) < len(pts)


def test_cell_scan_matches_bruteforce(z2):
    line = Z1_FIBER3.ball((0, 1), 6)
    for space, pts, thresh, blocks in ((z2, z2.ball((0, 0), 4), 3.0, None),
                                       (GRID, GRID.ball(17, 6), 3.0, None),
                                       # cells two sites wide: every other cell
                                       # sits at set-distance 3, just past thresh
                                       (Z1_FIBER3, line, 2.5, (line[:, 0] + 6) // 2)):
        rng = np.random.default_rng(1)
        ncells = 5 if blocks is None else 7
        cell_of = rng.integers(0, ncells, size=pts.shape[0]) if blocks is None else blocks
        adj, diam = K.cell_scan(pts, cell_of, ncells, thresh, space.pairs_within)
        ref_adj = np.zeros((ncells, ncells), dtype=np.uint8)
        ref_diam = np.zeros(ncells)
        n = pts.shape[0]
        for i in range(n):
            for j in range(n):
                d = space.dist(_point(space, pts[i]), _point(space, pts[j]))
                if d <= thresh:
                    ref_adj[cell_of[i], cell_of[j]] = 1
                if cell_of[i] == cell_of[j]:
                    ref_diam[cell_of[i]] = max(ref_diam[cell_of[i]], d)
        assert np.array_equal(np.asarray(adj), ref_adj)
        assert np.array_equal(np.asarray(diam), ref_diam)


def test_sweep_clusters_need_restarts():
    # two nearly equal small singular values stall an iterative estimate; the
    # sweep must still land on the smallest one, gated or not
    d = np.array([1e-3, 1.001e-3, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
    T = np.diag(d).astype(np.complex128)
    gb, sl, su, bw = pack_sweep_inputs(T, 0)
    for tau in (None, 0.01):
        got = K.sigma_min_sweep(gb, sl, su, np.array([0.0 + 0.0j]), tau)
        assert np.isclose(got[0], 1e-3, rtol=1e-4)


def _sweep_cases():
    """Inputs of the sweep tests above: (gb, sl, su, bw, zs)."""
    cases = []
    for hermitian in (False, True):
        T = banded_random(60, 2, seed=3, hermitian=hermitian)
        cases.append((*pack_sweep_inputs(T, 2), MIXED_Z.astype(np.complex128)))
    T = np.diag([1e-3, 1.001e-3, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]).astype(np.complex128)
    cases.append((*pack_sweep_inputs(T, 0), np.array([0.0 + 0.0j])))
    return cases


def _shifted_gram(gb, sl, su, z):
    base = gb - np.conj(z) * sl - z * np.conj(su)
    base[0] += (z * np.conj(z)).real
    return base


def test_cholesky_banded_matches_scipy_bitwise():
    # the sweep's gate calls LAPACK zpbtrf directly; scipy's wrapper on the
    # same input must give the same factor, and fail where it fails
    for gb, sl, su, bw, zs in _sweep_cases():
        for z in zs:
            for shift in (0.0, 0.25):
                work = _shifted_gram(gb, sl, su, z)
                work[0] -= shift
                try:
                    ref = scipy.linalg.cholesky_banded(work, lower=True)
                except np.linalg.LinAlgError:
                    with pytest.raises(np.linalg.LinAlgError):
                        K.cholesky_banded(work.copy(order="F"), lower=True)
                    continue
                got = K.cholesky_banded(work.copy(order="F"), lower=True)
                assert np.array_equal(got, ref)


def test_min_eig_banded_matches_scipy_bitwise():
    # the sweep and the structured lower norm call LAPACK zhbevx directly
    # with the arguments of scipy's eigvals_banded(select="i")
    for gb, sl, su, bw, zs in _sweep_cases():
        for z in zs:
            base = _shifted_gram(gb, sl, su, z)
            ref = scipy.linalg.eigvals_banded(base, lower=True, select="i",
                                              select_range=(0, 0))[0]
            assert K.min_eig_banded(base.copy()) == ref


def test_sweep_gate_keeps_cloud_values():
    # with tau, a point reads inf only where the dense sigma_min exceeds tau,
    # and every point at or below tau keeps its ungated value bit for bit
    T = banded_random(60, 2, seed=3)
    gb, sl, su, bw = pack_sweep_inputs(T, 2)
    zs = (np.linspace(-4.0, 4.0, 41)[:, None]
          + 1j * np.linspace(-4.0, 4.0, 41)[None, :]).reshape(-1)
    ref = np.array([np.linalg.svd(T - z * np.eye(60), compute_uv=False)[-1]
                    for z in zs])
    # halfway between two sorted values, so no point sits within rounding
    # of tau
    s = np.sort(ref)
    k = zs.size // 5
    tau = 0.5 * (s[k] + s[k + 1])
    assert s[k + 1] - s[k] > 1e-9
    full = K.sigma_min_sweep(gb, sl, su, zs)
    gated = K.sigma_min_sweep(gb, sl, su, zs, tau)
    low = full <= tau
    assert 0 < low.sum() < zs.size
    assert np.array_equal(gated[low], full[low])
    assert np.all(ref[np.isinf(gated)] > tau)
    assert np.array_equal(np.isinf(gated), ~low)


@pytest.mark.parametrize("where", ["z=nan", "z=inf", "gram nan", "gram inf"])
def test_sweep_flags_non_finite_input(where):
    # -1.0 flags non-finite input, also where LAPACK alone would not fail: it
    # never reads the unused corner of the band storage, and an infinite last
    # pivot factors
    gb, sl, su, bw, _ = _sweep_cases()[0]
    zs = np.array([0.5, -1.7 + 0.3j], dtype=np.complex128)
    if where == "z=nan":
        zs[0] = np.nan
    elif where == "z=inf":
        zs[0] = np.inf
    elif where == "gram nan":
        gb[bw, -1] = np.nan
    else:
        gb[0, -1] = np.inf
    for tau in (None, 0.1):
        with np.errstate(invalid="ignore"):
            out = K.sigma_min_sweep(gb, sl, su, zs, tau)
        if where.startswith("z="):
            assert out[0] == -1.0 and out[1] > 0.0
        else:
            assert np.all(out == -1.0)
