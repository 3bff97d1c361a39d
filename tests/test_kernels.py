import numpy as np
import pytest
import scipy.linalg

from limitops import InvalidConfigError, Space, _kernels as K
from limitops.fredholm import _sweep_threaded

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


def real_symmetric(n, b, seed):
    """Real symmetric band matrix: the real part of a Hermitian one."""
    return banded_random(n, b, seed, hermitian=True).real.astype(np.complex128)


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


def _dict_locate(pts, query):
    first = {}
    for i, row in enumerate(map(tuple, pts.tolist())):
        first.setdefault(row, i)  # of repeated rows the lowest index wins
    return [first.get(row, -1) for row in map(tuple, query.tolist())]


def test_point_locator_matches_dict_lookup():
    # window points with repeats (graph arity 1, fiber arity 2, Z^3), queries
    # from a larger window plus one step outside the box on each axis, and
    # the empty index
    rng = np.random.default_rng(7)
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    cases = []
    for pts in (GRID.ball(17, 2), Z1_FIBER3.ball((0, 1), 4),
                Space(dim=3, metric="l1").ball((0, 0, 0), 2)):
        pts = pts[rng.integers(0, pts.shape[0], size=pts.shape[0])]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        outside = []
        for c in range(pts.shape[1]):
            for edge in (lo[c] - 1, hi[c] + 1):
                q = pts[:2].copy()
                q[:, c] = edge
                outside.append(q)
        query = np.vstack([pts, rng.integers(lo - 2, hi + 3, size=(300, pts.shape[1]))]
                          + outside)
        cases += [(pts, query), (pts[:0], query)]
    # near the int64 limits the packing subtraction wraps; no false hit
    near_top = np.array([[top, 0], [top - 2, 1], [top - 1, 1]])
    near_bottom = np.array([[bottom, 0], [bottom + 2, 1], [bottom + 1, 0]])
    cases += [(near_top, np.vstack([near_top, near_bottom])),
              (near_bottom, np.vstack([near_bottom, near_top]))]
    for pts, query in cases:
        got = K.PointLocator(pts).locate(query)
        assert got.dtype == np.int64
        assert got.tolist() == _dict_locate(pts, query)


def test_point_locator_refuses_unpackable_box():
    K.PointLocator([[0], [2 ** 63 - 2]])  # 2^63 - 1 cells still pack
    for pts, shape in (([[-1], [2 ** 63 - 2]], "(9223372036854775808,)"),
                       ([[0, 0], [2 ** 32, 2 ** 31 - 1]], "(4294967297, 2147483648)")):
        with pytest.raises(InvalidConfigError) as err:
            K.PointLocator(pts)
        assert str(err.value) == f"point box {shape} is too large to index by int64 keys"


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
    gb, sl, su, bw = pack_sweep_inputs(real_symmetric(60, 2, seed=3), 2)
    cases.append((gb.real, sl.real, su.real, bw, MIXED_Z.astype(np.complex128)))
    return cases


def _shifted_gram(gb, sl, su, z):
    """G(z) as the sweep forms it: in float64 for real bands and symmetric S."""
    if np.isrealobj(gb):
        base = gb - 2 * z.real * sl
    else:
        base = gb - np.conj(z) * sl - z * np.conj(su)
    base[0] += (z * np.conj(z)).real
    return base


def test_cholesky_banded_matches_scipy_bitwise():
    # the sweep's gate calls LAPACK dpbtrf (real bands) or zpbtrf directly;
    # scipy's wrapper on the same input must give the same factor, and fail
    # where it fails
    cases = _sweep_cases()
    assert any(np.isrealobj(gb) for gb, *_ in cases)
    for gb, sl, su, bw, zs in cases:
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
    # the sweep and the structured lower norm call LAPACK dsbevx (real bands)
    # or zhbevx directly with the arguments of scipy's
    # eigvals_banded(select="i")
    cases = _sweep_cases()
    assert any(np.isrealobj(gb) for gb, *_ in cases)
    # a long tridiagonal band (kd = 1) never bisects, however long
    tri = np.zeros((2, 801))
    tri[0], tri[1, :-1] = np.linspace(0.5, 2.0, 801) ** 2, 0.3
    cases.append((tri, np.zeros_like(tri), np.zeros_like(tri), 1, np.array([0.0, 0.7])))
    for gb, sl, su, bw, zs in cases:
        for z in zs:
            base = _shifted_gram(gb, sl, su, z)
            ref = scipy.linalg.eigvals_banded(base, lower=True, select="i",
                                              select_range=(0, 0))[0]
            assert K.min_eig_banded(base.copy()) == ref


def test_sweep_gate_keeps_cloud_values():
    # with tau, a point reads inf only where the dense sigma_min exceeds tau,
    # and every point at or below tau keeps its ungated value bit for bit; a
    # real symmetric T runs the float64 lane
    zs = (np.linspace(-4.0, 4.0, 41)[:, None]
          + 1j * np.linspace(-4.0, 4.0, 41)[None, :]).reshape(-1)
    for T in (banded_random(60, 2, seed=3), real_symmetric(60, 2, seed=3)):
        gb, sl, su, bw = pack_sweep_inputs(T, 2)
        ref = np.array([np.linalg.svd(T - z * np.eye(60), compute_uv=False)[-1]
                        for z in zs])
        full = K.sigma_min_sweep(gb, sl, su, zs)
        assert np.allclose(full, ref, rtol=1e-5, atol=1e-9)
        # tau halfway across the first gap wider than rounding after the
        # lowest fifth (a real T gives conjugate pairs of equal values), so
        # no point sits within rounding of it
        s = np.sort(ref)
        k = zs.size // 5 + np.argmax(np.diff(s[zs.size // 5:]) > 1e-9)
        tau = 0.5 * (s[k] + s[k + 1])
        assert s[k + 1] - s[k] > 1e-9
        gated = K.sigma_min_sweep(gb, sl, su, zs, tau)
        low = full <= tau
        assert 0 < low.sum() < zs.size
        assert np.array_equal(gated[low], full[low])
        assert np.all(ref[np.isinf(gated)] > tau)
        assert np.array_equal(np.isinf(gated), ~low)


def _record_lanes(monkeypatch):
    """Record the dtype of every array the sweep hands to its LAPACK helpers."""
    seen = set()

    def recording(fn):
        def wrapped(ab, *args, **kwargs):
            seen.add(ab.dtype.type)
            return fn(ab, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(K, "cholesky_banded", recording(K.cholesky_banded))
    monkeypatch.setattr(K, "min_eig_banded", recording(K.min_eig_banded))
    return seen


@pytest.mark.parametrize("where", ["z=nan", "z=inf", "z=i*inf", "z=i*nan",
                                   "gram nan", "gram inf"])
def test_sweep_flags_non_finite_input(where, monkeypatch):
    # non-finite input raises ValueError on both lanes (the per-point one and
    # the float64 column one), before any factorisation, also where LAPACK
    # alone would not fail: it never reads the unused corner of the band
    # storage, and an infinite last pivot factors. On the real lane Re z is
    # finite for z = i*inf and i*nan, |z|^2 is not.
    cases = _sweep_cases()
    lanes = _record_lanes(monkeypatch)
    for gb, sl, su, bw, _ in (cases[0], cases[-1]):
        zs = np.array([0.5, -1.7 + 0.3j], dtype=np.complex128)
        if where.startswith("z="):
            zs[0] = {"z=nan": np.nan, "z=inf": np.inf, "z=i*inf": complex(0, np.inf),
                     "z=i*nan": complex(0, np.nan)}[where]
        elif where == "gram nan":
            gb[bw, -1] = np.nan
        else:
            gb[0, -1] = np.inf
        for tau in (None, 0.1):
            with pytest.raises(ValueError, match="infs or NaNs"):
                K.sigma_min_sweep(gb, sl, su, zs, tau)
    assert lanes == set()


@pytest.mark.parametrize("kind", ["real symmetric", "complex hermitian",
                                  "complex symmetric", "real non-symmetric"])
def test_sweep_lane_follows_the_data(kind, monkeypatch):
    # float64 only for a real symmetric S; complex Hermitian, complex
    # symmetric and real non-symmetric slices keep complex arithmetic
    C = banded_random(40, 2, seed=5)
    T = {"real symmetric": real_symmetric(40, 2, seed=5),
         "complex hermitian": banded_random(40, 2, seed=5, hermitian=True),
         "complex symmetric": 0.5 * (C + C.T),
         "real non-symmetric": C.real.astype(np.complex128)}[kind]
    gb, sl, su, bw = pack_sweep_inputs(T, 2)
    lanes = _record_lanes(monkeypatch)
    out = K.sigma_min_sweep(gb, sl, su, MIXED_Z, tau=0.5)
    assert lanes == {np.float64 if kind == "real symmetric" else np.complex128}
    ref = np.array([np.linalg.svd(T - z * np.eye(40), compute_uv=False)[-1]
                    for z in MIXED_Z])
    valued = np.isfinite(out)
    assert np.allclose(out[valued], ref[valued], rtol=1e-5, atol=1e-9)
    assert np.all(ref[~valued] > 0.5)


# -- the column fold for Hermitian slices -----------------------------------------


def _hermitian_cases():
    """(name, T) with S = T Hermitian: one real symmetric, one complex."""
    return [("real", real_symmetric(50, 2, seed=7)),
            ("complex", banded_random(50, 2, seed=7, hermitian=True))]


# 17 columns of 13 points each, sorted by Re z then Im z, Im z = 0 included
COLUMN_Z = (np.linspace(-4.0, 4.0, 17)[:, None]
            + 1j * np.linspace(-3.0, 3.0, 13)[None, :]).reshape(-1)


def _per_point(gb, sl, su, zs, tau=None):
    """The point-by-point sweep: a gate on G(z) - tau^2 I, then the smallest
    eigenvalue of G(z) itself."""
    out = np.empty(zs.size)
    for i, z in enumerate(zs):
        base = _shifted_gram(gb, sl, su, z)
        if tau is not None:
            work = base.copy(order="F")
            work[0] -= tau ** 2
            try:
                K.cholesky_banded(work, lower=True)
                out[i] = np.inf
                continue
            except np.linalg.LinAlgError:
                pass
        out[i] = np.sqrt(max(K.min_eig_banded(base), 0.0))
    return out


def _bands_of(name, T):
    gb, sl, su, bw = pack_sweep_inputs(T, 2)
    if name == "real":
        gb, sl, su = gb.real, sl.real, su.real
    return gb, sl, su, bw


@pytest.mark.parametrize("name, T", _hermitian_cases())
def test_column_fold_matches_per_point_path(name, T):
    gb, sl, su, bw = _bands_of(name, T)
    folded = K.sigma_min_sweep(gb, sl, su, COLUMN_Z)
    assert np.abs(folded - _per_point(gb, sl, su, COLUMN_Z)).max() <= 1e-12
    ref = np.array([np.linalg.svd(T - z * np.eye(50), compute_uv=False)[-1]
                    for z in COLUMN_Z])
    assert np.allclose(folded, ref, rtol=1e-5, atol=1e-9)
    # a real symmetric slice keeps the bits of the point-by-point path on
    # the real axis
    if name == "real":
        axis = COLUMN_Z.imag == 0
        assert np.array_equal(folded[axis], _per_point(gb, sl, su, COLUMN_Z[axis]))


@pytest.mark.parametrize("name, T", _hermitian_cases())
def test_column_fold_keeps_cloud_membership(name, T):
    gb, sl, su, bw = _bands_of(name, T)
    full = _per_point(gb, sl, su, COLUMN_Z)
    # tau halfway across a gap wider than rounding, as in
    # test_sweep_gate_keeps_cloud_values
    s = np.sort(full)
    k = s.size // 4 + np.argmax(np.diff(s[s.size // 4:]) > 1e-9)
    tau = 0.5 * (s[k] + s[k + 1])
    folded = K.sigma_min_sweep(gb, sl, su, COLUMN_Z, tau)
    ref = _per_point(gb, sl, su, COLUMN_Z, tau)
    cloud = folded <= tau
    assert 0 < cloud.sum() < COLUMN_Z.size
    assert np.array_equal(cloud, ref <= tau)
    assert np.array_equal(np.isinf(folded), np.isinf(ref))
    assert np.abs(folded[cloud] - ref[cloud]).max() <= 1e-12


def _count_calls(monkeypatch):
    """Count the sweep's gate (banded Cholesky) and eigenvalue calls."""
    calls = {"gate": 0, "eig": 0}

    def counting(key, fn):
        def wrapped(ab, *args, **kwargs):
            calls[key] += 1
            return fn(ab, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(K, "cholesky_banded", counting("gate", K.cholesky_banded))
    monkeypatch.setattr(K, "min_eig_banded", counting("eig", K.min_eig_banded))
    return calls


@pytest.mark.parametrize("name, T", _hermitian_cases())
def test_column_fold_gates_each_column_once(name, T, monkeypatch):
    gb, sl, su, bw = _bands_of(name, T)
    tau = 0.8
    calls = _count_calls(monkeypatch)
    far = COLUMN_Z[np.abs(COLUMN_Z.imag) > tau]
    assert far.size and np.all(np.isinf(K.sigma_min_sweep(gb, sl, su, far, tau)))
    assert calls == {"gate": 0, "eig": 0}
    out = K.sigma_min_sweep(gb, sl, su, COLUMN_Z, tau)
    columns = np.unique(COLUMN_Z.real).size
    # each eigenvalue call follows a failed gate and values a whole column
    assert 0 < calls["eig"] <= calls["gate"] <= columns
    assert calls["eig"] >= np.unique(COLUMN_Z.real[np.isfinite(out)]).size
    assert calls["gate"] + calls["eig"] < COLUMN_Z.size // 4
    # without tau every column is valued once and no point is gated
    calls.update(gate=0, eig=0)
    K.sigma_min_sweep(gb, sl, su, COLUMN_Z)
    assert calls == {"gate": 0, "eig": columns}


@pytest.mark.parametrize("name, T", _hermitian_cases())
def test_column_fold_bits_ignore_chunks_and_threads(name, T):
    gb, sl, su, bw = _bands_of(name, T)
    bands = (gb, sl, su, bw, T.shape[0])
    for tau in (None, 0.8):
        runs = [_sweep_threaded(bands, COLUMN_Z, threads, tau, chunk)
                for chunk in (1, 7, 512) for threads in (1, 8)]
        # 13-point columns straddle the 7-point chunks
        assert all(np.array_equal(run, runs[0]) for run in runs[1:])
        assert np.array_equal(runs[0], K.sigma_min_sweep(gb, sl, su, COLUMN_Z, tau))


# -- bisection on long bands ----------------------------------------------------


def _long_cases():
    """(name, T) of order 401 and bandwidth 1, so G(z) has kd = 2 and
    n^2 kd = 321,602 >= BISECTION_WORK: min_eig_banded bisects. Two
    Hermitian slices (real symmetric, complex) take the column path; a
    general complex T takes the per-point path."""
    return [("real", real_symmetric(401, 1, seed=7)),
            ("complex", banded_random(401, 1, seed=7, hermitian=True)),
            ("general", banded_random(401, 1, seed=7))]


def _long_bands(name, T):
    gb, sl, su, bw = pack_sweep_inputs(T, 1)
    if name == "real":
        gb, sl, su = gb.real, sl.real, su.real
    assert T.shape[0] ** 2 * bw >= K.BISECTION_WORK
    return gb, sl, su, bw


def _gershgorin(base):
    """The largest absolute row sum of a band in lower storage."""
    n = base.shape[1]
    rows = np.abs(base[0]).astype(float)
    for k in range(1, base.shape[0]):
        rows[k:] += np.abs(base[k, : n - k])
        rows[: n - k] += np.abs(base[k, : n - k])
    return rows.max()


def _bisected(monkeypatch):
    """Count min_eig_banded's calls that bisect."""
    calls = []
    bisect = K._bisect_min_eig

    def wrapped(ab):
        calls.append(ab.dtype.type)
        return bisect(ab)

    monkeypatch.setattr(K, "_bisect_min_eig", wrapped)
    return calls


@pytest.mark.parametrize("name, T", _long_cases())
def test_bisection_brackets_the_lapack_value(name, T, monkeypatch):
    # the value is the upper end of a bracket of width max(1e-10 value,
    # 8 eps g) around the smallest eigenvalue, both ends up to the rounding
    # of one factorisation, and the band is left untouched
    gb, sl, su, bw = _long_bands(name, T)
    calls = _bisected(monkeypatch)
    eps = np.finfo(np.float64).eps
    for z in MIXED_Z:
        base = _shifted_gram(gb, sl, su, z)
        ref = scipy.linalg.eigvals_banded(base, lower=True, select="i",
                                          select_range=(0, 0))[0]
        slack = 8 * eps * _gershgorin(base)
        kept = base.copy()
        got = K.min_eig_banded(base)
        assert np.array_equal(base, kept)
        assert ref - slack <= got <= ref + max(1e-10 * ref, slack) + slack
    assert calls == [np.float64 if name == "real" else np.complex128] * MIXED_Z.size


@pytest.mark.parametrize("name, T", _long_cases())
def test_bisection_gate_keeps_cloud_values(name, T):
    # the bracket never depends on tau, so the gate leaves every value at or
    # below tau bit for bit
    gb, sl, su, bw = _long_bands(name, T)
    zs = (np.linspace(-3.0, 3.0, 13)[:, None]
          + 1j * np.linspace(-1.0, 1.0, 5)[None, :]).reshape(-1)
    full = K.sigma_min_sweep(gb, sl, su, zs)
    s = np.sort(full)
    k = s.size // 4 + np.argmax(np.diff(s[s.size // 4:]) > 1e-6)
    tau = 0.5 * (s[k] + s[k + 1])
    gated = K.sigma_min_sweep(gb, sl, su, zs, tau)
    low = full <= tau
    assert 0 < low.sum() < zs.size
    assert np.array_equal(gated[low], full[low])
    assert np.array_equal(np.isinf(gated), ~low)


@pytest.mark.parametrize("name, T", _long_cases()[:2])
def test_bisection_column_fold_matches_per_point_path(name, T):
    # on the real axis a real symmetric slice bisects the same matrix on
    # both paths; off it, G(x) + y^2 I and G(x) are bisected apart, so the
    # squares agree to the stop width, not to rounding
    gb, sl, su, bw = _long_bands(name, T)
    folded = K.sigma_min_sweep(gb, sl, su, COLUMN_Z)
    per_point = _per_point(gb, sl, su, COLUMN_Z)
    eps = np.finfo(np.float64).eps
    width = np.array([8 * eps * _gershgorin(_shifted_gram(gb, sl, su, z)) for z in COLUMN_Z])
    width = np.maximum(1e-10 * per_point ** 2, width) + width
    assert np.all(np.abs(folded ** 2 - per_point ** 2) <= width)
    if name == "real":
        axis = COLUMN_Z.imag == 0
        assert np.array_equal(folded[axis], per_point[axis])


@pytest.mark.parametrize("name, T", _long_cases())
def test_bisection_bits_ignore_chunks_and_threads(name, T):
    gb, sl, su, bw = _long_bands(name, T)
    bands = (gb, sl, su, bw, T.shape[0])
    zs = COLUMN_Z if name != "general" else COLUMN_Z[::4]
    for tau in (None, 0.8):
        runs = [_sweep_threaded(bands, zs, threads, tau, chunk)
                for chunk in (1, 7, 512) for threads in (1, 2)]
        assert all(np.array_equal(run, runs[0]) for run in runs[1:])


@pytest.mark.parametrize("where", ["diagonal", "band", "unused corner"])
def test_bisection_refuses_non_finite_bands(where, monkeypatch):
    # checked once per matrix, before the first factorisation; the sweep
    # refuses such a band with ValueError on every lane
    calls = _bisected(monkeypatch)
    for name, T in _long_cases():
        gb, sl, su, bw = _long_bands(name, T)
        base = _shifted_gram(gb, sl, su, 0.5 + 0.25j)
        row, col = {"diagonal": (0, 200), "band": (2, 10), "unused corner": (2, -1)}[where]
        base[row, col] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            K.min_eig_banded(base)
        gb[row, col] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            K.sigma_min_sweep(gb, sl, su, MIXED_Z)
    assert calls == []
