import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import limitops
from limitops import _kernels as K


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


def test_sweep_lanes_agree():
    T = banded_random(50, 3, seed=9)
    gb, sl, su, bw = pack_sweep_inputs(T, 3)
    start = (np.cos(0.9 * np.arange(50) + 0.7) + 0.1).astype(np.complex128)
    via_dispatch = K.sigma_min_sweep(gb, sl, su, MIXED_Z, bw)
    py_out, _ = K._sweep_row_py(gb, sl, su, MIXED_Z, bw, 25, 1e-7, start.copy())
    assert np.allclose(via_dispatch, py_out, rtol=1e-9, atol=1e-12)


def test_greedy_net_lanes_agree_bitwise(z2):
    pts = z2.ball((0, 0), 9)
    for sep in (1.0, 2.0, 3.5):
        a = K.greedy_net(pts, sep, 0, 2, 1)
        b = K.greedy_net_py(pts, sep, 0, 2, 1)
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_greedy_net_matches_bruteforce(z2_l1):
    pts = z2_l1.ball((0, 0), 6)
    sep = 3.0
    mask = np.asarray(K.greedy_net(pts, sep, 1, 2, 1), dtype=bool)
    kept = []
    for i, p in enumerate(pts):
        ok = all(z2_l1.dist(tuple(p), tuple(pts[j])) >= sep for j in kept)
        assert mask[i] == ok
        if ok:
            kept.append(i)


def test_cell_scan_lanes_agree(z2):
    pts = z2.ball((0, 0), 5)
    rng = np.random.default_rng(0)
    ncells = 7
    cell_of = rng.integers(0, ncells, size=pts.shape[0])
    a_adj, a_diam = K.cell_scan(pts, cell_of, ncells, 2.0, 0, 2, 1)
    b_adj, b_diam = K.cell_scan_py(pts, cell_of, ncells, 2.0, 0, 2, 1)
    assert np.array_equal(np.asarray(a_adj), np.asarray(b_adj))
    assert np.array_equal(np.asarray(a_diam), np.asarray(b_diam))


def test_cell_scan_matches_bruteforce(z2):
    pts = z2.ball((0, 0), 4)
    rng = np.random.default_rng(1)
    ncells = 5
    cell_of = rng.integers(0, ncells, size=pts.shape[0])
    adj, diam = K.cell_scan(pts, cell_of, ncells, 3.0, 0, 2, 1)
    d = z2.dist_block(pts, pts)
    ref_adj = np.zeros((ncells, ncells), dtype=np.uint8)
    ref_diam = np.zeros(ncells)
    n = pts.shape[0]
    for i in range(n):
        for j in range(n):
            if d[i, j] <= 3.0:
                ref_adj[cell_of[i], cell_of[j]] = 1
            if cell_of[i] == cell_of[j]:
                ref_diam[cell_of[i]] = max(ref_diam[cell_of[i]], d[i, j])
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
    """Inputs of the sweep tests above, unpacked for ``_sweep_row_py``."""
    cases = []
    for hermitian in (False, True):
        T = banded_random(60, 2, seed=3, hermitian=hermitian)
        cases.append((*pack_sweep_inputs(T, 2), MIXED_Z.astype(np.complex128), 30))
    T = np.diag([1e-3, 1.001e-3, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]).astype(np.complex128)
    cases.append((*pack_sweep_inputs(T, 0), np.array([0.0 + 0.0j]), 30))
    return cases


def _run_sweep_py(gb, sl, su, bw, zs, maxit):
    start = (np.cos(0.9 * np.arange(gb.shape[1]) + 0.7) + 0.1).astype(np.complex128)
    return K._sweep_row_py(gb, sl, su, zs, bw, maxit, 1e-7, start)


def test_sweep_lapack_helpers_match_scipy_bitwise(monkeypatch):
    # the numpy lane calls LAPACK zpbtrf/zpbtrs directly; scipy's wrappers on
    # the same inputs must give the same bits, iterate included
    direct = [_run_sweep_py(*case) for case in _sweep_cases()]
    monkeypatch.setattr(K, "cholesky_banded", scipy.linalg.cholesky_banded)
    monkeypatch.setattr(K, "cho_solve_banded", scipy.linalg.cho_solve_banded)
    wrapped = [_run_sweep_py(*case) for case in _sweep_cases()]
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
        out, _ = _run_sweep_py(gb, sl, su, bw, zs, 30)
    if where.startswith("z="):
        assert out[0] == -1.0 and out[1] > 0.0
    else:
        assert np.all(out == -1.0)


def test_fallback_flag_subprocess():
    code = (
        "import json, numpy as np\n"
        "import limitops\n"
        "from limitops import _kernels as K\n"
        "assert not limitops.USING_NUMBA\n"
        "rng = np.random.default_rng(3)\n"
        "n, b = 40, 2\n"
        "T = np.zeros((n, n), dtype=np.complex128)\n"
        "for i in range(n):\n"
        "    for j in range(max(0, i-b), min(n, i+b+1)):\n"
        "        T[i, j] = rng.normal() + 1j*rng.normal()\n"
        "bw = 2*b\n"
        "G0 = T.conj().T @ T\n"
        "gb = np.zeros((bw+1, n), dtype=np.complex128)\n"
        "sl = np.zeros((bw+1, n), dtype=np.complex128)\n"
        "su = np.zeros((bw+1, n), dtype=np.complex128)\n"
        "for i in range(bw+1):\n"
        "    gb[i, :n-i] = np.diagonal(G0, -i)\n"
        "    sl[i, :n-i] = np.diagonal(T, -i)\n"
        "    su[i, :n-i] = np.diagonal(T, i)\n"
        "zs = np.array([0.0, 0.5, 2.0+0.0j, -1.7+0.3j])\n"
        "out = K.sigma_min_sweep(gb, sl, su, zs, bw)\n"
        "print(json.dumps([float(v) for v in out]))\n"
    )
    env = dict(os.environ, LIMITOPS_NO_NUMBA="1")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    fallback = np.array(json.loads(res.stdout), dtype=float)

    rng = np.random.default_rng(3)
    T = np.zeros((40, 40), dtype=np.complex128)
    for i in range(40):
        for j in range(max(0, i - 2), min(40, i + 2 + 1)):
            T[i, j] = rng.normal() + 1j * rng.normal()
    gb, sl, su, bw = pack_sweep_inputs(T, 2)
    here = K.sigma_min_sweep(gb, sl, su, np.array([0.0, 0.5, 2.0 + 0.0j, -1.7 + 0.3j]), bw)
    assert np.allclose(here, fallback, rtol=1e-9, atol=1e-12)


def _numba_imports():
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


# Runs with numba blocked: ``import numba`` raises ImportError once its
# sys.modules entry is None, which is the path a machine without numba takes.
_BLOCKED_NUMBA_RUN = """
import sys
sys.modules["numba"] = None
import numpy as np
import limitops
from limitops import _kernels as K
inp = np.load(sys.argv[1])
adj, diam = K.cell_scan(inp["pts"], inp["cell_of"], int(inp["ncells"]),
                        2.0, 0, 2, 1)
np.savez(sys.argv[2],
         using_numba=limitops.USING_NUMBA,
         net=K.greedy_net(inp["pts"], 2.0, 0, 2, 1),
         adj=adj, diam=diam,
         sweep=K.sigma_min_sweep(inp["gb"], inp["sl"], inp["su"], inp["zs"],
                                 int(inp["bw"])))
"""


def test_numba_lane_active_by_default(z2, tmp_path):
    # documented rule: LIMITOPS_NO_NUMBA forces the numpy lane; otherwise the
    # compiled lane is used exactly when numba imports
    if os.environ.get("LIMITOPS_NO_NUMBA", "") not in ("", "0"):
        assert not limitops.USING_NUMBA
    elif _numba_imports():
        assert limitops.USING_NUMBA
    else:
        assert not limitops.USING_NUMBA

    # the import-failure path, exercised on every machine
    pts = z2.ball((0, 0), 5)
    ncells = 7
    cell_of = np.random.default_rng(0).integers(0, ncells, size=pts.shape[0])
    T = banded_random(40, 2, seed=3)
    gb, sl, su, bw = pack_sweep_inputs(T, 2)
    zs = MIXED_Z.astype(np.complex128)
    np.savez(tmp_path / "in.npz", pts=pts, cell_of=cell_of, ncells=ncells,
             gb=gb, sl=sl, su=su, zs=zs, bw=bw)

    env = {k: v for k, v in os.environ.items() if k != "LIMITOPS_NO_NUMBA"}
    res = subprocess.run(
        [sys.executable, "-c", _BLOCKED_NUMBA_RUN,
         str(tmp_path / "in.npz"), str(tmp_path / "out.npz")],
        capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    out = np.load(tmp_path / "out.npz")
    assert not out["using_numba"]

    assert np.array_equal(out["net"], K.greedy_net_py(pts, 2.0, 0, 2, 1))
    ref_adj, ref_diam = K.cell_scan_py(pts, cell_of, ncells, 2.0, 0, 2, 1)
    assert np.array_equal(out["adj"], ref_adj)
    assert np.array_equal(out["diam"], ref_diam)
    start = (np.cos(0.9 * np.arange(40) + 0.7) + 0.1).astype(np.complex128)
    ref_sweep, _ = K._sweep_row_py(gb, sl, su, zs, bw, 25, 1e-7, start)
    assert np.allclose(out["sweep"], ref_sweep, rtol=1e-9, atol=1e-12)


# Runs the numba lane's source interpreted: a stand-in ``numba`` whose
# ``njit`` returns the function unchanged, so the lane's logic is checked on
# machines without numba too.
_INTERPRETED_NUMBA_RUN = """
import sys, types
stub = types.ModuleType("numba")
stub.njit = lambda *args, **kwargs: (lambda fn: fn)
sys.modules["numba"] = stub
import numpy as np
import limitops
from limitops import _kernels as K
inp = np.load(sys.argv[1])
bw = int(inp["bw"])
np.savez(sys.argv[2],
         using_numba=limitops.USING_NUMBA,
         bad_z=K.sigma_min_sweep(inp["gb"], inp["sl"], inp["su"], inp["zs"], bw),
         inf_pivot=K.sigma_min_sweep(inp["gb_inf"], inp["sl"], inp["su"],
                                     inp["zs"][2:], bw))
"""


def test_numba_lane_flags_non_finite_input(tmp_path):
    gb, sl, su, bw, _, _ = _sweep_cases()[0]
    zs = np.array([np.nan, np.inf, 0.5], dtype=np.complex128)
    gb_inf = gb.copy()
    gb_inf[0, -1] = np.inf
    np.savez(tmp_path / "in.npz", gb=gb, gb_inf=gb_inf, sl=sl, su=su, zs=zs, bw=bw)
    env = {k: v for k, v in os.environ.items() if k != "LIMITOPS_NO_NUMBA"}
    res = subprocess.run(
        [sys.executable, "-c", _INTERPRETED_NUMBA_RUN,
         str(tmp_path / "in.npz"), str(tmp_path / "out.npz")],
        capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    out = np.load(tmp_path / "out.npz")
    assert out["using_numba"]

    with np.errstate(invalid="ignore"):
        ref_bad_z, _ = _run_sweep_py(gb, sl, su, bw, zs, 25)
        ref_inf_pivot, _ = _run_sweep_py(gb_inf, sl, su, bw, zs[2:], 25)
    assert list(ref_bad_z[:2]) == [-1.0, -1.0] and ref_bad_z[2] > 0.0
    assert list(ref_inf_pivot) == [-1.0]
    assert np.allclose(out["bad_z"], ref_bad_z, rtol=1e-9, atol=1e-12)
    assert np.array_equal(out["inf_pivot"], ref_inf_pivot)
