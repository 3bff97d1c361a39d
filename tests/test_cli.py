import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from jsonschema.validators import validator_for

from limitops import cli
from limitops.cli import (
    CONFIG_SCHEMA, TASK_SCHEMAS, _csv_rows, _dumps, _plain, full_schema, main,
)


Z1 = {"kind": "lattice", "dim": 1}
Z2 = {"kind": "lattice", "dim": 2}

PERIODIC_OP = {
    "kind": "sum",
    "terms": [
        {"kind": "laplacian"},
        {"kind": "multiplication",
         "field": {"type": "periodic", "values": [0.3, -0.4], "period": [2]}},
    ],
}

NU_GRID_CFG = {
    "space": Z1, "operator": PERIODIC_OP,
    "sequences": [{"v": [2], "label": "even"}],
    "task": {"method": "nuGrid", "windowRadius": 20, "pitch": 0.25,
             "zBox": [-3.0, 3.0, -1.0, 1.0], "tau": 0.1},
}

RANDOM_OP = {
    "kind": "sum",
    "terms": [
        {"kind": "laplacian"},
        {"kind": "multiplication", "field": {"type": "seededRandom"}},
    ],
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def payload_without_timings(text):
    data = json.loads(text)
    assert "timings" in data
    del data["timings"]
    return json.dumps(data, sort_keys=True)


# -- schema -------------------------------------------------------------------


def meta_check(schema):
    """Check ``schema`` against its metaschema, with the validator class the
    CLI builds for it. The CLI itself never does: its schemas are constants,
    so this check runs here, once, instead of in every CLI process."""
    validator_for(schema).check_schema(schema)


def test_print_schema_is_valid_jsonschema(capsys):
    code, out, _ = run(["--print-schema"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["schemaVersion"] == "1"
    assert set(blob["tasks"]) == set(TASK_SCHEMAS)
    schema = full_schema()
    for task, sch in [(None, schema["config"]), *schema["tasks"].items()]:
        meta_check(sch)
        assert type(cli._validator(task)) is validator_for(sch)


@pytest.mark.parametrize("where", ["properties", "$defs"])
def test_meta_check_rejects_a_broken_schema(where):
    broken = copy.deepcopy(CONFIG_SCHEMA)
    broken[where]["space"] = {"type": 5}
    with pytest.raises(jsonschema.SchemaError):
        meta_check(broken)


def test_subcommand_print_schema(capsys):
    code, out, _ = run(["geometry", "--print-schema"], capsys)
    assert code == 0
    assert json.loads(out)["config"] == CONFIG_SCHEMA


@pytest.mark.parametrize("argv", [["--print-schema"], ["geometry", "--print-schema"]])
def test_print_schema_bytes(capsys, argv):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == json.dumps(full_schema(), sort_keys=True, indent=2) + "\n"


def test_no_task_is_an_error(capsys):
    code, _, err = run([], capsys)
    assert code == 1
    assert "task" in err


def test_missing_config_is_an_error(capsys):
    code, _, err = run(["geometry"], capsys)
    assert code == 1
    assert "--config" in err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "bogus": 1})
    code, _, err = run(["geometry", "--config", cfg], capsys)
    assert code == 1
    assert "config rejected" in err


def test_bad_task_parameter_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"rMax": 0}})
    code, _, err = run(["geometry", "--config", cfg], capsys)
    assert code == 1
    assert "config rejected" in err
    assert "rMax" in err


@pytest.mark.parametrize("cfg, line", [
    # the first error jsonschema finds is the oneOf under "space"; the best
    # match is the leaf it contains
    ({"space": {"kind": "lattice", "dim": 0}, "sequences": [{"v": "x"}]},
     "config rejected at space/dim: 0 is less than the minimum of 1\n"),
    ({"space": Z1, "task": {"rMax": 0, "bogus": 1}},
     "config rejected: Additional properties are not allowed ('bogus' was unexpected)\n"),
])
def test_rejection_message_is_the_best_match(tmp_path, capsys, cfg, line):
    path = write_cfg(tmp_path, cfg)
    first = run(["geometry", "--config", path], capsys)
    second = run(["geometry", "--config", path], capsys)
    assert first == second == (1, "", line)


def test_unreadable_config_is_an_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(["geometry", "--config", str(bad)], capsys)
    assert code == 1
    assert "error" in err


def test_operator_required_for_operator_tasks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "sequences": [{"v": [1]}]})
    code, _, err = run(["limits", "--config", cfg], capsys)
    assert code == 1
    assert "operator" in err


# -- payloads ----------------------------------------------------------------


def test_geometry_payload(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z2, "task": {"rMax": 4}})
    code, out, _ = run(["geometry", "--config", cfg], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schemaVersion"] == "1"
    assert data["task"] == "geometry"
    assert data["result"]["profile"] == [[r, (2 * r + 1) ** 2] for r in range(1, 5)]
    assert data["resolved"]["seed"] == 0
    timings = data["timings"]
    assert set(timings) == {"totalSeconds", "validateSeconds", "taskSeconds"}
    for key in ("validateSeconds", "taskSeconds"):
        assert 0 <= timings[key] <= timings["totalSeconds"]


def test_geometry_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"rMax": 3}})
    code, out, _ = run(["geometry", "--config", cfg, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,count"
    assert lines[1:] == ["1,3", "2,5", "3,7"]


def test_covering_payload(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z2, "task": {"scopeRadius": 10, "r": 2}})
    code, out, _ = run(["covering", "--config", cfg], capsys)
    assert code == 0
    rep = json.loads(out)["result"]["report"]
    assert rep["ok"]
    assert rep["diam_ok"] and rep["neighbor_ok"]


@pytest.mark.parametrize("ncells_over_cap", [0, 1])
def test_covering_net_beyond_the_cap_is_flagged(tmp_path, capsys, monkeypatch,
                                                ncells_over_cap):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"scopeRadius": 12, "r": 1}})
    code, out, _ = run(["covering", "--config", cfg], capsys)
    assert code == 0
    full = json.loads(out)["result"]
    assert full["cells"] == 13 and "netOmitted" not in full
    monkeypatch.setattr(cli, "NET_CAP", full["cells"] - ncells_over_cap)
    code, out, _ = run(["covering", "--config", cfg], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    if ncells_over_cap:
        assert "net" not in res
        assert res.pop("netOmitted") == {"points": 13, "cap": 12}
        del full["net"]
    assert res == full


def test_partition_payload(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"variation": 0.5,
                                                     "scopeRadius": 40}})
    code, out, _ = run(["partition", "--config", cfg], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["pitch"] == 9
    assert res["support_diam"] == 16
    assert res["variation"] == 0.5


def test_limits_success_and_divergence_exit_codes(tmp_path, capsys):
    ok = write_cfg(tmp_path, {
        "space": Z1, "operator": PERIODIC_OP,
        "sequences": [{"v": [2], "label": "even"}],
    }, "ok.json")
    code, out, _ = run(["limits", "--config", ok], capsys)
    assert code == 0
    entry = json.loads(out)["result"]["limits"][0]
    assert entry["status"] == "limit"
    assert entry["exact"]

    bad = write_cfg(tmp_path, {
        "space": Z1, "operator": RANDOM_OP,
        "sequences": [{"v": [1]}],
        "task": {"budget": 256, "radii": [3, 6]},
    }, "bad.json")
    code2, out2, _ = run(["limits", "--config", bad], capsys)
    assert code2 == 2
    assert json.loads(out2)["result"]["limits"][0]["status"] == "divergent"


def test_fredholm_cli_end_to_end(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "space": Z1,
        "operator": {"kind": "shift", "v": [1]},
        "projection": {"predicate": {"type": "halfspace", "normal": [1],
                                     "threshold": 0}},
        "sequences": [{"v": [1], "label": "right"}, {"v": [-1], "label": "left"}],
        "task": {"schedule": [25, 50]},
    })
    code, out, _ = run(["fredholm", "--config", cfg], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "Fredholm-consistent"


@pytest.mark.parametrize("task, cfg", [
    ("partition", {"space": Z2, "task": {"variation": 0.5, "scopeRadius": 12}}),
    ("covering", {"space": Z2, "task": {"scopeRadius": 10, "r": 2}}),
    ("essential-spectrum", NU_GRID_CFG),
])
def test_csv_rows_match_json_payload(tmp_path, capsys, task, cfg):
    """CSV cells format the plain values of the result: each row equals the
    row rebuilt from the stdlib-parsed JSON payload of the same config. A
    list cell sorts its dict keys, as the JSON payload does."""
    path = write_cfg(tmp_path, cfg)
    code, text, _ = run([task, "--config", path], capsys)
    assert code == 0
    expected = list(_csv_rows(task, json.loads(text)["result"]))
    code, out, _ = run([task, "--config", path, "--format", "csv"], capsys)
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == len(expected) > 1
    assert rows == expected


def test_compactness_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "space": Z1,
        "operator": {"kind": "multiplication",
                     "field": {"type": "table",
                               "entries": [{"point": [0], "value": 2.0}]}},
        "sequences": [{"v": [1], "label": "right"}],
    })
    code, out, _ = run(["compactness", "--config", cfg, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sequence,maxLimitNorm,verdict"
    assert lines[1] == "right,0.0,compact-consistent"


def test_out_writes_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"rMax": 2}})
    dest = tmp_path / "report.json"
    code, out, _ = run(["geometry", "--config", cfg, "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["task"] == "geometry"


def test_unwritable_out_is_an_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z2, "task": {"rMax": 3}})
    dest = tmp_path / "missing" / "report.json"
    code, out, err = run(["geometry", "--config", cfg, "--out", str(dest)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(dest)!r}\n"


# -- cold start -----------------------------------------------------------------


def run_fresh(script, *argv):
    """Run ``script`` in a fresh interpreter that imports limitops from the
    tree under test; return what it prints, parsed as JSON."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_cli_import_leaves_scipy_unloaded():
    loaded = run_fresh("import json, sys, limitops.cli\n"
                       "print(json.dumps(sorted(m for m in sys.modules"
                       " if m.split('.')[0] == 'scipy')))")
    assert loaded == []


_LEAN_JOBS = [
    ("geometry", {"space": Z2, "task": {"rMax": 3}}),
    ("covering", {"space": Z2, "task": {"scopeRadius": 6, "r": 2}}),
    ("partition", {"space": Z1, "task": {"variation": 0.5, "scopeRadius": 20}}),
    ("bdo-diagnostic", {"space": Z1, "operator": RANDOM_OP,
                        "task": {"tGrid": [0.5, 0.25], "scopeRadius": 20}}),
]


def test_lapack_loads_on_first_use(tmp_path, capsys):
    """Jobs that factor no band matrix never load scipy.linalg; the first
    nuGrid job loads it and gives the in-process payload."""
    jobs = [*_LEAN_JOBS, ("essential-spectrum", NU_GRID_CFG)]
    calls = [(task, write_cfg(tmp_path, cfg, f"{i}.json"), str(tmp_path / f"{i}.out"))
             for i, (task, cfg) in enumerate(jobs)]
    steps = run_fresh(
        "import json, sys\n"
        "from limitops.cli import main\n"
        "steps = []\n"
        "for task, cfg, out in json.loads(sys.argv[1]):\n"
        "    code = main([task, '--config', cfg, '--out', out])\n"
        "    steps.append([task, code, 'scipy.linalg' in sys.modules])\n"
        "print(json.dumps(steps))\n",
        json.dumps(calls))
    lean = [[task, 0, False] for task, _ in _LEAN_JOBS]
    assert steps == lean + [["essential-spectrum", 0, True]]
    task, cfg, out = calls[-1]
    code, text, _ = run([task, "--config", cfg], capsys)
    assert code == 0
    assert payload_without_timings(Path(out).read_text()) == payload_without_timings(text)


# -- seeds and determinism ------------------------------------------------------


def test_seed_fills_unseeded_random_fields(tmp_path, capsys):
    cfg = {
        "space": Z1, "operator": RANDOM_OP,
        "sequences": [{"v": [1]}],
        "task": {"budget": 256, "radii": [3, 6]},
    }
    implicit = write_cfg(tmp_path, cfg, "implicit.json")
    explicit_cfg = json.loads(json.dumps(cfg))
    explicit_cfg["operator"]["terms"][1]["field"]["seed"] = 9
    explicit = write_cfg(tmp_path, explicit_cfg, "explicit.json")

    _, out_a, _ = run(["limits", "--config", implicit, "--seed", "9"], capsys)
    _, out_b, _ = run(["limits", "--config", explicit, "--seed", "9"], capsys)
    assert payload_without_timings(out_a) == payload_without_timings(out_b)
    assert json.loads(out_a)["resolved"]["config"]["operator"]["terms"][1][
        "field"]["seed"] == 9

    _, out_c, _ = run(["limits", "--config", implicit, "--seed", "10"], capsys)
    assert payload_without_timings(out_a) != payload_without_timings(out_c)


SPECTRUM_CFG = {
    "space": Z1,
    "operator": PERIODIC_OP,
    "sequences": [{"v": [2], "label": "even"}],
    "task": {
        "method": "nuGrid", "windowRadius": 50, "pitch": 0.1,
        "zBox": [-3.0, 3.0, -1.0, 1.0], "tau": 0.1,
    },
}


def test_repeated_runs_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SPECTRUM_CFG)
    _, a, _ = run(["essential-spectrum", "--config", cfg, "--seed", "3"], capsys)
    _, b, _ = run(["essential-spectrum", "--config", cfg, "--seed", "3"], capsys)
    assert payload_without_timings(a) == payload_without_timings(b)


def test_thread_count_does_not_change_bytes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SPECTRUM_CFG)
    _, a, _ = run(["essential-spectrum", "--config", cfg, "--threads", "1"], capsys)
    _, b, _ = run(["essential-spectrum", "--config", cfg, "--threads", "8"], capsys)
    assert payload_without_timings(a) == payload_without_timings(b)
    cloud = json.loads(a)["result"]["unionCloud"]
    assert len(cloud) > 0


# Payload bytes, less the trailing "timings" block, as the writer gave them
# when these hashes were taken; byte identity is checked on every Python the
# CI matrix runs.
_GRID_ADJ = {str(i * 7 + j): [a * 7 + b for a, b in ((i - 1, j), (i + 1, j), (i, j - 1),
                                                     (i, j + 1))
                              if 0 <= a < 6 and 0 <= b < 7]
             for i in range(6) for j in range(7)}
_GOLDEN = [
    ("partition", {"space": {"kind": "lattice", "dim": 2, "basepoint": [-7, 3]},
                   "task": {"variation": 0.5, "scopeRadius": 30}},
     "f0e09261cd5f88901eae32bcca65c520af3bf888497b975564287b8d9cfcfa4d"),
    ("partition", {"space": {"kind": "lattice", "dim": 1, "fiber": 3},
                   "task": {"variation": 0.3, "scopeRadius": 25}},
     "e28892fcf5e5fe4f4985e8835c999756ff57beceb869dfbf2733620c02c9704c"),
    ("covering", {"space": Z2, "task": {"scopeRadius": 10, "r": 2, "center": [-3, 4]}},
     "3b623b7b563fe13c91e84650026bca311513b19748d20a0ba29b3456d5514fdd"),
    ("covering", {"space": {"kind": "graph", "adjacency": _GRID_ADJ, "basepoint": 17},
                  "task": {"scopeRadius": 6, "r": 1}},
     "ccd9a236109b36969d1a1c78d574887e6a2607d3d4452e1dae1f457b24ac71d4"),
    ("geometry", {"space": {"kind": "lattice", "dim": 3, "metric": "l1"},
                  "task": {"rMax": 5, "probeCenter": [2, -1, 4]}},
     "bd11e92cda76b1b6ba94e2d9ebfb2b8eeb6fd49121309859ded08745dc9c719d"),
]


@pytest.mark.parametrize("task, cfg, digest", _GOLDEN,
                         ids=["partition-z2", "partition-z1-fiber", "covering-z2",
                              "covering-grid-graph", "geometry-z3-l1"])
def test_payload_bytes_are_pinned(tmp_path, capsys, task, cfg, digest):
    code, out, _ = run([task, "--config", write_cfg(tmp_path, cfg)], capsys)
    assert code == 0
    head = out[: out.index(',\n  "timings": {')]
    assert hashlib.sha256(head.encode()).hexdigest() == digest


# -- payload writer -------------------------------------------------------------

_ARRAY_DTYPES = (np.bool_, np.int8, np.int64, np.uint64, np.float16, np.float32,
                 np.float64, np.complex128)
_ARRAYS = st.one_of(
    st.sampled_from(_ARRAY_DTYPES).flatmap(lambda dt: hnp.arrays(
        dt, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))),
    st.sampled_from([np.int64, np.float64]).map(lambda dt: np.empty((0, 2), dt)),
)


def _pool(dtype, values, nan_bits=()):
    """Values of one dtype plus NaNs with the given bit patterns."""
    vals = np.array(values, dtype=dtype)
    nans = np.array(nan_bits, dtype=f"u{vals.itemsize}").view(vals.dtype)
    return np.concatenate([vals, nans])


# few distinct entries, so arrays repeat them: 0.0 beside -0.0, NaNs that
# differ in sign and payload bits, infinities, subnormals, big uint64s
_POOLS = (
    _pool(np.float64, [0.0, -0.0, np.inf, -np.inf, 5e-324, 0.1, -2.5],
          [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001]),
    _pool(np.float32, [0.0, -0.0, np.inf, -np.inf, 1e-45, 0.1],
          [0x7FC00000, 0xFFC00001, 0x7F800001]),
    _pool(np.float16, [0.0, -0.0, np.inf, -np.inf, 6e-08, 0.1], [0x7E00, 0xFE01, 0x7C01]),
    _pool(np.uint64, [0, 1, 2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1]),
)
_POOLED_ARRAYS = st.sampled_from(_POOLS).flatmap(lambda pool: hnp.arrays(
    np.intp, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.integers(0, pool.size - 1)).map(pool.__getitem__))
_NUMPY_SCALARS = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.complex_numbers().map(np.complex128),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2 ** 63, 2 ** 80), st.integers(-2 ** 80, -2 ** 63),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(), st.complex_numbers(), _NUMPY_SCALARS, _ARRAYS, _POOLED_ARRAYS,
)
_KEYS = st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans(),
                  st.none())
_PAYLOADS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4),
), max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
@example(np.full((2, 0, 3), 1.0))
@example(np.array([0.0, -0.0, 0.0, -0.0]))
@example(np.arange(24).reshape(2, 3, 4))
@example({"a": [np.array([[np.nan, -0.0], [np.inf, -np.inf]]), (1, "é\n")]})
@example({1: np.array([[1 + 2j, 3.0], [complex(np.nan, 1), -0.0]]), (2,): np.array(2.5),
          None: np.array([[True], [False]]), 2.5: np.float32(0.1)})
def test_writer_matches_stdlib(obj):
    assert _dumps(obj) == json.dumps(_plain(obj), sort_keys=True, indent=2)


def test_writer_rejects_what_json_rejects():
    for obj in ({"a": object()}, [{1, 2}]):
        with pytest.raises(TypeError):
            json.dumps(_plain(obj))
        with pytest.raises(TypeError):
            _dumps(obj)
