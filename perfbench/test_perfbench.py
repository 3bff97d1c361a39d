"""Tests of the benchmark itself: deterministic job lists, oracles that
reject corrupted payloads, and a tracer that leaves limitops as it found it.

Run from the repository root: python3 -m pytest -q perfbench
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import jobs as J  # noqa: E402
import oracles as O  # noqa: E402
import run as R  # noqa: E402
from tracing import Tracer  # noqa: E402


def _job(workload, name, seed=3):
    return next(j for j in J.jobs_for(workload, seed) if j.name == name)


def _cli(job, tmp_path):
    from limitops.cli import main

    cfg = tmp_path / f"{job.name}.config.json"
    cfg.write_text(json.dumps(job.config))
    out = tmp_path / f"{job.name}.json"
    code = main(job.argv(str(cfg)) + ["--out", str(out)])
    return json.loads(out.read_text()), code, str(out)


# -- job lists ------------------------------------------------------------------


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_job_list_is_deterministic_per_seed(workload):
    a, b = J.jobs_for(workload, 7), J.jobs_for(workload, 7)
    assert a == b
    other = J.jobs_for(workload, 8)
    assert [(j.name, j.task) for j in other] == [(j.name, j.task) for j in a]
    assert [j.config for j in other] != [j.config for j in a]


def test_seed_varies_values_not_sizes():
    size_keys = ("windowRadius", "pitch", "zBox", "schedule", "radii", "scopeRadius",
                 "rMax", "variation", "scopeFactor", "thetaGrid", "tGrid")
    for workload in J.WORKLOADS:
        for a, b in zip(J.jobs_for(workload, 1), J.jobs_for(workload, 2)):
            ta, tb = a.config.get("task", {}), b.config.get("task", {})
            assert {k: ta.get(k) for k in size_keys} == {k: tb.get(k) for k in size_keys}


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        J.jobs_for("nope", 1)


# -- oracles reject corrupted payloads -----------------------------------------------


def _rejects(job, payload, code, corrupt):
    assert O.check(job, payload, code) is None
    bad = copy.deepcopy(payload)
    new_code = corrupt(bad["result"])
    assert O.check(job, bad, code if new_code is None else new_code) is not None


def test_verdict_oracle_rejects_flipped_verdict(tmp_path):
    job = _job("verdicts", "shift-not-compact")
    payload, code, _ = _cli(job, tmp_path)
    _rejects(job, payload, code,
             lambda r: r.update(verdict="compact-consistent"))


def test_cloud_oracle_rejects_shifted_cloud(tmp_path):
    job = _job("spectrum", "fibered")
    payload, code, _ = _cli(job, tmp_path)
    _rejects(job, payload, code, lambda r: r.update(
        unionCloud=[[re + 0.3, im] for re, im in r["unionCloud"]]))


def test_symbol_oracle_rejects_shifted_samples(tmp_path):
    job = _job("spectrum", "auto-symbol")
    payload, code, _ = _cli(job, tmp_path)
    _rejects(job, payload, code, lambda r: r.update(
        unionCloud=[[re, im + 0.05] for re, im in r["unionCloud"]]))


def test_limits_oracle_rejects_wrong_limit(tmp_path):
    job = _job("verdicts", "halfspace-limits-z2")
    payload, code, _ = _cli(job, tmp_path)

    def swap(r):
        r["limits"][0], r["limits"][2] = r["limits"][2], r["limits"][0]

    _rejects(job, payload, code, swap)


def test_divergence_oracle_rejects_a_reported_limit(tmp_path):
    job = _job("verdicts", "random-divergent")
    payload, code, _ = _cli(job, tmp_path)
    assert code == 2
    _rejects(job, payload, code, lambda r: 0)
    _rejects(job, payload, code, lambda r: r["limits"][0].update(status="limit"))


def test_ess_norm_oracle_rejects_inflated_lower_bound(tmp_path):
    job = _job("verdicts", "ess-norm-periodic")
    payload, code, _ = _cli(job, tmp_path)
    _rejects(job, payload, code, lambda r: r.update(lower=r["upper"] * 1.01))


@pytest.mark.parametrize("name", ["covering-grid-graph", "covering-z3-l1"])
def test_covering_oracle_rejects_broken_nets(tmp_path, name):
    job = _job("geometry", name)
    payload, code, _ = _cli(job, tmp_path)

    def drop_point(r):
        r["net"] = r["net"][1:]
        r["cells"] -= 1

    def crowd(r):
        first = r["net"][0]
        r["net"].append([first[0]] if len(first) == 1 and name.endswith("graph")
                        else [first[0] + 1] + first[1:])
        r["cells"] += 1

    _rejects(job, payload, code, drop_point)
    _rejects(job, payload, code, crowd)
    _rejects(job, payload, code, lambda r: r["report"].update(ok=False))


def test_partition_oracle_rejects_values_off_one(tmp_path):
    job = _job("geometry", "partition-z1")
    payload, code, _ = _cli(job, tmp_path)

    def scale(r):
        for t in r["tents"]:
            t["values"] = [v * 0.999 for v in t["values"]]

    _rejects(job, payload, code, scale)


def test_geometry_oracle_rejects_wrong_counts(tmp_path):
    for name in ("geometry-z3-l1", "geometry-grid-graph"):
        job = _job("geometry", name)
        payload, code, _ = _cli(job, tmp_path)
        _rejects(job, payload, code, lambda r: r["profile"][-1].__setitem__(1, 0))


def test_failed_exit_code_is_a_failure(tmp_path):
    job = _job("geometry", "bdo-z2-random-potential")
    payload, code, _ = _cli(job, tmp_path)
    _rejects(job, payload, code, lambda r: 1)
    assert O.check(job, None, 1) is not None


def test_reference_spectrum_of_the_laplacian():
    ref = J._reference({(1, 0): 1.0, (-1, 0): 1.0})
    spec = O.bloch_spectrum(ref, 64)
    assert np.allclose(np.sort(spec.real), np.sort(2 * np.cos(2 * np.pi * np.arange(64) / 64)))
    assert O.hausdorff(spec, spec + 0.5j) == pytest.approx(0.5)


# -- payload digests and the tracer ------------------------------------------------


def test_stripped_digest_ignores_timings(tmp_path):
    job = _job("geometry", "geometry-z3-l1")
    _, _, a = _cli(job, tmp_path)
    text = open(a).read()
    b = tmp_path / "b.json"
    b.write_text(text.replace('"totalSeconds": ', '"totalSeconds": 1'))
    assert R.stripped_digest(a)[0] == R.stripped_digest(str(b))[0]
    c = tmp_path / "c.json"
    c.write_text(text.replace('"rMax": 12', '"rMax": 13'))
    assert R.stripped_digest(a)[0] != R.stripped_digest(str(c))[0]


def test_calibrated_wall_is_the_median_pass_scaled_by_samples_taken_in_each_job():
    ref, slow = R.REFERENCE_S, 2 * R.REFERENCE_S
    samples = [[0.5, ref], [1.5, slow], [2.5, slow], [3.5, ref], [4.5, ref], [5.5, ref]]
    passes = [{"rows": [{"t0": 0.0, "t1": 1.0}, {"t0": 1.0, "t1": 3.0}]},  # 1 + 2/2
              {"rows": [{"t0": 3.0, "t1": 4.0}, {"t0": 4.0, "t1": 7.0}]},  # 1 + 3
              {"rows": [{"t0": 7.0, "t1": 8.0}, {"t0": 8.0, "t1": 8.5}]}]  # no samples
    assert R.calibrated_wall(passes, samples) == pytest.approx(2.0)
    mean = sum(s for _, s in samples) / len(samples)
    assert R.calibrated(7.0, 8.0, samples) == pytest.approx(R.REFERENCE_S / mean)


def test_calibrated_setup_is_the_median_run():
    samples = [[0.5, R.REFERENCE_S], [1.5, 4 * R.REFERENCE_S], [2.5, R.REFERENCE_S]]
    assert R.calibrated_setup([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)], samples) == 1.0


def test_sampler_samples_until_its_input_closes():
    root = os.path.dirname(HERE)
    sampler = R.Child(root, "sampler.py", R.time.perf_counter() + 60)
    try:
        R.time.sleep(0.3)
        samples = sampler.finish()
    finally:
        sampler.close()
    assert len(samples) >= 3
    assert all(t2 > t1 for (t1, _), (t2, _) in zip(samples, samples[1:]))
    assert all(0 < s < 0.1 for _, s in samples)


def test_worker_runs_jobs_on_command(tmp_path):
    job = _job("geometry", "geometry-grid-graph")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(job.config))
    plan = {"workdir": str(tmp_path), "threaded": None, "untraced_s": 0.0, "traced_s": 0.01,
            "jobs": [{"name": job.name, "argv": job.argv(str(cfg))}]}
    root = os.path.dirname(HERE)
    res = R.run_workload(root, plan, R.time.perf_counter() + 60)
    assert len(res["untraced"]) == len(res["traced"]) == 1
    row = res["traced"][0]["rows"][0]
    assert row["code"] == 0 and row["error"] is None
    assert res["traced"][0]["layers"]["calls"]["cli.main"] == 1
    assert O.check(job, json.loads(open(row["out"]).read()), row["code"]) is None
    assert res["peak_rss_mb"] > 0


def test_tracer_counts_and_restores(tmp_path):
    import limitops.fredholm
    import limitops.operator
    import limitops.shifts

    before = (limitops.operator.window_norm, limitops.shifts.window_norm,
              limitops.operator.BandOperator.block, np.linalg.svd)
    job = _job("verdicts", "decaying-compact-z1")
    tr = Tracer()
    tr.install()
    try:
        assert limitops.shifts.window_norm is not before[1]
        _, code, _ = _cli(job, tmp_path)
    finally:
        tr.remove()
    assert code == 0
    assert (limitops.operator.window_norm, limitops.shifts.window_norm,
            limitops.operator.BandOperator.block, np.linalg.svd) == before
    assert tr.calls["shifts.limit_operator"] == 2
    assert tr.calls["linalg.svd"] == tr.calls["operator.window_norm"] > 0
    assert tr.calls["cli.main"] == tr.calls["cli.runner"] == 1
    assert all(v >= 0 for v in tr.self_s.values())


def test_benchmark_refuses_a_tree_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert R.main(["--workload", "spectrum", "--seed", "1", "--seconds", "1"]) != 0


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    empty = [{"layers": {"self_s": {}, "calls": {}, "count": {}, "peak": {}}, "rows": []}]
    printed = R.layer_metrics([], empty, 0.0, 0.0, [[0.0, R.REFERENCE_S]])
    assert [m["name"] for m in bench["per_layer"]] == list(printed)
    assert all(m["unit"] == R.unit_of(m["name"]) for m in bench["per_layer"])
    assert {m["name"] for m in bench["end_to_end"]} == set(R.E2E_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(J.WORKLOADS)
