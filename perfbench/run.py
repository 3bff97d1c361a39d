"""limitops benchmark: run one workload of CLI jobs, check every payload
against an independent oracle, and print the metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the job list's
wall time, median over passes), ``setup_s`` (cold start of one CLI call,
median over runs), ``peak_rss_mb`` (of the process running the jobs) and
``pass_frac`` (one minus the share of failed jobs). ``wall_s`` and
``setup_s`` are in calibrated seconds, as if the core had run in its fast
mode throughout: the host-speed sampler of ``sampler.py`` runs on the jobs'
core all along, and each job's and set-up call's seconds are scaled by
REFERENCE_S over the mean of the samples taken while it ran (see
``calibrated``). ``--trace 1`` prints the per-layer metrics of traced
passes, in raw seconds, and the calibrated tracing overhead against
untraced passes of the same run.

The jobs run in one workload process (``worker.py``) that this process
drives job by job. This process, the workload process, the sampler and the
set-up calls all run on one core, with BLAS on one thread; only the
``--threads 2`` rerun gets every core. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A record of
the run (host, lane, git sha, seed, per-job rows with payload digests) goes
to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads BLAS

import numpy as np  # noqa: E402

from jobs import THREADED_JOB, WORKLOADS, jobs_for  # noqa: E402
from oracles import check  # noqa: E402
from sampler import REFERENCE_S  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 30
CHILD_TIMEOUT_S = 150
# The CLI's subcommands, listed here because this process never imports
# limitops: it must fail cleanly in a tree that lacks the program.
TASKS = ("geometry", "covering", "partition", "bdo-diagnostic", "limits",
         "compactness", "fredholm", "essential-spectrum", "ess-norm")
COMPUTED = {"kernels.chol.gflop", "kernels.chol_solve.gflop", "linalg.svd.gflop",
            "operator.block.mb"}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}
UNITS = {"s": "s", "calls": "count", "points": "count", "breakdowns": "count",
         "fails": "count", "gflop": "gflop", "grid_points": "count", "max_n": "count",
         "max_cols": "count", "exact": "count", "divergent": "count", "pairs": "count",
         "mb": "MB", "us_per_point": "us", "fold_ratio": "ratio", "cloud_ratio": "ratio",
         "threads2_over_1": "ratio", "payload_mb": "MB"}

# What a user pays on every CLI call: a fresh interpreter importing the CLI
# and validating a config against its published schema.
SETUP_SNIPPET = """
import json, sys
import jsonschema
from limitops.cli import full_schema
schema = full_schema()
with open(sys.argv[1]) as fh:
    cfg = json.load(fh)
jsonschema.validate(cfg, schema["config"])
jsonschema.validate(cfg.get("task", {}), schema["tasks"][sys.argv[2]])
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def stripped_digest(path):
    """sha256 of a payload file without its trailing ``timings`` block (the
    CLI writes sorted keys, so ``timings`` is the last top-level key)."""
    with open(path, "rb") as fh:
        data = fh.read()
    cut = data.rfind(b'\n  "timings": ')
    return hashlib.sha256(data[:cut] if cut >= 0 else data).hexdigest(), len(data)


def load_payload(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def measure_setup(root, config_path, task):
    """Start and end (``time.monotonic``) of SETUP_RUNS cold starts."""
    env = child_env(root)
    spans = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, config_path, task],
                                cwd=root, env=env)
        # A blocking wait: Popen.wait with a timeout polls in 50 ms steps.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        code = proc.wait()
        spans.append((t0, time.monotonic()))
        watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"set-up run exited with {code}")
    return spans


class Child:
    """A child process running one of this directory's scripts, talking
    through its standard input and output. A watchdog kills it at
    ``deadline`` (perf_counter seconds), so a hung child ends the run."""

    def __init__(self, root, script, deadline):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script)], cwd=root,
            env=child_env(root), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()),
                                        self.proc.kill)
        self.watchdog.start()

    def ask(self, **cmd):
        """Send one command to the workload process and read its answer."""
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def finish(self):
        """Close the child's input and read all it printed (the sampler's
        samples)."""
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        if self.proc.wait() != 0:
            raise RuntimeError(f"sampler exited with {self.proc.returncode}")
        return json.loads(out)

    def close(self):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


def run_passes(worker, plan, budget, label, traced=False):
    """Passes over the whole job list until the next pass would overrun
    ``budget`` seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_dir = os.path.join(plan["workdir"], f"{label}{len(passes)}")
        os.makedirs(pass_dir)
        if traced:
            worker.ask(op="layers")
        rows = []
        for i, job in enumerate(plan["jobs"]):
            out = os.path.join(pass_dir, f"{i:02d}-{job['name']}.json")
            rows.append(dict(worker.ask(op="job", argv=job["argv"], out=out), out=out))
        entry = {"rows": rows}
        if traced:
            entry["layers"] = worker.ask(op="layers")
        passes.append(entry)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def run_workload(root, plan, deadline):
    """Untraced passes, traced passes and the ``--threads 2`` rerun (on
    ``plan["all_cpus"]``), all in one workload process."""
    worker = Child(root, "worker.py", deadline)
    try:
        res = {"untraced": run_passes(worker, plan, plan["untraced_s"], "pass")}
        if plan["traced_s"] > 0:
            worker.ask(op="trace", on=True)
            res["traced"] = run_passes(worker, plan, plan["traced_s"], "traced", traced=True)
            worker.ask(op="trace", on=False)
        threaded = plan["threaded"]
        if threaded is not None:
            out = os.path.join(plan["workdir"], "threads2.json")
            job = plan["jobs"][threaded]
            worker.ask(op="cpus", cpus=plan["all_cpus"])
            res["threaded"] = dict(worker.ask(op="job", argv=job["argv"] + ["--threads", "2"],
                                              out=out), out=out)
        res.update(worker.ask(op="exit"))
        return res
    finally:
        worker.close()


def host_info(root, seed, lane):
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": lane.get("numpy"), "scipy": lane.get("scipy"), "blas": blas,
            "numba_lane": lane.get("numba"), "machine": platform.machine(),
            "git_sha": sha, "seed": seed}


def judge(jobs, untraced, traced, seed):
    """Oracle-check each job's first payload; every later pass, traced ones
    included, must repeat its bytes and exit code. Returns (job rows,
    failure count, attempted count)."""
    rows, failed, attempted = [], 0, 0
    rng = np.random.default_rng([seed, 99])
    for i, job in enumerate(jobs):
        runs = [p["rows"][i] for p in untraced + traced]
        first = runs[0]
        payload = load_payload(first["out"])
        reason = first["error"] or check(job, payload, first["code"], rng)
        digest, size = stripped_digest(first["out"]) if payload is not None else (None, 0)
        bad = int(reason is not None)
        for run in runs[1:]:
            same = (os.path.exists(run["out"])
                    and stripped_digest(run["out"])[0] == digest
                    and run["code"] == first["code"])
            bad += int(not same)
            if not same and reason is None:
                reason = "payload changed between passes"
        failed += bad
        attempted += len(runs)
        times = [r["seconds"] for r in runs]
        rows.append({"job": job.name, "task": job.task, "seconds": statistics.median(times[:len(untraced)]),
                     "pass_seconds": times[:len(untraced)],
                     "traced_seconds": times[len(untraced):],
                     "code": first["code"], "check": reason or "ok",
                     "payload_bytes": size, "sha256": digest})
        if reason is not None:
            print(f"FAIL {job.name}: {reason}", file=sys.stderr)
    return rows, failed, attempted


def layer_metrics(jobs, traced, untraced_wall, threads_ratio, samples):
    """Per-layer metrics: the median over traced passes of each pass's
    totals. Times are self times in seconds, except ``cli.task_s.*``, the
    whole CLI call per subcommand."""
    def one(p):
        lay = p["layers"]

        def s(key):
            return lay["self_s"].get(key, 0.0)

        def c(key):
            return lay["calls"].get(key, 0)

        def n(key):
            return lay["count"].get(key, 0.0)

        def hi(key):
            return lay["peak"].get(key, 0.0)

        points = n("kernels.sweep.points")
        grid = n("fredholm.nu_grid.grid_points")
        m = {
            "kernels.sweep.s": s("kernels.sweep"),
            "kernels.sweep.points": points,
            "kernels.sweep.us_per_point": 1e6 * s("kernels.sweep") / points if points else 0.0,
            "kernels.sweep.breakdowns": n("kernels.sweep.breakdowns"),
            "kernels.chol.calls": n("kernels.chol.calls"),
            "kernels.chol.fails": n("kernels.chol.fails"),
            "kernels.chol_solve.calls": n("kernels.chol_solve.calls"),
            "kernels.chol.gflop": n("kernels.chol.flop") / 1e9,
            "kernels.chol_solve.gflop": n("kernels.chol_solve.flop") / 1e9,
            "fredholm.nu_grid.s": s("fredholm.nu_grid"),
            "fredholm.nu_grid.grid_points": grid,
            # two passes per grid point (direct and adjoint) before folding
            "fredholm.nu_grid.fold_ratio": points / (2.0 * grid) if grid else 0.0,
            "fredholm.nu_grid.cloud_ratio":
                n("fredholm.nu_grid.cloud_points") / grid if grid else 0.0,
            "fredholm.banded_data.calls": c("fredholm.banded_data"),
            "fredholm.banded_data.s": s("fredholm.banded_data"),
            "fredholm.banded_data.max_n": hi("fredholm.banded_data.max_n"),
            "fredholm.symbol_spectrum.s": s("fredholm.symbol_spectrum"),
            "fredholm.floquet_spectrum.s": s("fredholm.floquet_spectrum"),
            "linalg.svd.calls": c("linalg.svd"),
            "linalg.svd.s": s("linalg.svd"),
            "linalg.svd.gflop": n("linalg.svd.flop") / 1e9,
            "operator.window_norm.calls": c("operator.window_norm"),
            "operator.window_norm.s": s("operator.window_norm"),
            "fredholm.lower_norm_window.calls": c("fredholm.lower_norm_window"),
            "fredholm.lower_norm_window.s": s("fredholm.lower_norm_window"),
            "fredholm.lower_norm_window.max_cols": hi("fredholm.lower_norm_window.max_cols"),
            "fredholm.invertibility_estimate.s": s("fredholm.invertibility_estimate"),
            "shifts.limit_operator.calls": c("shifts.limit_operator"),
            "shifts.limit_operator.s": s("shifts.limit_operator"),
            "shifts.limit_operator.exact": n("shifts.limit_operator.exact"),
            "shifts.limit_operator.divergent": n("shifts.limit_operator.divergent"),
            "shifts.conjugate.calls": c("shifts.conjugate"),
            "space.ball.calls": c("space.ball"),
            "space.ball.s": s("space.ball"),
            "space.build_covering.s": s("space.build_covering"),
            "space.covering_verify.s": s("space.covering_verify"),
            "space.build_partition.s": s("space.build_partition"),
            "space.partition_export.s": s("space.partition_export"),
            "kernels.greedy_net.s": s("kernels.greedy_net"),
            "kernels.greedy_net.points": n("kernels.greedy_net.points"),
            "kernels.cell_scan.s": s("kernels.cell_scan"),
            "kernels.cell_scan.pairs": n("kernels.cell_scan.pairs"),
            "operator.commutator_stack_norm.s": s("operator.commutator_stack_norm"),
            "operator.block.calls": c("operator.block"),
            "operator.block.s": s("operator.block"),
            "operator.block.mb": n("operator.block.bytes") / 1e6,
            "fields.eval.calls": c("fields.eval"),
            "fields.eval.s": s("fields.eval"),
            "cli.validate_s": s("cli.validate"),
            "cli.runner_s": s("cli.runner"),
            "cli.emit_s": s("cli.emit"),
            "cli.main_self_s": s("cli.main"),
            "cli.payload_mb": n("cli.payload_bytes") / 1e6,
        }
        for task in TASKS:
            m[f"cli.task_s.{task}"] = sum(
                r["seconds"] for job, r in zip(jobs, p["rows"]) if job.task == task)
        return m

    per_pass = [one(p) for p in traced]
    out = {k: statistics.median(pp[k] for pp in per_pass) for k in per_pass[0]}
    out["cli.threads2_over_1"] = threads_ratio
    out["trace.overhead_s"] = calibrated_wall(traced, samples) - untraced_wall
    return out


def calibrated(t0, t1, samples):
    """Calibrated seconds of the span from ``t0`` to ``t1``: its seconds
    times REFERENCE_S over the mean of the samples that started in it, or
    of all ``samples`` if none did. ``samples`` are ``sampler.py``'s
    ``[start, seconds]`` pairs, sorted by start."""
    starts = [t for t, _ in samples]
    inside = samples[bisect.bisect_left(starts, t0):bisect.bisect_right(starts, t1)]
    window = [s for _, s in inside or samples]
    return (t1 - t0) * REFERENCE_S * len(window) / sum(window)


def calibrated_wall(passes, samples):
    """Calibrated seconds to run the job list once: the median over passes
    of the sum of each job's calibrated seconds."""
    return statistics.median(sum(calibrated(r["t0"], r["t1"], samples) for r in p["rows"])
                             for p in passes)


def calibrated_setup(spans, samples):
    """Median over set-up runs of each run's calibrated seconds."""
    return statistics.median(calibrated(t0, t1, samples) for t0, t1 in spans)


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") or name.startswith("cli.task_s."):
        return "s"
    return UNITS[last]


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "limitops", "cli.py")):
        print("error: run from the root of a limitops checkout (src/limitops/cli.py "
              "not found)", file=sys.stderr)
        return 2
    jobs = jobs_for(args.workload, args.seed)
    work = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return run(args, root, work, jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root, work, jobs):
    configs = []
    for i, job in enumerate(jobs):
        path = os.path.join(work, f"{i:02d}-{job.name}.config.json")
        with open(path, "w") as fh:
            json.dump(job.config, fh)
        configs.append(path)
    names = [j.name for j in jobs]
    threaded = names.index(THREADED_JOB) if THREADED_JOB in names else None
    seconds = float(args.seconds)
    all_cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {all_cpus[-1]})  # children inherit the one core
    plan = {"workdir": work, "threaded": threaded, "all_cpus": all_cpus,
            "untraced_s": seconds / 2 if args.trace else seconds,
            "traced_s": seconds / 2 if args.trace else 0.0,
            "jobs": [{"name": j.name, "argv": j.argv(c)} for j, c in zip(jobs, configs)]}
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    sampler = Child(root, "sampler.py", deadline)
    try:
        res = run_workload(root, plan, deadline)
        setup_spans = [] if args.trace else measure_setup(root, configs[0], jobs[0].task)
        samples = sampler.finish()
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sampler.close()
    if not samples:
        print("error: the sampler took no samples", file=sys.stderr)
        return 1

    rows, failed, attempted = judge(jobs, res["untraced"], res.get("traced", []), args.seed)
    threads_ratio = 0.0
    if threaded is not None:
        t2 = res["threaded"]
        attempted += 1
        same = (t2["code"] == 0 and os.path.exists(t2["out"])
                and stripped_digest(t2["out"])[0] == rows[threaded]["sha256"])
        if not same:
            failed += 1
            print(f"FAIL {THREADED_JOB} --threads 2: payload differs from --threads 1",
                  file=sys.stderr)
        threads_ratio = t2["seconds"] / statistics.median(rows[threaded]["pass_seconds"])
        rows.append({"job": f"{THREADED_JOB}--threads2", "task": jobs[threaded].task,
                     "seconds": t2["seconds"], "code": t2["code"],
                     "check": "ok" if same else "payload differs from --threads 1",
                     "sha256": rows[threaded]["sha256"] if same else None})

    record = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
              "host": host_info(root, args.seed, res["lane"]),
              "passes": {"untraced": len(res["untraced"]),
                         "traced": len(res.get("traced", []))},
              "samples": {"count": len(samples), "reference_s": REFERENCE_S,
                          "median_s": statistics.median(s for _, s in samples)},
              "pass_calibrated_s": [calibrated_wall([p], samples) for p in res["untraced"]],
              "jobs": rows}
    untraced_wall = calibrated_wall(res["untraced"], samples)
    if args.trace:
        metrics = layer_metrics(jobs, res["traced"], untraced_wall, threads_ratio, samples)
    else:
        record["setup_runs_s"] = [t1 - t0 for t0, t1 in setup_spans]
        metrics = {"wall_s": untraced_wall,
                   "setup_s": calibrated_setup(setup_spans, samples),
                   "peak_rss_mb": res["peak_rss_mb"],
                   "pass_frac": 1.0 - failed / attempted}
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": E2E_UNITS.get(k) or unit_of(k)}
                       for k, v in metrics.items()}}
    record["result"] = out
    with open(os.path.join(root, OUT_DIR,
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for k, v in out["metrics"].items():
        note = " (computed from array shapes)" if k in COMPUTED else ""
        print(f"{args.workload:9s} {k:40s} {v['value']:14.6g} {v['unit']}{note}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
