"""phom benchmark: run one workload and print its metrics as one JSON line.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload msd2-persist --seed 0 --seconds 25 --trace 0

Workloads: msd2-persist, latlon-betti, wasserstein-synth (see
perfbench/README.md for why each was chosen). Every child process imports
phom from the checkout's own src/, never from an installed copy.

With --trace 0 the run measures end-to-end metrics with tracing off: the
median job time, the workload process's peak RSS, the median set-up time
over several fresh processes, and the share of jobs that passed their
check. With --trace 1 it reports the per-layer metrics from a traced run
and a separate tracemalloc pass.

Each workload runs in its own child process, so peak memory is per
workload. Jobs run one at a time and numeric libraries are held to one
thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("msd2-persist", "latlon-betti", "wasserstein-synth")
SETUP_SAMPLES = 5  # fresh processes whose set-up time gives setup_s
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _child(role: str, args, workdir: str, deadline: float, extra=()) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), role,
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir,
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} process ran past the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(setups: list[float], run: dict, failed: int) -> dict:
    jobs = run["jobs"]
    return {
        "job_s": (statistics.median(j["wall"] for j in jobs), "s"),
        "peak_rss_mib": (run["peak_rss_kib"] / 1024.0, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_rate": ((len(jobs) - failed) / len(jobs), "ratio"),
    }


def _per_layer(run: dict) -> dict:
    times = run["layer_times"]
    counts = run["layer_counts"][0]
    out = {name: (statistics.median(t[name] for t in times), "s") for name in times[0]}
    out.update({name: (value, "count") for name, value in counts.items()})
    bars = counts["persistence.bars"]
    useful = bars - counts["persistence.artifact_bars"]
    out["persistence.useful_bar_ratio"] = (useful / bars if bars else 0.0, "ratio")
    out["wasserstein.cost_bytes"] = (8 * counts["wasserstein.cost_cells"], "B")
    for name, value in run["memory"].items():
        out[name] = (value, "B")
    walls = {kind: [j["wall"] for j in run["jobs"] if j["kind"] == kind] for kind in ("plain", "traced")}
    out["trace.overhead_ratio"] = (
        statistics.median(walls["traced"]) / statistics.median(walls["plain"]), "ratio"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "phom", "__init__.py")):
        print(f"error: no phom sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_child("setup", args, workdir, deadline)["setup_s"])
        run = _child(
            "run", args, workdir, deadline,
            ("--seconds", str(args.seconds), "--trace", str(args.trace)),
        )
        setups.append(run["setup_s"])
        with open(os.path.join(workdir, "run.json"), "w") as fh:
            json.dump(run, fh)
        verdict = _child("verify", args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = list(verdict["problems"])
    if args.trace:
        if any(c != run["layer_counts"][0] for c in run["layer_counts"]):
            problems.append("counts differ between traced jobs")
        if run["missing_hooks"]:
            print(f"warning: not traced: {', '.join(run['missing_hooks'])}", file=sys.stderr)
    failed = sum(not ok for ok in verdict["job_ok"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = _per_layer(run)
    else:
        metrics = _end_to_end(setups, run, failed)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(run["jobs"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
