"""One benchmark process. run.py starts it in three roles:

  setup   import phom, generate one workload's inputs and write them;
          print the set-up time.
  run     set up, then run jobs (each one in-process `phom.cli.main`
          call) for the given seconds; print their times and outputs.
  verify  recompute, outside phom's timed path, the values jobs are
          checked against: simplex counts from `phom vr`, and the
          Wasserstein distance from numpy and scipy.

Results go to stdout as one JSON line. Only the standard library is
imported before the set-up timer starts, so the timer covers importing
phom together with numpy and scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_JOBS = 3


def _setup(workload: str, seed: int, workdir: str) -> float:
    start = time.perf_counter()
    import phom.cli  # noqa: F401  (part of what is timed)

    import workloads

    workloads.make_inputs(workload, seed, workdir)
    return time.perf_counter() - start


def _cli_call(argv: list[str]):
    """Return a function that runs `phom <argv>` and gives (exit code, stdout)."""
    import phom.cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = phom.cli.main(argv)
        except Exception:
            # a crash is a failed job, not the end of the run
            traceback.print_exc()
            code = -1
        return code, out.getvalue()

    return call


def _run(args) -> dict:
    import workloads

    call = _cli_call(workloads.job_argv(args.workload, args.workdir))
    jobs = []

    def record(kind: str, wall: float, code: int, stdout: str) -> None:
        output = workloads.job_output(args.workload, args.workdir, stdout) if code == 0 else ""
        jobs.append({"kind": kind, "wall": wall, "code": code, "output": output})
        gc.collect()

    result: dict = {"jobs": jobs}
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        while True:
            start = time.perf_counter()
            code, stdout = call()
            record("plain", time.perf_counter() - start, code, stdout)
            typical = statistics.median(j["wall"] for j in jobs)
            if len(jobs) >= MIN_JOBS and time.perf_counter() + typical > deadline:
                break
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result

    import tracing

    tracer = tracing.Tracer()
    layer_times, layer_counts = [], []
    start = time.perf_counter()
    (code, stdout), memory = tracing.memory_pass(call)
    record("memory", time.perf_counter() - start, code, stdout)
    # alternate untraced and traced jobs so both see the same conditions
    while True:
        start = time.perf_counter()
        code, stdout = call()
        record("plain", time.perf_counter() - start, code, stdout)
        job = len(layer_times)
        (code, stdout), counts = tracer.run_job(job, call)
        times = tracer.job_times(job)
        record("traced", times.pop("job_s"), code, stdout)
        layer_times.append(times)
        layer_counts.append(counts)
        pair = sum(j["wall"] for j in jobs[-2:])
        if len(layer_times) >= 2 and time.perf_counter() + pair > deadline:
            break
    result.update(
        layer_times=layer_times,
        layer_counts=layer_counts,
        memory=memory,
        missing_hooks=tracer.missing,
    )
    with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
        json.dump(tracer.spans, fh)
    return result


def _verify(args) -> dict:
    """Check every job of the run (from run.json) and the complex it built."""
    import workloads

    with open(os.path.join(args.workdir, "run.json")) as fh:
        run = json.load(fh)
    problems = []
    if args.workload in workloads.POINT_WORKLOADS:
        expected = workloads.SIMPLICES[args.workload]
        code, stdout = _cli_call(workloads.vr_argv(args.workload, args.workdir))()
        total = [ln for ln in stdout.splitlines() if ln.startswith("total: ")]
        built = int(total[0].split()[1]) if code == 0 and total else None
        traced = {c["vr.simplices"] for c in run.get("layer_counts", [])}
        if built != expected or traced - {expected}:
            problems.append(f"expected {expected} simplices, got {built} {sorted(traced)}")
        good = lambda out: out == workloads.EXPECTED_OUTPUT[args.workload]
    else:
        reference = workloads.reference_distance(args.workdir)
        good = lambda out: workloads.distance_matches(out, reference)
    job_ok = [job["code"] == 0 and good(job["output"]) for job in run["jobs"]]
    return {"job_ok": job_ok, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "run", "verify"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.role == "verify":
        result = _verify(args)
    else:
        setup_s = _setup(args.workload, args.seed, args.workdir)
        result = {"setup_s": setup_s}
        if args.role == "run":
            result.update(_run(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
