"""Self-checks of the benchmark itself. Run from the root of a checkout:

  python3 perfbench/selftest.py

1. Seed invariance: on both point workloads, seed 0 (generator order) and
   a permuted seed give byte-identical job output. This guards the inputs
   against a generator or permutation bug.
2. Exact counts: two traced runs of each workload report identical count
   metrics. Counts are the only figures a change may cite as exact.

Prints one PASS/FAIL line per check; exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import phom.cli  # noqa: E402

import workloads  # noqa: E402

PERMUTED_SEED = 7


def _job_bytes(name: str, seed: int) -> bytes:
    workdir = os.path.join(ROOT, ".perfbench", f"selftest-{name}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workloads.make_inputs(name, seed, workdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = phom.cli.main(workloads.job_argv(name, workdir))
    if code != 0:
        return b"exit %d" % code
    if name == "msd2-persist":
        with open(os.path.join(workdir, "bars.csv"), "rb") as fh:
            return fh.read()
    return out.getvalue().encode()


def _traced_counts(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    failures = 0
    for name in workloads.POINT_WORKLOADS:
        same = _job_bytes(name, 0) == _job_bytes(name, PERMUTED_SEED)
        print(f"{'PASS' if same else 'FAIL'} seed invariance {name} (seeds 0, {PERMUTED_SEED})")
        failures += not same
    for name in workloads.WORKLOADS:
        first, second = _traced_counts(name), _traced_counts(name)
        same = first == second
        print(f"{'PASS' if same else 'FAIL'} counts repeat {name}: {json.dumps(first)}")
        failures += not same
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
