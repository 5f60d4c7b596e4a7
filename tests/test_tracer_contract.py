"""The benchmark's tracer (perfbench/tracing.py) hooks package functions by
name and reads their arguments' attributes. These tests run it on small
in-process jobs, so a change that removes a module or member it relies
on fails here rather than only in a traced benchmark run. The last test
runs each benchmark workload (perfbench/workloads.py) twice under the
tracer and makes the checks a traced benchmark run makes."""

import contextlib
import importlib.util
import io
import pathlib

import numpy as np
import pytest

import phom
import phom.persistence
import phom.wasserstein
from phom import (
    DIAMETER_EPS,
    MatchingProblem,
    build_vr,
    distance_matrix,
    intervals,
    read_barcode_csv,
    read_point_csv,
    reduce,
    wasserstein_p,
)
from phom.cli import main

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"
# hooks of functions the package no longer has; the tracer skips them
RETIRED_HOOKS = {
    "phom.homology.betti_numbers",
    "phom.homology.build_boundary_matrix",
    "phom.persistence.build_boundary_matrix",
}
EPS, MAX_DIM = 0.6, 2


def load_perfbench(name):
    """perfbench/<name>.py, loaded by path."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")


def traced_job(tmp_path, command, *flags):
    """Run `phom <command> points.csv <flags>` under the tracer on a small
    cloud; return the job's counts and its filtration, built again."""
    points = tmp_path / "points.csv"
    phom.write_point_csv(phom.gen_fibonacci_sphere(60), points)
    tracer = load_perfbench("tracing").Tracer()
    code, counts = tracer.run_job(0, lambda: main([command, str(points), *flags]))
    assert code == 0
    assert set(tracer.missing) <= RETIRED_HOOKS
    # every hook is taken out again when the job ends
    assert phom.persistence.reduce is reduce
    dm = distance_matrix(read_point_csv(points))
    return counts, build_vr(dm, EPS, MAX_DIM, edge_rule=DIAMETER_EPS)


def check_counts(counts, f):
    pairing = reduce(f)
    assert counts["vr.simplices"] == len(f)
    assert counts["persistence.columns"] == len(f)
    assert counts["persistence.pairs"] == len(pairing.pairs)
    assert counts["persistence.unpaired"] == len(pairing.unpaired)
    assert counts["persistence.bars"] == len(intervals(f))


def test_tracer_counts_persist_job(tmp_path):
    bars = tmp_path / "bars.csv"
    counts, f = traced_job(
        tmp_path, "persist", "--eps", str(EPS), "--max-dim", str(MAX_DIM),
        "--edge-rule", DIAMETER_EPS, "--out", str(bars),
    )
    check_counts(counts, f)
    assert bars.read_text().count("\n") == 1 + len(intervals(f))


def test_tracer_counts_betti_job(tmp_path, capsys):
    counts, f = traced_job(
        tmp_path, "betti", "--eps", str(EPS), "--max-k", str(MAX_DIM - 1),
        "--edge-rule", DIAMETER_EPS,
    )
    check_counts(counts, f)
    betti = phom.betti_numbers(f, EPS, MAX_DIM - 1)
    assert capsys.readouterr().out.strip() == "[" + ",".join(map(str, betti)) + "]"


def test_tracer_counts_compare_job(tmp_path, capsys, monkeypatch):
    # the tracer subclasses MatchingProblem and counts each cost's cells
    rng = np.random.default_rng(7)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, n in zip(paths, (40, 35)):
        rows = ["dim,birth,death", "0,0,inf"]
        bars = zip(rng.integers(0, 2, n), rng.uniform(0, 1, n), rng.uniform(0, 0.5, n))
        rows += [f"{dim},{birth:.9g},{birth + length:.9g}" for dim, birth, length in bars]
        path.write_text("\n".join(rows) + "\n")
    tracer = load_perfbench("tracing").Tracer()
    code, counts = tracer.run_job(0, lambda: main(["compare", *map(str, paths), "--p", "2"]))
    assert code == 0
    assert set(tracer.missing) <= RETIRED_HOOKS
    assert phom.wasserstein.MatchingProblem is MatchingProblem
    left, right = map(read_barcode_csv, paths)
    assert capsys.readouterr().out == f"d_Wp = {wasserstein_p(left, right, 2.0):.5g}\n"
    sizes = []

    class Recorded(MatchingProblem):
        def __post_init__(self):
            super().__post_init__()
            sizes.append(self.cost.size)

    monkeypatch.setattr(phom.wasserstein, "MatchingProblem", Recorded)
    wasserstein_p(left, right, 2.0)
    assert len(sizes) == 2  # one problem per dimension
    assert counts["wasserstein.cost_cells"] == sum(sizes)


def cli_call(argv):
    """Run `phom <argv>` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_workload_passes_the_benchmark_checks(tmp_path, name):
    # what perfbench/worker.py's verify role and perfbench/run.py check on
    # a traced run at seed 0: every job's output, equal counts across
    # traced jobs, and on points the full complex, as the traced
    # phom.vr.build_vr returned it and as `phom vr` counts it
    workdir = str(tmp_path)
    workloads.make_inputs(name, 0, workdir)
    if name in workloads.POINT_WORKLOADS:
        good = lambda out: out == workloads.EXPECTED_OUTPUT[name]
    else:
        reference = workloads.reference_distance(workdir)
        good = lambda out: workloads.distance_matches(out, reference)
    argv = workloads.job_argv(name, workdir)
    tracer = load_perfbench("tracing").Tracer()
    runs = []
    for job in range(2):
        (code, stdout), counts = tracer.run_job(job, lambda: cli_call(argv))
        assert code == 0
        assert good(workloads.job_output(name, workdir, stdout))
        runs.append(counts)
    assert runs[0] == runs[1]
    if name in workloads.POINT_WORKLOADS:
        simplices = workloads.SIMPLICES[name]
        assert runs[0]["vr.simplices"] == simplices
        code, stdout = cli_call(workloads.vr_argv(name, workdir))
        assert code == 0 and f"total: {simplices}" in stdout.splitlines()
