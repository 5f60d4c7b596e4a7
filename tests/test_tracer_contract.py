"""The benchmark's tracer (perfbench/tracing.py) hooks package functions by
name and reads their arguments' attributes. These tests run it on small
in-process jobs, so a change that removes a module or member it relies
on fails here rather than only in a traced benchmark run."""

import importlib.util
import pathlib

import numpy as np

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

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
# hooks of functions the package no longer has; the tracer skips them
RETIRED_HOOKS = {
    "phom.homology.betti_numbers",
    "phom.homology.build_boundary_matrix",
    "phom.persistence.build_boundary_matrix",
}
EPS, MAX_DIM = 0.6, 2


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_job(tmp_path, command, *flags):
    """Run `phom <command> points.csv <flags>` under the tracer on a small
    cloud; return the job's counts and its filtration, built again."""
    points = tmp_path / "points.csv"
    phom.write_point_csv(phom.gen_fibonacci_sphere(60), points)
    tracer = load_tracing().Tracer()
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
    tracer = load_tracing().Tracer()
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
