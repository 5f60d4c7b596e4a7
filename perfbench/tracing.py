"""Spans and counts around the public functions of each phom layer.

Tracing replaces a function's name in the module that calls it, for the
duration of one job, so src/ stays untouched. Each span records its job,
name, start, end and parent. Counts are taken from the functions' return
values after the job has ended, so no span pays for them.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import Counter

import phom.geometry
import phom.homology
import phom.persistence
import phom.vr
import phom.wasserstein

# (module that looks the name up, attribute, span name)
HOOKS = (
    (phom.geometry, "read_point_csv", "geometry.read_point_csv"),
    (phom.geometry, "distance_matrix", "geometry.distance_matrix"),
    (phom.vr, "build_vr", "vr.build_vr"),
    (phom.homology, "betti_numbers", "homology.betti_numbers"),
    (phom.homology, "build_boundary_matrix", "homology.build_boundary_matrix"),
    (phom.persistence, "build_boundary_matrix", "homology.build_boundary_matrix"),
    (phom.persistence, "reduce", "persistence.reduce"),
    (phom.persistence, "intervals", "persistence.intervals"),
    (phom.persistence, "write_barcode_csv", "persistence.write_barcode_csv"),
    (phom.persistence, "read_barcode_csv", "persistence.read_barcode_csv"),
    (phom.wasserstein, "wasserstein_p", "wasserstein.wasserstein_p"),
)
ROOT = "cli.main"

# per-layer time metric -> (span name, "total" or "self")
TIME_METRICS = {
    "geometry.read_point_csv_s": ("geometry.read_point_csv", "total"),
    "geometry.distance_matrix_s": ("geometry.distance_matrix", "total"),
    "vr.build_vr_s": ("vr.build_vr", "total"),
    "homology.build_boundary_matrix_s": ("homology.build_boundary_matrix", "total"),
    "homology.betti_numbers_self_s": ("homology.betti_numbers", "self"),
    "persistence.reduce_s": ("persistence.reduce", "total"),
    "persistence.intervals_self_s": ("persistence.intervals", "self"),
    "persistence.write_barcode_csv_s": ("persistence.write_barcode_csv", "total"),
    "persistence.read_barcode_csv_s": ("persistence.read_barcode_csv", "total"),
    "wasserstein.cost_fill_s": ("wasserstein.MatchingProblem", "total"),
    "wasserstein.solve_s": ("wasserstein.MatchingProblem.solve", "total"),
    "wasserstein.wasserstein_p_self_s": ("wasserstein.wasserstein_p", "self"),
    "cli.self_s": (ROOT, "self"),
}
SIMPLEX_DIMS = range(5)
COUNT_METRICS = (
    "vr.simplices",
    *(f"vr.simplices.d{k}" for k in SIMPLEX_DIMS),
    "homology.boundary_nnz",
    "persistence.columns",
    "persistence.pairs",
    "persistence.unpaired",
    "persistence.zero_length_pairs",
    "persistence.bars",
    "persistence.artifact_bars",
    "wasserstein.cost_cells",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job = -1
        self._results: list[tuple[str, tuple, object]] = []
        self._counts: Counter = Counter()
        self.missing = [f"{m.__name__}.{a}" for m, a, _ in HOOKS if not hasattr(m, a)]

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = {"job": self._job, "name": name, "parent": parent, "start": time.perf_counter()}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self._span(name):
                result = fn(*args, **kwargs)
            self._results.append((name, args, result))
            return result

        return traced

    def _traced_matching_problem(self, base):
        tracer = self

        class TracedMatchingProblem(base):
            def __post_init__(self):
                with tracer._span("wasserstein.MatchingProblem"):
                    super().__post_init__()
                tracer._counts["wasserstein.cost_cells"] += int(self.cost.size)

            def solve(self):
                with tracer._span("wasserstein.MatchingProblem.solve"):
                    return super().solve()

        return TracedMatchingProblem

    def run_job(self, job: int, call):
        """Run call() as one traced job; return (result, counts)."""
        self._job = job
        self._results = []
        self._counts = Counter()
        present = [h for h in HOOKS if hasattr(h[0], h[1])]
        saved = [(m, a, getattr(m, a)) for m, a, _ in present]
        saved.append((phom.wasserstein, "MatchingProblem", phom.wasserstein.MatchingProblem))
        try:
            for module, attr, name in present:
                setattr(module, attr, self._wrap(getattr(module, attr), name))
            phom.wasserstein.MatchingProblem = self._traced_matching_problem(
                phom.wasserstein.MatchingProblem
            )
            with self._span(ROOT):
                result = call()
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
        counts = self._job_counts()
        self._results = []
        return result, counts

    def _job_counts(self) -> dict[str, int]:
        counts = self._counts
        for key in COUNT_METRICS:
            counts[key] += 0
        for name, args, result in self._results:
            if name == "vr.build_vr":
                counts["vr.simplices"] += len(result)
                for dim, n in result.counts_by_dim().items():
                    counts[f"vr.simplices.d{dim}"] += n
            elif name == "homology.build_boundary_matrix":
                counts["homology.boundary_nnz"] += sum(map(len, result.columns))
            elif name == "persistence.reduce":
                births = args[0].births
                counts["persistence.columns"] += args[0].n_columns
                counts["persistence.pairs"] += len(result.pairs)
                counts["persistence.unpaired"] += len(result.unpaired)
                counts["persistence.zero_length_pairs"] += sum(
                    1 for i, j in result.pairs if births[i] == births[j]
                )
            elif name == "persistence.intervals":
                max_dim = args[0].max_dim
                counts["persistence.bars"] += len(result)
                counts["persistence.artifact_bars"] += sum(
                    1 for iv in result if iv.dim >= max_dim
                )
        return dict(counts)

    def job_times(self, job: int) -> dict[str, float]:
        """Per-layer time metrics of one job, from its spans."""
        spans = [s for s in self.spans if s["job"] == job]
        total: Counter = Counter()
        child: Counter = Counter()
        for s in spans:
            dur = s["end"] - s["start"]
            total[s["name"]] += dur
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]
                child[parent["name"]] += dur
        out = {}
        for metric, (name, kind) in TIME_METRICS.items():
            out[metric] = total[name] - (child[name] if kind == "self" else 0.0)
        out["job_s"] = total[ROOT]
        return out


def memory_pass(call):
    """Run call() once under tracemalloc; return (result, metrics) with the
    bytes kept by build_vr and the peak of the whole job, each per simplex
    built. No spans are taken."""
    kept = []
    built = []
    original = phom.vr.build_vr

    def measured(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        f = original(*args, **kwargs)
        kept.append(tracemalloc.get_traced_memory()[0] - before)
        built.append(len(f))
        return f

    tracemalloc.start()
    try:
        phom.vr.build_vr = measured
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        phom.vr.build_vr = original
        tracemalloc.stop()
    simplices = sum(built)
    return result, {
        "vr.kept_bytes_per_simplex": sum(kept) / simplices if simplices else 0.0,
        "persistence.peak_bytes_per_simplex": peak / simplices if simplices else 0.0,
    }
