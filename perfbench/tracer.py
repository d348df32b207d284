"""Spans and DP counters recorded from outside the diskfvs package.

The tracer replaces public functions on the `diskfvs.solver` and
`diskfvs.decomposition` module objects with wrappers. `solve()` resolves
its callees through its own module globals, so wrapping them there sees
every call `solve()` makes; wrapping `validate_decomposition` on the
decomposition module also catches the two checks that
`decompose_unweighted` and `project` run internally.

Each span is (name, start, end, parent span index, solve id). Spans stay in
memory and are written as JSONL by `write_jsonl` when the run ends. Counter
work runs inside a `bench.counters` span so it is never billed to a layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module attribute on diskfvs.solver, span name); the span name carries the
# layer (module) where the function is defined
SOLVER_CALLEES = (
    ("solve", "solver.solve"),
    ("peel_degree_one", "graph.peel_degree_one"),
    ("count_high_degree", "graph.count_high_degree"),
    ("connected_components", "graph.connected_components"),
    ("induced_subgraph", "graph.induced_subgraph"),
    ("is_forest", "graph.is_forest"),
    ("greedy_partition", "partition.greedy_partition"),
    ("contract", "partition.contract"),
    ("blowup", "decomposition.blowup"),
    ("decompose_unweighted", "decomposition.decompose_unweighted"),
    ("project", "decomposition.project"),
    ("weighted_width", "decomposition.weighted_width"),
    ("make_nice", "decomposition.make_nice"),
    ("validate_decomposition", "decomposition.validate_decomposition"),
    ("dp_run", "solver.dp_run"),
    ("rank_reduce", "reduction.rank_reduce"),
    ("reconstruct", "solver.reconstruct"),
    ("min_fvs_bruteforce", "oracle.min_fvs_bruteforce"),
)
DECOMPOSITION_CALLEES = (
    ("validate_decomposition", "decomposition.validate_decomposition"),
)

# spans that fire on every workload at this commit; a rename that stops one
# from firing must fail the traced run instead of silently zeroing a layer
EXPECTED_SPANS = frozenset(
    name for _, name in SOLVER_CALLEES if name != "oracle.min_fvs_bruteforce"
)

COUNTER_SPAN = "bench.counters"

# per-layer metrics in report order: name -> unit
PER_LAYER_UNITS = {
    "geometry.random_udg.s": "s",
    "geometry.build_intersection_graph.s": "s",
    "graph.peel_degree_one.s": "s",
    "graph.connected_components.s": "s",
    "graph.induced_subgraph.s": "s",
    "graph.induced_subgraph.calls": "count",
    "graph.is_forest.s": "s",
    "graph.components": "count",
    "partition.greedy_partition.s": "s",
    "partition.contract.s": "s",
    "partition.classes": "count",
    "partition.selections": "count",
    "partition.selections_acyclic_ratio": "ratio",
    "decomposition.blowup.s": "s",
    "decomposition.decompose_unweighted.s": "s",
    "decomposition.project.s": "s",
    "decomposition.make_nice.s": "s",
    "decomposition.validate_decomposition.s": "s",
    "decomposition.validate_decomposition.calls": "count",
    "decomposition.weighted_width.max": "count",
    "decomposition.nice_nodes.introduce": "count",
    "decomposition.nice_nodes.forget": "count",
    "decomposition.nice_nodes.join": "count",
    "solver.solve.self_s": "s",
    "solver.dp_run.self_s": "s",
    "solver.work_units": "count",
    "solver.rows.introduce": "count",
    "solver.rows.forget": "count",
    "solver.rows.join": "count",
    "solver.rows.peak": "count",
    "solver.reconstruct.s": "s",
    "solver.budget_trips": "count",
    "reduction.rank_reduce.s": "s",
    "reduction.rows_in": "count",
    "reduction.rows_out": "count",
    "reduction.drop_ratio": "ratio",
    "oracle.min_fvs_bruteforce.calls": "count",
    "oracle.min_fvs_bruteforce.s": "s",
    "trace.traced_solves_per_s": "1/s",
    "trace.untraced_solves_per_s": "1/s",
}

# span name -> per-layer metric that takes the span's summed self time
SELF_TIME_METRICS = {
    "graph.peel_degree_one": "graph.peel_degree_one.s",
    "graph.connected_components": "graph.connected_components.s",
    "graph.induced_subgraph": "graph.induced_subgraph.s",
    "graph.is_forest": "graph.is_forest.s",
    "partition.greedy_partition": "partition.greedy_partition.s",
    "partition.contract": "partition.contract.s",
    "decomposition.blowup": "decomposition.blowup.s",
    "decomposition.decompose_unweighted": "decomposition.decompose_unweighted.s",
    "decomposition.project": "decomposition.project.s",
    "decomposition.make_nice": "decomposition.make_nice.s",
    "decomposition.validate_decomposition": "decomposition.validate_decomposition.s",
    "solver.solve": "solver.solve.self_s",
    "solver.dp_run": "solver.dp_run.self_s",
    "solver.reconstruct": "solver.reconstruct.s",
    "reduction.rank_reduce": "reduction.rank_reduce.s",
    "oracle.min_fvs_bruteforce": "oracle.min_fvs_bruteforce.s",
}
CALL_COUNT_METRICS = {
    "graph.induced_subgraph": "graph.induced_subgraph.calls",
    "decomposition.validate_decomposition": "decomposition.validate_decomposition.calls",
    "oracle.min_fvs_bruteforce": "oracle.min_fvs_bruteforce.calls",
}


class MissingSpanError(RuntimeError):
    """An expected span never fired during a traced run."""


def dp_counters(nd, tables, g, p, local_selections, is_forest, induced_subgraph) -> dict:
    """Counters recomputed from one `dp_run` call's inputs and returned tables.

    `work_units` repeats what `dp_run`'s `charge()` adds: the child group
    size times the class's selections at introduce nodes, the child group
    size at forget nodes and the product of matching groups at join nodes.
    Every count depends only on the instance, so it repeats exactly.
    """
    from diskfvs.decomposition import FORGET, INTRODUCE, JOIN

    selections = [local_selections(cls, cov) for cls, cov in zip(p.classes, p.clique_cover)]
    acyclic = sum(
        1
        for sels in selections
        for sel in sels
        if is_forest(induced_subgraph(g, sel)[0])
    )
    rows = {INTRODUCE: 0, FORGET: 0, JOIN: 0}
    nodes = {INTRODUCE: 0, FORGET: 0, JOIN: 0}
    peak = 0
    work = 0
    for node, kind in enumerate(nd.kind):
        size = sum(len(group) for group in tables[node].values())
        peak = max(peak, size)
        if kind in rows:
            rows[kind] += size
            nodes[kind] += 1
        if kind == INTRODUCE:
            child = tables[nd.children[node][0]]
            work += sum(len(gr) for gr in child.values()) * len(selections[nd.vtx[node]])
        elif kind == FORGET:
            child = tables[nd.children[node][0]]
            work += sum(len(gr) for gr in child.values())
        elif kind == JOIN:
            lt, rt = (tables[c] for c in nd.children[node])
            work += sum(len(gr) * len(rt[sig]) for sig, gr in lt.items() if sig in rt)
    return {
        "partition.selections": sum(len(s) for s in selections),
        "acyclic_selections": acyclic,
        "solver.rows.introduce": rows[INTRODUCE],
        "solver.rows.forget": rows[FORGET],
        "solver.rows.join": rows[JOIN],
        "solver.rows.peak": peak,
        "solver.work_units": work,
        "decomposition.nice_nodes.introduce": nodes[INTRODUCE],
        "decomposition.nice_nodes.forget": nodes[FORGET],
        "decomposition.nice_nodes.join": nodes[JOIN],
    }


class _Span:
    """Context manager recording one span on a tracer."""

    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name: str):
        stack = tracer._stack
        self.tracer = tracer
        self.rec = [name, 0.0, 0.0, stack[-1] if stack else None, tracer._solve_id]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.rec)
        self.rec[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Installs span wrappers, keeps spans in memory, sums counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, solve_id]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._solve_id = -1
        self._epoch = time.perf_counter()

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        import diskfvs.decomposition as decomposition
        import diskfvs.graph as graph
        import diskfvs.solver as solver
        from diskfvs.errors import ResourceError

        self._resource_error = ResourceError
        hooks = {
            "graph.connected_components": self._on_components,
            "partition.greedy_partition": self._on_partition,
            "decomposition.weighted_width": self._on_width,
            "solver.dp_run": self._on_dp_run,
            "reduction.rank_reduce": self._on_rank_reduce,
        }
        # unwrapped helpers for the counters, so counting fires no spans
        self._helpers = (solver.local_selections, graph.is_forest, graph.induced_subgraph)
        for module, callees in ((solver, SOLVER_CALLEES), (decomposition, DECOMPOSITION_CALLEES)):
            for attr, name in callees:
                fn = getattr(module, attr)
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, hooks.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            if name == "solver.solve":
                self._solve_id += 1
            try:
                with _Span(self, name):
                    out = fn(*args, **kwargs)
            except self._resource_error:
                if name == "solver.dp_run":
                    self.counts["solver.budget_trips"] += 1
                raise
            if hook is not None:
                with _Span(self, COUNTER_SPAN):
                    hook(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counter hooks (run inside bench.counters spans) ---------------------
    def _on_components(self, args, out):
        self.counts["graph.components"] += len(out)

    def _on_partition(self, args, out):
        self.counts["partition.classes"] += len(out.classes)

    def _on_width(self, args, out):
        key = "decomposition.weighted_width.max"
        self.counts[key] = max(self.counts[key], out)

    def _on_rank_reduce(self, args, out):
        self.counts["reduction.rows_in"] += args[0].row_count()
        self.counts["reduction.rows_out"] += out.row_count()

    def _on_dp_run(self, args, out):
        nd, g, p = args[:3]
        got = dp_counters(nd, out[1], g, p, *self._helpers)
        for key, value in got.items():
            if key == "solver.rows.peak":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    # -- results --------------------------------------------------------------
    def self_times(self, scales) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name.

        A span's self time is its duration minus its children's, multiplied
        by `scales[solve_id]`, the normalization factor of its solve.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, solve_id) in enumerate(self.spans):
            totals[name] += ((end - start) - child[i]) * scales[solve_id]
            calls[name] += 1
        return totals, calls

    def check_expected(self) -> None:
        fired = {rec[0] for rec in self.spans}
        missing = sorted(EXPECTED_SPANS - fired)
        if missing:
            raise MissingSpanError(f"expected spans never fired: {', '.join(missing)}")

    def layer_metrics(self, scales) -> dict[str, float]:
        """Per-layer metrics; `scales` as for `self_times`."""
        totals, calls = self.self_times(scales)
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for span, metric in SELF_TIME_METRICS.items():
            out[metric] = totals.get(span, 0.0)
        for span, metric in CALL_COUNT_METRICS.items():
            out[metric] = calls.get(span, 0)
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        sel = self.counts.get("partition.selections", 0)
        out["partition.selections_acyclic_ratio"] = (
            self.counts.get("acyclic_selections", 0) / sel if sel else 0.0
        )
        rows_in = self.counts.get("reduction.rows_in", 0)
        out["reduction.drop_ratio"] = (
            (rows_in - self.counts.get("reduction.rows_out", 0)) / rows_in if rows_in else 0.0
        )
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, solve_id in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": start - self._epoch,
                    "end": end - self._epoch,
                    "parent": parent,
                    "solve": solve_id,
                }) + "\n")

