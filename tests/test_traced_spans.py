"""The benchmark's traced run pins a span for each solver layer: a traced
run in which one of them never fires exits with MissingSpanError. This
test runs the same check on two solves that together fire every pinned
span, a dense pool instance and the first udg-sparse instance of seed 1,
so a change that stops a layer from running fails here as well. The
benchmark's own tracer and workload list are loaded from their files and
only read."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import diskfvs.solver as solver
from diskfvs import SolveConfig, build_intersection_graph, random_udg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_expected_span_fires():
    tracer_mod, workloads = load("tracer"), load("workloads")
    sparse = workloads.sparse_specs(1)[0]
    graphs = [
        build_intersection_graph(random_udg(n, density, seed))
        for n, density, seed in ((100, 1.0, 1), (sparse.n, sparse.density, sparse.geometry_seed))
    ]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for g in graphs:
            # through the module, where the tracer wraps it, as the benchmark calls it
            assert solver.solve(g, SolveConfig(k=g.n)).verdict == "yes"
    finally:
        tracer.uninstall()
    tracer.check_expected()
