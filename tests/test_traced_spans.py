"""The benchmark's traced run pins a span for each solver layer: a traced
run in which one of them never fires exits with MissingSpanError. This
test runs the same check on two solves that together fire every pinned
span, a dense pool instance and the first udg-sparse instance of seed 1,
so a change that stops a layer from running fails here as well. The
same check also runs on each set of instances the benchmark traces on its
own. The benchmark's own tracer and workload list are loaded from their
files and only read."""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("workload", ["udg-dense", "udg-decide", "udg-sparse"])
def test_each_traced_set_fires_every_span(workload, seed):
    # `run.py --trace 1` traces the first half of a seed's list, as CI runs
    # it at seeds 1-3; perfbench/selftest.py passes --limit 2 at seed 0,
    # which leaves the list's first instance
    tracer_mod, workloads = load("tracer"), load("workloads")
    specs = workloads.instance_specs(workload, seed)[: 2 if seed == 0 else None]
    specs = specs[: math.ceil(len(specs) / 2)]
    graphs = [build_intersection_graph(random_udg(s.n, s.density, s.geometry_seed)) for s in specs]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for spec, g in zip(specs, graphs):
            solver.solve(g, SolveConfig(k=spec.k))
    finally:
        tracer.uninstall()
    tracer.check_expected()
