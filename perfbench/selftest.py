"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

It makes a tiny run of every workload, end-to-end and traced, through the
command line, and checks the negative cases: a corrupted witness, a wrong
minimum FVS, a wrong verdict and a raising solve must each count as a
failure and make the run exit 1; an expected span that never fires must
fail the traced run; counters must repeat exactly; and a directory without
the package must exit non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run
import workloads

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def cli(*args: str, cwd: Path = run.ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done.returncode, done.stdout


def tiny_runs() -> None:
    from tracer import PER_LAYER_UNITS

    for name in workloads.WORKLOADS:
        for trace, units in ((0, run.END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
            code, out = cli("--workload", name, "--seed", "0", "--seconds", "0",
                            "--trace", str(trace), "--limit", "2")
            result = json.loads(out.strip().splitlines()[-1])
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"tiny run {name} trace={trace} exits 0 with correct answers")
            expect(set(result["metrics"]) == set(units)
                   and all(m["unit"] == units[k] for k, m in result["metrics"].items()),
                   f"tiny run {name} trace={trace} reports every metric with its unit")


def negative_cases() -> None:
    import diskfvs.solver as solver
    from checker import check

    reference = workloads.load_reference()
    spec = workloads.instance_specs("udg-dense", 0)[0]
    (g,), _, _ = run.build_graphs([spec])
    ref = reference[spec.key]
    sol = solver.solve(g, solver.SolveConfig(k=spec.k))
    expect(check(g, spec.k, sol, ref) == (None, True), "a right answer passes the check")

    corrupt = replace(sol, fvs=sol.fvs[1:])
    expect(check(g, spec.k, corrupt, ref)[0] is not None, "a corrupted witness fails")
    extra = next(v for v in range(g.n) if v not in set(sol.fvs))
    too_big = replace(sol, fvs=tuple(sorted(sol.fvs + (extra,))))
    expect(check(g, spec.k, too_big, None) == (None, False),
           "a valid but non-minimum witness passes without a reference")
    expect(check(g, spec.k, too_big, ref)[0] is not None, "a wrong minimum FVS fails")
    expect(check(g, ref - 1, replace(sol, verdict="yes"), ref)[0] is not None,
           "a witness larger than k fails")
    expect(check(g, ref, replace(sol, verdict="no", fvs=None), ref)[0] is not None,
           "a wrong 'no' fails")
    expect(check(g, ref - 1, replace(sol, verdict="no", fvs=None), ref) == (None, True),
           "a right 'no' passes")

    # the same faults injected into the measuring loop count as failed solves
    real = solver.solve
    for fault, label in (
        (lambda s: replace(s, fvs=s.fvs[1:]), "corrupted witnesses"),
        (lambda s: replace(s, fvs=tuple(sorted(set(s.fvs) | {extra}))), "wrong minimum FVS"),
        (None, "a raising solve"),
    ):
        def faulty(graph, cfg, fault=fault):
            if fault is None:
                raise RuntimeError("injected")
            return fault(real(graph, cfg))

        solver.solve = faulty
        try:
            records, _ = run.run_passes([spec], [g], reference, 0)
        finally:
            solver.solve = real
        expect(len(records) == 1 and records[0].failure is not None, f"{label} count as failed")
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = run.emit(records, {}, {})
        result = json.loads(printed.getvalue().splitlines()[-1])
        expect(code == 1 and result["correct"] is False and result["failed"] == 1,
               f"{label} make the run report a failure and exit 1")


def tracer_cases() -> None:
    import tracer as tr

    specs = workloads.instance_specs("udg-dense", 0)[:3]
    graphs, _, _ = run.build_graphs(specs)
    counts = []
    for _ in range(2):
        t = tr.Tracer()
        t.install()
        try:
            run.solve_pass(specs, graphs, {})
        finally:
            t.uninstall()
        t.check_expected()
        counts.append(dict(t.counts))
    expect(counts[0] == counts[1], "DP counters repeat exactly")
    t = tr.Tracer()
    t.spans.append(["solver.solve", 0.0, 1.0, None, 0])
    try:
        t.check_expected()
        expect(False, "a span that never fired is reported")
    except tr.MissingSpanError:
        expect(True, "a span that never fired is reported")


def bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, out = cli("--workload", "udg-dense", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and '"metrics"' not in out,
           "without the package the run exits non-zero and prints no result")


def main() -> int:
    run.use_checkout_src()
    run.OUT_DIR.mkdir(exist_ok=True)
    negative_cases()
    tracer_cases()
    bare_directory()
    tiny_runs()
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
