"""Correctness check of one solve() answer, done on the benchmark side."""

from __future__ import annotations


def check(g, k: int, sol, ref_min: int | None) -> tuple[str | None, bool]:
    """Return (why the answer is wrong, or None; whether a reference checked it).

    A "yes" must carry a witness of at most k distinct vertices whose removal
    leaves a forest, re-checked here with `graph.is_forest`. When the
    instance has a reference minimum FVS, the verdict must match it, and
    with k >= n (the minimum is asked for) the witness size must equal it.
    Without a reference only the witness is checked.
    """
    from diskfvs.graph import induced_subgraph, is_forest

    if sol.verdict == "yes":
        fvs = sol.fvs
        if fvs is None:
            return "verdict yes without a witness", False
        if len(set(fvs)) != len(fvs) or any(not 0 <= v < g.n for v in fvs):
            return "witness has repeated or unknown vertices", False
        if len(fvs) > k:
            return f"witness size {len(fvs)} exceeds k={k}", False
        drop = set(fvs)
        rest, _, _ = induced_subgraph(g, [v for v in range(g.n) if v not in drop])
        if not is_forest(rest):
            return "graph minus witness has a cycle", False
    elif sol.verdict != "no":
        return f"unknown verdict {sol.verdict!r}", False
    if ref_min is None:
        return None, False
    expected = "yes" if ref_min <= k else "no"
    if sol.verdict != expected:
        return f"verdict {sol.verdict} but reference minimum FVS is {ref_min} for k={k}", True
    if k >= g.n and len(sol.fvs) != ref_min:
        return f"witness size {len(sol.fvs)} but reference minimum FVS is {ref_min}", True
    return None, True
