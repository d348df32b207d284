import json
from pathlib import Path

import pytest

from diskfvs import (
    SolveConfig,
    build_intersection_graph,
    connected_components,
    from_edge_list,
    greedy_partition,
    induced_subgraph,
    peel_degree_one,
    random_udg,
    solve,
)
from diskfvs import bench
from diskfvs.cli import main
from diskfvs.fileio import parse_objects, serialize_graph
from diskfvs.partition import packing_bound, packing_completion, packing_search

from conftest import cycle_graph, path_graph


def write_graph(tmp_path: Path, g, name="g.graph") -> str:
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def refuse_call(*args, **kwargs):
    raise AssertionError("called after the arguments should have been refused")


class TestGen:
    def test_udg_deterministic_files(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["gen", "--udg", "-n", "30", "--density", "0.2",
                     "--seed", "1", "--out", str(out1)]) == 0
        assert main(["gen", "--udg", "-n", "30", "--density", "0.2",
                     "--seed", "1", "--out", str(out2)]) == 0
        assert out1.with_suffix(".points").read_bytes() == out2.with_suffix(".points").read_bytes()
        assert out1.with_suffix(".graph").read_bytes() == out2.with_suffix(".graph").read_bytes()

    def test_planted_files(self, tmp_path):
        out = tmp_path / "p"
        assert main(["gen", "--planted", "-k", "3", "--seed", "2",
                     "--out", str(out)]) == 0
        assert out.with_suffix(".points").exists()
        assert out.with_suffix(".graph").exists()

    def test_single_disk(self, tmp_path):
        out = tmp_path / "one"
        assert main(["gen", "--udg", "-n", "1", "--out", str(out)]) == 0
        text = out.with_suffix(".graph").read_text()
        assert text.startswith("p fvs 1 0")

    def test_requires_exactly_one_kind(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x")]) == 2

    def test_suffix_appended_to_dotted_prefix(self, tmp_path, capsys):
        # run.1 and run.2 are two prefixes: neither overwrites the other
        for out in ("run.1", "run.2"):
            assert main(["gen", "--udg", "-n", "5", "--out", str(tmp_path / out)]) == 0
            assert capsys.readouterr().out.split() == [
                str(tmp_path / f"{out}.points"), str(tmp_path / f"{out}.graph")
            ]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.1.graph", "run.1.points", "run.2.graph", "run.2.points"
        ]

    @pytest.mark.parametrize("prefix", [".", "", "/", "..", "sub/..", "results/", "a/."])
    def test_out_without_file_name_exit_two(self, tmp_path, capsys, monkeypatch, prefix):
        # refused before any instance is generated, and no file is written
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("diskfvs.cli.random_udg", refuse_call)
        assert main(["gen", "--udg", "-n", "5", "--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestSolveCommand:
    def test_c4_yes_exit_zero(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(4))
        assert main(["solve", path, "--k", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "yes"
        assert len(payload["fvs"]) == 1
        assert payload["schema"] == 1
        assert payload["timings"]["verify"] >= 0

    def test_json_is_the_stats_record(self, tmp_path, capsys, monkeypatch):
        solved = []

        def recording_solve(g, cfg):
            solved.append(solve(g, cfg))
            return solved[-1]

        monkeypatch.setattr("diskfvs.cli.solve", recording_solve)
        out = tmp_path / "inst"
        main(["gen", "--udg", "-n", "40", "--density", "1.0", "--seed", "2",
              "--out", str(out)])
        capsys.readouterr()
        for k in ("0", "8", "40"):  # clique-packing "no", DP "no", "yes"
            main(["solve", str(out.with_suffix(".points")), "--k", k, "--json"])
            payload = json.loads(capsys.readouterr().out)
            sol = solved[-1]
            assert payload.pop("schema") == 1 and payload.pop("k") == int(k)
            assert payload.pop("verdict") == sol.verdict
            assert payload.pop("certificate") == sol.certificate
            assert payload.pop("fvs") == list(sol.fvs or ())
            assert payload == json.loads(json.dumps(sol.stats))
            assert "lower_bound" in payload and "cliques" in payload
        assert payload["min_fvs"] == 9 and payload["lower_bound"] == 7

    def test_c4_k0_exit_one(self, tmp_path):
        path = write_graph(tmp_path, cycle_graph(4))
        assert main(["solve", path, "--k", "0"]) == 1

    def test_tab_separated_comments(self, tmp_path, capsys):
        # a comment before the problem line and one between edges
        path = tmp_path / "tabs.graph"
        path.write_text("c\tC4\np fvs 4 4\ne 0 1\ne 1 2\nc\tbetween edges\ne 2 3\ne 0 3\n")
        assert main(["solve", str(path), "--k", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["min_fvs"] == 1

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("not a graph\n")
        assert main(["solve", str(bad), "--k", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_finite_points_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "nan.points"
        bad.write_text("p objects 2 1.0 1.0\no disk 0.0 0.0 0.5 0.5\no disk nan 0.0 0.5 0.5\n")
        assert main(["solve", str(bad), "--k", "0"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_two(self):
        assert main(["solve", "/nonexistent/x.graph", "--k", "0"]) == 2

    def test_points_input(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(["gen", "--udg", "-n", "15", "--density", "0.5", "--seed", "3",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["solve", str(out.with_suffix(".points")), "--k", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert payload["verdict"] in ("yes", "no")

    def test_clique_packing_certificate(self, tmp_path, capsys):
        out = tmp_path / "dense"
        main(["gen", "--udg", "-n", "20", "--density", "1.5", "--seed", "6",
              "--out", str(out)])
        points = str(out.with_suffix(".points"))
        capsys.readouterr()
        # clique-packing bound 5, minimum 8: at k = 7 the component's slack
        # over its bound is 2, beyond what the clique-choice search settles
        assert main(["solve", points, "--k", "0", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] == "clique-packing"
        assert sum(len(c) - 2 for c in payload["cliques"]) == 5
        assert main(["solve", points, "--k", "5", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] == "dp" and payload["cliques"] == []
        # the minimum minus one: the DP refutes it with rows pruned against k
        assert main(["solve", points, "--k", "7", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] == "dp" and payload["pruned_rows"] > 0
        assert main(["solve", points, "--k", "8", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["min_fvs"] == 8
        with pytest.raises(SystemExit) as exc:
            main(["solve", points, "--k", "0", "--thresholds"])
        assert exc.value.code == 2


class TestInputFile:
    # every command that reads an instance shares one loader
    @pytest.mark.parametrize("command", [
        ["solve", "--k", "0"], ["oracle", "--k", "0"], ["validate"], ["compare", "--k", "0"],
    ])
    def test_non_utf8_input_exit_two(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.graph"
        bad.write_bytes(b"\xff\xfep fvs 1 0\n")
        assert main([command[0], str(bad), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err
        assert len(err.splitlines()) == 1

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # a UTF-8 file may start with a byte-order mark: the graph file and
        # the points file solve exactly as they do without one
        out = tmp_path / "inst"
        main(["gen", "--udg", "-n", "30", "--density", "1.0", "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        for suffix in (".graph", ".points"):
            plain = out.with_suffix(suffix)
            marked = tmp_path / f"bom{suffix}"
            marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
            payloads = []
            for path in (plain, marked):
                assert main(["solve", str(path), "--k", "30", "--json"]) == 0
                payload = json.loads(capsys.readouterr().out)
                payload.pop("timings")
                payloads.append(payload)
            assert payloads[0] == payloads[1]


class TestOracleCommand:
    def test_matches_solver(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(5))
        assert main(["oracle", path, "--k", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_fvs"] == 1

    def test_budget_refusal_exit_two(self, tmp_path):
        path = write_graph(tmp_path, path_graph(24))
        assert main(["oracle", path, "--k", "1"]) == 2

    def test_negative_k_exit_two(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(5))
        assert main(["oracle", path, "--k", "-1"]) == 2
        assert capsys.readouterr().err == "error: k must be >= 0, got -1\n"


class TestValidateCommand:
    def test_clean_instance(self, tmp_path, capsys):
        out = tmp_path / "v"
        main(["gen", "--udg", "-n", "25", "--density", "0.5", "--seed", "4",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["validate", str(out.with_suffix(".points"))])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert sorted(payload) == [
            "class_count", "components", "max_contraction_degree", "schema"
        ]

    def test_friendship_graph_contraction_degree(self, tmp_path, capsys):
        # 42 triangles on vertex 0: the contraction is a star of degree 41,
        # which no bound on the greedy partition forbids
        edges = [e for i in range(1, 85, 2) for e in ((0, i), (0, i + 1), (i, i + 1))]
        path = write_graph(tmp_path, from_edge_list(85, edges))
        assert main(["validate", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_contraction_degree"] == 41
        assert "violations" not in payload
        assert main(["solve", path, "--k", "1", "--json"]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert (solved["verdict"], solved["fvs"]) == ("yes", [0])

    def test_width_matches_solve(self, tmp_path, capsys):
        # of its four components, the completion solves two, the search
        # proves the third's greedy set minimal and the DP solves the fourth
        out = tmp_path / "w"
        main(["gen", "--udg", "-n", "40", "--density", "1.5", "--seed", "8",
              "--out", str(out)])
        points = str(out.with_suffix(".points"))
        capsys.readouterr()
        assert main(["validate", points]) == 0
        components = json.loads(capsys.readouterr().out)["components"]
        assert len(components) >= 2
        main(["solve", points, "--k", "40", "--json"])
        solved = json.loads(capsys.readouterr().out)
        # solve decomposes only the components whose packing completion is
        # above max(bound, 1) and whose search, when it runs, neither refutes
        # a smaller set nor finds one at the bound; validate lists the
        # components in the same order
        g = build_intersection_graph(parse_objects(Path(points).read_text()))
        peeled = peel_degree_one(g).reduced
        declined = []
        for comp, report in zip(connected_components(peeled), components):
            sub, _, _ = induced_subgraph(peeled, comp)
            p = greedy_partition(sub)
            ub, bound = len(packing_completion(sub, p)), packing_bound(p)
            if ub <= max(bound, 1):
                continue  # the completion is a minimum
            kept = packing_search(sub, p, ub - 1 - bound) if ub - 1 - bound <= 1 else -1
            if not (kept is None or kept >= 0 and sub.n - kept.bit_count() == bound):
                declined.append(report["weighted_width"])
        assert solved["search_proven"] > 0
        assert declined and len(declined) == (
            len(components) - solved["bound_solved"] - solved["search_proven"]
        )
        assert solved["weighted_width"] == max(declined)


class TestCompareCommand:
    def test_agreement(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(6))
        assert main(["compare", path, "--k", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True

    def test_oracle_size_limit_exit_two(self, tmp_path):
        path = write_graph(tmp_path, cycle_graph(24))
        assert main(["compare", path, "--k", "1"]) == 2

    def test_negative_k_exit_two_before_the_oracle(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, cycle_graph(5))
        monkeypatch.setattr("diskfvs.cli.min_fvs_bruteforce", refuse_call)
        assert main(["compare", path, "--k", "-1"]) == 2
        assert capsys.readouterr().err == "error: k must be >= 0, got -1\n"


class TestBenchCommand:
    def test_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "b1"
        out2 = tmp_path / "b2"
        args = ["bench", "--n-list", "20,30", "--density-list", "1.0", "--seeds", "2"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
        header = out1.with_suffix(".csv").read_text().splitlines()[0]
        assert header.startswith("n,density,seed,m,class_count,lower_bound,min_fvs")
        payload = json.loads(out1.with_suffix(".json").read_text())
        assert payload["schema"] == 2
        assert len(payload["rows"]) == 4
        for row in payload["rows"]:
            assert (row["status"], row["verdict"]) == ("ok", "yes")
            assert row["timings"]["total"] <= row["wall_time"]

    @pytest.mark.parametrize("flag, value, message", [
        pytest.param(flag, value, message, id=f"{flag}-{value}") for flag, value, message in [
            ("--n-list", "6x", "bad list"),
            ("--n-list", "20,,3.5", "bad list"),
            ("--density-list", "1.0,dense", "bad list"),
            ("--n-list", ",", "bad list"),
            ("--seeds", "-1", "need seeds >= 1"),
            ("--seeds", "0", "need seeds >= 1"),
            ("--n-list", "0,-3", "need n >= 1"),
            ("--density-list", "inf", "need finite density"),
            ("--density-list", "nan,-1", "need finite density"),
        ]
    ])
    def test_malformed_list_exit_two(self, tmp_path, capsys, flag, value, message):
        # checked before the first solve: no error rows and no file
        assert main(["bench", flag, value, "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        assert not (tmp_path / "b.csv").exists()

    def test_suffix_appended_to_dotted_prefix(self, tmp_path, capsys):
        args = ["bench", "--n-list", "5", "--density-list", "1.0", "--seeds", "1"]
        assert main(args + ["--out", str(tmp_path / "res.v2")]) == 0
        assert capsys.readouterr().out.split()[1:] == [
            str(tmp_path / "res.v2.csv"), str(tmp_path / "res.v2.json")
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res.v2.csv", "res.v2.json"]

    @pytest.mark.parametrize("prefix", [".", "", "/", "..", "sub/..", "results/", "a/."])
    def test_out_without_file_name_exit_two(self, tmp_path, capsys, monkeypatch, prefix):
        # refused before the sweep runs, and no file is written
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(bench, "run_sweep", refuse_call)
        args = ["bench", "--n-list", "5", "--density-list", "1.0", "--seeds", "1"]
        assert main(args + ["--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_forest_sweep(self, tmp_path):
        out = tmp_path / "f"
        assert main(["bench", "--n-list", "20,30", "--density-list", "0.1", "--seeds", "3",
                     "--out", str(out)]) == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        for row in payload["rows"]:
            assert row["verdict"] == "yes"
            assert row["min_fvs"] == 0
            # a forest peels to nothing, so no pipeline is built
            assert row["weighted_width"] == 0

    def test_columns_cover_solve_stats(self):
        g = build_intersection_graph(random_udg(40, 1.5, 2))
        stats = solve(g, SolveConfig(k=g.n)).stats
        int_keys = {key for key, value in stats.items() if isinstance(value, int)}
        assert "min_fvs" in int_keys
        assert int_keys <= set(bench.CSV_COLUMNS)

    def test_min_fvs_matches_solve_min_fvs(self):
        report = bench.run_sweep(n_values=[20, 40], densities=[1.0, 2.0], seeds=2)
        assert len(report.rows) == 8
        for row in report.rows:
            g = build_intersection_graph(random_udg(row["n"], row["density"], row["seed"]))
            assert row["m"] == g.m
            assert row["min_fvs"] == len(solve(g, SolveConfig(k=g.n)).fvs)
