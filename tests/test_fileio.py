import pytest

from diskfvs import InputError, decompose_unweighted, random_udg
from diskfvs.fileio import (
    parse_decomposition,
    parse_graph,
    parse_objects,
    serialize_decomposition,
    serialize_graph,
    serialize_objects,
)
from diskfvs.geometry import build_intersection_graph

from conftest import cycle_graph


class TestGraphFormat:
    def test_round_trip_byte_identical(self):
        g = cycle_graph(5)
        text = serialize_graph(g)
        assert text == serialize_graph(parse_graph(text))

    def test_comments_ignored(self):
        text = "c a comment\np fvs 2 1\nc another\ne 0 1\n"
        g = parse_graph(text)
        assert g.n == 2 and g.m == 1

    def test_exact_format(self):
        g = cycle_graph(3)
        assert serialize_graph(g) == "p fvs 3 3\ne 0 1\ne 0 2\ne 1 2\n"

    def test_bad_headers(self):
        with pytest.raises(InputError):
            parse_graph("e 0 1\n")
        with pytest.raises(InputError):
            parse_graph("p fvs 2 2\ne 0 1\n")  # wrong edge count
        with pytest.raises(InputError):
            parse_graph("p fvs 2 1\nx 0 1\n")

    @pytest.mark.parametrize("second", ["e 1 0", "e 0 1"])
    def test_repeated_edge_is_input_error(self, second):
        with pytest.raises(InputError, match="^line 3: repeated edge"):
            parse_graph(f"p fvs 2 2\ne 0 1\n{second}\n")


class TestObjectsFormat:
    def test_round_trip_byte_identical(self):
        objs = random_udg(25, 0.2, 11)
        text = serialize_objects(objs)
        assert text == serialize_objects(parse_objects(text))
        assert parse_objects(text) == objs

    def test_graph_from_parsed_objects_matches(self):
        objs = random_udg(30, 0.4, 5)
        text = serialize_objects(objs)
        g1 = build_intersection_graph(objs)
        g2 = build_intersection_graph(parse_objects(text))
        assert g1.adj == g2.adj

    def test_bad_object_line(self):
        with pytest.raises(InputError):
            parse_objects("p objects 1 1.0 1.0\no disk 0 0\n")

    def test_count_mismatch(self):
        with pytest.raises(InputError):
            parse_objects("p objects 2 1.0 1.0\no disk 0.0 0.0 0.5 0.5\n")

    @pytest.mark.parametrize(
        "line, match",
        [
            ("o disk nan 0.0 0.5 0.5", "finite"),
            ("o disk 0.0 -inf 0.5 0.5", "finite"),
            ("o disk 0.0 0.0 inf inf", "finite"),
            ("o disk 0.0 1e400 0.5 0.5", "finite"),
            ("o disk 0.0 0.0 0.4 0.5", "disk requires"),
            ("o hexagon 0.0 0.0 0.5 0.5", "unsupported shape"),
            ("o disk 0.0 0.0 0.6 0.5", "need 0 < inner <= outer"),
            ("o disk 0.0 zero 0.5 0.5", "bad object values"),
            # half side 0.5 has half diagonal 0.707, not 0.5
            ("o square 0.0 0.0 0.5 0.5", "square requires"),
        ],
    )
    def test_bad_object_is_line_numbered(self, line, match):
        text = f"p objects 2 1.0 1.0\no disk 5.0 5.0 0.5 0.5\n{line}\n"
        with pytest.raises(InputError, match=f"^line 3: .*{match}"):
            parse_objects(text)

    @pytest.mark.parametrize(
        "text, match",
        [
            # a disk of diameter 6 and a square of fatness 1/sqrt(2) under
            # alpha = gamma = 1
            ("p objects 2 1.0 1.0\no disk 0.0 0.0 3.0 3.0\n"
             "o square 9.0 9.0 0.3535533905932738 0.5\n", "exceeds gamma"),
            ("p objects 1 1.0 1.0\no disk 0.0 0.0 1.0 1.0\n", "smallest diameter must be 1"),
            ("p objects 1 1.0 nan\no disk 0.0 0.0 0.5 0.5\n", "gamma must be finite"),
            ("p objects 1 inf 1.0\no disk 0.0 0.0 0.5 0.5\n", "alpha must be in"),
        ],
    )
    def test_objects_contradicting_header(self, text, match):
        with pytest.raises(InputError, match=match):
            parse_objects(text)


class TestDecompositionFormat:
    def test_round_trip_byte_identical(self):
        g = cycle_graph(7)
        td = decompose_unweighted(g)
        text = serialize_decomposition(td, g.n)
        td2, n2 = parse_decomposition(text)
        assert n2 == g.n
        assert text == serialize_decomposition(td2, n2)
        assert td2.bags == td.bags

    def test_header_shape(self):
        g = cycle_graph(4)
        td = decompose_unweighted(g)
        first = serialize_decomposition(td, g.n).splitlines()[0]
        parts = first.split()
        assert parts[:2] == ["s", "td"]
        assert int(parts[2]) == td.node_count()
        assert int(parts[4]) == g.n

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("s td x 1 1\n", 1),
            ("s td 1 1 1\nb\n", 2),
            ("s td 1 1 1\nb 1 z\n", 2),
            ("s td 2 1 2\nb 1 0\nb 2 1\n1 q\n", 4),
            ("s td 2 1 2\nb 1 0\nb 2 1\n1 1\n", 4),  # self-loop tree edge
            ("s td 2 1 2\nb 1 0\nb 2 1\n1 2\n2 1\n", 5),  # duplicate tree edge
            ("s td 1 1 1\nb 1 1\n", 2),  # bag vertex outside 0..n-1
            ("s td 1 1 1\nb 1 -1\n", 2),
        ],
    )
    def test_malformed_line_is_input_error(self, text, lineno):
        with pytest.raises(InputError, match=f"^line {lineno}: "):
            parse_decomposition(text)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("s td 2 1 2\nb 1 0\nb 2 1\n", "has 1 edges, found 0"),
            ("s td 3 1 3\nb 1 0\nb 2 1\nb 3 2\n1 2\n2 3\n1 3\n", "has 2 edges, found 3"),
            # three edges on four bags, but a triangle and an isolated bag
            ("s td 4 1 4\nb 1 0\nb 2 1\nb 3 2\nb 4 3\n1 2\n2 3\n1 3\n", "do not connect"),
        ],
    )
    def test_tree_edges_not_a_tree(self, text, match):
        with pytest.raises(InputError, match=match):
            parse_decomposition(text)

    def test_bad_bag_ids(self):
        with pytest.raises(InputError):
            parse_decomposition("s td 2 1 2\nb 1 0\nb 3 1\n1 2\n")
