import pytest

from diskfvs import InputError, from_edge_list, random_udg
from diskfvs.fileio import (
    parse_graph, parse_instance, parse_objects, serialize_graph, serialize_objects,
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

    def test_comment_is_its_first_field_whatever_whitespace_follows(self):
        # records split on any whitespace, and so does the comment marker
        text = "c\tnote\np fvs 3 2\ne\t0\t1\nc\tbetween edges\nc  two spaces\ne 1 2\n"
        assert parse_graph(text) == from_edge_list(3, [(0, 1), (1, 2)])
        assert parse_instance(text) == from_edge_list(3, [(0, 1), (1, 2)])

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
        with pytest.raises(InputError, match="^line 2: vertex count must be >= 0, got -1$"):
            parse_graph("c a comment\np fvs -1 0\n")

    @pytest.mark.parametrize("edge, message", [
        ("e 0 0", "self-loop at vertex 0"),
        ("e 0 5", r"edge \(0, 5\) out of range for n=2"),
        ("e -1 1", r"edge \(-1, 1\) out of range for n=2"),
    ], ids=["self-loop", "above-n", "negative"])
    def test_bad_edge_names_its_line(self, edge, message):
        with pytest.raises(InputError, match=f"^line 3: {message}$"):
            parse_graph(f"c a comment\np fvs 2 1\n{edge}\n")

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


class TestParseInstance:
    def test_graph_and_points_files(self):
        g = cycle_graph(5)
        assert parse_instance("c a comment\n" + serialize_graph(g)) == g
        objs = random_udg(12, 1.0, 3)
        assert parse_instance(serialize_objects(objs)) == build_intersection_graph(objs)

    def test_tab_separated_comment_and_header(self):
        objs = random_udg(12, 1.0, 3)
        text = "c\tpoints\n" + serialize_objects(objs).replace(" ", "\t")
        assert parse_instance(text) == build_intersection_graph(objs)
        assert parse_instance("c\tgraph\np\tfvs\t2\t1\ne 0 1\n") == from_edge_list(2, [(0, 1)])

    @pytest.mark.parametrize("text", [
        "", "c only a comment\n", "c\tonly a comment\n", "e 0 1\n", "p graph 2 1\n",
        "cfvs\np fvs 2 1\ne 0 1\n",
    ])
    def test_unrecognized_header(self, text):
        with pytest.raises(InputError, match="unrecognized file header"):
            parse_instance(text)
