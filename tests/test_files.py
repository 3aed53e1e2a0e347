"""Parser robustness: random edits of valid files written by the program's
own serialisers either parse or fail with a ``ValueError`` (``ParseError``
for a malformed line, naming a line that exists), never another exception.
A malformed line reaches the command line as exit 4 naming that line.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from circmix import files
from circmix.circular import CircularParams
from circmix.cli import main
from circmix.fold import folds_to_cycle
from circmix.generators import cube_graph, pinched_octagon
from circmix.graphs import build_graph, induced_subgraph
from circmix.reconfig import is_mixing_wind, mixing_basis

TOKENS = ["=", ":", "1/0", "end", "edge", "fold", "final:", "cycle:", "\n"]
EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                           st.integers(min_value=0), st.sampled_from(TOKENS),
                           st.characters(exclude_categories=("Cs",))),
                 min_size=1, max_size=4)
SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)


def _edit(text, edits):
    for kind, at, token, char in edits:
        i = at % (len(text) + 1)
        if kind == "insert":
            text = text[:i] + token + text[i:]
        elif text:
            i = min(i, len(text) - 1)
            text = text[:i] + ("" if kind == "delete" else char) + text[i + 1:]
    return text


def _check(parse, text, graph_line=None):
    try:
        parse(text)
    except OSError:
        # only a file reference that no longer reads as written can miss
        assert graph_line is not None
        assert [ln for ln in text.splitlines() if "graph" in ln] != [graph_line]
    except ValueError as exc:
        m = re.match(r"line (\d+):", str(exc))
        if m:
            assert isinstance(exc, files.ParseError)
            assert 1 <= int(m.group(1)) <= len(text.splitlines())


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    base = tmp_path_factory.mktemp("certs")
    c10 = support.cycle(10)
    (base / "g.txt").write_text(files.serialize_graph_document(files.GraphDocument(c10)))
    witness = is_mixing_wind(c10, CircularParams(5, 2)).witness
    trace = folds_to_cycle(c10, 6)
    # the cube with a pendant 4-cycle on vertex 7: six basis cycles
    h = build_graph(11, sorted(cube_graph().graph.edges
                               | {(7, 8), (8, 9), (9, 10), (7, 10)}))
    (base / "h.txt").write_text(files.serialize_graph_document(files.GraphDocument(h)))
    basis = mixing_basis(h, CircularParams(7, 2))
    return (str(base), files.serialize_witness(witness, "g.txt"),
            files.serialize_fold_trace(trace, "g.txt"),
            files.serialize_mixing_basis(basis, "h.txt"))


@SETTINGS
@given(EDITS)
def test_graph_document_edits(edits):
    gg = pinched_octagon()
    doc = files.GraphDocument(gg.graph, gg.rotation,
                              {"f": tuple(2 * (v % 2) for v in range(gg.graph.n))})
    _check(files.parse_graph_document, _edit(files.serialize_graph_document(doc), edits))


@SETTINGS
@given(EDITS)
def test_colouring_file_edits(edits):
    _check(files.parse_colouring_file, _edit(files.serialize_colouring((0, 2, 4, 1)), edits))


@SETTINGS
@given(EDITS)
def test_witness_edits(certificates, edits):
    base, witness, _, _ = certificates
    _check(lambda text: files.parse_witness(text, base_dir=base),
           _edit(witness, edits), graph_line="graph: g.txt")


@SETTINGS
@given(EDITS)
def test_fold_trace_edits(certificates, edits):
    base, _, trace, _ = certificates
    _check(lambda text: files.verify_fold_trace_file(text, base_dir=base),
           _edit(trace, edits), graph_line="graph: g.txt")


@SETTINGS
@given(EDITS)
def test_mixing_basis_edits(certificates, edits):
    base, _, _, basis = certificates
    _check(lambda text: files.parse_mixing_basis(text, base_dir=base),
           _edit(basis, edits), graph_line="graph: h.txt")


@pytest.mark.parametrize("line", ["cycle: 0 1 x 3", "cycle: 0 1", "p: 1/0", "q"])
def test_malformed_basis_line_exits_4_with_its_number(certificates, tmp_path,
                                                       capsys, line):
    base, _, _, basis = certificates
    lines = basis.splitlines()
    lines[5] = line
    cert = tmp_path / "bad.mb"
    cert.write_text("\n".join(lines).replace("h.txt", f"{base}/h.txt") + "\n")
    assert main(["verify", str(cert)]) == 4
    assert capsys.readouterr().err.startswith("error: line 6: cannot parse")


@pytest.mark.parametrize("text, message", [
    ("n 10\nedge 0 1\nedge 5 12\n",
     "line 3: edge (5,12) has an endpoint outside 0..9"),
    ("# endpoints are checked once n is known\nedge 5 12\n\nn 10\n",
     "line 2: edge (5,12) has an endpoint outside 0..9"),
    ("n 10\nedge 3 3\n", "line 2: loop edge at vertex 3"),
    ("edge 0 1\nedge 3 3\nn 10\n", "line 2: loop edge at vertex 3"),
])
def test_edge_errors_name_their_line(tmp_path, capsys, text, message):
    with pytest.raises(files.ParseError, match=re.escape(message)):
        files.parse_graph_document(text)
    (tmp_path / "g.txt").write_text(text)
    assert main(["mix", str(tmp_path / "g.txt"), "-p", "5", "-q", "2"]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


SQUARE = "edge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\n"
SQUARE_ROTATIONS = "rotation 0: 1 3\nrotation 1: 0 2\nrotation 2: 1 3\nrotation 3: 0 2\n"


@pytest.mark.parametrize("text, message", [
    ("n -2\n", "line 1: cannot parse 'n -2'"),
    ("edge 0 1\n# a count below zero is named, not a later edge\nn -2\n",
     "line 3: cannot parse 'n -2'"),
    # a second count is refused, not read over the first
    ("n 4\nedge 0 1\nn 2\nedge 2 3\n", "line 3: cannot parse 'n 2'"),
    ("n 4\n" + SQUARE + SQUARE_ROTATIONS + "rotation 9:\n",
     "line 10: rotation of vertex 9 outside 0..3"),
    # n may follow the rotation lines it bounds
    (SQUARE_ROTATIONS + "rotation -1: 2\nn 4\n" + SQUARE,
     "line 5: rotation of vertex -1 outside 0..3"),
    ("n 4\n" + SQUARE + "rotation 0: 3 1\n" + SQUARE_ROTATIONS,
     "line 7: cannot parse 'rotation 0: 1 3'"),
])
def test_count_and_rotation_errors_name_their_line(tmp_path, capsys, text, message):
    with pytest.raises(files.ParseError, match=re.escape(message)):
        files.parse_graph_document(text)
    (tmp_path / "g.txt").write_text(text)
    assert main(["mix", str(tmp_path / "g.txt"), "-p", "7", "-q", "2",
                 "--method", "planar"]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("method", ["planar", "wind", "fold", "oracle"])
@pytest.mark.parametrize("text, message", [
    # a token past the count or the vertex is refused, not dropped
    ("n 4 7\n" + SQUARE, "line 1: cannot parse 'n 4 7'"),
    ("n 4\n" + SQUARE + "rotation 0 7: 1 3\n" + SQUARE_ROTATIONS[16:],
     "line 6: cannot parse 'rotation 0 7: 1 3'"),
    # a ring is checked against the edges as the file is read
    ("n 4\n" + SQUARE + "rotation 0: 1 9\n" + SQUARE_ROTATIONS[16:],
     "line 6: rotation of vertex 0 is not a permutation of its neighbours"),
    (SQUARE_ROTATIONS[:48] + "rotation 3: 0\nn 4\n" + SQUARE,
     "line 4: rotation of vertex 3 is not a permutation of its neighbours"),
])
def test_every_method_refuses_the_line(tmp_path, capsys, text, message, method):
    with pytest.raises(files.ParseError, match=re.escape(message)):
        files.parse_graph_document(text)
    (tmp_path / "g.txt").write_text(text)
    assert main(["mix", str(tmp_path / "g.txt"), "-p", "5", "-q", "2",
                 "--method", method]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_square_with_rotations_parses():
    doc = files.parse_graph_document(SQUARE_ROTATIONS + SQUARE + "n 4\n")
    assert doc.graph == support.cycle(4)
    assert doc.rotation.rotation == ((1, 3), (0, 2), (1, 3), (0, 2))


def test_a_vertex_coloured_twice_is_refused(tmp_path, capsys):
    with pytest.raises(files.ParseError, match=re.escape("line 2: cannot parse '0=0'")):
        files.parse_colouring_file("0=1\n0=0\n1=3\n")
    with pytest.raises(files.ParseError, match=re.escape("line 1: cannot parse '0=1 0=2'")):
        files.parse_colouring_file("0=1 0=2\n")
    (tmp_path / "k2.txt").write_text("n 2\nedge 0 1\n")
    (tmp_path / "f.col").write_text("0=0\n1=2\n")
    (tmp_path / "g.col").write_text("# vertex 0 twice\n0=1\n0=0\n1=3\n")
    assert main(["reach", str(tmp_path / "k2.txt"), "-p", "5", "-q", "2",
                 "--from", str(tmp_path / "f.col"), "--to", str(tmp_path / "g.col")]) == 4
    assert capsys.readouterr().err == "error: line 3: cannot parse '0=0'\n"


@pytest.mark.parametrize("text, message", [
    # a second block of one name is refused, not read over the first
    ("n 2\nedge 0 1\ncolouring a\n0=0\n1=2\nend\ncolouring a\n0=1\n1=3\nend\n",
     "line 7: cannot parse 'colouring a'"),
    ("n 2\nedge 0 1\ncolouring a\n0=0\n0=1\n1=2\nend\n",
     "line 5: cannot parse '0=1'"),
])
def test_a_colouring_block_is_read_once(text, message):
    with pytest.raises(files.ParseError, match=re.escape(message)):
        files.parse_graph_document(text)


@pytest.mark.parametrize("method", ["planar", "wind", "fold", "oracle"])
@pytest.mark.parametrize("text, message", [
    ("n 4\n" + SQUARE + SQUARE_ROTATIONS + "outer: 0\nouter: 1\n",
     "line 11: cannot parse 'outer: 1'"),
    ("n 4\n" + SQUARE + "outer: -1\n" + SQUARE_ROTATIONS,
     "line 6: cannot parse 'outer: -1'"),
])
def test_every_method_refuses_the_outer_line(tmp_path, capsys, text, message, method):
    with pytest.raises(files.ParseError, match=re.escape(message)):
        files.parse_graph_document(text)
    (tmp_path / "g.txt").write_text(text)
    assert main(["mix", str(tmp_path / "g.txt"), "-p", "7", "-q", "2",
                 "--method", method]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_outer_past_the_faces_is_refused_by_planar_only(tmp_path, capsys):
    (tmp_path / "g.txt").write_text("n 4\n" + SQUARE + SQUARE_ROTATIONS + "outer: 2\n")
    assert files.parse_graph_document((tmp_path / "g.txt").read_text()).rotation.outer == 2
    args = ["mix", str(tmp_path / "g.txt"), "-p", "7", "-q", "2", "--method"]
    assert main(args + ["wind"]) == 0
    assert main(args + ["planar"]) == 4
    assert capsys.readouterr().err == "error: outer face index 2 out of range\n"


@pytest.mark.parametrize("kind, key", [
    (1, "graph"), (1, "p"), (1, "q"), (1, "cycle"), (1, "weight"), (1, "required"),
    (3, "graph"), (3, "p"), (3, "q"),
    (2, "graph"), (2, "component"), (2, "target"),
])
def test_a_second_copy_of_a_field_is_refused(certificates, tmp_path, capsys, kind, key):
    base = certificates[0]
    lines = (certificates[kind].replace("g.txt", f"{base}/g.txt")
             .replace("h.txt", f"{base}/h.txt").splitlines())
    if key == "component":  # the trace names no component of its own
        lines[2:2] = ["component: " + " ".join(map(str, range(10)))]
    at = next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
    lines.insert(at + 1, lines[at])
    cert = tmp_path / "twice.txt"
    cert.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(cert)]) == 4
    assert capsys.readouterr().err == f"error: line {at + 2}: cannot parse {lines[at]!r}\n"
    # the single copy reads and verifies
    del lines[at + 1]
    cert.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(cert)]) == 0



@pytest.mark.parametrize("first", [False, True])
@pytest.mark.parametrize("component", [
    "0 1 2 3 4 5 6 7 8 99", "-1 0 1 2 3 4 5 6 7 8 9", "0 1 2 3 4 5 6 7 8 9 9",
    "0 1 2 3 3 5 6 7 8 9", "0 1 2 3 4 5 6 7 8", ""])
def test_a_component_line_names_a_component_of_the_graph(tmp_path, capsys, first,
                                                         component):
    # a fold trace's component line, edited: refused at its line, not
    # replayed with a phantom vertex
    message = "not the vertex set of a connected component"
    c10, trace = str(tmp_path / "c10.txt"), tmp_path / "t.trace"
    assert main(["gen", "cycle", "10", "--out", c10]) == 0
    assert main(["mix", c10, "-p", "3", "-q", "1", "--method", "fold",
                 "--certificate", str(trace)]) == 1
    lines = trace.read_text().splitlines()
    assert lines[2] == "component: 0 1 2 3 4 5 6 7 8 9"
    lines[2] = "component: " + component
    if first:  # the component line may come before the graph it names
        lines[1], lines[2] = lines[2], lines[1]
    trace.write_text("\n".join(lines) + "\n")
    lineno = 2 if first else 3
    with pytest.raises(files.ParseError, match=re.escape(f"line {lineno}: {message}")):
        files.verify_fold_trace_file(trace.read_text(), base_dir=str(tmp_path))
    capsys.readouterr()
    assert main(["verify", str(trace)]) == 4
    assert capsys.readouterr() == ("", f"error: line {lineno}: {message}\n")


def test_a_component_line_is_not_any_induced_subgraph(tmp_path, capsys):
    # the cube mixes at (3,1), yet deleting two antipodal vertices leaves an
    # induced 6-cycle; a trace of it certifies nothing about the cube
    g = cube_graph().graph
    cube = tmp_path / "cube.txt"
    cube.write_text(files.serialize_graph_document(files.GraphDocument(g)))
    six = [1, 2, 3, 4, 5, 7]  # all but the antipodal 0 and 6
    sub, _ = induced_subgraph(g, six)
    assert sub.m == 6 and all(len(sub.adjacency[v]) == 2 for v in range(6))
    trace = tmp_path / "cube.trace"
    trace.write_text("fold-trace\ngraph: cube.txt\ncomponent: " + " ".join(map(str, six))
                     + "\ntarget: 6\nfinal:\n"
                     + "".join(f"{u} {v}\n" for u, v in sorted(sub.edges)) + "end\n")
    assert main(["verify", str(trace)]) == 4
    assert capsys.readouterr().err == (
        "error: line 3: not the vertex set of a connected component\n")
    assert main(["mix", str(cube), "-p", "3", "-q", "1"]) == 0
