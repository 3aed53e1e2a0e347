"""Parser robustness: random edits of valid files written by the program's
own serialisers either parse or fail with a ``ValueError`` (``ParseError``
for a malformed line, naming a line that exists), never another exception.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from circmix import files
from circmix.circular import CircularParams
from circmix.fold import folds_to_cycle
from circmix.generators import pinched_octagon
from circmix.reconfig import is_mixing_wind

TOKENS = ["=", ":", "1/0", "end", "edge", "fold", "final:", "\n"]
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
    return (str(base), files.serialize_witness(witness, "g.txt"),
            files.serialize_fold_trace(trace, "g.txt", target=6))


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
    base, witness, _ = certificates
    _check(lambda text: files.parse_witness(text, base_dir=base),
           _edit(witness, edits), graph_line="graph: g.txt")


@SETTINGS
@given(EDITS)
def test_fold_trace_edits(certificates, edits):
    base, _, trace = certificates
    _check(lambda text: files.verify_fold_trace_file(text, base_dir=base),
           _edit(trace, edits), graph_line="graph: g.txt")
