"""The wind shortcut and its certificate: a bipartite graph whose minimum
cycle basis has only cycles shorter than 2*ceil(p/(p-2q)) mixes, and the
``mixing-basis`` file that ``mix --method wind --certificate`` writes for it
passes ``verify``, while every broken variant of that file fails.
"""

import contextlib
import io
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import support
from circmix import files
from circmix.circular import CircularParams, minimal_non_mixing_even_cycle
from circmix.cli import main
from circmix.generators import cube_graph
from circmix.graphs import (build_graph, connected_components, cycle_rank,
                            cycle_space_dimension, is_cycle_of,
                            minimum_cycle_basis)
from circmix.reconfig import (MixingVerdict, is_mixing_oracle, is_mixing_wind,
                              mixing_basis, verify_mixing_basis)

PARAMS = [CircularParams(5, 2), CircularParams(7, 2), CircularParams(7, 3),
          CircularParams(8, 3)]
SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)


@st.composite
def bipartite_graphs(draw):
    """Up to 7 vertices in at most two components, so the oracle's state
    table stays small; a planted 6-cycle gives some long basis cycles."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(2, 7)
    order = rng.sample(range(n), n)
    length = rng.choice([k for k in (0, 4, 6, 6) if k <= n])
    side = {v: i % 2 for i, v in enumerate(order[:length])}
    side.update((v, rng.randrange(2)) for v in order[length:])
    edges = {tuple(sorted((order[i], order[(i + 1) % length])))
             for i in range(length)}
    density = rng.choice((0.1, 0.25, 0.5))
    edges |= {(u, v) for u, v in itertools.combinations(range(n), 2)
              if side[u] != side[v] and rng.random() < density}
    g = build_graph(n, sorted(edges))
    assume(len(connected_components(g)) <= 2)
    return g


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("basis")


@SETTINGS
@given(bipartite_graphs(), st.sampled_from(PARAMS))
def test_shortcut_agrees_with_the_oracle(g, params):
    b = mixing_basis(g, params)
    v = is_mixing_wind(g, params)
    if b is None:  # scanned: the count is there on a MIXING answer
        assert v.status == "not-mixing" or v.state_count is not None
        return
    assert v == MixingVerdict(status="mixing")
    assert is_mixing_oracle(g, params).status == "mixing"
    assert len(b.cycles) == cycle_space_dimension(g) == cycle_rank(g, b.cycles)
    assert all(is_cycle_of(g, c.vertices) for c in b.cycles)
    assert [len(c) for c in b.cycles] == [k for k, _ in minimum_cycle_basis(g)]
    assert verify_mixing_basis(b) == (True, [])


@SETTINGS
@given(bipartite_graphs(), st.sampled_from(PARAMS), st.integers(min_value=0))
def test_written_certificates_verify(workdir, g, params, drop):
    graph = workdir / "g.txt"
    graph.write_text(files.serialize_graph_document(files.GraphDocument(g)))
    cert = workdir / "g.mb"
    cert.unlink(missing_ok=True)
    code, out = run("mix", str(graph), "-p", str(params.p), "-q",
                    str(params.q), "--method", "wind", "--certificate", str(cert))
    if mixing_basis(g, params) is None:
        assert not (code == 0 and cert.exists())  # a scanned MIXING writes nothing
        return
    assert code == 0 and out == f"MIXING\ncertificate: {cert}\n"
    assert run("verify", str(cert)) == (0, "PASS\n")
    lines = cert.read_text().splitlines()
    cycles = [i for i, line in enumerate(lines) if line.startswith("cycle:")]
    if cycles:  # one cycle fewer no longer spans the cycle space
        del lines[cycles[drop % len(cycles)]]
        cert.write_text("\n".join(lines) + "\n")
        assert run("verify", str(cert)) == (1, "FAIL: not-spanning\n")


def _cube_certificate(tmp_path):
    (tmp_path / "cube.txt").write_text(
        files.serialize_graph_document(files.GraphDocument(cube_graph().graph)))
    code, _ = run("mix", "cube.txt", "-p", "7", "-q", "2",
                  "--method", "wind", "--certificate", "cube.mb")
    assert code == 0 and run("verify", "cube.mb") == (0, "PASS\n")
    return tmp_path / "cube.mb"


@pytest.mark.parametrize("old, new, failure", [
    # a 6-cycle of the cube is not shorter than 2*ceil(7/3) = 6
    ("cycle: 0 1 2 3\n", "cycle: 0 1 2 6 7 4\n", "cycle-too-long"),
    ("cycle: 0 1 2 3\n", "cycle: 0 1 2 3\ncycle: 0 1 2\n", "not-a-cycle"),
    ("cycle: 0 1 2 3\n", "cycle: 0 1 2 5\n", "not-a-cycle"),
    ("p: 7\n", "p: 8\n", "ratio-outside-(2,4)"),
    ("q: 2\n", "q: 4\n", "ratio-outside-(2,4)"),
    ("q: 2\n", "q: 0\n", "ratio-outside-(2,4)"),
    ("graph: cube.txt\n", "graph: odd.txt\n", "not-bipartite"),
])
def test_broken_certificates_fail(tmp_path, monkeypatch, old, new, failure):
    monkeypatch.chdir(tmp_path)
    cert = _cube_certificate(tmp_path)
    odd = build_graph(8, sorted(cube_graph().graph.edges | {(0, 2)}))
    (tmp_path / "odd.txt").write_text(
        files.serialize_graph_document(files.GraphDocument(odd)))
    text = cert.read_text()
    assert old in text
    cert.write_text(text.replace(old, new))
    code, out = run("verify", str(cert))
    assert code == 1 and out.startswith("FAIL:") and failure in out


def test_basis_needs_short_cycles_and_a_bipartite_graph():
    # the cube's 4-cycles are short enough for every ratio in (2,4)
    for params in PARAMS:
        b = mixing_basis(cube_graph().graph, params)
        assert max(len(c) for c in b.cycles) < minimal_non_mixing_even_cycle(params)
    assert mixing_basis(support.cycle(6), CircularParams(7, 2)) is None
    assert mixing_basis(support.cycle(5), CircularParams(7, 3)) is None
