import argparse
import json
import os
import random
import subprocess
import sys

import pytest

import support
import circmix
from circmix import files
from circmix.circular import CircularParams, cycle_wind, enumerate_colourings
from circmix.cli import _GENERATORS, build_parser, main
from circmix.generators import cube_graph, cycle_graph, pinched_octagon
from circmix.graphs import Cycle, build_graph
from circmix.kernels import DEFAULT_STATE_BUDGET, BudgetExceededError, enumerate_states
from circmix.reconfig import NonMixingWitness, is_mixing_oracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="g.txt", rotation=None):
    doc = files.GraphDocument(graph=g, rotation=rotation)
    path = tmp_path / name
    path.write_text(files.serialize_graph_document(doc))
    return str(path)


class TestGen:
    def test_cycle_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "c10.txt"
        code, _, _ = run(capsys, "gen", "cycle", "10", "--out", str(out))
        assert code == 0
        doc = files.load_graph_document(str(out))
        assert doc.graph.n == 10 and doc.graph.m == 10
        assert doc.rotation is not None

    def test_clique(self, capsys):
        code, text, _ = run(capsys, "gen", "clique", "5", "2")
        assert code == 0
        doc = files.parse_graph_document(text)
        assert support.brute_isomorphic(doc.graph, support.cycle(5))

    def test_figure_graph(self, tmp_path, capsys):
        out = tmp_path / "f.txt"
        code, _, _ = run(capsys, "gen", "figure1", "--out", str(out))
        assert code == 0
        doc = files.load_graph_document(str(out))
        assert doc.graph.n == 14
        assert doc.rotation is not None and doc.rotation.outer is not None

    def test_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "gen", "grid", "2", "2", "--out", "-",
                         "--dot", str(dot))
        assert code == 0
        assert "graph" in dot.read_text()

    def test_bad_arity(self, capsys):
        code, _, err = run(capsys, "gen", "cycle")
        assert code == 4


class TestMix:
    def test_oracle_exit_codes(self, tmp_path, capsys):
        c4 = write_graph(tmp_path, support.cycle(4), "c4.txt")
        code, out, _ = run(capsys, "mix", c4, "-p", "5", "-q", "2")
        assert code == 0 and "MIXING" in out
        c6 = write_graph(tmp_path, support.cycle(6), "c6.txt")
        code, out, _ = run(capsys, "mix", c6, "-p", "7", "-q", "2")
        assert code == 1 and "NOT-MIXING" in out

    def test_vacuous(self, tmp_path, capsys):
        tri = write_graph(tmp_path, support.cycle(3), "c3.txt")
        code, out, _ = run(capsys, "mix", tri, "-p", "5", "-q", "2")
        assert code == 2 and "VACUOUS" in out

    def test_wind_certificate_roundtrip(self, tmp_path, capsys):
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        cert = str(tmp_path / "c10.wit")
        code, _, _ = run(capsys, "mix", c10, "-p", "5", "-q", "2",
                         "--method", "wind", "--certificate", cert)
        assert code == 1
        code, out, _ = run(capsys, "verify", cert)
        assert code == 0 and "PASS" in out

    def test_mobius_ladder_mixes_only_after_a_scan(self, tmp_path, capsys):
        # M10 at (3,1): a 6-cycle in its minimum basis reaches T = 6, so
        # MIXING comes from a scan and writes no certificate
        m10 = write_graph(tmp_path, support.mobius_ladder(5), "m10.txt")
        cert = tmp_path / "m10.cert"
        assert run(capsys, "mix", m10, "-p", "3", "-q", "1", "--method", "wind",
                   "--certificate", str(cert)) == (0, "MIXING\n", "")
        assert not cert.exists()
        for p, q in (("7", "2"), ("10", "3")):
            assert run(capsys, "mix", m10, "-p", p, "-q", q, "--method", "wind",
                       "--certificate", str(cert)) == (
                1, f"NOT-MIXING\ncertificate: {cert}\n", "")
            assert run(capsys, "verify", str(cert)) == (0, "PASS\n", "")

    def test_oracle_certificate_also_verifies(self, tmp_path, capsys):
        c6 = write_graph(tmp_path, support.cycle(6), "c6.txt")
        cert = str(tmp_path / "c6.wit")
        code, _, _ = run(capsys, "mix", c6, "-p", "3", "-q", "1",
                         "--certificate", cert)
        assert code == 1
        code, out, _ = run(capsys, "verify", cert)
        assert code == 0 and "PASS" in out

    def test_fold_certificate_roundtrip(self, tmp_path, capsys):
        c8 = write_graph(tmp_path, support.cycle(8), "c8.txt")
        cert = str(tmp_path / "c8.trace")
        code, _, _ = run(capsys, "mix", c8, "-p", "3", "-q", "1",
                         "--method", "fold", "--certificate", cert)
        assert code == 1
        code, out, _ = run(capsys, "verify", cert)
        assert code == 0 and "PASS" in out

    def test_fold_requires_odd_cycle_params(self, tmp_path, capsys):
        c8 = write_graph(tmp_path, support.cycle(8), "c8.txt")
        code, _, err = run(capsys, "mix", c8, "-p", "7", "-q", "2",
                           "--method", "fold")
        assert code == 4 and "2q+1" in err

    def test_planar_method(self, tmp_path, capsys):
        gg = pinched_octagon()
        path = write_graph(tmp_path, gg.graph, "oct.txt", rotation=gg.rotation)
        explain = str(tmp_path / "tree.json")
        code, out, _ = run(capsys, "mix", path, "-p", "7", "-q", "2",
                           "--method", "planar", "--explain", explain)
        assert code == 1
        assert "faces" in out
        assert os.path.exists(explain)

    @pytest.mark.parametrize("method", ["oracle", "wind", "fold"])
    def test_explain_needs_planar(self, tmp_path, capsys, method):
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        explain = tmp_path / "ex.json"
        code, out, err = run(capsys, "mix", c10, "-p", "5", "-q", "2",
                             "--method", method, "--explain", str(explain))
        assert code == 4 and "--explain" in err
        assert out == "" and not explain.exists()

    def test_planar_needs_rotation(self, tmp_path, capsys):
        c6 = write_graph(tmp_path, support.cycle(6), "c6.txt")
        code, _, err = run(capsys, "mix", c6, "-p", "7", "-q", "2",
                           "--method", "planar")
        assert code == 4 and "rotation" in err

    def test_wind_needs_no_state_codes(self, tmp_path, capsys):
        # C30 at (5,2) has state codes past 63 bits: the wind scan makes
        # none and answers, while the oracle's coded table is refused at once
        graph = write_graph(tmp_path, support.cycle(30), "c30.txt")
        cert = str(tmp_path / "c30.wit")
        code, out, _ = run(capsys, "mix", graph, "-p", "5", "-q", "2",
                           "--method", "wind", "--certificate", cert)
        assert (code, out) == (1, f"NOT-MIXING\ncertificate: {cert}\n")
        assert run(capsys, "verify", cert)[:2] == (0, "PASS\n")
        code, _, err = run(capsys, "mix", graph, "-p", "5", "-q", "2", "--method", "oracle")
        assert code == 3 and "exceed 63 bits" in err

    def test_budget_exit_code(self, tmp_path, capsys):
        p6 = write_graph(tmp_path, support.path(6), "p6.txt")
        code, _, err = run(capsys, "mix", p6, "-p", "7", "-q", "2",
                           "--budget", "10")
        assert code == 3 and "budget" in err.lower()

    def test_dot_export(self, tmp_path, capsys):
        k2 = write_graph(tmp_path, build_graph(2, [(0, 1)]), "k2.txt")
        dot = str(tmp_path / "col.dot")
        code, _, _ = run(capsys, "mix", k2, "-p", "5", "-q", "2", "--dot", dot)
        assert code == 0
        text = open(dot).read()
        assert text.count("--") == 10  # the 10-state cycle of moves

    def test_dot_matches_python_reference(self):
        rng = random.Random(5)
        graphs = []
        for _ in range(100):
            n = rng.randint(1, 6)
            graphs.append(build_graph(n, [(u, v) for u in range(n)
                                          for v in range(u + 1, n)
                                          if rng.random() < 0.5]))
        exported = 0
        for g in graphs:
            for p, q in ((3, 1), (4, 2), (5, 2), (7, 3)):
                params = CircularParams(p, q)
                if enumerate_states(g, p, q).shape[0] > files.DOT_STATE_CAP:
                    with pytest.raises(BudgetExceededError):
                        files.col_graph_to_dot(g, params)
                    continue
                expected = support.python_col_graph_dot(g, params)
                assert files.col_graph_to_dot(g, params) == expected
                exported += 1
        assert exported > 350

    def test_dot_cap_counts_proper_states(self):
        # 21,952 partial states at vertex 5 but 7,392 proper states
        g = build_graph(7, [(0, 3), (0, 6), (1, 6), (2, 5), (2, 6),
                            (3, 4), (4, 6), (5, 6)])
        params = CircularParams(7, 2)
        text = files.col_graph_to_dot(g, params)
        assert text.count("[label=") == 7392
        assert text == support.python_col_graph_dot(g, params)

    def test_dot_over_the_cap(self, tmp_path, capsys):
        # 7 * 4^6 = 28,672 proper states, over the DOT cap of 20,000
        p7 = write_graph(tmp_path, support.path(7), "p7.txt")
        dot = tmp_path / "col.dot"
        code, out, err = run(capsys, "mix", p7, "-p", "7", "-q", "2",
                             "--dot", str(dot))
        assert (code, out) == (3, "")  # every output is built before any is written
        assert err == "budget exceeded: more than 20000 proper states\n"
        assert not dot.exists()

    def test_oracle_certificate_outside_the_wind_ratios_prints_nothing(
            self, tmp_path, capsys):
        # the oracle decides p/q = 2, but its witness comes from the wind
        # scan, which refuses that ratio: exit 4 before the verdict is printed
        c4 = write_graph(tmp_path, support.cycle(4), "c4.txt")
        cert = tmp_path / "c4.wit"
        code, out, err = run(capsys, "mix", c4, "-p", "4", "-q", "2",
                             "--method", "oracle", "--certificate", str(cert))
        assert (code, out) == (4, "") and "strictly between 2 and 4" in err
        assert not cert.exists()

    def test_planar_certificate_past_the_budget_prints_nothing(
            self, tmp_path, monkeypatch, capsys):
        # a 6x6 grid less the edge 14-15 decides NOT-MIXING at once, but its
        # witness comes from a wind scan past the budget: exit 3, no verdict
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "grid", "6", "6", "--out", "grid.txt")
        lines = []
        for line in (tmp_path / "grid.txt").read_text().splitlines():
            if line.startswith(("rotation 14:", "rotation 15:")):
                head, entries = line.split(":")
                other = "15" if head.endswith("14") else "14"
                line = head + ": " + " ".join(w for w in entries.split() if w != other)
            if line != "edge 14 15":
                lines.append(line)
        (tmp_path / "cut.txt").write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "mix", "cut.txt", "-p", "7", "-q", "2",
                           "--method", "planar")
        assert code == 1 and out.startswith("NOT-MIXING\n") and "faces" in out
        code, out, err = run(capsys, "mix", "cut.txt", "-p", "7", "-q", "2",
                             "--method", "planar", "--certificate", "cut.wit",
                             "--budget", "100000")
        assert (code, out) == (3, "") and "more than 100000" in err
        assert not (tmp_path / "cut.wit").exists()

    def test_certificate_into_a_missing_directory_prints_nothing(self, tmp_path, capsys):
        # the trace file is written before the verdict: exit 4, empty stdout
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        cert = tmp_path / "missing" / "c10.trace"
        code, out, err = run(capsys, "mix", c10, "-p", "3", "-q", "1",
                             "--method", "fold", "--certificate", str(cert))
        assert (code, out) == (4, "") and "No such file or directory" in err


class TestReach:
    def test_oracle_path(self, tmp_path, capsys):
        k2 = write_graph(tmp_path, build_graph(2, [(0, 1)]), "k2.txt")
        f = tmp_path / "f.col"
        g = tmp_path / "g.col"
        f.write_text("0=0\n1=2\n")
        g.write_text("0=1\n1=3\n")
        code, out, _ = run(capsys, "reach", k2, "-p", "5", "-q", "2",
                           "--from", str(f), "--to", str(g))
        assert code == 0 and "REACHABLE" in out and "recolour" in out

    def test_identity_empty_path(self, tmp_path, capsys):
        k2 = write_graph(tmp_path, build_graph(2, [(0, 1)]), "k2.txt")
        f = tmp_path / "f.col"
        f.write_text("0=0\n1=2\n")
        code, out, _ = run(capsys, "reach", k2, "-p", "5", "-q", "2",
                           "--from", str(f), "--to", str(f))
        assert code == 0 and "steps: 0" in out

    def test_unreachable_wind_classes(self, tmp_path, capsys):
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        f = tmp_path / "f.col"
        g = tmp_path / "g.col"
        f.write_text("".join(f"{i}={2 * i % 5}\n" for i in range(10)))
        g.write_text("".join(f"{i}={0 if i % 2 == 0 else 2}\n" for i in range(10)))
        for method in ("oracle", "characterized"):
            code, out, _ = run(capsys, "reach", c10, "-p", "5", "-q", "2",
                               "--from", str(f), "--to", str(g),
                               "--method", method)
            assert code == 1 and "UNREACHABLE" in out

    def test_improper_colouring_rejected(self, tmp_path, capsys):
        k2 = write_graph(tmp_path, build_graph(2, [(0, 1)]), "k2.txt")
        f = tmp_path / "f.col"
        g = tmp_path / "g.col"
        f.write_text("0=0\n1=1\n")
        g.write_text("0=0\n1=2\n")
        code, _, err = run(capsys, "reach", k2, "-p", "5", "-q", "2",
                           "--from", str(f), "--to", str(g))
        assert code == 4 and "improper" in err


class TestVerify:
    def test_corrupted_weight_fails(self, tmp_path, capsys):
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        cert = str(tmp_path / "w.txt")
        run(capsys, "mix", c10, "-p", "5", "-q", "2", "--method", "wind",
            "--certificate", cert)
        text = open(cert).read().replace("weight: 20", "weight: 25")
        open(cert, "w").write(text)
        code, out, _ = run(capsys, "verify", cert)
        assert code == 1 and "FAIL" in out

    def test_corrupted_trace_fails(self, tmp_path, capsys):
        c8 = write_graph(tmp_path, support.cycle(8), "c8.txt")
        cert = str(tmp_path / "t.txt")
        run(capsys, "mix", c8, "-p", "3", "-q", "1", "--method", "fold",
            "--certificate", cert)
        text = open(cert).read().replace("fold 0 2", "fold 0 4")
        open(cert, "w").write(text)
        code, out, _ = run(capsys, "verify", cert)
        assert code == 1 and "FAIL" in out

    @pytest.mark.parametrize("p, q", [(10, 2), (8, 2)])
    def test_witness_outside_the_wind_ratios_fails(self, tmp_path, capsys, p, q):
        # C6 mixes at p/q >= 4, though some colouring wraps its cycle there
        c6 = support.cycle(6)
        write_graph(tmp_path, c6, "c6.txt")
        params = CircularParams(p, q)
        assert is_mixing_oracle(c6, params).status == "mixing"
        cycle = Cycle(tuple(range(6)))
        f = next(f for f in enumerate_colourings(c6, params)
                 if cycle_wind(f, cycle).wrapped)
        report = cycle_wind(f, cycle)
        witness = NonMixingWitness(colouring=f, cycle=report.cycle,
                                   weight=report.weight, required=report.required)
        cert = tmp_path / "c6.wit"
        cert.write_text(files.serialize_witness(witness, graph_ref="c6.txt"))
        assert run(capsys, "verify", str(cert)) == (1, "FAIL: ratio-outside-(2,4)\n", "")

    def test_trace_without_target_is_refused(self, tmp_path, capsys):
        # the cube mixes at (3,1): a trace naming no target cycle shows nothing
        cube = cube_graph().graph
        write_graph(tmp_path, cube, "cube.txt")
        trace = tmp_path / "cube.trace"
        trace.write_text("fold-trace\ngraph: cube.txt\nfinal:\n" + "".join(
            f"{u} {v}\n" for u, v in sorted(cube.edges)) + "end\n")
        assert run(capsys, "verify", str(trace)) == (
            4, "", "error: fold trace missing its target cycle length\n")

    @pytest.mark.parametrize("old, new, failure", [
        ("0 5\n", "0 4\n", "final edge list does not match the replayed graph"),
        ("target: 6", "target: 8", "final graph is not a 8-cycle")])
    def test_edited_trace_fails(self, tmp_path, capsys, old, new, failure):
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        cert = tmp_path / "t.trace"
        run(capsys, "fold-search", c10, "-L", "6", "--out", str(cert))
        text = cert.read_text()
        assert text.count(old) == 1
        cert.write_text(text.replace(old, new))
        assert run(capsys, "verify", str(cert)) == (1, f"FAIL: {failure}\n", "")

    def test_certificates_written_beside_another_directory(self, tmp_path,
                                                           monkeypatch, capsys):
        # each certificate names its graph relative to its own directory
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "cycle", "10", "--out", "c10.txt")
        run(capsys, "gen", "cube", "--out", "cube.txt")
        os.mkdir("out")
        assert run(capsys, "mix", "c10.txt", "-p", "5", "-q", "2", "--method", "wind",
                   "--certificate", "out/c10.wit")[0] == 1
        assert run(capsys, "mix", "cube.txt", "-p", "7", "-q", "2", "--method", "wind",
                   "--certificate", "out/cube.mb")[0] == 0
        assert run(capsys, "mix", "c10.txt", "-p", "3", "-q", "1", "--method", "fold",
                   "--certificate", "out/c10.trace")[0] == 1
        assert run(capsys, "fold-search", "c10.txt", "-L", "6",
                   "--out", "out/x.trace")[0] == 0
        for cert, graph in (("out/c10.wit", "c10"), ("out/cube.mb", "cube"),
                            ("out/c10.trace", "c10"), ("out/x.trace", "c10")):
            assert f"graph: ../{graph}.txt\n" in open(cert).read()
            assert run(capsys, "verify", cert) == (0, "PASS\n", "")
        # a trace sent to stdout keeps the path as given
        assert "graph: c10.txt\n" in run(capsys, "fold-search", "c10.txt", "-L", "6")[1]

    def test_garbage_rejected(self, tmp_path, capsys):
        bad = tmp_path / "junk.txt"
        bad.write_text("hello\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 4

    @staticmethod
    def _edit_line(path, lineno, start, line):
        lines = open(path).read().splitlines()
        assert lines[lineno - 1].startswith(start)
        lines[lineno - 1] = line
        open(path, "w").write("\n".join(lines) + "\n")

    @pytest.mark.parametrize("lineno, start, line", [(19, "required:", "required: 1/0"),
                                                     (9, "3=", "3")])
    def test_malformed_witness_line_is_named(self, tmp_path, capsys, lineno, start, line):
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        cert = str(tmp_path / "w.txt")
        run(capsys, "mix", c10, "-p", "5", "-q", "2", "--method", "wind",
            "--certificate", cert)
        self._edit_line(cert, lineno, start, line)
        assert run(capsys, "verify", cert) == (
            4, "", f"error: line {lineno}: cannot parse {line!r}\n")

    def test_malformed_trace_line_is_named(self, tmp_path, capsys):
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        trace = str(tmp_path / "t.txt")
        run(capsys, "fold-search", c10, "-L", "6", "--out", trace)
        self._edit_line(trace, 5, "fold ", "fold 0")
        assert run(capsys, "verify", trace) == (
            4, "", "error: line 5: cannot parse 'fold 0'\n")

    @pytest.mark.parametrize("length", [12, 14])
    def test_wind_decides_past_full_table_budget(self, tmp_path, capsys, length):
        # C12 has 16.8M (7,2)-colourings, above the default budget; the
        # wind scan stops at its first wrapped pinned colouring instead
        graph = write_graph(tmp_path, support.cycle(length), "c.txt")
        cert = str(tmp_path / "c.wit")
        code, out, err = run(capsys, "mix", graph, "-p", "7", "-q", "2",
                             "--method", "wind", "--certificate", cert)
        assert (code, out, err) == (1, f"NOT-MIXING\ncertificate: {cert}\n", "")
        assert run(capsys, "verify", cert)[:2] == (0, "PASS\n")


class TestOtherCommands:
    def test_fold_search(self, tmp_path, capsys):
        c8 = write_graph(tmp_path, support.cycle(8), "c8.txt")
        out = str(tmp_path / "t.txt")
        code, text, _ = run(capsys, "fold-search", c8, "-L", "6", "--out", out)
        assert code == 0 and "folds to C_6" in text
        code, text, _ = run(capsys, "verify", out)
        assert code == 0

        c4 = write_graph(tmp_path, support.cycle(4), "c4.txt")
        code, text, _ = run(capsys, "fold-search", c4, "-L", "6")
        assert code == 1 and "NONE" in text

    def test_fold_search_into_a_missing_directory_prints_nothing(self, tmp_path, capsys):
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        out = tmp_path / "missing" / "t.trace"
        code, text, err = run(capsys, "fold-search", c10, "-L", "6", "--out", str(out))
        assert (code, text) == (4, "") and "No such file or directory" in err

    def test_threshold(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "cycle", "10", "--out", "c10.txt")
        run(capsys, "gen", "figure1", "--out", "fig1.txt")
        assert run(capsys, "threshold", "c10.txt") == (0, (
            "threshold k = 3 (target cycle C_7; longest basis cycle 10; "
            "fold-tested k = [1, 2])\n"), "")
        assert run(capsys, "threshold", "fig1.txt") == (0, (
            "threshold k = 2 (target cycle C_5; longest basis cycle 8; "
            "fold-tested k = [1])\n"), "")

    def test_large_grid_needs_no_fold_search(self, tmp_path, monkeypatch, capsys):
        # 30 vertices whose minimum cycle basis is all 4-cycles, so both
        # answers come without a homomorphism scan
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "grid", "5", "6", "--out", "g.txt")
        assert run(capsys, "threshold", "g.txt") == (0, (
            "threshold k = 1 (target cycle C_3; longest basis cycle 4; "
            "fold-tested k = [])\n"), "")
        assert run(capsys, "fold-search", "g.txt", "-L", "6") == (1, "NONE\n", "")

    def test_fold_answers_past_sixteen_vertices(self, tmp_path, monkeypatch, capsys):
        # 19 vertices with girth 8: C_10 needs the homomorphism scan, which
        # has no vertex cap
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "theta", "4", "4", "12", "--out", "t.txt")
        assert run(capsys, "mix", "t.txt", "-p", "5", "-q", "2", "--method", "fold",
                   "--certificate", "t.trace") == (
            1, "NOT-MIXING\ncertificate: t.trace\n", "")
        assert run(capsys, "fold-search", "t.txt", "-L", "10", "--out", "t10.trace") == (
            0, "folds to C_10 in 9 step(s)\n", "")
        for cert in ("t.trace", "t10.trace"):
            assert run(capsys, "verify", cert) == (0, "PASS\n", "")
        assert run(capsys, "threshold", "t.txt") == (0, (
            "threshold k = 4 (target cycle C_9; longest basis cycle 16; "
            "fold-tested k = [1, 2, 3])\n"), "")

    def test_fold_budget(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "figure1", "--out", "fig1.txt")
        code, out, err = run(capsys, "fold-search", "fig1.txt", "-L", "6", "--budget", "3")
        assert (code, out) == (3, "")
        assert err == "budget exceeded: more than 3 partial states at vertex 2\n"
        code, out, err = run(capsys, "mix", "fig1.txt", "-p", "3", "-q", "1",
                             "--method", "fold", "--budget", "3")
        assert (code, out) == (3, "")

    def test_min_cycle(self, capsys):
        code, out, _ = run(capsys, "min-cycle", "-p", "5", "-q", "2")
        assert code == 0 and out.strip() == "10"

    def test_min_cycle_past_the_old_oracle_scan(self, capsys):
        # C_22 at (11,5) has too many states for 63-bit codes; the closed
        # form needs none
        assert run(capsys, "min-cycle", "-p", "11", "-q", "5") == (0, "22\n", "")

    def test_min_cycle_has_no_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["min-cycle", "-p", "5", "-q", "2", "--budget", "9"])
        assert exc.value.code == 4

    def test_usage_error_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mix"])  # missing required arguments
        assert exc.value.code == 4


def _subcommand_options(dest):
    """Subcommand name -> the argparse action of its ``dest`` option, for
    every subcommand that has one."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: action for name, parser in sub.choices.items()
            for action in parser._actions if action.dest == dest}


class TestDispatch:
    """Every value argparse accepts reaches a command branch; argparse alone
    refuses the others (exit 4)."""

    GENERATOR_ARGS = {"cycle": ["6"], "clique": ["5", "2"], "grid": ["2", "3"],
                      "theta": ["2", "2", "2"]}

    def test_every_generator_dispatches(self, capsys):
        kinds = _subcommand_options("kind")["gen"].choices
        assert sorted(kinds) == sorted(_GENERATORS)
        for kind in kinds:
            code, text, err = run(capsys, "gen", kind, *self.GENERATOR_ARGS.get(kind, []))
            assert (code, err) == (0, ""), kind
            assert files.parse_graph_document(text).graph.m > 0, kind

    def test_every_method_dispatches(self, tmp_path, capsys):
        gg = cycle_graph(6)  # not mixing at (3,1) by every method
        c6 = write_graph(tmp_path, gg.graph, "c6.txt", rotation=gg.rotation)
        methods = _subcommand_options("method")
        assert sorted(methods) == ["mix", "reach"]
        for method in methods["mix"].choices:
            code, out, err = run(capsys, "mix", c6, "-p", "3", "-q", "1", "--method", method)
            assert (code, out.splitlines()[0], err) == (1, "NOT-MIXING", ""), method
        k2 = write_graph(tmp_path, build_graph(2, [(0, 1)]), "k2.txt")
        f, g = tmp_path / "f.col", tmp_path / "g.col"
        f.write_text("0=0\n1=2\n")
        g.write_text("0=1\n1=3\n")
        for method in methods["reach"].choices:
            code, out, err = run(capsys, "reach", k2, "-p", "5", "-q", "2",
                                 "--from", str(f), "--to", str(g), "--method", method)
            assert (code, out.splitlines()[0], err) == (0, "REACHABLE", ""), method

    @pytest.mark.parametrize("argv", [
        ["gen", "bogus"],
        ["mix", "g.txt", "-p", "7", "-q", "2", "--method", "bogus"],
        ["reach", "g.txt", "-p", "7", "-q", "2", "--from", "f", "--to", "g",
         "--method", "bogus"]])
    def test_argparse_refuses_an_unknown_choice(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_a_negative_budget_is_refused_by_every_command(self, tmp_path, capsys):
        c10 = write_graph(tmp_path, support.cycle(10), "c10.txt")
        f = tmp_path / "f.col"
        f.write_text("".join(f"{v}={2 * (v % 2)}\n" for v in range(10)))
        commands = {"mix": ["mix", c10, "-p", "7", "-q", "2", "--method", "wind"],
                    "reach": ["reach", c10, "-p", "5", "-q", "2", "--from", str(f),
                              "--to", str(f)],
                    "fold-search": ["fold-search", c10, "-L", "6"],
                    "threshold": ["threshold", c10]}
        assert sorted(commands) == sorted(_subcommand_options("budget"))
        for argv in commands.values():
            for budget in ("-5", "-1"):
                with pytest.raises(SystemExit) as exc:
                    main(argv + ["--budget", budget])
                assert exc.value.code == 4, argv
                out = capsys.readouterr()
                assert out.out == ""
                assert out.err.endswith(
                    f"error: argument --budget: expected a non-negative integer, "
                    f"got '{budget}'\n")
            assert main(argv + ["--budget", str(DEFAULT_STATE_BUDGET)]) in (0, 1)
            capsys.readouterr()
        # the budget of 0 is a cap that nothing fits under
        assert run(capsys, "mix", c10, "-p", "5", "-q", "2", "--budget", "0")[0] == 3


class TestStartUp:
    """Commands that enumerate nothing never load numpy.  Run in a fresh
    interpreter, since this one has numpy loaded already."""

    SCRIPT = """
import contextlib, io, json, sys
from circmix.cli import main

def numpy_loaded():
    return any(name.startswith("numpy.") for name in sys.modules)

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    if numpy_loaded():
        sys.exit(f"numpy loaded by {argv}")
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(json.loads(sys.argv[2])))
print(json.dumps([codes, numpy_loaded()]))
"""

    def test_only_kernels_load_numpy(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for kind, *args in (["cycle", "10"], ["cube"], ["figure1"]):
            run(capsys, "gen", kind, *args, "--out", f"{kind}.txt")
        scan = ["mix", "cycle.txt", "-p", "5", "-q", "2", "--method", "wind"]
        assert run(capsys, *scan, "--certificate", "c10.wit")[0] == 1
        free = [
            ["verify", "c10.wit"],
            ["mix", "cycle.txt", "-p", "3", "-q", "1", "--method", "fold",
             "--certificate", "c10.trace"],
            ["verify", "c10.trace"],
            ["mix", "figure1.txt", "-p", "7", "-q", "2", "--method", "planar"],
            ["threshold", "cycle.txt"],
            ["fold-search", "cycle.txt", "-L", "6"],
            ["min-cycle", "-p", "5", "-q", "2"],
            ["mix", "cube.txt", "-p", "7", "-q", "2", "--method", "wind",
             "--certificate", "cube.basis"],
            ["verify", "cube.basis"],
        ]
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(circmix.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(free),
             json.dumps(scan + ["--certificate", "scan.wit"])],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 1, 0, 1, 0, 0, 0, 0, 0, 1], True]
        assert (tmp_path / "scan.wit").read_text() == (tmp_path / "c10.wit").read_text()


class TestDocumentRoundTrips:
    def test_graph_document_with_everything(self, tmp_path):
        gg = pinched_octagon()
        doc = files.GraphDocument(graph=gg.graph, rotation=gg.rotation,
                                  colourings={"a": tuple([0] * 14)})
        text = files.serialize_graph_document(doc)
        back = files.parse_graph_document(text)
        assert back.graph == gg.graph
        assert back.rotation.rotation == gg.rotation.rotation
        assert back.rotation.outer == gg.rotation.outer
        assert back.colourings == {"a": tuple([0] * 14)}

    def test_parse_errors(self):
        with pytest.raises(files.ParseError):
            files.parse_graph_document("edge 0 1\n")
        with pytest.raises(files.ParseError):
            files.parse_graph_document("n 2\nfrobnicate\n")


class TestFractionalWitness:
    def test_odd_cycle_witness_roundtrip(self, tmp_path, capsys):
        # non-bipartite input: the witness cycle is odd and its required
        # weight is the half-integer 25/2, serialized as a fraction
        c5 = write_graph(tmp_path, support.cycle(5), "c5.txt")
        cert = str(tmp_path / "c5.wit")
        code, _, _ = run(capsys, "mix", c5, "-p", "5", "-q", "2",
                         "--method", "wind", "--certificate", cert)
        assert code == 1
        assert "required: 25/2" in open(cert).read()
        code, out, _ = run(capsys, "verify", cert)
        assert code == 0 and "PASS" in out


class TestMethodAgreement:
    def test_all_methods_agree(self, tmp_path, capsys):
        # every method in scope gives the same verdict and exit code
        for length, expected in ((8, 1), (4, 0)):
            out = tmp_path / f"c{length}.txt"
            run(capsys, "gen", "cycle", str(length), "--out", str(out))
            codes = {}
            for method in ("oracle", "wind", "fold", "planar"):
                code, text, _ = run(capsys, "mix", str(out), "-p", "3", "-q", "1",
                                    "--method", method)
                codes[method] = code
            assert set(codes.values()) == {expected}, codes


class TestGoldenOutput:
    """Exact stdout and certificate bytes pinned from a known-good build.

    Kernel and graph-search changes must keep every deterministic choice:
    the least unbalanced colouring, the shortest odd cycle, the girth cycle
    whose closing edge the BFS-level zigzag map drops, and the least winding
    map behind a fold trace.
    """

    C10_WITNESS = ("witness\ngraph: c10.txt\np: 5\nq: 2\ncolouring:\n"
                   "0=0\n1=2\n2=4\n3=1\n4=3\n5=0\n6=2\n7=4\n8=1\n9=3\nend\n"
                   "cycle: 0 1 2 3 4 5 6 7 8 9\nweight: 20\nrequired: 25\n")
    C7_WITNESS = ("witness\ngraph: c7.txt\np: 5\nq: 2\ncolouring:\n"
                  "0=0\n1=2\n2=0\n3=2\n4=4\n5=1\n6=3\nend\n"
                  "cycle: 0 1 2 3 4 5 6\nweight: 15\nrequired: 35/2\n")
    # theta(2,3,3) has two shortest odd cycles; the BFS order picks 0 2 1 4 3
    THETA_WITNESS = ("witness\ngraph: theta.txt\np: 5\nq: 2\ncolouring:\n"
                     "0=0\n1=1\n2=3\n3=2\n4=4\n5=2\n6=4\nend\n"
                     "cycle: 0 2 1 4 3\nweight: 15\nrequired: 25/2\n")
    C10_TRACE = ("fold-trace\ngraph: c10.txt\ncomponent: 0 1 2 3 4 5 6 7 8 9\n"
                 "target: 6\nfold 0 2\nfold 1 2\nfold 0 2\nfold 1 2\nfinal:\n"
                 "0 1\n0 5\n1 2\n2 3\n3 4\n4 5\nend\n")
    FIGURE1_SEARCH = ("folds to C_8 in 6 step(s)\nfold-trace\ngraph: fig1.txt\n"
                      "target: 8\nfold 0 2\nfold 0 5\nfold 1 2\nfold 1 3\n"
                      "fold 1 3\nfold 1 3\nfinal:\n0 1\n0 3\n1 2\n2 7\n3 4\n"
                      "4 5\n5 6\n6 7\nend\n")
    # C8 plus the chord 2-7 at (3,1): the minimum basis holds the 4-cycle
    # 0 1 2 7 and the 6-cycle 2..7, and only the 6-cycle can be unbalanced
    C8_CHORD_WITNESS = ("witness\ngraph: c8chord.txt\np: 3\nq: 1\ncolouring:\n"
                        "0=0\n1=1\n2=0\n3=1\n4=2\n5=0\n6=1\n7=2\nend\n"
                        "cycle: 2 3 4 5 6 7\nweight: 6\nrequired: 9\n")

    def test_pinned_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # certificates record the graph path
        for args in (("cycle", "10", "--out", "c10.txt"),
                     ("cycle", "7", "--out", "c7.txt"),
                     ("theta", "2", "3", "3", "--out", "theta.txt"),
                     ("figure1", "--out", "fig1.txt")):
            assert run(capsys, "gen", *args)[0] == 0
        write_graph(tmp_path, build_graph(8, [(i, (i + 1) % 8) for i in range(8)]
                                          + [(2, 7)]), name="c8chord.txt")
        cases = [
            (("mix", "c10.txt", "-p", "5", "-q", "2", "--method", "wind",
              "--certificate", "c10.wit"), "c10.wit", self.C10_WITNESS),
            (("mix", "c7.txt", "-p", "5", "-q", "2", "--method", "wind",
              "--certificate", "c7.wit"), "c7.wit", self.C7_WITNESS),
            (("mix", "theta.txt", "-p", "5", "-q", "2", "--method", "wind",
              "--certificate", "theta.wit"), "theta.wit", self.THETA_WITNESS),
            (("mix", "c10.txt", "-p", "3", "-q", "1", "--method", "fold",
              "--certificate", "c10.trace"), "c10.trace", self.C10_TRACE),
            (("mix", "c8chord.txt", "-p", "3", "-q", "1", "--method", "wind",
              "--certificate", "c8chord.wit"), "c8chord.wit", self.C8_CHORD_WITNESS),
        ]
        for argv, cert, expected in cases:
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, f"NOT-MIXING\ncertificate: {cert}\n", "")
            assert (tmp_path / cert).read_bytes() == expected.encode()
        code, out, err = run(capsys, "fold-search", "fig1.txt", "-L", "8")
        assert (code, out, err) == (0, self.FIGURE1_SEARCH, "")

    # recolouring graphs as (state labels, "i-j" edges) in DOT order
    C4_DOT = (
        "0202 0203 0242 0302 0303 0313 1303 1313 1314 1413 1414 1424 2020 "
        "2024 2030 2414 2420 2424 3020 3030 3031 3130 3131 3141 4131 4141 "
        "4142 4202 4241 4242",
        "0-27 0-3 0-2 0-1 1-4 2-29 3-4 4-6 4-5 5-7 6-7 7-9 7-8 8-10 9-10 "
        "10-15 10-11 11-17 12-18 12-16 12-14 12-13 13-17 14-19 15-17 16-17 "
        "18-19 19-21 19-20 20-22 21-22 22-24 22-23 23-25 24-25 25-28 25-26 "
        "26-29 27-29 28-29")
    THETA_DOT = (
        "00111 00112 00121 00122 00211 00212 00221 00222 01222 02111 10222 "
        "11000 11002 11020 11022 11200 11202 11220 11222 12000 20111 21000 "
        "22000 22001 22010 22011 22100 22101 22110 22111",
        "0-20 0-9 0-4 0-2 0-1 1-5 1-3 2-6 2-3 3-7 4-6 4-5 5-7 6-7 7-10 7-8 "
        "8-18 9-29 10-18 11-21 11-19 11-15 11-13 11-12 12-16 12-14 13-17 "
        "13-14 14-18 15-17 15-16 16-18 17-18 19-22 20-29 21-22 22-26 22-24 "
        "22-23 23-27 23-25 24-28 24-25 25-29 26-28 26-27 27-29 28-29")
    FIGURE1_TREE = {"kind": "faces", "mixing": False,
                    "detail": {"lengths": [4, 4, 4, 4, 10, 10], "threshold": 6,
                               "long_faces": 2},
                    "children": []}
    PINCH_LEAF = {"kind": "faces", "mixing": True,
                  "detail": {"lengths": [4, 4, 4], "threshold": 6, "long_faces": 0},
                  "children": []}
    PINCH_TREE = {"kind": "split", "mixing": True,
                  "detail": {"cycle": [0, 1, 2, 3]},
                  "children": [PINCH_LEAF, PINCH_LEAF]}

    @staticmethod
    def dot_text(labels, edges):
        lines = ["graph col {"]
        lines += [f'  s{i} [label="{x}"];' for i, x in enumerate(labels.split())]
        lines += ["  s{} -- s{};".format(*e.split("-")) for e in edges.split()]
        return "\n".join(lines + ["}"]) + "\n"

    def test_pinned_dot_min_cycle_and_explain(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for args in (("cycle", "4", "--out", "c4.txt"),
                     ("theta", "2", "2", "2", "--out", "theta.txt"),
                     ("figure1", "--out", "fig1.txt"),
                     ("c4-pinch", "--out", "pinch.txt")):
            assert run(capsys, "gen", *args)[0] == 0
        for graph, p, q, expected in (("c4.txt", "5", "2", self.C4_DOT),
                                      ("theta.txt", "3", "1", self.THETA_DOT)):
            code, out, err = run(capsys, "mix", graph, "-p", p, "-q", q,
                                 "--dot", "col.dot")
            assert (code, out, err) == (0, "MIXING\n", "")
            assert (tmp_path / "col.dot").read_text() == self.dot_text(*expected)
        for p, q, length in ((3, 1, 6), (5, 2, 10), (7, 2, 6), (7, 3, 14),
                             (8, 3, 8), (10, 4, 10)):
            assert run(capsys, "min-cycle", "-p", str(p), "-q", str(q)) == (
                0, f"{length}\n", "")
        code, out, err = run(capsys, "mix", "fig1.txt", "-p", "7", "-q", "2",
                             "--method", "planar", "--explain", "fig1.json")
        assert (code, out, err) == (
            1, "NOT-MIXING\nfaces: not-mixing {'lengths': [4, 4, 4, 4, 10, 10], "
            "'threshold': 6, 'long_faces': 2}\n", "")
        assert (tmp_path / "fig1.json").read_text() == json.dumps(
            self.FIGURE1_TREE, indent=2) + "\n"
        leaf = ("  faces: mixing {'lengths': [4, 4, 4], 'threshold': 6, "
                "'long_faces': 0}\n")
        code, out, err = run(capsys, "mix", "pinch.txt", "-p", "3", "-q", "1",
                             "--method", "planar", "--explain", "pinch.json")
        assert (code, out, err) == (
            0, "MIXING\nsplit: mixing {'cycle': (0, 1, 2, 3)}\n" + leaf + leaf, "")
        assert (tmp_path / "pinch.json").read_text() == json.dumps(
            self.PINCH_TREE, indent=2) + "\n"
