import hashlib
import itertools
import random

import pytest

import support
from circmix import files, fold, graphs
from circmix.circular import CircularParams
from circmix.cli import main
from circmix.fold import (RetractionMap, ThresholdResult, circular_mixing_threshold,
                          elementary_fold, folds_to_cycle, is_homomorphism_onto,
                          odd_mixing_by_fold, reduce_dominated, replay_trace,
                          retract_to_path, retract_to_shortest_cycle,
                          _fold_by_image, _is_cycle_graph, _winding_image)
from circmix.generators import pinched_octagon, theta_graph
from circmix.graphs import (bipartition, build_graph, distance, is_connected,
                            minimum_cycle_basis, shortest_cycle)
from circmix.kernels import DEFAULT_STATE_BUDGET, BudgetExceededError
from circmix.reconfig import is_mixing_oracle, is_mixing_wind

P31 = CircularParams(3, 1)
P52 = CircularParams(5, 2)


def keyeq(g, h):
    return support.canonical_key(g) == support.canonical_key(h)


class TestElementaryFold:
    def test_path_to_edge(self):
        g, step = elementary_fold(support.path(3), 0, 2)
        assert keyeq(g, build_graph(2, [(0, 1)]))
        assert (step.kept, step.merged) == (0, 2)

    def test_hexagon_two_folds_to_square(self):
        h, s1 = elementary_fold(support.cycle(6), 0, 2)
        h2, _ = elementary_fold(h, s1.vertex_map[1], s1.vertex_map[3])
        assert keyeq(h2, support.cycle(4))

    def test_square_to_path(self):
        h, _ = elementary_fold(support.cycle(4), 0, 2)
        assert keyeq(h, support.path(3))
        # and onwards to an edge
        h2, _ = elementary_fold(h, 1, 2)
        assert keyeq(h2, build_graph(2, [(0, 1)]))

    def test_rejects_adjacent_equal_and_far(self):
        g = support.path(4)
        with pytest.raises(ValueError):
            elementary_fold(g, 0, 1)
        with pytest.raises(ValueError):
            elementary_fold(g, 2, 2)
        with pytest.raises(ValueError):
            elementary_fold(g, 0, 3)

    def test_vertex_count_drops_by_one(self):
        g = support.grid(3, 3)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if distance(g, x, y) == 2:
                    h, _ = elementary_fold(g, x, y)
                    assert h.n == g.n - 1


class TestInPlaceFolds:
    @staticmethod
    def _random_legal_folds(rng, g):
        """Fold g at random legal pairs until none is left; returns the pairs
        and, per step, the reference graph and source -> current map."""
        pairs, graphs, maps = [], [g], [tuple(range(g.n))]
        while True:
            h = graphs[-1]
            legal = [(x, y) for x in range(h.n) for y in range(h.n)
                     if x != y and not h.has_edge(x, y)
                     and set(h.adjacency[x]) & set(h.adjacency[y])]
            if not legal:
                return pairs, graphs, maps
            x, y = rng.choice(legal)
            h, (kept, merged, vmap) = support.reference_fold(h, x, y)
            pairs.append((x, y, (kept, merged, vmap)))
            graphs.append(h)
            maps.append(tuple(vmap[v] for v in maps[-1]))

    def test_replay_matches_rebuilt_folds(self):
        # every prefix of a random legal fold sequence replays to the graph,
        # steps and composite map of folding by rebuilding the graph
        rng = random.Random(21)
        sources = [support.random_sparse_bipartite(rng) for _ in range(30)]
        while len(sources) < 45:
            n = rng.choice((6, 7, 8))
            g = build_graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < 0.35])
            if is_connected(g):
                sources.append(g)
        for g in sources:
            pairs, graphs, maps = self._random_legal_folds(rng, g)
            for i in range(len(pairs) + 1):
                trace = replay_trace(g, [(x, y) for x, y, _ in pairs[:i]])
                assert [(s.kept, s.merged, s.vertex_map) for s in trace.steps] == \
                    [ref for _, _, ref in pairs[:i]]
                assert trace.final == graphs[i] and trace.vertex_map == maps[i]
                assert is_homomorphism_onto(g, trace.final, trace.vertex_map)


class TestTraces:
    def test_replay_and_composite_map(self):
        g = support.cycle(8)
        trace = folds_to_cycle(g, 6)
        again = replay_trace(g, trace.steps)
        assert again.final == trace.final
        assert again.vertex_map == trace.vertex_map
        assert is_homomorphism_onto(g, trace.final, trace.vertex_map)

    def test_replay_rejects_bogus_steps(self):
        g = support.cycle(8)
        with pytest.raises(ValueError):
            replay_trace(g, [(0, 1)])

    def test_composite_maps_are_homomorphisms(self):
        for g in support.connected_bipartite_upto_iso(6):
            trace = folds_to_cycle(g, 6) if g.n > 6 else None
            if trace is not None:
                assert is_homomorphism_onto(g, trace.final, trace.vertex_map)


class TestReduceDominated:
    def test_pinched_octagon_reduces_to_octagon(self):
        from circmix.generators import pinched_octagon

        g = pinched_octagon().graph
        reduced, trace = reduce_dominated(g, P52)
        assert keyeq(reduced, support.cycle(8))
        assert trace.final == reduced
        assert is_homomorphism_onto(g, reduced, trace.vertex_map)

    def test_hexagon_is_irreducible(self):
        reduced, trace = reduce_dominated(support.cycle(6), P52)
        assert reduced.n == 6 and len(trace.steps) == 0

    def test_star_collapses_to_edge(self):
        reduced, _ = reduce_dominated(support.star(4), P52)
        assert keyeq(reduced, build_graph(2, [(0, 1)]))

    def test_preserves_oracle_verdict(self):
        for n in range(2, 8):
            for g in support.connected_bipartite_upto_iso(n):
                reduced, _ = reduce_dominated(g, P52)
                if reduced.n == g.n:
                    continue
                assert (is_mixing_oracle(g, P52).status
                        == is_mixing_oracle(reduced, P52).status)

    def test_ratio_guard(self):
        with pytest.raises(ValueError):
            reduce_dominated(support.star(3), CircularParams(4, 1))


class TestFoldsToCycle:
    def test_identity_target(self):
        g = support.cycle(6)
        trace = folds_to_cycle(g, 6)
        assert trace is not None and len(trace.steps) == 0
        assert trace.final is g and trace.vertex_map == tuple(range(6))

    def test_too_small(self):
        assert folds_to_cycle(support.cycle(4), 6) is None

    def test_pendant_hexagon(self):
        g = build_graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])
        trace = folds_to_cycle(g, 6)
        assert trace is not None
        assert _is_cycle_graph(trace.final, 6)
        # fold-reachability of the 6-cycle pins the (3,1) verdict
        assert is_mixing_oracle(g, P31).status == "not-mixing"

    def test_even_cycles_fold_down_but_not_up(self):
        for m in (8, 10, 12, 14):
            for target in range(4, m + 1, 2):
                trace = folds_to_cycle(support.cycle(m), target)
                assert trace is not None
                assert _is_cycle_graph(trace.final, target)
                assert len(trace.steps) == m - target
        assert folds_to_cycle(support.cycle(8), 10) is None

    def test_bipartite_cannot_reach_odd_cycles(self):
        assert folds_to_cycle(support.cycle(8), 5) is None

    def test_trees_never_fold_to_cycles(self):
        assert folds_to_cycle(support.path(8), 4) is None
        assert folds_to_cycle(support.star(7), 4) is None

    def test_prune_matches_unpruned_reference(self):
        # the longest-basis-cycle prune is sound for every target: even and
        # odd, bipartite and not
        cases = 0
        for n in range(1, 7):
            for g in support.connected_graphs_upto_iso(n):
                for length in range(3, n + 1):
                    found = folds_to_cycle(g, length)
                    assert (found is not None) == support.brute_folds_to_cycle(g, length), \
                        (g.edges, length)
                    cases += 1
        assert cases == 525

    def test_guided_and_search_agree_on_girth_cases(self):
        # run the winding construction on an input the fast path would take
        g = support.cycle(10)
        fast = folds_to_cycle(g, 6)
        image = _winding_image(g, 6, bipartition(g), support.basis_cycles(g), DEFAULT_STATE_BUDGET)
        slow = _fold_by_image(g, image, 6)
        assert fast is not None
        assert _is_cycle_graph(fast.final, 6) and _is_cycle_graph(slow.final, 6)

    def test_winding_image_reads_any_spanning_cycles(self):
        # winding is linear over the cycle space, so the least winding map
        # is the same over the basis cycles as over the fundamental cycles
        cases = [(g, length) for n in range(3, 7)
                 for g in support.connected_graphs_upto_iso(n)
                 for length in range(3, n + 1)]
        rng = random.Random(24)
        for _ in range(40):
            g = support.random_sparse_bipartite(rng, max_n=12)
            cases += [(g, length) for length in (6, 8, 10)]
        wound = 0
        for g, length in cases:
            bip = bipartition(g)
            rows = [_winding_image(g, length, bip, cycles, DEFAULT_STATE_BUDGET)
                    for cycles in (support.basis_cycles(g),
                                   support.fundamental_cycles(g))]
            assert rows[0] == rows[1], (g.edges, length)
            wound += rows[0] is not None
        assert wound >= 100, wound

    def test_long_cycle_trace_replays(self):
        g = support.cycle(400)
        trace = folds_to_cycle(g, 6)
        assert len(trace) == 394
        replayed = replay_trace(g, [(s.kept, s.merged) for s in trace.steps])
        assert _is_cycle_graph(replayed.final, 6) and replayed == trace

    def test_girth_path_searches_for_the_girth_once(self, monkeypatch):
        # the zigzag map drops a closing edge of the cycle the girth test found
        calls = []

        def counted(g, **kwargs):
            calls.append(g)
            return shortest_cycle(g, **kwargs)

        monkeypatch.setattr(fold, "shortest_cycle", counted)
        trace = folds_to_cycle(support.cycle(14), 6)
        assert _is_cycle_graph(trace.final, 6) and len(calls) == 1


class TestWindingConstruction:
    def test_seeded_sweep(self):
        # random connected graphs: every target the brute-force closure walk
        # can settle, positives replaying onto the cycle
        rng = random.Random(16)
        graphs = positives = 0
        while graphs < 40:
            n = rng.choice((7, 8))
            g = build_graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < 0.3])
            if not is_connected(g):
                continue
            graphs += 1
            for length in range(3, n + 1):
                trace = folds_to_cycle(g, length)
                assert (trace is not None) == support.brute_folds_to_cycle(g, length), \
                    (g.edges, length)
                if trace is not None:
                    positives += 1
                    assert _is_cycle_graph(replay_trace(g, trace.steps).final, length)
        # sparse bipartite graphs: the fold answer is the wind answer, and
        # every NOT-MIXING trace replays onto C_{4k+2}
        wrapped = 0
        for _ in range(100):
            g = support.random_sparse_bipartite(rng)
            for k in (1, 2, 3):
                mixing, payload = odd_mixing_by_fold(g, k)
                wind = is_mixing_wind(g, CircularParams(2 * k + 1, k))
                assert mixing == (wind.status == "mixing"), (g.edges, k)
                if not mixing:
                    wrapped += 1
                    _, trace = payload
                    final = replay_trace(trace.source, trace.steps).final
                    assert _is_cycle_graph(final, 4 * k + 2)
        assert positives >= 30 and wrapped >= 100, (positives, wrapped)

    def test_parity_domain(self):
        # vertices 0-11 form one side, so none has an earlier neighbour:
        # without its side's parity each takes any of 6 images and the scan
        # passes 10M partial maps at vertex 11; with it, the first block of
        # 3,292 maps holds a winding one
        g = support.random_connected_bipartite(16, 4, 16)[3]
        mixing, (_, trace) = odd_mixing_by_fold(g, 1)
        assert not mixing and is_mixing_wind(g, P31).status == "not-mixing"
        assert _is_cycle_graph(replay_trace(g, trace.steps).final, 6)


class TestOddMixing:
    def test_cycle_table(self):
        assert odd_mixing_by_fold(support.cycle(6), 1)[0] is False
        assert odd_mixing_by_fold(support.cycle(8), 1)[0] is False
        assert odd_mixing_by_fold(support.cycle(8), 2)[0] is True
        assert odd_mixing_by_fold(support.cycle(4), 1)[0] is True

    def test_matches_oracle_small(self):
        for k, params in ((1, P31), (2, P52)):
            for n in range(2, 8):
                for g in support.connected_bipartite_upto_iso(n):
                    mixing, payload = odd_mixing_by_fold(g, k)
                    assert mixing == (is_mixing_oracle(g, params).status == "mixing")
                    if not mixing:
                        comp, trace = payload
                        assert _is_cycle_graph(trace.final, 4 * k + 2)

    def test_disconnected_input(self):
        # hexagon plus an isolated edge: the hexagon component decides it
        g = build_graph(8, [(i, (i + 1) % 6) for i in range(6)] + [(6, 7)])
        mixing, payload = odd_mixing_by_fold(g, 1)
        assert not mixing
        comp, trace = payload
        assert comp == (0, 1, 2, 3, 4, 5)

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError):
            odd_mixing_by_fold(support.cycle(5), 1)

    def test_checks_each_graph_once(self, monkeypatch):
        # one bipartition for the input; its components and their basis are
        # not recomputed inside the fold search, and the scan reads the
        # cycles of that one basis
        counts = support.count_calls(
            monkeypatch, ("bipartition", "connected_components", "is_connected"), fold)
        bases = support.count_calls(
            monkeypatch, ("minimum_cycle_basis", "edge_set_cycles"), fold, graphs)
        hexagon_and_edge = build_graph(8, [(i, (i + 1) % 6) for i in range(6)] + [(6, 7)])
        theta = theta_graph(2, 2, 4).graph  # girth 4 < 6: the scan answers
        # (graph, mixes, basis calls, scans, folds built): only a folded
        # graph's final cycle has its connectivity tested, and only a scan
        # decodes the basis cycles
        for g, mixing, basis_calls, scans, folded in (
                (support.cycle(10), False, 0, 0, 1), (hexagon_and_edge, False, 0, 0, 0),
                (theta, False, 1, 1, 1), (support.grid(3, 3), True, 1, 0, 0)):
            for tally in (counts, bases):
                tally.update(dict.fromkeys(tally, 0))
            assert odd_mixing_by_fold(g, 1)[0] is mixing
            assert counts == {"bipartition": 1, "connected_components": 1,
                              "is_connected": folded}
            assert bases == {"minimum_cycle_basis": basis_calls, "edge_set_cycles": scans}


class TestThreshold:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tight_cycles(self, k):
        res = circular_mixing_threshold(support.cycle(4 * k + 2))
        assert res.k == k + 1

    def test_square(self):
        assert circular_mixing_threshold(support.cycle(4)).k == 1

    def test_tree(self):
        res = circular_mixing_threshold(support.path(6))
        assert res.k == 1 and res.longest_basis_cycle == 0 and res.tested == ()

    def test_matches_direct_scan(self):
        for g in support.connected_bipartite_upto_iso(6):
            res = circular_mixing_threshold(g)
            assert odd_mixing_by_fold(g, res.k)[0]
            if res.k > 1:
                assert not odd_mixing_by_fold(g, res.k - 1)[0]

    def test_matches_the_brute_fold_closure(self):
        for n in range(2, 8):
            for g in support.connected_bipartite_upto_iso(n):
                k = 1
                while support.brute_folds_to_cycle(g, 4 * k + 2):
                    k += 1
                assert circular_mixing_threshold(g).k == k, g.edges

    def test_one_basis_and_scans_only_past_the_girth(self, monkeypatch):
        counts = support.count_calls(
            monkeypatch, ("minimum_cycle_basis", "edge_set_cycles"), fold, graphs)
        scanned = []
        winding_image = fold._winding_image

        def counted_image(g, length, bip, cycles, budget):
            scanned.append(length)
            assert cycles == support.basis_cycles(g)
            return winding_image(g, length, bip, cycles, budget)

        monkeypatch.setattr(fold, "_winding_image", counted_image)
        # basis cycles 6 and 16: C_6 folds at the girth, C_10 and C_14 scan
        res = circular_mixing_threshold(theta_graph(3, 3, 13).graph)
        assert res == ThresholdResult(k=4, longest_basis_cycle=16, tested=(1, 2, 3))
        assert scanned == [10, 14]
        assert counts == {"minimum_cycle_basis": 1, "edge_set_cycles": 1}
        rng = random.Random(22)
        for _ in range(60):
            g = support.random_sparse_bipartite(rng)
            basis = minimum_cycle_basis(g)
            girth = basis[0][0] if basis else 0
            counts.update(dict.fromkeys(counts, 0))
            scanned.clear()
            res = circular_mixing_threshold(g)
            # a graph on at most L vertices folds onto C_L only if it is C_L;
            # the basis cycles are decoded once, and only for a scan
            assert scanned == [4 * k + 2 for k in res.tested if girth < 4 * k + 2 < g.n]
            assert counts == {"minimum_cycle_basis": 1,
                              "edge_set_cycles": int(bool(scanned))}

    def test_long_cycle(self):
        # every k up to 100 folds at the girth, with no scan and no trace
        res = circular_mixing_threshold(support.cycle(402))
        assert res == ThresholdResult(k=101, longest_basis_cycle=402,
                                      tested=tuple(range(1, 101)))


class TestRetractions:
    def test_path_identity(self):
        g = support.path(4)
        r = retract_to_path(g, 0, 3)
        assert r.assignment == (0, 1, 2, 3)

    def test_grid_corners(self):
        g = support.grid(3, 2)
        r = retract_to_path(g, 0, 5)
        assert len(r.image) == 4  # a shortest corner-to-corner path
        for h in r.image:
            assert r.assignment[h] == h
        for v in range(g.n):
            assert r.assignment[r.assignment[v]] == r.assignment[v]

    def test_octagon_retracts_to_itself(self):
        cycle_vertices, r = retract_to_shortest_cycle(support.cycle(8))
        assert sorted(cycle_vertices) == list(range(8))
        assert r.assignment == tuple(range(8))

    def test_octagon_minus_edge_is_its_own_path(self):
        g = build_graph(8, [(i, i + 1) for i in range(7)])
        r = retract_to_path(g, 0, 7)
        assert r.assignment == tuple(range(8))

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError):
            retract_to_path(support.cycle(5), 0, 2)

    def test_rejects_ends_out_of_range(self):
        g = support.path(5)
        for x, y in ((-1, 0), (0, -1), (5, 0), (0, 5)):
            with pytest.raises(ValueError):
                retract_to_path(g, x, y)

    def test_cycle_retraction_on_random_bipartite(self):
        for g in support.connected_bipartite_upto_iso(6):
            if shortest_cycle(g) is None:
                continue
            cycle_vertices, r = retract_to_shortest_cycle(g)
            # already validated internally; double-check idempotence here
            for v in range(g.n):
                assert r.assignment[r.assignment[v]] == r.assignment[v]

    def test_odd_cycle_retracts_to_itself(self):
        # dropping the closing edge of C5 leaves a bipartite path
        c5 = (0, 1, 2, 3, 4)
        assert retract_to_shortest_cycle(support.cycle(5)) == \
            (c5, RetractionMap(image=c5, assignment=c5))
        pendant = build_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
        assert retract_to_shortest_cycle(pendant)[1].assignment == (0, 1, 2, 3, 4, 1)

    @pytest.mark.parametrize("g, message", [
        (build_graph(4, itertools.combinations(range(4), 2)),
         "path retraction requires a bipartite graph"),
        (build_graph(8, [(i, (i + 1) % 4) for i in range(4)]
                     + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]),
         "path retraction requires a connected graph"),
        (build_graph(7, [(i, (i + 1) % 6) for i in range(6)]),
         "path retraction requires a connected graph"),
        (support.path(5), "graph is acyclic"),
    ])
    def test_cycle_retraction_refusals(self, g, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            retract_to_shortest_cycle(g)

    def test_path_onto_one_vertex_needs_no_edges(self):
        assert retract_to_path(build_graph(1, []), 0, 0).assignment == (0,)
        with pytest.raises(ValueError, match="with edges onto one vertex"):
            retract_to_path(support.path(3), 1, 1)

    def test_retractions_match_the_pinned_digest(self):
        # every shortest-cycle retraction of the connected bipartite graphs
        # on 6 vertices and path retractions between seeded vertex pairs
        digest = hashlib.sha256()
        for g in support.connected_bipartite_upto_iso(6):
            if g.m >= g.n:
                digest.update(repr(retract_to_shortest_cycle(g)).encode())
        rng = random.Random(24)
        for _ in range(300):
            g = support.random_sparse_bipartite(rng)
            r = retract_to_path(g, *rng.sample(range(g.n), 2))
            digest.update(f"{r.image} {r.assignment}\n".encode())
        assert digest.hexdigest() == \
            "5836105750b9479204867a609e13a53ed148f48a1a1cdcef7b34b6bd2eb10b53"


class TestNonBipartiteFolds:
    def test_pentagon_folds_to_triangle(self):
        trace = folds_to_cycle(support.cycle(5), 3)
        assert trace is not None and _is_cycle_graph(trace.final, 3)
        assert is_homomorphism_onto(trace.source, trace.final, trace.vertex_map)

    def test_pendant_pentagon_folds_to_pentagon(self):
        # a non-bipartite graph with an odd-cycle colouring folds onto that
        # odd cycle
        g = build_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
        trace = folds_to_cycle(g, 5)
        assert trace is not None and _is_cycle_graph(trace.final, 5)

    def test_state_budget(self):
        # girth 4 forces the homomorphism scan for L=6, and the 8-cycles in
        # its minimum basis keep it from the prune
        g = pinched_octagon().graph
        with pytest.raises(BudgetExceededError):
            folds_to_cycle(g, 6, budget=3)


def test_non_bipartite_cannot_reach_even_cycles():
    assert folds_to_cycle(support.cycle(7), 4) is None
    g = build_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
    assert folds_to_cycle(g, 4) is None


def test_folds_can_lengthen_the_longest_cycle():
    # two squares sharing a corner, folded at the two far corners: the image
    # contains a 6-cycle although the original's longest cycle is 4.  A
    # cycle-length prune is still sound for every target: it drops only
    # states that provably cannot fold to the target (see folds_to_cycle).
    g = build_graph(7, [(1, 0), (0, 2), (2, 3), (3, 1),
                        (4, 0), (0, 5), (5, 6), (6, 4)])
    assert max(map(len, support.brute_cycle_sets(g, g.n))) == 4
    folded, _ = elementary_fold(g, 1, 4)
    assert max(map(len, support.brute_cycle_sets(folded, folded.n))) == 6


def test_fold_answers_match_the_pinned_digest(tmp_path, capsys):
    # fold traces onto C_4..C_10 and ``threshold`` lines over a seeded sweep,
    # pinned to their bytes before folds merged in place
    rng = random.Random(21)
    digest = hashlib.sha256()
    path = tmp_path / "g.txt"
    for _ in range(200):
        g = support.random_sparse_bipartite(rng)
        for length in (4, 6, 8, 10):
            trace = folds_to_cycle(g, length)
            digest.update(b"NONE\n" if trace is None else
                          files.serialize_fold_trace(trace, graph_ref="g.txt").encode())
        path.write_text(files.serialize_graph_document(files.GraphDocument(graph=g)))
        assert main(["threshold", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == \
        "e2c640c0d06b45d913929869e2e78673db22991b81a9688e9b831b03c9835fb6"
