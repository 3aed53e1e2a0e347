import functools
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from circmix import graphs, kernels, reconfig
from circmix.circular import (CircularParams, Colouring, edge_weight,
                              enumerate_colourings, shift, validate_colouring)
from circmix.graphs import Cycle, build_graph, enumerate_cycles
from circmix.kernels import BudgetExceededError
from circmix.reconfig import (MixingVerdict, NonMixingWitness, _make_witness,
                              col_neighbours, fixed_vertices, is_mixing_oracle,
                              is_mixing_wind, is_reachable_characterized,
                              is_reachable_oracle, locked_vertices,
                              reachability_signature, verify_witness)

P31 = CircularParams(3, 1)
P52 = CircularParams(5, 2)
P72 = CircularParams(7, 2)
P73 = CircularParams(7, 3)
P83 = CircularParams(8, 3)


def brute_single_moves(f):
    """All proper one-vertex recolourings, straight from the definition."""
    g = f.host
    out = []
    for v in range(g.n):
        for c in range(f.params.p):
            if c == f.colours[v]:
                continue
            cand = list(f.colours)
            cand[v] = c
            trial = Colouring(params=f.params, colours=tuple(cand), host=g)
            if validate_colouring(g, trial)[0]:
                out.append(trial.colours)
    return out


class TestColNeighbours:
    def test_k2_example(self):
        # from (0,2): vertex 0 can only move to 4, vertex 1 only to 3
        g = build_graph(2, [(0, 1)])
        f = support.colouring(g, P52, (0, 2))
        got = [h.colours for h in col_neighbours(f)]
        assert got == brute_single_moves(f)
        assert set(got) == {(4, 2), (0, 3)}

    def test_isolated_vertex(self):
        g = build_graph(1, [])
        f = support.colouring(g, P31, (0,))
        assert [h.colours for h in col_neighbours(f)] == [(1,), (2,)]

    def test_wound_decagon_has_no_moves(self):
        g = support.cycle(10)
        f = support.colouring(g, P52, tuple(2 * i % 5 for i in range(10)))
        assert list(col_neighbours(f)) == []
        assert brute_single_moves(f) == []

    def test_matches_brute_force_everywhere(self):
        for g in support.connected_bipartite_upto_iso(4):
            for f in enumerate_colourings(g, P52):
                assert [h.colours for h in col_neighbours(f)] == brute_single_moves(f)


class TestMixingOracle:
    def test_c4_52_mixing(self):
        assert is_mixing_oracle(support.cycle(4), P52).status == "mixing"

    def test_c6_72_not_mixing(self):
        assert is_mixing_oracle(support.cycle(6), P72).status == "not-mixing"

    def test_triangle_params_cycles(self):
        assert is_mixing_oracle(support.cycle(6), P31).status == "not-mixing"
        assert is_mixing_oracle(support.cycle(4), P31).status == "mixing"

    def test_vacuous(self):
        v = is_mixing_oracle(support.cycle(3), P52)
        assert v.status == "vacuous" and v.state_count == 0

    def test_split_pair_lies_in_distinct_components(self):
        v = is_mixing_oracle(support.cycle(10), P52)
        assert v.status == "not-mixing"
        f, g = v.split_pair
        ok, path = is_reachable_oracle(f, g)
        assert not ok and path is None

    def test_matches_pure_python_components(self):
        for g, params in [(support.cycle(6), P72), (support.cycle(4), P52),
                          (support.grid(2, 3), P31),
                          (support.complete_bipartite(2, 3), P52)]:
            states, labels = support.python_mixing_components(g, params)
            v = is_mixing_oracle(g, params)
            assert v.state_count == len(states)
            assert v.component_count == len(set(labels))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            is_mixing_oracle(support.path(6), P72, budget=100)


class TestReachabilityOracle:
    def test_identity(self):
        g = build_graph(2, [(0, 1)])
        f = support.colouring(g, P52, (0, 2))
        ok, path = is_reachable_oracle(f, f)
        assert ok and [s.colours for s in path] == [(0, 2)]

    def test_k2_short_hop(self):
        g = build_graph(2, [(0, 1)])
        f = support.colouring(g, P52, (0, 2))
        h = support.colouring(g, P52, (1, 3))
        ok, path = is_reachable_oracle(f, h)
        assert ok
        assert path[0].colours == (0, 2) and path[-1].colours == (1, 3)
        for a, b in zip(path, path[1:]):
            assert sum(x != y for x, y in zip(a.colours, b.colours)) == 1
            assert validate_colouring(g, b)[0]

    def test_wind_classes_never_meet(self):
        g = support.cycle(10)
        f = support.colouring(g, P52, tuple(2 * i % 5 for i in range(10)))
        h = support.colouring(g, P52, tuple(0 if i % 2 == 0 else 2 for i in range(10)))
        ok, _ = is_reachable_oracle(f, h)
        assert not ok

    def test_rejects_improper(self):
        g = build_graph(2, [(0, 1)])
        f = support.colouring(g, P52, (0, 2))
        bad = support.colouring(g, P52, (0, 1))
        with pytest.raises(ValueError):
            is_reachable_oracle(f, bad)


class TestLocked:
    def test_wound_decagon_fully_locked(self):
        g = support.cycle(10)
        f = support.colouring(g, P52, tuple(2 * i % 5 for i in range(10)))
        assert locked_vertices(f) == frozenset(range(10))

    def test_k2_never_locked(self):
        g = build_graph(2, [(0, 1)])
        for f in enumerate_colourings(g, P52):
            assert locked_vertices(f) == frozenset()

    def test_alternating_decagon(self):
        g = support.cycle(10)
        f = support.colouring(g, P52, tuple(0 if i % 2 == 0 else 2 for i in range(10)))
        expected = frozenset(v for v in range(10) if not any(
            c != f.colours[v] and all(
                f.params.compatible(c, f.colours[u]) for u in g.adjacency[v])
            for c in range(5)))
        assert locked_vertices(f) == expected

    def test_lemma_matches_definition_exhaustively(self):
        for params in (P52, P31, P73):
            for n in range(2, 6):
                for g in support.connected_graphs_upto_iso(n):
                    for f in enumerate_colourings(g, params):
                        by_lemma = locked_vertices(f)
                        moved = {0}
                        moved.clear()
                        for h in col_neighbours(f):
                            v = next(i for i in range(g.n)
                                     if h.colours[i] != f.colours[i])
                            moved.add(v)
                        assert by_lemma == frozenset(range(g.n)) - moved

    def test_ratio_guard(self):
        g = build_graph(2, [(0, 1)])
        f = support.colouring(g, CircularParams(4, 2), (0, 2))
        with pytest.raises(ValueError):
            locked_vertices(f)


def oracle_fixed_sets(g, params):
    """Fixed set per colouring via component constancy, computed in bulk."""
    states = kernels.enumerate_states(g, params.p, params.q)
    if states.shape[0] == 0:
        return states, []
    codes = kernels.state_codes(states, params.p)
    labels = kernels.component_labels(states, codes, g, params.p, params.q)
    fixed_by_comp = {}
    for comp in np.unique(labels):
        block = states[labels == comp]
        constant = np.all(block == block[0], axis=0)
        fixed_by_comp[int(comp)] = frozenset(int(v) for v in np.nonzero(constant)[0])
    return states, [fixed_by_comp[int(labels[i])] for i in range(states.shape[0])]


class TestFixed:
    def test_wound_decagon_all_fixed_both_methods(self):
        g = support.cycle(10)
        f = support.colouring(g, P52, tuple(2 * i % 5 for i in range(10)))
        assert fixed_vertices(f, method="oracle").fixed == frozenset(range(10))
        assert fixed_vertices(f, method="tight-digraph").fixed == frozenset(range(10))

    def test_trees_have_no_fixed_vertices(self):
        for n in (2, 4, 6):
            g = support.path(n)
            for f in itertools.islice(enumerate_colourings(g, P52), 30):
                assert fixed_vertices(f, method="tight-digraph").fixed == frozenset()
                assert fixed_vertices(f, method="oracle").fixed == frozenset()

    def test_octagon_never_fixed(self):
        g = support.cycle(8)
        for f in enumerate_colourings(g, P52):
            assert fixed_vertices(f, method="tight-digraph").fixed == frozenset()

    def test_methods_agree_exhaustively(self):
        for params in (P52, P31):
            for n in range(2, 6):
                for g in support.connected_graphs_upto_iso(n):
                    states, fixed_sets = oracle_fixed_sets(g, params)
                    for i in range(states.shape[0]):
                        f = support.colouring(g, params,
                                              tuple(int(x) for x in states[i]))
                        tight = fixed_vertices(f, method="tight-digraph").fixed
                        assert tight == fixed_sets[i], (g.edges, f.colours)

    def test_tight_path_between_wound_triangles(self):
        # two all-weight-1 triangles joined by a tight 2-path: the interior
        # path vertex is fixed despite lying on no cycle at all
        g = build_graph(7, [(0, 1), (1, 2), (2, 0),
                            (4, 5), (5, 6), (6, 4), (2, 3), (3, 4)])
        f = support.colouring(g, P31, (0, 1, 2, 0, 1, 2, 0))
        report = fixed_vertices(f, method="tight-digraph")
        assert report.fixed == frozenset(range(7))
        assert fixed_vertices(f, method="oracle").fixed == frozenset(range(7))
        # evidence walks are tight along their orientation
        for v, walk in report.evidence.items():
            for a, b in zip(walk, walk[1:]):
                assert edge_weight(f, a, b) == 1

    def test_evidence_walks_are_tight(self):
        g = support.cycle(10)
        f = support.colouring(g, P52, tuple(2 * i % 5 for i in range(10)))
        report = fixed_vertices(f, method="tight-digraph")
        for v, walk in report.evidence.items():
            assert v in walk
            for a, b in zip(walk, walk[1:]):
                assert edge_weight(f, a, b) == 2

    def test_evidence_walks_pinned(self):
        # Exact evidence walks and signatures on 300 chains of tight odd
        # cycles (support.joined_odd_cycles), digest captured before the
        # tight-digraph traversals moved onto graphs.bfs_forest.  A cycle
        # walk closes at the first vertex, in BFS order from v, with an arc
        # into v; a path walk runs between the first core vertices reached
        # backwards and forwards.  The edge winds are left out of the
        # digest: test_signature_equality_is_fundamental_weight_equality
        # holds them to the fundamental cycle weights they stand for.
        lines = []
        path_walks = 0
        for seed in range(300):
            p, q = ((3, 1), (5, 2), (7, 3))[seed % 3]
            g, colours = support.joined_odd_cycles(random.Random(seed), p, q)
            f = support.colouring(g, CircularParams(p, q), colours)
            report = fixed_vertices(f)
            fixed, images, _, deltas = reachability_signature(f)
            for v, walk in report.evidence.items():
                assert v in walk
                assert all(edge_weight(f, a, b) == q for a, b in zip(walk, walk[1:]))
                path_walks += walk[0] != walk[-1]
            lines.append(repr((sorted(report.fixed), sorted(report.evidence.items()),
                               sorted(fixed), images, deltas)))
        assert path_walks == 439
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "52101029c495a6bb8b50ec6d94ff0611e7351d9672a063bdf062b79618a3fdf4"

    def test_only_fixed_vertices_builds_walks(self, monkeypatch):
        # a signature keeps the fixed set but not its evidence walks
        counts = support.count_calls(monkeypatch, ("_core_walk",), reconfig)
        g, colours = support.joined_odd_cycles(random.Random(0), 3, 1)
        f = support.colouring(g, P31, colours)
        assert reachability_signature(f)[0] == fixed_vertices(f).fixed
        walks = counts["_core_walk"]
        assert walks > 0
        assert is_reachable_characterized(f, f)
        assert counts["_core_walk"] == walks

    def test_tight_path_costs_no_bfs_per_vertex(self, monkeypatch):
        # a directed tight path with no tight cycle peels away whole, so
        # core detection runs no BFS from its vertices
        calls = []
        real = reconfig.bfs_forest
        monkeypatch.setattr(reconfig, "bfs_forest",
                            lambda *args: calls.append(args) or real(*args))
        g = support.path(200)
        f = support.colouring(g, P52, tuple(2 * i % 5 for i in range(200)))
        assert fixed_vertices(f).fixed == frozenset()
        assert len(calls) <= 2


class TestReachabilityCharacterized:
    def test_shift_of_fixed_colouring_unreachable(self):
        g = support.cycle(6)
        f = support.colouring(g, P31, (0, 1, 2, 0, 1, 2))
        assert fixed_vertices(f, method="tight-digraph").fixed
        assert not is_reachable_characterized(f, shift(f, 1))

    def test_identity_reachable(self):
        g = support.cycle(6)
        f = support.colouring(g, P31, (0, 1, 2, 0, 1, 2))
        assert is_reachable_characterized(f, f)

    def test_agrees_with_oracle_on_hexagon(self):
        g = support.cycle(6)
        states = list(enumerate_colourings(g, P52))
        _, labels = support.python_mixing_components(g, P52)
        for i, f in enumerate(states):
            for j, h in enumerate(states):
                assert is_reachable_characterized(f, h) == (labels[i] == labels[j])

    def test_agrees_with_oracle_at_ratio_two(self):
        g = support.cycle(4)
        params = CircularParams(4, 2)
        states = list(enumerate_colourings(g, params))
        _, labels = support.python_mixing_components(g, params)
        assert states
        for i, f in enumerate(states):
            for j, h in enumerate(states):
                assert is_reachable_characterized(f, h) == (labels[i] == labels[j])

    def test_signature_equality_is_fundamental_weight_equality(self):
        # each edge wind is an affine function of its fundamental cycle's
        # weight, the same for every colouring, so swapping the winds for
        # those weights (support.fundamental_cycles) keeps every equality
        rng = random.Random(25)
        pairs = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            g = build_graph(n, [tuple(rng.sample(range(n), 2))
                                for _ in range(rng.randint(0, 2 * n))] if n > 1 else [])
            cycles = support.fundamental_cycles(g)
            for params in (P31, P52, P73, P83, CircularParams(2, 1), CircularParams(4, 2)):
                states = list(itertools.islice(enumerate_colourings(g, params), 40))
                sigs = [reachability_signature(f) for f in states]
                refs = [s[:2] + (tuple(sum(edge_weight(f, a, b) for a, b in c.directed_edges())
                                       for c in cycles),) + s[3:]
                        for f, s in zip(states, sigs)]
                assert all(len(s[2]) == len(cycles) for s in sigs)
                for i, j in itertools.product(range(len(states)), repeat=2):
                    assert (sigs[i] == sigs[j]) == (refs[i] == refs[j])
                pairs += len(states) ** 2
        assert pairs > 50_000, pairs

    def test_ratio_guard(self):
        g = support.cycle(4)
        params = CircularParams(9, 2)
        f = support.colouring(g, params, (0, 2, 0, 2))
        with pytest.raises(ValueError):
            is_reachable_characterized(f, f)


class TestWindDecider:
    def test_wound_decagon_witness(self):
        v = is_mixing_wind(support.cycle(10), P52)
        assert v.status == "not-mixing"
        w = v.witness
        assert w.colouring.colours == tuple(2 * i % 5 for i in range(10))
        assert len(w.cycle) == 10
        assert (w.weight, w.required) == (20, Fraction(25))

    def test_hexagon_at_72(self):
        v = is_mixing_wind(support.cycle(6), P72)
        assert v.status == "not-mixing"
        assert (v.witness.weight, v.witness.required) == (14, Fraction(21))

    def test_trees_mix(self):
        for params in (P52, P72, P73):
            assert is_mixing_wind(support.path(5), params).status == "mixing"

    def test_non_bipartite_short_circuit(self):
        v = is_mixing_wind(support.cycle(5), P52)
        assert v.status == "not-mixing"
        assert len(v.witness.cycle) == 5
        assert v.witness.required == Fraction(25, 2)
        assert verify_witness(v.witness)[0]

    def test_uncolourable_non_bipartite_vacuous(self):
        k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
        assert is_mixing_wind(k4, P52).status == "vacuous"

    def test_witness_cycle_is_chordless(self):
        # hexagon plus a long ear: the unbalanced fundamental cycle can carry
        # chords; the emitted witness must not
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                            (0, 6), (6, 7), (7, 3)])
        v = is_mixing_wind(g, P31)
        assert v.status == "not-mixing"
        assert support.chords(g, v.witness.cycle) == []
        assert verify_witness(v.witness)[0]

    def test_agrees_with_oracle_small(self):
        for params in (P31, P52, P72, P73):
            for n in range(1, 6):
                for g in support.connected_bipartite_upto_iso(n):
                    assert (is_mixing_wind(g, params).status
                            == is_mixing_oracle(g, params).status)


def random_bipartite(rng):
    """Seeded bipartite graph on at most 8 vertices, often with a planted
    6- or 8-cycle (the shortest even cycles that fail to mix at (7,2) and
    (8,3)); low densities leave isolated vertices and several components."""
    n = rng.choice((1, 2, 3, 4, 5, 6, 6, 7, 7, 8, 8, 8))
    order = rng.sample(range(n), n)
    length = rng.choice([k for k in (0, 4, 6, 6, 8, 8, 8) if k <= n])
    side = {v: i % 2 for i, v in enumerate(order[:length])}
    side.update((v, rng.randrange(2)) for v in order[length:])
    edges = {tuple(sorted((order[i], order[(i + 1) % length])))
             for i in range(length)}
    density = rng.choice((0.0, 0.1, 0.25))
    edges |= {(u, v) for u, v in itertools.combinations(range(n), 2)
              if side[u] != side[v] and rng.random() < density}
    return build_graph(n, sorted(edges))


def chorded_cycle(rng):
    """An even cycle of length 6, 8 or 10 with one to three chords, each
    joining vertices an odd distance apart so the graph stays bipartite, and
    up to two pendant vertices: fundamental cycles that carry chords."""
    length = rng.choice((6, 8, 10))
    edges = {(i, (i + 1) % length) for i in range(length)}
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.sample(range(length), 2))
        if (j - i) % 2:
            edges.add((i, j))
    for n in range(length, length + rng.randint(0, 2)):
        edges.add((rng.randrange(n), n))
    return build_graph(1 + max(max(e) for e in edges), edges)


RATIOS = [CircularParams(p, q) for p in range(3, 9) for q in range(1, p)
          if 2 * q < p < 4 * q]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from(RATIOS))
def test_every_wind_witness_is_chordless_and_verifies(rng, chorded, params):
    g = chorded_cycle(rng) if chorded else random_bipartite(rng)
    w = is_mixing_wind(g, params).witness
    if w is not None:
        assert support.chords(g, w.cycle) == []
        assert verify_witness(w) == (True, [])


def reference_wind_scan(g, params, limit):
    """Walk every colouring in enumerate_colourings order, unpinned, to the
    first one that unbalances a cycle of the minimum basis.  Balance is
    linear over the cycle space, so each colouring on the way unbalances a
    fundamental cycle exactly when it unbalances a basis cycle: a scan of
    the fundamental cycles stops at the same colouring.

    Returns ("not-mixing", colouring, shortest unbalanced basis cycle),
    ("mixing", None, None), or ("unsettled", the first colouring left
    unchecked, None) once ``limit`` colourings were all balanced.
    """
    basis = support.basis_cycles(g)
    if not basis:
        return "mixing", None, None
    fundamental = support.fundamental_cycles(g)
    p = params.p

    def unbalanced(f, cycles):
        return [c for c in cycles
                if 2 * sum((f.colours[b] - f.colours[a]) % p
                           for a, b in c.directed_edges()) != len(c) * p]

    for k, f in enumerate(enumerate_colourings(g, params)):
        if k == limit:
            return "unsettled", f, None
        bad = unbalanced(f, basis)
        assert bool(bad) == bool(unbalanced(f, fundamental)), (g.edges, f.colours)
        if bad:
            return "not-mixing", f, min(bad, key=lambda c: (len(c), c.vertices))
    return "mixing", None, None


class TestPinnedWindScan:
    def test_witness_matches_unpinned_reference(self, monkeypatch):
        rng = random.Random(31)
        tiny_blocks = functools.partial(kernels.state_blocks, block=7)
        settled = wrapped = 0
        for _ in range(150):
            g = random_bipartite(rng)
            for params in (P52, P72, P73, P83):
                v = is_mixing_wind(g, params)
                with monkeypatch.context() as m:  # blocks split mid-prefix
                    m.setattr(kernels, "state_blocks", tiny_blocks)
                    assert is_mixing_wind(g, params) == v
                status, f, cycle = reference_wind_scan(g, params, limit=3000)
                if status == "unsettled":
                    # every colouring before f is balanced
                    assert v.status == "mixing" or v.witness.colouring.colours >= f.colours
                    continue
                settled += 1
                assert v.status == status, (g.edges, params)
                if status == "not-mixing":
                    wrapped += 1
                    assert v.witness == _make_witness(f, cycle)
                    assert v.state_count is None
        assert settled >= 450 and wrapped >= 50, (settled, wrapped)

    def test_one_basis_and_the_scan_reads_its_cycles(self, monkeypatch):
        counts = support.count_calls(
            monkeypatch, ("minimum_cycle_basis",), reconfig, graphs)
        scans = []
        first_unbalanced = kernels.first_unbalanced

        def recorded(g, compat, domain, cycles, budget):
            scans.append(list(cycles))
            return first_unbalanced(g, compat, domain, cycles, budget)

        monkeypatch.setattr(kernels, "first_unbalanced", recorded)
        rng = random.Random(23)
        scanned = 0
        for i in range(120):
            g = chorded_cycle(rng) if i % 2 else random_bipartite(rng)
            for params in (P52, P72, P83):
                counts.update(dict.fromkeys(counts, 0))
                scans.clear()
                is_mixing_wind(g, params)
                assert counts == {"minimum_cycle_basis": 1}
                if scans:
                    scanned += 1
                    assert scans == [support.basis_cycles(g)]
        assert scanned >= 100, scanned

    def test_state_count_matches_oracle(self):
        # The cycle-basis shortcut answers every one of these without a scan,
        # so the count is checked on the scan itself; the Mobius ladder M10
        # below mixes only after a scan.
        cases = [
            (support.cycle(4), P72), (support.grid(2, 3), P52),
            (support.complete_bipartite(2, 3), P73),
            # two components, then three with least vertices 0, 1 and 4
            (build_graph(6, [(0, 3), (3, 2), (2, 5), (5, 0), (1, 4)]), P72),
            (build_graph(7, [(1, 3), (3, 5), (5, 6), (6, 1), (0, 2)]), P83),
            (build_graph(1, []), P52), (build_graph(4, []), P73),
        ]
        for g, params in cases:
            assert is_mixing_wind(g, params) == MixingVerdict(status="mixing")
            cycles = support.basis_cycles(g)
            v = reconfig._wind_scan(g, params, cycles, kernels.DEFAULT_STATE_BUDGET)
            assert v.status == "mixing"
            assert v.state_count == is_mixing_oracle(g, params).state_count
        # M10: C10 plus the chords i-(i+5), bipartite, basis lengths
        # [4, 4, 4, 4, 4, 6]; the 6-cycle reaches T = 6 at (3,1)
        m10 = support.mobius_ladder(5)
        assert [length for length, _ in graphs.minimum_cycle_basis(m10)] == [4] * 5 + [6]
        v = is_mixing_wind(m10, P31)
        assert v == MixingVerdict(status="mixing", state_count=306)
        assert v.state_count == is_mixing_oracle(m10, P31).state_count
        assert reconfig.mixing_basis(m10, P31) is None

    def test_budget_counts_pinned_states(self):
        # C6 at (7,2) is scanned: its 4354 colourings, 622 with vertex 0
        # pinned, fit in one block, so the budget meets all pinned states
        c6 = support.cycle(6)
        pinned = is_mixing_oracle(c6, P72).state_count // 7
        assert pinned == 622
        assert is_mixing_wind(c6, P72, budget=pinned).status == "not-mixing"
        with pytest.raises(BudgetExceededError, match="more than 621 proper states"):
            is_mixing_wind(c6, P72, budget=pinned - 1)

    def test_short_odd_cycle_answers_vacuous_without_a_search(self):
        # a 16-vertex path ending in a triangle has no (5,2)-colouring since
        # 5/2 < 3/1; the triangle settles it before a search for a first
        # colouring would backtrack through 5 * 2**15 partial colourings
        g = build_graph(18, [(i, i + 1) for i in range(15)]
                        + [(15, 16), (16, 17), (15, 17)])
        assert is_mixing_wind(g, P52, budget=10) == MixingVerdict(
            status="vacuous", state_count=0)

    def test_odd_branch_honours_the_budget(self):
        # a 16-vertex path joined to a Petersen graph: odd girth 5 passes the
        # odd-cycle test at (5,2), yet chi_c = 3 leaves no colouring, which
        # only the budgeted search for a first one can find out
        petersen = ([(i, (i + 1) % 5) for i in range(5)]
                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                    + [(i, i + 5) for i in range(5)])
        g = build_graph(26, [(i, i + 1) for i in range(16)]
                        + [(16 + u, 16 + v) for u, v in petersen])
        with pytest.raises(BudgetExceededError, match="more than 10 partial states at vertex 22"):
            is_mixing_wind(g, P52, budget=10)
        assert is_mixing_wind(support.cycle(9), P72, budget=1).status == "not-mixing"

    def test_colouring_stream_counts_like_state_blocks(self):
        # 7 * 4**3 = 448 colourings of the 4-path at (7,2)
        g = support.path(4)
        assert len(list(enumerate_colourings(g, P72, budget=448))) == 448
        for stream in (lambda: enumerate_colourings(g, P72, budget=447),
                       lambda: kernels.state_blocks(g, kernels.compat_table(7, 2),
                                                    np.ones((4, 7), dtype=bool),
                                                    budget=447)):
            with pytest.raises(BudgetExceededError, match="more than 447 proper states"):
                list(stream())


class TestWitnessSoundness:
    def make(self):
        return is_mixing_wind(support.cycle(10), P52).witness

    def test_every_emitted_witness_verifies(self):
        for g, params in [(support.cycle(10), P52), (support.cycle(6), P72),
                          (support.cycle(6), P31), (support.cycle(5), P52)]:
            v = is_mixing_wind(g, params)
            assert v.status == "not-mixing"
            ok, failures = verify_witness(v.witness)
            assert ok, failures

    def test_perturbed_colouring_fails(self):
        w = self.make()
        colours = list(w.colouring.colours)
        colours[0] = (colours[0] + 1) % 5
        bad = NonMixingWitness(
            colouring=support.colouring(w.colouring.host, P52, tuple(colours)),
            cycle=w.cycle, weight=w.weight, required=w.required)
        ok, failures = verify_witness(bad)
        assert not ok and "colouring-improper" in failures

    def test_wrong_required_fails(self):
        w = self.make()
        bad = NonMixingWitness(colouring=w.colouring, cycle=w.cycle,
                               weight=w.weight, required=Fraction(20))
        ok, failures = verify_witness(bad)
        assert not ok and "required-mismatch" in failures

    def test_wrong_weight_fails(self):
        w = self.make()
        bad = NonMixingWitness(colouring=w.colouring, cycle=w.cycle,
                               weight=w.weight + 5, required=w.required)
        ok, failures = verify_witness(bad)
        assert not ok and "weight-mismatch" in failures

    def test_balanced_cycle_fails(self):
        g = support.cycle(10)
        bad = NonMixingWitness(colouring=support.colouring(g, P52, (0, 2) * 5),
                               cycle=Cycle(tuple(range(10))), weight=25,
                               required=Fraction(25))
        assert verify_witness(bad) == (False, ["not-wrapped"])

    def test_foreign_cycle_fails(self):
        w = self.make()
        bad = NonMixingWitness(colouring=w.colouring,
                               cycle=Cycle((0, 2, 4)), weight=w.weight,
                               required=w.required)
        ok, failures = verify_witness(bad)
        assert not ok and "not-a-cycle" in failures


class TestWindInvariants:
    def test_single_move_preserves_cycle_weights(self):
        for n in range(3, 6):
            for g in support.connected_bipartite_upto_iso(n):
                basis = support.fundamental_cycles(g)
                if not basis:
                    continue
                for f in enumerate_colourings(g, P52):
                    wf = [sum(edge_weight(f, a, b) for a, b in c.directed_edges())
                          for c in basis]
                    for h in col_neighbours(f):
                        wh = [sum(edge_weight(h, a, b) for a, b in c.directed_edges())
                              for c in basis]
                        assert wf == wh

    def test_basis_balance_equals_all_cycle_balance(self):
        for n in range(3, 6):
            for g in support.connected_graphs_upto_iso(n):
                basis = support.fundamental_cycles(g)
                cycles = list(enumerate_cycles(g, n))
                for f in itertools.islice(enumerate_colourings(g, P52), 40):
                    p = 5

                    def balanced(c):
                        w = sum(edge_weight(f, a, b) for a, b in c.directed_edges())
                        return 2 * w == len(c) * p

                    assert all(balanced(c) for c in basis) == \
                        all(balanced(c) for c in cycles)

    def test_basis_weight_equality_extends_to_all_cycles(self):
        g = support.complete_bipartite(2, 3)
        basis = support.fundamental_cycles(g)
        cycles = list(enumerate_cycles(g, g.n))
        states = list(enumerate_colourings(g, P52))
        for f, h in itertools.islice(itertools.combinations(states, 2), 300):
            def weights(col, cs):
                return [sum(edge_weight(col, a, b) for a, b in c.directed_edges())
                        for c in cs]

            basis_equal = weights(f, basis) == weights(h, basis)
            all_equal = weights(f, cycles) == weights(h, cycles)
            assert basis_equal == all_equal


@pytest.mark.slow
class TestFixedAgreementSix:
    def test_methods_agree_on_six_vertices(self):
        for params in (P52, P31):
            for g in support.connected_graphs_upto_iso(6):
                states, fixed_sets = oracle_fixed_sets(g, params)
                for i in range(states.shape[0]):
                    f = support.colouring(g, params,
                                          tuple(int(x) for x in states[i]))
                    tight = fixed_vertices(f, method="tight-digraph").fixed
                    assert tight == fixed_sets[i], (sorted(g.edges), f.colours)


class TestDisconnectedInstances:
    def test_wind_on_disjoint_union(self):
        # hexagon plus square: the hexagon alone forces the verdict
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges += [(6, 7), (7, 8), (8, 9), (9, 6)]
        g = build_graph(10, edges)
        v = is_mixing_wind(g, P31)
        assert v.status == "not-mixing"
        assert set(v.witness.cycle.vertices) <= set(range(6))
        assert verify_witness(v.witness)[0]
        assert is_mixing_oracle(g, P31).status == "not-mixing"

    def test_characterized_on_disjoint_edges(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        states = list(enumerate_colourings(g, P52))
        _, labels = support.python_mixing_components(g, P52)
        for i, f in enumerate(states):
            for j, h in enumerate(states):
                assert is_reachable_characterized(f, h) == (labels[i] == labels[j])
