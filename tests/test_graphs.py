import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circmix
import support
from circmix import graphs
from circmix.generators import theta_graph
from circmix.graphs import (Bipartition, Cycle, _cycle_roots, bipartition, blocks, build_graph,
                            cycle_rank, cycle_space_dimension, distance, edge_set_cycles,
                            enumerate_cycles, induced_subgraph, is_cycle_of, minimum_cycle_basis,
                            shortest_cycle)
from circmix.kernels import BudgetExceededError


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2 and g.m == 1

    def test_c4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_g52_is_c5(self):
        g = build_graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        assert support.brute_isomorphic(g, support.cycle(5))

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g == build_graph(3, [(0, 1), (1, 2)])

    def test_degree_sum(self):
        g = support.grid(3, 3)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


class TestBipartition:
    def test_c4_sides(self):
        b = bipartition(support.cycle(4))
        assert b.valid
        assert {v for v in range(4) if b.side[v] == b.side[0]} == {0, 2}

    def test_c5_has_no_sides(self):
        assert bipartition(support.cycle(5)) == Bipartition(valid=False, side=())

    def test_matches_odd_cycle_search_exhaustive_small(self):
        for n in range(1, 6):
            for g in support.all_labelled_graphs(n):
                has_odd = any(len(c) % 2 == 1 for c in enumerate_cycles(g, n))
                assert bipartition(g).valid == (not has_odd)

    def test_matches_odd_cycle_search_random(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(6, 7)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.3]
            g = build_graph(n, edges)
            has_odd = any(len(c) % 2 == 1 for c in enumerate_cycles(g, n))
            assert bipartition(g).valid == (not has_odd)


class TestEnumerateCycles:
    def test_c8_single(self):
        assert len(list(enumerate_cycles(support.cycle(8), 8))) == 1

    def test_k4_minus_edge(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
        cycles = list(enumerate_cycles(g, 4))
        assert sorted(len(c) for c in cycles) == [3, 3, 4]

    def test_cube_squares(self):
        cube = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                               (4, 5), (5, 6), (6, 7), (7, 4),
                               (0, 4), (1, 5), (2, 6), (3, 7)])
        assert len(list(enumerate_cycles(cube, 4))) == 6

    def test_agrees_with_subset_brute_force(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(3, 6)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.5]
            g = build_graph(n, edges)
            ours = {c.vertices for c in enumerate_cycles(g, n)}
            assert ours == support.brute_cycle_sets(g, n)

    def test_no_duplicates_up_to_symmetry(self):
        g = support.complete_bipartite(3, 3)
        cycles = list(enumerate_cycles(g, 6))
        canon = {c.vertices for c in cycles}
        assert len(canon) == len(cycles)


class TestBlocks:
    def test_two_triangles_sharing_vertex(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert blocks(g) == [frozenset({0, 1, 2}), frozenset({2, 3, 4})]

    def test_c6_single_block(self):
        assert blocks(support.cycle(6)) == [frozenset(range(6))]

    def test_path_bridges(self):
        assert blocks(support.path(4)) == [frozenset({0, 1}), frozenset({1, 2}),
                                           frozenset({2, 3})]

    def test_isolated_vertices_are_in_no_block(self):
        assert blocks(build_graph(4, [(1, 2)])) == [frozenset({1, 2})]

    def test_edge_partition(self):
        # each edge lies inside exactly one block's vertex set
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(2, 9)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.3]
            g = build_graph(n, edges)
            found = blocks(g)
            assert found == sorted(found, key=sorted)
            for u, v in g.edges:
                assert sum(u in b and v in b for b in found) == 1

    def test_block_vertex_sets_induce_exactly_the_block_edges(self):
        # an edge joining two vertices of a block would extend the block, so
        # a block is cut out of its graph by its vertex set alone, and the
        # blocks' induced edge sets partition the edges
        rng = random.Random(11)
        seen_cuts = seen_bridges = 0
        for _ in range(150):
            n, edges = 1, []
            for _ in range(rng.randint(1, 6)):
                at = rng.randrange(n)
                roll = rng.random()
                if roll < 0.35:  # a bridge to a new vertex
                    edges.append((at, n))
                    n += 1
                elif roll < 0.85:  # a chorded cycle hung at `at`
                    ring = [at] + list(range(n, n + rng.randint(2, 5)))
                    edges += list(zip(ring, ring[1:] + ring[:1]))
                    edges += [e for e in itertools.combinations(ring, 2)
                              if rng.random() < 0.2]
                    n = ring[-1] + 1
                elif n > 2:  # an edge that may merge blocks
                    edges.append(tuple(rng.sample(range(n), 2)))
            g = build_graph(n + rng.randint(0, 2), edges)  # maybe isolated vertices
            found = blocks(g)
            memberships = [v for b in found for v in b]
            seen_cuts += len(memberships) > len(set(memberships))
            seen_bridges += any(len(b) == 2 for b in found)
            induced = []
            for b in found:
                sub, remap = induced_subgraph(g, b)
                old = {i: v for v, i in remap.items()}
                induced += [(old[u], old[v]) for u, v in sub.edges]
            assert sorted(induced) == sorted(g.edges)
        assert seen_cuts > 50 and seen_bridges > 50


class TestDistance:
    def test_c6(self):
        g = support.cycle(6)
        assert distance(g, 0, 3) == 3
        assert distance(g, 0, 2) == 2
        assert distance(g, 4, 4) == 0

    def test_unreachable(self):
        g = build_graph(4, [(0, 1)])
        assert distance(g, 0, 3) is None

    def test_rejects_vertices_out_of_range(self):
        g = support.path(5)
        for u, v in ((-1, 0), (0, -1), (5, 0), (0, 5)):
            with pytest.raises(ValueError):
                distance(g, u, v)


class TestCycleHelpers:
    def test_girth(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 0)])
        assert len(shortest_cycle(g)) == 4
        assert shortest_cycle(support.path(4)) is None

    def test_longest_cycle(self):
        # two squares sharing the edge 0-3: the outer 6-cycle is the sum of
        # the squares, so a minimum basis holds only 4-cycles
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 0)])
        assert [k for k, _ in minimum_cycle_basis(g)] == [4, 4]
        assert support.brute_longest_basis_cycle(g) == 4
        assert minimum_cycle_basis(support.path(4)) == []
        assert minimum_cycle_basis(support.cycle(9))[-1][0] == 9
        # no vertex cap: a 30-vertex grid's basis is its 20 unit squares
        assert [k for k, _ in minimum_cycle_basis(support.grid(5, 6))] == [4] * 20

    def test_searches_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(0, 7)
            density = rng.choice((0.25, 0.45, 0.7))
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < density])
            lengths = [len(c) for c in support.brute_cycle_sets(g, n)]
            odd_lengths = [k for k in lengths if k % 2]
            girth = shortest_cycle(g)
            if lengths:
                assert len(girth) == min(lengths)
                assert is_cycle_of(g, girth.vertices)
            else:
                assert girth is None
            odd = shortest_cycle(g, odd=True)
            if odd_lengths:
                assert len(odd) == min(odd_lengths)
                assert is_cycle_of(g, odd.vertices)
            else:
                assert odd is None
            basis = minimum_cycle_basis(g)
            assert (basis[-1][0] if basis else 0) == support.brute_longest_basis_cycle(g)
            cycles = edge_set_cycles(g, basis)
            assert [len(c) for c in cycles] == sorted(k for k, _ in basis)
            assert all(is_cycle_of(g, c.vertices) for c in cycles)
            assert len(cycles) == cycle_rank(g, cycles) == cycle_space_dimension(g)

    def test_rank_of_dependent_cycles(self):
        # the outer 6-cycle of two squares sharing an edge is their sum
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 0)])
        squares = [Cycle((0, 1, 2, 3)), Cycle((0, 3, 4, 5))]
        outer = Cycle((0, 1, 2, 3, 4, 5))
        assert cycle_rank(g, squares + [outer]) == 2 == cycle_space_dimension(g)
        assert cycle_rank(g, [outer, outer]) == 1


@st.composite
def cycle_search_graphs(draw):
    """One to three components, each a random graph (mostly not bipartite),
    a dense bipartite graph, a theta graph or a bare cycle, with pendant
    trees hung on them and the vertices relabelled at random."""
    rng = draw(st.randoms(use_true_random=False))
    n, edges = 0, []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("random", "bipartite", "theta", "cycle"))
        if kind == "random":
            k = rng.randint(1, 8)
            density = rng.choice((0.3, 0.5, 0.8))
            edges += [(n + u, n + v) for u, v in itertools.combinations(range(k), 2)
                      if rng.random() < density]
        elif kind == "bipartite":
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            k = a + b
            edges += [(n + u, n + a + v) for u in range(a) for v in range(b)
                      if rng.random() < 0.7]
        elif kind == "theta":  # paths between the ends n and n + 1
            k = 2
            for length in [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]:
                chain = [n] + list(range(n + k, n + k + length - 1)) + [n + 1]
                edges += list(zip(chain, chain[1:]))
                k += length - 1
        else:
            k = rng.randint(3, 9)
            edges += [(n + i, n + (i + 1) % k) for i in range(k)]
        n += k
    for _ in range(rng.randint(0, 5)):  # pendant trees
        edges.append((rng.randrange(n), n))
        n += 1
    perm = rng.sample(range(n), n)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


ROOTS_SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)


@ROOTS_SETTINGS
@given(cycle_search_graphs())
def test_cycle_searches_match_the_all_roots_references(g):
    # the ascending rerun keeps the cycle the all-vertex scan returns
    for odd in (False, True):
        assert shortest_cycle(g, odd=odd) == support.reference_shortest_cycle(g, odd=odd)
    # the basis is the greedy one over the roots' Horton candidates, and it
    # is minimum: its lengths are those of the basis from every vertex
    basis = minimum_cycle_basis(g)
    assert basis == support.reference_minimum_cycle_basis(g, _cycle_roots(g))
    assert [k for k, _ in basis] == [k for k, _ in support.reference_minimum_cycle_basis(g)]
    if support.reference_horton_candidates(g) == \
            support.reference_horton_candidates(g, _cycle_roots(g)):
        assert basis == support.reference_minimum_cycle_basis(g)


@ROOTS_SETTINGS
@given(cycle_search_graphs(), st.randoms(use_true_random=False))
def test_minimum_basis_cycles_are_chordless(g, rng):
    # a chord splits a cycle into two shorter ones, one of which could take
    # its place in the basis; chords across the longest basis cycle, and
    # between random vertices, give the searches chorded cycles to close
    cycles = support.basis_cycles(g)
    extra = []
    if cycles:
        vs = cycles[-1].vertices
        extra += [tuple(rng.sample(vs, 2)) for _ in range(rng.randint(0, 3))]
    if g.n >= 2:
        extra += [tuple(rng.sample(range(g.n), 2)) for _ in range(rng.randint(0, 3))]
    g = build_graph(g.n, sorted(g.edges) + extra)
    cycles = support.basis_cycles(g)
    assert len(cycles) == cycle_rank(g, cycles) == cycle_space_dimension(g)
    assert all(support.chords(g, c) == [] for c in cycles)


@ROOTS_SETTINGS
@given(cycle_search_graphs())
def test_cycle_roots_meet_every_cycle(g):
    roots = _cycle_roots(g)
    assert roots == sorted(set(roots))
    rest, _ = induced_subgraph(g, set(range(g.n)) - set(roots))
    assert cycle_space_dimension(rest) == 0


def test_equal_theta_paths_keep_a_minimum_basis():
    # four paths of length 3 between 4 and 5: the searches from 4 and 5 reach
    # the far end through 0-6 and 9-1, so the 6-cycle through 2-3 and 8-7
    # is a candidate only from its inner vertices, and the third basis cycle
    # differs from the basis over every vertex's candidates, at equal length
    g = build_graph(10, [(0, 4), (0, 6), (1, 5), (1, 9), (2, 3), (2, 4), (3, 5), (4, 8),
                         (4, 9), (5, 6), (5, 7), (7, 8)])
    basis, everywhere = minimum_cycle_basis(g), support.reference_minimum_cycle_basis(g)
    assert [c.vertices for c in edge_set_cycles(g, basis)] == \
        [(1, 5, 3, 2, 4, 9), (0, 4, 2, 3, 5, 6), (1, 5, 7, 8, 4, 9)]
    assert [c.vertices for c in edge_set_cycles(g, everywhere)] == \
        [(1, 5, 3, 2, 4, 9), (0, 4, 2, 3, 5, 6), (2, 3, 5, 7, 8, 4)]
    assert cycle_rank(g, edge_set_cycles(g, basis)) == 3


@pytest.mark.parametrize("g", [support.cycle(402), theta_graph(100, 150, 200).graph],
                         ids=["C402", "theta"])
def test_basis_searches_from_the_feedback_roots_only(g, monkeypatch):
    searches = []
    forest = graphs.bfs_forest

    def counted(adjacency, roots):
        roots = tuple(roots)
        if len(roots) == 1:  # one Horton search, not the component sweep
            searches.append(roots[0])
        return forest(adjacency, roots)

    monkeypatch.setattr(graphs, "bfs_forest", counted)
    lengths = [k for k, _ in minimum_cycle_basis(g)]
    assert len(searches) <= 2
    assert lengths == ([402] if g.n == 402 else [250, 300])


class TestCanonicalKey:
    def test_relabelled_cycles_match(self):
        g = support.cycle(6)
        perm = [3, 5, 1, 0, 2, 4]
        h = build_graph(6, [(perm[u], perm[v]) for (u, v) in g.edges])
        assert support.canonical_key(g) == support.canonical_key(h)

    def test_c6_vs_k33(self):
        assert support.canonical_key(support.cycle(6)) != support.canonical_key(
            support.complete_bipartite(3, 3))

    def test_c8_vs_c6_plus_path(self):
        g = build_graph(8, [(i, (i + 1) % 6) for i in range(6)] + [(6, 7)])
        assert support.canonical_key(support.cycle(8)) != support.canonical_key(g)

    def test_size_guard(self):
        with pytest.raises(BudgetExceededError):
            support.canonical_key(build_graph(30, []))

    def test_cycle_representative_starts_at_minimum(self):
        c = Cycle.from_vertices((4, 2, 7, 3))
        assert c.vertices[0] == 2
        assert c.vertices[1] == min(c.vertices[1], c.vertices[-1])

    def test_agrees_with_brute_force_upto_5(self):
        # Equal keys must mean identical brute-force canonical forms and
        # vice versa, over every labelled graph on up to 5 vertices.
        for n in range(1, 6):
            by_key, by_brute = {}, {}
            for g in support.all_labelled_graphs(n):
                k = support.canonical_key(g)
                b = support.brute_min_label_key(g)
                assert by_key.setdefault(k, b) == b
                assert by_brute.setdefault(b, k) == k

    def test_agrees_with_brute_force_sampled_6(self):
        rng = random.Random(13)
        by_key, by_brute = {}, {}
        for _ in range(400):
            edges = [e for e in itertools.combinations(range(6), 2)
                     if rng.random() < 0.5]
            g = build_graph(6, edges)
            k = support.canonical_key(g)
            b = support.brute_min_label_key(g)
            assert by_key.setdefault(k, b) == b
            assert by_brute.setdefault(b, k) == k

    @pytest.mark.slow
    def test_agrees_with_brute_force_all_6(self):
        by_key, by_brute = {}, {}
        for g in support.all_labelled_graphs(6):
            k = support.canonical_key(g)
            b = support.brute_min_label_key(g)
            assert by_key.setdefault(k, b) == b
            assert by_brute.setdefault(b, k) == k


def test_one_bfs_routine():
    # graphs.bfs_forest is the one vertex-level BFS (shortest_cycle keeps its
    # early-exit BFS, graphs._shorter_cycle_from, beside it and runs it from
    # the feedback roots, then from ascending vertices until the girth
    # cycle), so no other module imports or names a deque.
    for path in sorted(Path(circmix.__file__).parent.glob("*.py")):
        if path.name != "graphs.py":
            names = {getattr(node, key, None)
                     for node in ast.walk(ast.parse(path.read_text()))
                     for key in ("id", "attr", "name")}
            assert "deque" not in names, path.name
