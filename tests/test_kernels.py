import itertools
import random
import tracemalloc

import numpy as np
import pytest

import support
from circmix import kernels
from circmix.circular import CircularParams, enumerate_colourings
from circmix.kernels import (BudgetExceededError, bfs_tree, component_labels,
                             compat_table, enumerate_states, moves, state_codes)
from circmix.reconfig import col_neighbours

CASES = [
    (support.cycle(6), 7, 2),
    (support.cycle(6), 3, 1),
    (support.cycle(5), 5, 2),
    (support.cycle(3), 5, 2),  # uncolourable
    (support.grid(2, 3), 5, 2),
    (support.path(4), 7, 3),
    (support.complete_bipartite(2, 3), 6, 2),
    (support.star(3), 4, 2),
]


def test_compat_table_matches_rule():
    params = CircularParams(7, 2)
    t = compat_table(7, 2)
    for a in range(7):
        for b in range(7):
            assert t[a, b] == params.compatible(a, b)


@pytest.mark.parametrize("g,p,q", CASES)
def test_enumeration_matches_python_generator(g, p, q):
    # Dual route: the lazy pure-Python enumerator against the array kernels.
    expected = [f.colours for f in enumerate_colourings(g, CircularParams(p, q))]
    states = enumerate_states(g, p, q)
    got = [tuple(int(x) for x in row) for row in states]
    assert got == expected


@pytest.mark.parametrize("g,p,q", CASES)
def test_bfs_tree_matches_python_reference(g, p, q):
    # Same parent tree as a pure-Python BFS in which a state's parent is its
    # lowest-index discoverer; reachability paths depend on that rule.
    states = enumerate_states(g, p, q)
    if states.shape[0] == 0:
        return
    codes = state_codes(states, p)
    for start in (0, states.shape[0] // 2):
        visited, parent = bfs_tree(states, codes, g, p, q, start)
        ref_visited, ref_parent = support.python_bfs_tree(
            g, CircularParams(p, q), start)
        assert visited.tolist() == ref_visited
        assert parent.tolist() == ref_parent


def test_bfs_tree_across_frontier_chunks(monkeypatch):
    # frontiers split into chunks of 7 states give the same tree
    monkeypatch.setattr(kernels, "MOVE_CHUNK", 7)
    for g, p, q in CASES:
        states = enumerate_states(g, p, q)
        if states.shape[0] == 0:
            continue
        visited, parent = bfs_tree(states, state_codes(states, p), g, p, q, 0)
        ref_visited, ref_parent = support.python_bfs_tree(
            g, CircularParams(p, q), 0)
        assert visited.tolist() == ref_visited
        assert parent.tolist() == ref_parent


@pytest.mark.parametrize("g,p,q", CASES)
def test_moves_match_python_reference(g, p, q):
    # (vertex, colour) ascending, then the order of the given rows
    params = CircularParams(p, q)
    fs = list(enumerate_colourings(g, params))
    states = enumerate_states(g, p, q)
    if not fs:
        return
    index = {f.colours: i for i, f in enumerate(fs)}
    rows = list(range(len(fs)))
    random.Random(3).shuffle(rows)
    rows = rows[:len(rows) // 2 + 1]
    expected = []
    for k, i in enumerate(rows):
        for h in col_neighbours(fs[i]):
            v = next(u for u in range(g.n) if h.colours[u] != fs[i].colours[u])
            expected.append((v, h.colours[v], k, i, index[h.colours]))
    expected.sort()
    source, target = moves(states, state_codes(states, p), g, p, q, rows)
    assert list(zip(source.tolist(), target.tolist())) == [e[3:] for e in expected]


def test_component_labels_match_pure_python():
    for g, p, q in CASES:
        params = CircularParams(p, q)
        states, labels = support.python_mixing_components(g, params)
        arr = enumerate_states(g, p, q)
        assert arr.shape[0] == len(states)
        if not states:
            continue
        codes = state_codes(arr, p)
        assert np.all(np.diff(codes) > 0)  # lexicographic == strictly ascending
        # same partition and same numbering: ids follow each component's
        # lowest state index
        assert component_labels(arr, codes, g, p, q).tolist() == labels


def test_parent_tree_is_single_move_tree():
    g, p, q = support.cycle(6), 5, 2
    states = enumerate_states(g, p, q)
    codes = state_codes(states, p)
    visited, parent = bfs_tree(states, codes, g, p, q, 0)
    for i in range(states.shape[0]):
        if not visited[i]:
            assert parent[i] == -1
            continue
        hops = 0
        j = i
        while parent[j] != -1:
            diff = np.nonzero(states[j] != states[parent[j]])[0]
            assert diff.size == 1  # each tree edge is a single recolouring
            j = int(parent[j])
            hops += 1
            assert hops <= states.shape[0]


def test_budget_exceeded():
    g = support.path(6)
    with pytest.raises(BudgetExceededError):
        enumerate_states(g, 7, 2, budget=50)


@pytest.mark.parametrize("n,budget,bound", [
    (12, 1000, 10 * 2**20),
    # may return 2M rows of 14 int16 (56 MB); building the 7.3M partial
    # rows at vertex 10 before checking would take over 180 MB
    (14, 2_000_000, 2_000_000 * 14 * 2 + 24 * 2**20),
])
def test_budget_checked_before_allocation(n, budget, bound):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"more than {budget} "):
            enumerate_states(support.path(n), 7, 2, budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("g,p,q", CASES)
def test_blocks_are_the_pinned_state_table(g, p, q):
    # blocks of 7 rows split prefixes mid-level; order and rows must hold
    states = enumerate_states(g, p, q)
    for pinned in ([], [0], [0, g.n - 1]):
        want = states[np.all(states[:, pinned] == 0, axis=1)]
        for block in (7, 1 << 16):
            domain = np.ones((g.n, p), dtype=bool)
            domain[pinned, 1:] = False
            blocks = list(kernels.state_blocks(g, compat_table(p, q), domain,
                                               block=block))
            assert all(1 <= b.shape[0] <= block for b in blocks)
            got = np.concatenate(blocks) if blocks else states[:0]
            assert np.array_equal(got, want)


def test_code_overflow_guard():
    g = support.path(40)
    with pytest.raises(BudgetExceededError):
        kernels.digit_weights(40, 7)


def _first_unbalanced(g, p, q, cycles, block=None):
    # full (p,q) domain; block=None keeps state_blocks' own block size
    scan = kernels.first_unbalanced
    domain = np.ones((g.n, p), dtype=bool)
    if block is None:
        return scan(g, compat_table(p, q), domain, cycles)
    orig = kernels.state_blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "state_blocks",
                   lambda *a, **k: orig(*a, **k, block=block))
        return scan(g, compat_table(p, q), domain, cycles)


def test_first_unbalanced():
    from circmix.graphs import build_graph

    g, p, q = support.cycle(10), 5, 2
    states = enumerate_states(g, p, q)
    basis = support.fundamental_cycles(g)
    g8, g5 = support.cycle(8), support.cycle(5)
    basis8 = support.fundamental_cycles(g8)
    basis5 = support.fundamental_cycles(g5)
    for block in (None, 7):  # the same answers from blocks of 7 rows
        row, found = _first_unbalanced(g, p, q, basis, block)
        assert found == [0]
        idx = int(np.flatnonzero(np.all(states == row, axis=1))[0])
        # everything before idx is balanced
        assert idx > 0
        assert np.all(kernels.cycle_weight_sums(states[:idx], p, basis[0]) == 25)
        assert kernels.cycle_weight_sums(states[idx:idx + 1], p, basis[0])[0] != 25

        assert _first_unbalanced(g8, p, q, basis8, block) == \
            (None, enumerate_states(g8, p, q).shape[0])

        # an odd cycle is unbalanced under every map, the first included
        row, found = _first_unbalanced(g5, 5, 2, basis5, block)
        assert row.tolist() == enumerate_states(g5, 5, 2)[0].tolist()
        assert found == [0]

        # no cycles: every map is balanced
        assert _first_unbalanced(build_graph(3, []), 3, 1, (), block) == (None, 27)


def test_first_unbalanced_matches_cycle_wind():
    # the first colouring, in lexicographic order, that wraps a basis cycle
    from circmix.graphs import build_graph
    from circmix.circular import cycle_wind

    rng = random.Random(17)
    graphs = [support.cycle(6), support.grid(2, 3)]
    graphs += support.random_connected_bipartite(6, 6, 17)
    for _ in range(16):
        n = rng.randint(3, 6)
        graphs.append(build_graph(n, {tuple(sorted(rng.sample(range(n), 2)))
                                      for _ in range(rng.randint(n - 1, n + 3))}))
    kinds = set()
    cases = itertools.product(graphs, [(5, 2), (6, 2), (7, 2), (7, 3)])
    for i, (g, (p, q)) in enumerate(cases):
        cycles = support.fundamental_cycles(g)
        want, count = None, 0
        for f in enumerate_colourings(g, CircularParams(p, q)):
            found = [j for j, c in enumerate(cycles) if cycle_wind(f, c).wrapped]
            if found:
                want = (list(f.colours), found)
                break
            count += 1
        row, found = _first_unbalanced(g, p, q, cycles, block=7 if i % 2 else None)
        got = (row.tolist(), found) if row is not None else (None, found)
        assert got == (want or (None, count)), (sorted(g.edges), p, q)
        kinds.add((want is None, any(len(c) % 2 for c in cycles)))
    # balanced and unbalanced even graphs, and odd ones
    assert kinds >= {(True, False), (False, False), (False, True)}


def test_edgeless_graphs():
    from circmix.circular import CircularParams
    from circmix.graphs import build_graph
    from circmix.reconfig import is_mixing_oracle

    g = build_graph(3, [])
    states = enumerate_states(g, 3, 1)
    assert states.shape == (27, 3)
    # isolated vertices recolour freely, so edgeless graphs always mix
    assert is_mixing_oracle(g, CircularParams(3, 1)).status == "mixing"
