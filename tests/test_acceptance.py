"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the criterion's stated time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
"""

import itertools
import time
from fractions import Fraction

import pytest

import support
from circmix import kernels
from circmix.circular import (CircularParams, edge_weight, enumerate_colourings,
                              reflect, shift, validate_colouring, walk_weight)
from circmix.fold import (circular_mixing_threshold, folds_to_cycle,
                          reduce_dominated, _is_cycle_graph)
from circmix.generators import (c4_pinch_graph, cube_graph, cycle_graph,
                                grid_graph, mirror_rotation, pinched_octagon,
                                theta_graph)
from circmix.graphs import Cycle, enumerate_cycles
from circmix.planar import (minimal_non_mixing_even_cycle, planar_mixing_decider,
                            region_split)
from circmix.reconfig import (col_neighbours, is_mixing_oracle, is_mixing_wind,
                              is_reachable_characterized, reachability_signature,
                              verify_witness)

P31 = CircularParams(3, 1)
P52 = CircularParams(5, 2)
P72 = CircularParams(7, 2)
P73 = CircularParams(7, 3)
PARAMS4 = (P31, P52, P72, P73)

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # JIT compilation is environment setup, not algorithm time
    g = support.cycle(4)
    states = kernels.enumerate_states(g, 5, 2)
    codes = kernels.state_codes(states, 5)
    kernels.component_labels(states, codes, g, 5, 2)


def report(number: int, started: float, limit: float, text: str) -> None:
    elapsed = time.time() - started
    print(f"\nacceptance {number}: PASS ({elapsed:.1f}s / limit {limit:.0f}s) {text}")
    assert elapsed < limit


def test_criterion_01_decagon_winds():
    t0 = time.time()
    g = support.cycle(10)
    c = Cycle.from_vertices(tuple(range(10)))
    f = support.colouring(g, P52, tuple(2 * i % 5 for i in range(10)))
    from circmix.circular import cycle_wind

    rep = cycle_wind(f, c)
    assert (rep.weight, rep.wind) == (20, 4)
    h = support.colouring(g, P52, tuple(0 if i % 2 == 0 else 2 for i in range(10)))
    rep = cycle_wind(h, c)
    assert (rep.weight, rep.wind) == (25, 5)
    g8 = support.cycle(8)
    c8 = Cycle.from_vertices(tuple(range(8)))
    count = 0
    for f8 in enumerate_colourings(g8, P52):
        assert cycle_wind(f8, c8).wind == 4
        count += 1
    assert count > 0
    report(1, t0, 1,
           "decagon winds 20/4 and 25/5; every octagon colouring winds 4")


def test_criterion_02_cycle_mixing_table():
    t0 = time.time()
    for k, params in ((1, P31), (2, P52)):
        for r in range(2, 7):
            verdict = is_mixing_oracle(support.cycle(2 * r), params)
            expected = "mixing" if r <= 2 * k else "not-mixing"
            assert verdict.status == expected, (k, r)
    report(2, t0, 60, "C_2r mixes at (2k+1,k) iff r <= 2k, k in {1,2}, r in 2..6")


def test_criterion_03_minimal_non_mixing_cycles():
    t0 = time.time()
    assert minimal_non_mixing_even_cycle(P52) == 10
    assert minimal_non_mixing_even_cycle(P72) == 6
    assert minimal_non_mixing_even_cycle(P31) == 6
    report(3, t0, 60, "minimal non-mixing even cycle: (5,2)->10 (7,2)->6 (3,1)->6")


def test_criterion_04_wind_equals_oracle():
    t0 = time.time()
    graphs = [g for n in range(1, 8)
              for g in support.connected_bipartite_upto_iso(n)]
    graphs += support.random_connected_bipartite(8, 200, seed=20260809)
    checked = 0
    for g in graphs:
        for params in PARAMS4:
            a = is_mixing_wind(g, params)
            b = is_mixing_oracle(g, params)
            assert a.status == b.status, (sorted(g.edges), params)
            assert a.status != "vacuous"  # bipartite graphs always colour
            checked += 1
    report(4, t0, 1800,
           f"wind = oracle on {len(graphs)} bipartite graphs x 4 parameter "
           f"sets ({checked} instances)")


def test_criterion_05_fold_criterion():
    t0 = time.time()
    graphs = [g for n in range(1, 9)
              for g in support.connected_bipartite_upto_iso(n)]
    for g in graphs:
        trace = folds_to_cycle(g, 6) if g.n >= 6 else None
        oracle_says_frozen = is_mixing_oracle(g, P31).status == "not-mixing"
        assert (trace is not None) == oracle_says_frozen, sorted(g.edges)
        if trace is not None:
            assert _is_cycle_graph(trace.final, 6)
    report(5, t0, 1800,
           f"folds-to-C6 iff oracle says non-mixing at (3,1), "
           f"{len(graphs)} connected bipartite graphs up to 8 vertices")


def test_criterion_06_octagon_example_end_to_end():
    t0 = time.time()
    gg = pinched_octagon()
    split = region_split(gg.graph, gg.rotation, Cycle.from_vertices(tuple(range(8))))
    inner = split.interior_piece.graph
    v_inner = is_mixing_wind(inner, P52)
    assert v_inner.status == "not-mixing"
    ok, failures = verify_witness(v_inner.witness)
    assert ok, failures
    assert is_mixing_oracle(gg.graph, P52).status == "mixing"
    reduced, trace = reduce_dominated(gg.graph, P52)
    assert support.canonical_key(reduced) == support.canonical_key(support.cycle(8))
    assert trace.final == reduced
    report(6, t0, 300,
           "octagon example: interior fails with a verified witness, whole "
           "graph mixes, dominated folds end at the 8-cycle")


def _planar_catalogue():
    gs = [cycle_graph(k) for k in (4, 6, 8, 10, 12)]
    gs += [grid_graph(2, 2), grid_graph(2, 3), grid_graph(2, 4),
           grid_graph(3, 3), grid_graph(3, 4)]
    gs += [cube_graph(), theta_graph(2, 2, 2), theta_graph(2, 2, 4),
           theta_graph(2, 4, 4), c4_pinch_graph()]
    return gs


def test_criterion_07_planar_decider():
    t0 = time.time()
    budget = 30_000_000  # the decagon pair at (7,2) tops 10^7 states
    for gg in _planar_catalogue():
        for params in (P31, P72):
            oracle = is_mixing_oracle(gg.graph, params, budget=budget).status
            for rot in (gg.rotation, mirror_rotation(gg.rotation)):
                verdict, _ = planar_mixing_decider(gg.graph, rot, params)
                assert verdict.status == oracle, (gg.name, params)
    report(7, t0, 1800,
           "planar decider = oracle across the catalogue at (3,1) and (7,2), "
           "stable over two embeddings each")


def test_criterion_08_reachability_characterization():
    t0 = time.time()
    graphs = [g for n in range(1, 7)
              for g in support.connected_bipartite_upto_iso(n)]
    graphs = sorted(graphs, key=lambda g: (-g.n, sorted(g.edges)))[:20]
    assert len(graphs) == 20
    pair_count = 0
    for g in graphs:
        states = list(enumerate_colourings(g, P52))
        _, labels = support.python_mixing_components(g, P52)
        sigs = [reachability_signature(f) for f in states]
        # signature equality must match component equality over every
        # ordered pair of proper colourings
        for i in range(len(states)):
            for j in range(len(states)):
                assert (sigs[i] == sigs[j]) == (labels[i] == labels[j]), \
                    (sorted(g.edges), states[i].colours, states[j].colours)
        pair_count += len(states) ** 2
    # spot-check the public pairwise entry point agrees with the signatures
    g = support.cycle(6)
    fs = list(enumerate_colourings(g, P52))
    _, labels = support.python_mixing_components(g, P52)
    for i in (0, 7, len(fs) - 1):
        for j in (0, 3, len(fs) - 2):
            assert is_reachable_characterized(fs[i], fs[j]) == \
                (labels[i] == labels[j])
    report(8, t0, 1800,
           f"characterized = oracle reachability over {pair_count} ordered "
           f"colouring pairs on 20 bipartite graphs at (5,2)")


def test_criterion_09_threshold_tightness():
    t0 = time.time()
    for k in (1, 2, 3):
        res = circular_mixing_threshold(support.cycle(4 * k + 2))
        assert res.k == k + 1, (k, res)
    report(9, t0, 300, "threshold of C_{4k+2} is exactly k+1 for k in {1,2,3}")


def test_criterion_10_invariant_suite():
    t0 = time.time()
    rng_graphs = support.random_connected_bipartite(7, 30, seed=424242)

    # directed edge weights: antisymmetry and the [q, p-q] range
    for g in rng_graphs[:10]:
        for f in itertools.islice(enumerate_colourings(g, P52), 20):
            for (u, v) in g.edges:
                w = edge_weight(f, u, v)
                assert w + edge_weight(f, v, u) == 5
                assert 2 <= w <= 3

    # closed-walk weights are multiples of p
    for g in rng_graphs[:10]:
        for f in itertools.islice(enumerate_colourings(g, P52), 5):
            for c in enumerate_cycles(g, g.n):
                walk = c.vertices + (c.vertices[0],)
                assert walk_weight(f, walk) % 5 == 0

    # shift preserves weights, reflect flips them, both preserve properness
    for g in rng_graphs[:10]:
        for f in itertools.islice(enumerate_colourings(g, P52), 10):
            s = shift(f, 3)
            r = reflect(f)
            assert validate_colouring(g, s)[0] and validate_colouring(g, r)[0]
            for (u, v) in g.edges:
                assert edge_weight(s, u, v) == edge_weight(f, u, v)
                assert edge_weight(r, u, v) == 5 - edge_weight(f, u, v)

    # one recolouring never changes any fundamental cycle weight
    for g in rng_graphs[:6]:
        basis = support.fundamental_cycles(g)
        if not basis:
            continue
        for f in itertools.islice(enumerate_colourings(g, P52), 10):
            base = [sum(edge_weight(f, a, b) for a, b in c.directed_edges())
                    for c in basis]
            for h in col_neighbours(f):
                assert base == [sum(edge_weight(h, a, b)
                                    for a, b in c.directed_edges())
                                for c in basis]

    # a balanced fundamental basis means every simple cycle is balanced
    for g in rng_graphs[:6]:
        basis = support.fundamental_cycles(g)
        cycles = list(enumerate_cycles(g, g.n))
        for f in itertools.islice(enumerate_colourings(g, P52), 15):
            def balanced(c):
                w = sum(edge_weight(f, a, b) for a, b in c.directed_edges())
                return 2 * w == len(c) * 5

            assert all(map(balanced, basis)) == all(map(balanced, cycles))

    # every emitted witness re-verifies from scratch
    cases = [(support.cycle(10), P52), (support.cycle(6), P72),
             (support.cycle(5), P52)]
    cases += [(g, P31) for g in rng_graphs[:10]]
    for g, params in cases:
        v = is_mixing_wind(g, params)
        if v.status == "not-mixing":
            ok, failures = verify_witness(v.witness)
            assert ok, failures
            assert v.witness.required == Fraction(len(v.witness.cycle) * params.p, 2)

    report(10, t0, 1800,
           "invariants: weight antisymmetry, closed-walk divisibility, "
           "transform behaviour, one-move wind invariance, basis "
           "sufficiency, witness soundness")
