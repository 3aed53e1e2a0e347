import itertools
import random
from fractions import Fraction

import pytest

import support
from circmix.circular import (CircularParams, circular_clique,
                              cycle_wind, edge_weight, enumerate_colourings,
                              reflect, shift, validate_colouring, walk_weight)
from circmix.graphs import Cycle, build_graph


P52 = CircularParams(5, 2)


class TestParams:
    def test_ratio_guard(self):
        with pytest.raises(ValueError):
            CircularParams(3, 2)
        with pytest.raises(ValueError):
            CircularParams(5, 0)

    def test_not_reduced(self):
        assert CircularParams(6, 2).p == 6  # (6,2) is not collapsed to (3,1)

    def test_circular_distance(self):
        assert P52.circular_distance(0, 3) == 2
        assert P52.circular_distance(1, 4) == 2
        assert P52.circular_distance(2, 2) == 0


class TestCircularClique:
    def test_31_is_triangle(self):
        g = circular_clique(CircularParams(3, 1))
        assert support.brute_isomorphic(g, support.cycle(3))

    def test_52_is_pentagon(self):
        g = circular_clique(P52)
        assert sorted(g.edges) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
        assert support.brute_isomorphic(g, support.cycle(5))

    def test_42_is_perfect_matching(self):
        g = circular_clique(CircularParams(4, 2))
        assert sorted(g.edges) == [(0, 2), (1, 3)]

    def test_73_is_heptagon(self):
        g = circular_clique(CircularParams(7, 3))
        assert support.brute_isomorphic(g, support.cycle(7))

    def test_k1_edge_rule_brute(self):
        for (p, q) in [(5, 2), (7, 2), (7, 3), (8, 3)]:
            params = CircularParams(p, q)
            g = circular_clique(params)
            for u, v in itertools.combinations(range(p), 2):
                d = min(abs(u - v), p - abs(u - v))
                assert g.has_edge(u, v) == (q <= d <= p - q and d >= q)


class TestValidate:
    def test_k2_exact_distance(self):
        g = build_graph(2, [(0, 1)])
        ok, bad = validate_colouring(g, support.colouring(g, P52, (0, 2)))
        assert ok and bad is None

    def test_k2_too_close(self):
        g = build_graph(2, [(0, 1)])
        ok, bad = validate_colouring(g, support.colouring(g, P52, (0, 1)))
        assert not ok and bad == (0, 1)

    def test_c6_spaced_colouring(self):
        g = support.cycle(6)
        f = support.colouring(g, CircularParams(7, 2), (0, 2, 4, 0, 2, 4))
        ok, _ = validate_colouring(g, f)
        assert ok

    def test_colour_out_of_range(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            support.colouring(g, P52, (0, 5))


class TestEdgeWeight:
    def test_directed_pair(self):
        g = build_graph(2, [(0, 1)])
        f = support.colouring(g, P52, (0, 2))
        assert edge_weight(f, 0, 1) == 2
        assert edge_weight(f, 1, 0) == 3

    def test_mod_wraparound(self):
        g = build_graph(2, [(0, 1)])
        f = support.colouring(g, CircularParams(7, 2), (5, 1))
        assert edge_weight(f, 0, 1) == 3

    def test_non_edge_rejected(self):
        g = support.path(3)
        f = support.colouring(g, P52, (0, 2, 4))
        with pytest.raises(ValueError):
            edge_weight(f, 0, 2)

    def test_antisymmetry_and_range(self):
        # W(uv)+W(vu) = p and q <= W <= p-q on every edge of every proper
        # colouring of every connected bipartite graph on <= 5 vertices.
        for params in (P52, CircularParams(7, 3)):
            for n in range(2, 6):
                for g in support.connected_bipartite_upto_iso(n):
                    for f in enumerate_colourings(g, params):
                        for (u, v) in g.edges:
                            w = edge_weight(f, u, v)
                            assert w + edge_weight(f, v, u) == params.p
                            assert params.q <= w <= params.p - params.q


class TestWindsAndWalks:
    def test_wound_decagon(self):
        g = support.cycle(10)
        f = support.colouring(g, P52, tuple(2 * i % 5 for i in range(10)))
        rep = cycle_wind(f, Cycle.from_vertices(tuple(range(10))))
        assert (rep.weight, rep.wind, rep.required) == (20, 4, 25)
        assert rep.wrapped

    def test_alternating_decagon(self):
        g = support.cycle(10)
        f = support.colouring(g, P52, tuple(0 if i % 2 == 0 else 2 for i in range(10)))
        rep = cycle_wind(f, Cycle.from_vertices(tuple(range(10))))
        assert (rep.weight, rep.wind) == (25, 5)
        assert not rep.wrapped

    def test_every_octagon_colouring_has_wind_4(self):
        g = support.cycle(8)
        c = Cycle.from_vertices(tuple(range(8)))
        count = 0
        for f in enumerate_colourings(g, P52):
            assert cycle_wind(f, c).wind == 4
            count += 1
        assert count > 0

    def test_out_and_back_is_p(self):
        g = support.path(2)
        f = support.colouring(g, P52, (0, 2))
        assert walk_weight(f, (0, 1, 0)) == 5

    def test_single_edge_walk(self):
        g = support.path(2)
        f = support.colouring(g, P52, (0, 3))
        assert walk_weight(f, (0, 1)) == edge_weight(f, 0, 1)

    def test_spaced_hexagon_walk(self):
        g = support.cycle(6)
        f = support.colouring(g, CircularParams(7, 2), (0, 2, 4, 0, 2, 4))
        assert walk_weight(f, (0, 1, 2)) == 4

    def test_walk_reversal(self):
        g = support.grid(2, 3)
        params = CircularParams(7, 3)
        f = next(enumerate_colourings(g, params))
        walk = (0, 1, 2, 5, 4)
        w = walk_weight(f, walk)
        assert walk_weight(f, tuple(reversed(walk))) == 4 * params.p - w

    def test_closed_walks_divisible_by_p(self):
        rng = random.Random(23)
        for params in (P52, CircularParams(7, 2)):
            for g in support.connected_bipartite_upto_iso(5):
                fs = list(enumerate_colourings(g, params))
                for f in rng.sample(fs, min(5, len(fs))):
                    walk = _random_closed_walk(g, rng)
                    if walk:
                        assert walk_weight(f, walk + (walk[0],)) % params.p == 0

    def test_odd_cycles_always_wrapped(self):
        cases = ((5, P52, True), (5, CircularParams(7, 3), False),
                 (7, P52, True), (7, CircularParams(7, 3), True))
        for length, params, expect_any in cases:
            g = support.cycle(length)
            c = Cycle.from_vertices(tuple(range(length)))
            seen = False
            for f in enumerate_colourings(g, params):
                seen = True
                rep = cycle_wind(f, c)
                assert rep.wrapped
                assert rep.required == Fraction(length * params.p, 2)
            assert seen == expect_any


def _random_closed_walk(g, rng, steps=6):
    if g.m == 0:
        return ()
    v = rng.randrange(g.n)
    if not g.adjacency[v]:
        return ()
    walk = [v]
    for _ in range(steps - 1):
        walk.append(rng.choice(g.adjacency[walk[-1]]))
    # walk back to the start along a shortest route to close it
    from circmix.graphs import distance
    while walk[-1] != walk[0]:
        best = min(g.adjacency[walk[-1]],
                   key=lambda u: (distance(g, u, walk[0]), u))
        walk.append(best)
    return tuple(walk[:-1])


class TestEnumerate:
    def test_k2_triangle_params(self):
        g = build_graph(2, [(0, 1)])
        assert len(list(enumerate_colourings(g, CircularParams(3, 1)))) == 6

    def test_k2_pentagon_params(self):
        g = build_graph(2, [(0, 1)])
        assert len(list(enumerate_colourings(g, P52))) == 10

    def test_c5_at_73_empty(self):
        # 5/2 > 7/3, so the pentagon admits no (7,3)-colouring at all.
        g = support.cycle(5)
        assert next(enumerate_colourings(g, CircularParams(7, 3)), None) is None

    def test_c7_at_73(self):
        g = support.cycle(7)
        fs = enumerate_colourings(g, CircularParams(7, 3))
        first = next(fs, None)
        assert first is not None
        ok, _ = validate_colouring(g, first)
        assert ok

    def test_lexicographic_order(self):
        g = support.cycle(4)
        seq = [f.colours for f in enumerate_colourings(g, P52)]
        assert seq == sorted(seq)
        assert len(seq) == len(set(seq))

    def test_counts_match_raw_filter(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 4)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.5]
            g = build_graph(n, edges)
            for params in (CircularParams(3, 1), P52, CircularParams(6, 2)):
                ours = sum(1 for _ in enumerate_colourings(g, params))
                assert ours == support.brute_colouring_count(g, params)

    def test_uncolourable_is_empty(self):
        triangle = support.cycle(3)
        assert list(enumerate_colourings(triangle, P52)) == []


class TestTransforms:
    def test_shift_preserves_weights(self):
        g = support.cycle(6)
        for f in itertools.islice(enumerate_colourings(g, P52), 25):
            for c in range(1, 5):
                shifted = shift(f, c)
                assert validate_colouring(g, shifted)[0]
                for (u, v) in g.edges:
                    assert edge_weight(f, u, v) == edge_weight(shifted, u, v)

    def test_reflect_flips_weights(self):
        g = support.cycle(6)
        for f in itertools.islice(enumerate_colourings(g, P52), 25):
            r = reflect(f)
            assert validate_colouring(g, r)[0]
            for (u, v) in g.edges:
                assert edge_weight(r, u, v) == 5 - edge_weight(f, u, v)

    def test_reflect_wound_decagon(self):
        g = support.cycle(10)
        f = support.colouring(g, P52, tuple(2 * i % 5 for i in range(10)))
        rep = cycle_wind(reflect(f), Cycle.from_vertices(tuple(range(10))))
        assert (rep.weight, rep.wind) == (30, 6)

    def test_reflect_involution(self):
        g = support.grid(2, 2)
        for f in enumerate_colourings(g, P52):
            assert reflect(reflect(f)).colours == f.colours

    def test_transforms_preserve_properness_exhaustive(self):
        for n in range(2, 6):
            for g in support.connected_bipartite_upto_iso(n):
                for f in enumerate_colourings(g, P52):
                    assert validate_colouring(g, shift(f, 1))[0]
                    assert validate_colouring(g, reflect(f))[0]

    def test_transform_dispatch(self):
        g = build_graph(2, [(0, 1)])
        f = support.colouring(g, P52, (0, 2))
        assert shift(f, 2).colours == (2, 4)
        assert reflect(f).colours == (0, 3)
