import random

import pytest

import support
from circmix.circular import CircularParams
from circmix.generators import (c4_pinch_graph, cube_graph, cycle_graph,
                                grid_graph, mirror_rotation, pinched_octagon,
                                theta_graph)
from circmix.graphs import Cycle, build_graph, minimum_cycle_basis
from circmix.planar import (EmbeddingError, RotationSystem, face_criterion, faces,
                            minimal_non_mixing_even_cycle, planar_mixing_decider,
                            region_split, separating_cycles)
from circmix.reconfig import is_mixing_oracle

P31 = CircularParams(3, 1)
P52 = CircularParams(5, 2)
P72 = CircularParams(7, 2)


class TestFaces:
    def test_hexagon_two_faces(self):
        gg = cycle_graph(6)
        fs = faces(gg.graph, gg.rotation)
        assert sorted(fs.lengths) == [6, 6]

    def test_cube_six_squares(self):
        gg = cube_graph()
        fs = faces(gg.graph, gg.rotation)
        assert sorted(fs.lengths) == [4] * 6
        assert sum(fs.lengths) == 2 * gg.graph.m

    def test_2x3_grid(self):
        gg = grid_graph(2, 3)
        fs = faces(gg.graph, gg.rotation)
        assert sorted(fs.lengths) == [4, 4, 6]

    def test_invalid_rotation_fails_euler(self):
        # K4 is planar but this rotation is not an embedding of it
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        bad = RotationSystem(rotation=((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)))
        with pytest.raises(EmbeddingError):
            faces(g, bad)

    def test_rotation_must_match_adjacency(self):
        g = support.cycle(4)
        with pytest.raises(EmbeddingError):
            faces(g, RotationSystem(rotation=((1, 2), (0, 2), (1, 3), (2, 0))))

    def test_bridge_walks(self):
        gg = support.path(3)
        rot = RotationSystem(rotation=((1,), (0, 2), (1,)))
        fs = faces(gg, rot)
        assert fs.lengths == (4,)  # one face walking both sides of both edges

    def test_disconnected_components(self):
        g = build_graph(7, [(i, (i + 1) % 4) for i in range(4)] + [(4, 5), (5, 6)])
        rot = RotationSystem(rotation=((1, 3), (0, 2), (1, 3), (2, 0),
                                       (5,), (4, 6), (5,)))
        fs = faces(g, rot)
        assert sorted(fs.lengths) == [4, 4, 4]


class TestRegionSplit:
    def test_whole_hexagon_not_separating(self):
        gg = cycle_graph(6)
        rs = region_split(gg.graph, gg.rotation, Cycle.from_vertices(tuple(range(6))))
        assert rs.interior == frozenset() and rs.exterior == frozenset()
        assert not rs.separating

    def test_pinched_octagon_interior_path_exterior_hub(self):
        gg = pinched_octagon()
        rs = region_split(gg.graph, gg.rotation, Cycle.from_vertices(tuple(range(8))))
        assert rs.interior == frozenset({9, 10, 11, 12, 13})
        assert rs.exterior == frozenset({8})

    def test_c4_pinch_split(self):
        gg = c4_pinch_graph()
        rs = region_split(gg.graph, gg.rotation, Cycle.from_vertices((0, 1, 2, 3)))
        assert rs.interior == frozenset({4})
        assert rs.exterior == frozenset({5})
        assert rs.separating
        # pieces keep the cycle and inherit valid embeddings
        assert rs.interior_piece.graph.n == 5
        faces(rs.interior_piece.graph, rs.interior_piece.rotation)
        faces(rs.exterior_piece.graph, rs.exterior_piece.rotation)

    def test_partition_invariant(self):
        gg = pinched_octagon()
        from circmix.graphs import enumerate_cycles

        for c in enumerate_cycles(gg.graph, 8):
            rs = region_split(gg.graph, gg.rotation, c)
            together = set(rs.interior) | set(rs.exterior) | set(c.vertices)
            assert together == set(range(gg.graph.n))
            assert not (rs.interior & rs.exterior)


class TestSeparatingCycles:
    def test_cube_has_none(self):
        gg = cube_graph()
        assert separating_cycles(gg.graph, gg.rotation, 4) == []

    def test_octagon_has_no_squares_at_all(self):
        gg = cycle_graph(8)
        assert separating_cycles(gg.graph, gg.rotation, 4) == []

    def test_c4_pinch_has_two(self):
        # the four length-2 hub paths pair into two separating squares
        gg = c4_pinch_graph()
        seps = separating_cycles(gg.graph, gg.rotation, 4)
        assert len(seps) == 2
        assert {s.vertices for s in seps} == {(0, 1, 2, 3), (0, 4, 2, 5)}


class TestFaceCriterion:
    def test_decagon_at_its_own_threshold(self):
        gg = cycle_graph(10)
        fs = faces(gg.graph, gg.rotation)
        count, mixing = face_criterion(fs, 10)
        assert count == 2 and not mixing

    def test_cube_all_short(self):
        gg = cube_graph()
        fs = faces(gg.graph, gg.rotation)
        count, mixing = face_criterion(fs, 6)
        assert count == 0 and mixing

    def test_hexagon(self):
        gg = cycle_graph(6)
        count, mixing = face_criterion(faces(gg.graph, gg.rotation), 6)
        assert count == 2 and not mixing


class TestMinimalNonMixingCycle:
    def test_values(self):
        assert minimal_non_mixing_even_cycle(P52) == 10
        assert minimal_non_mixing_even_cycle(P72) == 6
        assert minimal_non_mixing_even_cycle(P31) == 6

    def test_ratio_guard(self):
        with pytest.raises(ValueError):
            minimal_non_mixing_even_cycle(CircularParams(8, 2))

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(3, 9)
                                     for q in range(1, p)
                                     if 2 * q < p < 4 * q])
    def test_closed_form_is_the_oracle_threshold(self, p, q):
        params = CircularParams(p, q)
        length = minimal_non_mixing_even_cycle(params)
        assert length % 2 == 0
        assert is_mixing_oracle(support.cycle(length), params).status == "not-mixing"
        if length - 2 >= 4:
            assert is_mixing_oracle(support.cycle(length - 2), params).status == "mixing"


def catalogue():
    gs = [cycle_graph(k) for k in (4, 6, 8)]
    gs += [grid_graph(2, 2), grid_graph(2, 3), grid_graph(3, 3)]
    gs += [cube_graph(), theta_graph(2, 2, 2), theta_graph(2, 2, 4),
           theta_graph(2, 4, 4), c4_pinch_graph()]
    return gs


class TestDecider:
    def test_hexagon_not_mixing(self):
        gg = cycle_graph(6)
        v, tree = planar_mixing_decider(gg.graph, gg.rotation, P31)
        assert v.status == "not-mixing"
        assert tree.kind == "faces" and tree.detail["long_faces"] == 2

    def test_grid_mixing_with_tree(self):
        gg = grid_graph(2, 3)
        v, tree = planar_mixing_decider(gg.graph, gg.rotation, P31)
        assert v.status == "mixing"
        assert "6" in tree.render() or tree.detail  # renders without error
        assert tree.to_dict()["mixing"] is True

    def test_pinch_splits_then_mixes(self):
        gg = c4_pinch_graph()
        v, tree = planar_mixing_decider(gg.graph, gg.rotation, P31)
        assert v.status == "mixing"
        assert tree.kind == "split"
        assert len(tree.children) == 2

    def test_matches_oracle_on_catalogue(self):
        for gg in catalogue():
            for params in (P31, P72):
                v, _ = planar_mixing_decider(gg.graph, gg.rotation, params)
                assert v.status == is_mixing_oracle(gg.graph, params).status, gg.name

    def test_verdict_stable_across_embeddings(self):
        for gg in catalogue():
            mirrored = mirror_rotation(gg.rotation)
            for params in (P31, P72):
                a, _ = planar_mixing_decider(gg.graph, gg.rotation, params)
                b, _ = planar_mixing_decider(gg.graph, mirrored, params)
                assert a.status == b.status, gg.name

    def test_verdict_independent_of_split_order(self):
        rng = random.Random(99)

        def random_chooser(seps):
            return seps[rng.randrange(len(seps))]

        for gg in catalogue():
            for params in (P31, P72):
                a, _ = planar_mixing_decider(gg.graph, gg.rotation, params)
                for _ in range(3):
                    b, _ = planar_mixing_decider(gg.graph, gg.rotation, params,
                                                 split_chooser=random_chooser)
                    assert a.status == b.status

    def test_block_decomposition_path(self):
        # two hexagons joined by a bridge: three blocks, two of them long
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
        edges += [(0, 6)]
        g = build_graph(12, edges)
        rot = []
        for v in range(12):
            rot.append(tuple(sorted(g.adjacency[v])))
        # hand embedding: hexagons side by side, bridge between
        rotation = RotationSystem(rotation=tuple(rot))
        v, tree = planar_mixing_decider(g, rotation, P31)
        hexagon = {"kind": "faces", "mixing": False, "children": [],
                   "detail": {"lengths": [6, 6], "threshold": 6, "long_faces": 2}}
        bridge = {"kind": "faces", "mixing": True, "children": [],
                  "detail": {"lengths": [2], "threshold": 6, "long_faces": 0}}
        assert tree.to_dict() == {"kind": "blocks", "mixing": False,
                                  "detail": {"count": 3},
                                  "children": [hexagon, bridge, hexagon]}
        assert v.status == "not-mixing"
        assert is_mixing_oracle(g, P31).status == "not-mixing"

    def test_one_block_plus_an_isolated_vertex(self):
        # region_split needs a connected piece, so the isolated vertex
        # drops out under a one-block "blocks" node
        for gg in (grid_graph(2, 3), cube_graph()):
            g = build_graph(gg.graph.n + 1, gg.graph.edges)
            for rot in (gg.rotation, mirror_rotation(gg.rotation)):
                padded = RotationSystem(rotation=rot.rotation + ((),), outer=rot.outer)
                for params in (P72, P31):
                    v, tree = planar_mixing_decider(g, padded, params)
                    assert v.status == is_mixing_oracle(g, params).status, gg.name
                    assert (tree.kind, tree.detail) == ("blocks", {"count": 1})
                    _, alone = planar_mixing_decider(gg.graph, rot, params)
                    assert tree.children == (alone,)

    def test_rejects_non_bipartite(self):
        gg = cycle_graph(5)
        with pytest.raises(ValueError):
            planar_mixing_decider(gg.graph, gg.rotation, P31)

    def test_rejects_bad_ratio(self):
        gg = cycle_graph(6)
        with pytest.raises(ValueError):
            planar_mixing_decider(gg.graph, gg.rotation, P52)

    def test_pinched_octagon_interior_vs_whole(self):
        # the interior of the octagon fails, the whole graph mixes: the
        # standard witness that splitting at longer cycles is unsound below
        # ratio 3 (both facts by oracle at (5,2))
        gg = pinched_octagon()
        rs = region_split(gg.graph, gg.rotation, Cycle.from_vertices(tuple(range(8))))
        inner = rs.interior_piece.graph
        assert is_mixing_oracle(inner, P52).status == "not-mixing"
        assert is_mixing_oracle(gg.graph, P52).status == "mixing"


def test_verdict_is_the_basis_bound():
    """At 3 <= p/q < 4 the decider says MIXING exactly when a minimum cycle
    basis has only cycles shorter than 6 (``minimum_cycle_basis``).

    * In a 2-connected plane graph the face boundaries span the cycle
      space, and all but one of them form a basis, so a piece with at most
      one face of length >= 6 has a basis of 4-cycles.
    * A separating 4-cycle splits G into two closed halves whose cycle
      spaces together span G's, and blocks split the cycle space directly;
      so a MIXING tree means G's cycle space is spanned by 4-cycles.
    * Imbalance is linear over the cycle space, so a basis of balanced
      cycles means G mixes.  The two methods agree wherever the decider is
      right.
    """
    for seed in range(60):
        g, rot = support.random_plane_bipartite(random.Random(seed))
        basis = minimum_cycle_basis(g)
        for params in (P72, P31, CircularParams(10, 3)):
            verdict, _ = planar_mixing_decider(g, rot, params)
            bound = not basis or basis[-1][0] < minimal_non_mixing_even_cycle(params)
            assert verdict.status == ("mixing" if bound else "not-mixing"), (seed, params)


def edge_cutset_pieces(g):
    """Splits along an edge whose endpoint pair disconnects the rest, if any."""
    from circmix.graphs import connected_components, induced_subgraph

    for (u, v) in sorted(g.edges):
        rest = [x for x in range(g.n) if x not in (u, v)]
        if not rest:
            continue
        sub, _ = induced_subgraph(g, rest)
        comps = connected_components(sub)
        if len(comps) < 2:
            continue
        back = {i: rest[i] for i in range(len(rest))}
        t1 = {back[x] for x in comps[0]}
        t_rest = {back[x] for c in comps[1:] for x in c}
        g1, _ = induced_subgraph(g, sorted(t1 | {u, v}))
        g2, _ = induced_subgraph(g, sorted(t_rest | {u, v}))
        return g1, g2
    return None


class TestCompositionLemmas:
    def test_edge_cutset_composition(self):
        # if both closed sides of an edge cutset mix, so does the whole graph
        checked = 0
        for n in range(4, 8):
            for g in support.connected_bipartite_upto_iso(n):
                pieces = edge_cutset_pieces(g)
                if pieces is None:
                    continue
                g1, g2 = pieces
                if (is_mixing_oracle(g1, P52).status == "mixing"
                        and is_mixing_oracle(g2, P52).status == "mixing"):
                    assert is_mixing_oracle(g, P52).status == "mixing"
                    checked += 1
        assert checked > 0

    def test_face_fold_stays_planar(self):
        # folding the two outer neighbours of a degree-anything face corner
        # keeps planarity; witnessed by surgering the rotation and passing
        # the Euler validation
        for gg in [cube_graph(), grid_graph(3, 3), grid_graph(2, 4),
                   theta_graph(2, 2, 4), pinched_octagon()]:
            folded_any = _check_face_folds(gg)
            assert folded_any > 0, gg.name


def _check_face_folds(gg):
    from circmix.fold import elementary_fold
    from circmix.graphs import distance

    g, rot = gg.graph, gg.rotation
    fs = faces(g, rot)
    checked = 0
    for walk in fs.faces:
        k = len(walk)
        for i in range(k):
            x, y, z = walk[i], walk[(i + 1) % k], walk[(i + 2) % k]
            if len({x, y, z}) < 3 or distance(g, x, z) != 2:
                continue
            folded, step = elementary_fold(g, x, z)
            surgered = _surgered_rotation(g, rot, x, y, z, step)
            faces(folded, surgered)  # Euler validation is the planarity proof
            checked += 1
    return checked


def _surgered_rotation(g, rot, x, y, z, step):
    # contract the virtual x-z edge drawn inside the face through corner y:
    # splice z's ring into the face-corner gap of x's ring (just before y),
    # starting from z's neighbour after y, then relabel
    rx = list(rot.rotation[x])
    rz = list(rot.rotation[z])
    ix = rx.index(y)
    iz = rz.index(y)
    spliced = rx[:ix] + rz[iz + 1:] + rz[:iz] + rx[ix:]
    merged = []
    for w in spliced:
        nw = step.vertex_map[w]
        if nw not in merged:
            merged.append(nw)
    rings = []
    for v in range(g.n):
        if v in (x, z):
            continue
        ring = []
        for w in rot.rotation[v]:
            nw = step.vertex_map[w]
            if nw not in ring:
                ring.append(nw)
        rings.append((step.vertex_map[v], ring))
    rings.append((step.vertex_map[x], merged))
    rings.sort()
    return RotationSystem(rotation=tuple(tuple(r) for _, r in rings))


class TestGenericThresholdProbe:
    # the face criterion in its general form: with no separating cycles
    # shorter than the minimal non-mixing length (10 at (5,2)), mixing is
    # exactly "at most one face of length >= 10"
    def probe(self, gg):
        threshold = minimal_non_mixing_even_cycle(P52)
        assert threshold == 10
        for length in (4, 6, 8):
            assert separating_cycles(gg.graph, gg.rotation, length) == []
        count, predicted = face_criterion(faces(gg.graph, gg.rotation), threshold)
        actual = is_mixing_oracle(gg.graph, P52).status == "mixing"
        assert predicted == actual, (gg.name, count)

    def test_decagon(self):
        self.probe(cycle_graph(10))

    def test_long_theta(self):
        self.probe(theta_graph(4, 6, 6))

    def test_two_row_grid(self):
        self.probe(grid_graph(2, 5))
