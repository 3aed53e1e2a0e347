"""Elementary folds, fold sequences onto cycle targets, retractions,
dominated-vertex reduction, and the fold-based odd-cycle mixing decision.

An elementary fold identifies two vertices at distance exactly 2.  Folding
can only lose colourings, and for 2 < p/q < 4 a fold image that fails to mix
drags the original down with it; for the odd-cycle targets C_{2k+1} the
converse holds too: a connected bipartite graph fails to mix exactly when it
folds onto the cycle C_{4k+2}.  A connected graph folds onto C_L exactly
when some homomorphism to C_L winds one of its cycles (``folds_to_cycle``),
so fold sequences are built from such a homomorphism, not searched for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import kernels
from .circular import CircularParams, require_ratio_open
from .graphs import (Bipartition, Graph, bfs_forest, bipartition, build_graph,
                     connected_components, fundamental_cycle_basis,
                     induced_subgraph, is_connected, longest_basis_cycle,
                     shortest_cycle, tree_path)
from .kernels import DEFAULT_STATE_BUDGET, np


@dataclass(frozen=True)
class FoldStep:
    """One identification: ``merged`` collapsed into ``kept`` (= min of the
    pair), with the dense relabelling of the shrunken graph."""

    kept: int
    merged: int
    vertex_map: tuple  # old vertex -> new vertex


@dataclass(frozen=True)
class FoldTrace:
    source: Graph
    steps: tuple  # tuple of FoldStep
    final: Graph
    vertex_map: tuple  # source vertex -> final vertex

    def __len__(self) -> int:
        return len(self.steps)


def elementary_fold(g: Graph, x: int, y: int):
    """Identify x and y (must be at distance exactly 2) into min(x, y).

    Returns (folded graph, FoldStep).  The removed label max(x, y) is spliced
    out, so the result stays densely labelled.
    """
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"fold endpoints ({x},{y}) out of range")
    if x == y or g.has_edge(x, y) or \
            not set(g.adjacency[x]).intersection(g.adjacency[y]):
        raise ValueError(f"vertices {x} and {y} are not at distance 2")
    kept, removed = min(x, y), max(x, y)
    vmap = []
    for v in range(g.n):
        if v == removed:
            vmap.append(kept)
        elif v > removed:
            vmap.append(v - 1)
        else:
            vmap.append(v)
    edges = {(min(vmap[u], vmap[v]), max(vmap[u], vmap[v])) for (u, v) in g.edges}
    folded = build_graph(g.n - 1, edges)
    return folded, FoldStep(kept=kept, merged=removed, vertex_map=tuple(vmap))


class _TraceBuilder:
    """Accumulates elementary folds and the composite relabelling."""

    def __init__(self, source: Graph):
        self.source = source
        self.current = source
        self.steps = []
        self.vertex_map = list(range(source.n))

    def fold(self, x: int, y: int) -> FoldStep:
        self.current, step = elementary_fold(self.current, x, y)
        self.steps.append(step)
        self.vertex_map = [step.vertex_map[v] for v in self.vertex_map]
        return step

    def trace(self) -> FoldTrace:
        return FoldTrace(source=self.source, steps=tuple(self.steps),
                         final=self.current, vertex_map=tuple(self.vertex_map))


def replay_trace(source: Graph, steps) -> FoldTrace:
    """Re-apply recorded (kept, merged) pairs; raises if any step is illegal."""
    builder = _TraceBuilder(source)
    for step in steps:
        kept, merged = (step.kept, step.merged) if isinstance(step, FoldStep) else step
        actual = builder.fold(kept, merged)
        if (actual.kept, actual.merged) != (min(kept, merged), max(kept, merged)):
            raise ValueError("fold step does not replay")
    return builder.trace()


def is_homomorphism_onto(source: Graph, target: Graph, vmap) -> bool:
    """vmap preserves edges and covers all of target's vertices and edges."""
    seen_v = set()
    seen_e = set()
    for (u, v) in source.edges:
        a, b = vmap[u], vmap[v]
        if a == b or not target.has_edge(a, b):
            return False
        seen_e.add((min(a, b), max(a, b)))
    for v in range(source.n):
        seen_v.add(vmap[v])
    return seen_v == set(range(target.n)) and seen_e == set(target.edges)


# ---------------------------------------------------------------------------
# Dominated-vertex reduction.


def reduce_dominated(g: Graph, params: CircularParams):
    """Fold away vertices whose neighbourhood sits inside another vertex's.

    For 2 < p/q < 4 such a fold preserves the mixing verdict in both
    directions, so the reduced graph mixes iff the input does.  Returns
    (reduced graph, FoldTrace); deterministic smallest-pair-first order.
    """
    require_ratio_open(params)
    builder = _TraceBuilder(g)
    while True:
        h = builder.current
        pair = None
        for u in range(h.n):
            nu = set(h.adjacency[u])
            if not nu:
                continue
            for v in range(h.n):
                if v != u and nu <= set(h.adjacency[v]):
                    pair = (u, v)
                    break
            if pair:
                break
        if pair is None:
            return builder.current, builder.trace()
        builder.fold(*pair)


# ---------------------------------------------------------------------------
# Retractions.


@dataclass(frozen=True)
class RetractionMap:
    """Homomorphism onto a subgraph that fixes the subgraph pointwise."""

    image: tuple  # vertex sequence of the image path or cycle
    assignment: tuple  # vertex -> image vertex


def _validate_retraction(g: Graph, image_edges, r: RetractionMap) -> None:
    for h in r.image:
        if r.assignment[h] != h:
            raise AssertionError("retraction must fix its image pointwise")
    for (u, v) in g.edges:
        a, b = r.assignment[u], r.assignment[v]
        if (min(a, b), max(a, b)) not in image_edges:
            raise AssertionError(f"retraction breaks edge ({u},{v})")


def retract_to_path(g: Graph, x: int, y: int) -> RetractionMap:
    """Retract a connected bipartite graph onto a shortest x-y path.

    BFS levels from x, reflected back and forth past the ends of the path;
    bipartiteness keeps adjacent vertices on adjacent levels so the zigzag
    is a homomorphism.
    """
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"path ends ({x},{y}) out of range 0..{g.n - 1}")
    if not bipartition(g).valid:
        raise ValueError("path retraction requires a bipartite graph")
    if not is_connected(g):
        raise ValueError("path retraction requires a connected graph")
    return _path_retraction(g, x, y)


def _path_retraction(g: Graph, x: int, y: int) -> RetractionMap:
    """``retract_to_path`` on a graph known to be connected and bipartite."""
    parent, depth, _ = bfs_forest(g.adjacency, (x,))
    path = tree_path(parent, y)[::-1]
    k = len(path) - 1
    if k == 0:
        if g.m > 0:
            raise ValueError("cannot retract a graph with edges onto one vertex")
        return RetractionMap(image=(x,), assignment=tuple(x for _ in range(g.n)))
    assignment = []
    for d in depth:
        r = d % (2 * k)
        assignment.append(path[r if r <= k else 2 * k - r])
    r = RetractionMap(image=tuple(path), assignment=tuple(assignment))
    image_edges = {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}
    _validate_retraction(g, image_edges, r)
    return r


def retract_to_shortest_cycle(g: Graph):
    """Retract a connected bipartite graph onto a shortest cycle.

    Drops one cycle edge, retracts onto the remaining path (which is a
    shortest path between the edge's endpoints precisely because the cycle
    is shortest), then restores the edge.  Returns (cycle vertices tuple,
    RetractionMap).
    """
    cyc = shortest_cycle(g)
    if cyc is None:
        raise ValueError("graph is acyclic")
    return _retract_to_cycle(g, cyc, retract_to_path)


def _retract_to_cycle(g: Graph, cyc, to_path):
    """``retract_to_shortest_cycle`` onto the shortest cycle ``cyc``, with
    ``to_path`` retracting g less one cycle edge onto the rest of it."""
    a, b = cyc.vertices[0], cyc.vertices[-1]
    reduced = build_graph(g.n, [e for e in g.edges if e != (min(a, b), max(a, b))])
    r = to_path(reduced, a, b)
    # The BFS path closed by the dropped edge is itself a shortest cycle
    # (anything shorter would beat the girth), so retract onto that one.
    cycle_vertices = tuple(r.image)
    full = RetractionMap(image=cycle_vertices, assignment=r.assignment)
    image_edges = {(min(u, v), max(u, v))
                   for u, v in zip(cycle_vertices,
                                   cycle_vertices[1:] + cycle_vertices[:1])}
    _validate_retraction(g, image_edges, full)
    return cycle_vertices, full


# ---------------------------------------------------------------------------
# Fold sequences onto cycle targets.


def _is_cycle_graph(g: Graph, length: int) -> bool:
    return (g.n == length and g.m == length
            and all(g.degree(v) == 2 for v in range(g.n))
            and is_connected(g))


def folds_to_cycle(g: Graph, length: int,
                   budget: int = DEFAULT_STATE_BUDGET) -> Optional[FoldTrace]:
    """A fold sequence from g onto the cycle C_length, or None if none exists.

    A connected g folds onto C_L exactly when some homomorphism
    phi: g -> C_L winds a cycle (walks it round C_L a nonzero net number of
    times).  If some phi: g -> C_M with M >= L and M - L even winds a cycle
    (``_fold_by_image``), fold the least pair of vertices with a common
    neighbour and one image, and repeat: each fold keeps phi a
    homomorphism, so at the end every vertex has at most the two neighbours
    imaged phi(v) +- 1.  A path winds nothing, so what is left is a cycle
    whose every step goes the same way round C_M, C_{jM} with j != 0, and
    pair-folds shrink it to C_L.  Conversely, if g folds onto C_L a winding
    cycle pulls back one fold at a time: a cycle through the merged vertex
    becomes a closed walk plus an x-w-y detour round a common neighbour w,
    and the detour winds zero, so some cycle of that walk winds.

    Winding is Z-linear over the cycle space, which the fundamental cycles
    generate over Z, so checking them is enough.  Shifting phi keeps every
    winding, so vertex 0 takes image 0; for even L every step changes
    parity, so each vertex of a bipartite g takes only images of its side's
    parity, which loses no homomorphism and cuts partial maps that cannot
    extend.  For odd L every phi winds an odd cycle of a non-bipartite g (an
    odd closed walk cannot balance), so the scan stops at the first phi.
    ``kernels.first_unbalanced`` runs the scan; ``budget`` caps its partial
    maps.

    Two answers need no scan.  A bipartite g with girth M >= L retracts
    onto a shortest cycle, and the position of each vertex's retraction
    image on that cycle is a phi: g -> C_M that winds it once.  And g
    cannot fold onto C_L when its minimum cycle basis has only cycles
    shorter than L (``longest_basis_cycle``):

    * even L >= 6: some coprime (p, q) with 2 < p/q < 4 has threshold
      2*ceil(p/(p-2q)) = L ((2k+1, k) for L = 4k+2, (6k-1, 3k-2) for
      L = 4k).  Shorter cycles are balanced there and imbalance is linear
      over the cycle space, so g mixes at (p, q); fold images of mixing
      graphs mix, and C_L does not;
    * odd L: a basis of a non-bipartite graph holds an odd cycle, so the
      odd girth is below L and no homomorphism onto C_L exists;
    * L = 4: a bipartite basis with no cycle of length 4 or more is empty,
      and forests fold only to forests.
    """
    if length < 3:
        raise ValueError("cycle targets need length >= 3")
    if not is_connected(g):
        raise ValueError("fold search expects a connected graph")
    if _is_cycle_graph(g, length):
        return _TraceBuilder(g).trace()
    if g.n <= length:
        return None
    bip = bipartition(g)
    if bip.valid != (length % 2 == 0):
        # homomorphisms preserve closed-walk parity, so bipartite graphs
        # never reach odd cycles and non-bipartite graphs never reach even
        return None
    if bip.valid:
        shortest = shortest_cycle(g)
        if shortest is not None and len(shortest) >= length:
            return _guided_cycle_trace(g, length, shortest)
    if longest_basis_cycle(g) < length:
        return None
    return _winding_trace(g, length, bip, budget)


def _guided_cycle_trace(g: Graph, length: int, shortest) -> FoldTrace:
    """Fold the connected bipartite g by the positions of its retraction
    images on its shortest cycle ``shortest``, a homomorphism onto C_girth
    that winds that cycle once."""
    cycle, r = _retract_to_cycle(g, shortest, _path_retraction)
    position = {v: i for i, v in enumerate(cycle)}
    return _fold_by_image(g, [position[v] for v in r.assignment], length)


def _winding_trace(g: Graph, length: int, bip: Bipartition,
                   budget: int) -> Optional[FoldTrace]:
    """Fold g by the least homomorphism onto C_length, vertex 0 at image 0,
    that winds a fundamental cycle; None when none winds."""
    colours = np.arange(length)
    step = (colours[:, None] - colours[None, :]) % length
    domain = np.ones((g.n, length), dtype=bool)
    domain[0, 1:] = False
    if bip.valid:
        domain &= colours[None, :] % 2 == np.array(bip.side)[:, None]
    row, _ = kernels.first_unbalanced(g, (step == 1) | (step == length - 1), domain,
                                      fundamental_cycle_basis(g).fundamental, budget)
    return None if row is None else _fold_by_image(g, row.tolist(), length)


def _fold_by_image(g: Graph, image: list, length: int) -> FoldTrace:
    """Fold g by ``image``, a homomorphism onto a cycle that winds a cycle of
    g: fold the least pair of vertices with a common neighbour and one image
    until none is left, then pair-fold the cycle that is left down to
    C_length.  ``image`` is consumed."""
    builder = _TraceBuilder(g)
    while True:
        h = builder.current
        pairs = [(x, y) for x in range(h.n) for w in h.adjacency[x]
                 for y in h.adjacency[w] if y > x and image[y] == image[x]]
        if not pairs:
            break
        del image[builder.fold(*min(pairs)).merged]  # merged shares kept's image
    # h is a cycle: walk it from vertex 0 towards its smaller neighbour
    cycle = [0, min(h.adjacency[0])]
    while len(cycle) < h.n:
        cycle.append(next(w for w in h.adjacency[cycle[-1]] if w != cycle[-2]))
    while len(cycle) > length:
        step = builder.fold(cycle[0], cycle[2])
        cycle = [step.vertex_map[c] for c in cycle]
        step = builder.fold(cycle[1], cycle[3])
        cycle = [step.vertex_map[c] for c in cycle]
        # Positions 2 and 3 are now duplicates of 0 and 1.
        cycle = cycle[:2] + cycle[4:]
    trace = builder.trace()
    if not _is_cycle_graph(trace.final, length):
        raise AssertionError("fold did not end at the target cycle")
    return trace


# ---------------------------------------------------------------------------
# Odd-cycle mixing decision and thresholds.


def odd_mixing_by_fold(g: Graph, k: int,
                       budget: int = DEFAULT_STATE_BUDGET):
    """Is g C_{2k+1}-mixing?  Returns (mixing flag, trace or None).

    A connected bipartite graph mixes iff it does not fold to C_{4k+2};
    disconnected inputs fail as soon as one component folds.  The returned
    trace lives on the induced component (with its vertex list) so it can be
    replayed independently.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not bipartition(g).valid:
        raise ValueError("the odd-cycle fold criterion applies to bipartite graphs")
    target = 4 * k + 2
    comps = connected_components(g)
    for comp in comps:
        sub = g if len(comps) == 1 else induced_subgraph(g, comp)[0]
        trace = folds_to_cycle(sub, target, budget=budget)
        if trace is not None:
            return False, (tuple(comp), trace)
    return True, None


@dataclass(frozen=True)
class ThresholdResult:
    k: int
    longest_basis_cycle: int  # longest cycle of a minimum cycle basis
    tested: tuple  # k values that went through the fold criterion


def circular_mixing_threshold(g: Graph,
                              budget: int = DEFAULT_STATE_BUDGET) -> ThresholdResult:
    """Smallest k such that g is C_{2k+1}-mixing (bipartite, connected).

    At (2k+1, k) every cycle shorter than 4k+2 is balanced and imbalance is
    linear over the cycle space, so once 4k+2 exceeds the longest cycle of
    a minimum cycle basis g mixes and the scan stops without a fold search.
    """
    if not bipartition(g).valid:
        raise ValueError("threshold defined here for bipartite graphs only")
    if not is_connected(g):
        raise ValueError("threshold expects a connected graph")
    longest = longest_basis_cycle(g)
    k = 1
    tested = []
    while 4 * k + 2 <= longest:
        tested.append(k)
        if folds_to_cycle(g, 4 * k + 2, budget=budget) is None:
            break
        k += 1
    return ThresholdResult(k=k, longest_basis_cycle=longest, tested=tuple(tested))
