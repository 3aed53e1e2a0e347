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

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from . import kernels
from .circular import CircularParams, require_ratio_open
from .graphs import (Bipartition, Graph, bfs_forest, bipartition, build_graph,
                     connected_components, edge_set_cycles, induced_subgraph,
                     is_connected, minimum_cycle_basis, shortest_cycle, tree_path)
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
    builder = _TraceBuilder(g)
    step = builder.fold(x, y)
    return builder.trace().final, step


class _TraceBuilder:
    """Accumulates elementary folds, merging in place.

    Each vertex of the current graph is a class of source vertices named by
    its least member, its representative: ``reps`` lists the representatives
    in order and ``adj[r]`` holds r's neighbour representatives.  A fold's
    dense relabelling keeps order, so a vertex's current label is its
    representative's rank in ``reps``, and ``trace`` builds the final graph
    once.
    """

    def __init__(self, source: Graph):
        self.source = source
        self.steps = []
        self.reps = list(range(source.n))
        self.adj = [set(a) for a in source.adjacency]
        self.into = list(range(source.n))  # vertex -> representative it merged into

    def label(self, rep: int) -> int:
        return bisect_left(self.reps, rep)

    def fold(self, x: int, y: int) -> FoldStep:
        """Identify the current vertices x and y (at distance exactly 2)."""
        reps, adj = self.reps, self.adj
        n = len(reps)
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"fold endpoints ({x},{y}) out of range")
        kept, removed = min(x, y), max(x, y)
        a, b = reps[kept], reps[removed]
        if x == y or b in adj[a] or adj[a].isdisjoint(adj[b]):
            raise ValueError(f"vertices {x} and {y} are not at distance 2")
        for w in adj[b]:
            adj[w].discard(b)
            adj[w].add(a)
        adj[a] |= adj[b]
        adj[b] = None
        self.into[b] = a
        del reps[removed]
        step = FoldStep(kept=kept, merged=removed,
                        vertex_map=(*range(removed), kept, *range(removed, n - 1)))
        self.steps.append(step)
        return step

    def trace(self) -> FoldTrace:
        source = self.source
        if not self.steps:
            return FoldTrace(source=source, steps=(), final=source,
                             vertex_map=tuple(range(source.n)))
        rank = {r: i for i, r in enumerate(self.reps)}
        final_of = []  # a class merges into a lesser one, already placed
        for v, w in enumerate(self.into):
            final_of.append(rank[v] if w == v else final_of[w])
        edges = {(rank[a], rank[b]) for a in self.reps for b in self.adj[a] if a < b}
        return FoldTrace(source=source, steps=tuple(self.steps),
                         final=build_graph(len(self.reps), edges),
                         vertex_map=tuple(final_of))


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
    reps, adj = builder.reps, builder.adj
    while True:
        pair = next(((u, v) for u, a in enumerate(reps) if adj[a]
                     for v, b in enumerate(reps) if v != u and adj[a] <= adj[b]), None)
        if pair is None:
            trace = builder.trace()
            return trace.final, trace
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


def _zigzag(adjacency, x: int, y: int) -> tuple:
    """The BFS path x..y over ``adjacency`` and each vertex's BFS level from
    x reflected back and forth past the path's ends, its position on that
    path under the zigzag map."""
    parent, depth, _ = bfs_forest(adjacency, (x,))
    path = tree_path(parent, y)[::-1]
    period = 2 * (len(path) - 1) or 1
    return path, [min(d % period, -d % period) for d in depth]


def retract_to_path(g: Graph, x: int, y: int) -> RetractionMap:
    """Retract a connected bipartite graph onto a shortest x-y path.

    BFS levels from x, reflected back and forth past the ends of the path
    (``_zigzag``); bipartiteness keeps adjacent vertices on adjacent levels
    so the zigzag is a homomorphism.
    """
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"path ends ({x},{y}) out of range 0..{g.n - 1}")
    if not bipartition(g).valid:
        raise ValueError("path retraction requires a bipartite graph")
    if not is_connected(g):
        raise ValueError("path retraction requires a connected graph")
    path, positions = _zigzag(g.adjacency, x, y)
    if len(path) == 1 and g.m > 0:
        raise ValueError("cannot retract a graph with edges onto one vertex")
    r = RetractionMap(image=tuple(path), assignment=tuple(path[i] for i in positions))
    _validate_retraction(g, {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}, r)
    return r


def retract_to_shortest_cycle(g: Graph):
    """Retract g onto a shortest cycle; g must be connected, and dropping
    the closing edge of that cycle must leave a bipartite graph (so an odd
    cycle such as C5 retracts onto itself).

    Retracts g less the closing edge onto a shortest path between its
    endpoints, which with the edge is itself a shortest cycle (anything
    shorter would beat the girth).  Returns (cycle vertices tuple,
    RetractionMap).
    """
    cyc = shortest_cycle(g)
    if cyc is None:
        raise ValueError("graph is acyclic")
    a, b = cyc.vertices[0], cyc.vertices[-1]
    r = retract_to_path(build_graph(g.n, g.edges - {(min(a, b), max(a, b))}), a, b)
    _validate_retraction(g, {(min(u, v), max(u, v))
                             for u, v in zip(r.image, r.image[1:] + r.image[:1])}, r)
    return r.image, r


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

    Winding is Z-linear over the cycle space, which a minimum cycle basis
    spans over Q (GF(2)-independent cycles are Q-independent), so checking
    its cycles is enough.  Shifting phi keeps every winding, so vertex 0
    takes image 0; for even L every step changes parity, so each vertex of a
    bipartite g takes only images of its side's parity, which loses no
    homomorphism and cuts partial maps that cannot extend.  For odd L every
    phi winds an odd cycle of a non-bipartite g (an odd closed walk cannot
    balance), so the scan stops at the first phi.  ``kernels.first_unbalanced``
    runs the scan; ``budget`` caps its partial maps.

    Two answers need no scan.  A bipartite g with girth M >= L drops the
    closing edge a-b of a shortest cycle, and each vertex's BFS level from
    a, reflected back and forth past the ends of the BFS path a..b
    (``_zigzag``), is a phi: g -> C_M that winds the cycle that path closes
    once.  And g cannot fold onto C_L when its minimum cycle basis has only
    cycles shorter than L:

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
    return _fold_trace(g, length, bipartition(g), budget)


def _fold_trace(g: Graph, length: int, bip: Bipartition,
                budget: int) -> Optional[FoldTrace]:
    """``folds_to_cycle`` on a connected g with bipartition ``bip``.

    ``shortest_cycle`` runs the girth test because the girth path folds by
    the BFS-level zigzag of g less that cycle's closing edge; the minimum
    cycle basis is built only when the girth is below L, and the scan reads
    its cycles."""
    if g.n == g.m == length and all(len(a) == 2 for a in g.adjacency):
        return _TraceBuilder(g).trace()  # connected and 2-regular: g is C_L
    if g.n <= length:
        return None
    if bip.valid != (length % 2 == 0):
        # homomorphisms preserve closed-walk parity, so bipartite graphs
        # never reach odd cycles and non-bipartite graphs never reach even
        return None
    if bip.valid:
        shortest = shortest_cycle(g)
        if shortest is not None and len(shortest) >= length:
            a, b = shortest.vertices[0], shortest.vertices[-1]
            adjacency = list(g.adjacency)
            adjacency[a] = tuple(w for w in adjacency[a] if w != b)
            adjacency[b] = tuple(w for w in adjacency[b] if w != a)
            return _fold_by_image(g, _zigzag(adjacency, a, b)[1], length)
    basis = minimum_cycle_basis(g)
    if not basis or basis[-1][0] < length:
        return None
    image = _winding_image(g, length, bip, edge_set_cycles(g, basis), budget)
    return None if image is None else _fold_by_image(g, image, length)


def _winding_image(g: Graph, length: int, bip: Bipartition, cycles: list,
                   budget: int) -> Optional[list]:
    """The least homomorphism onto C_length, vertex 0 at image 0, that winds
    one of ``cycles``, which span the cycle space; None when none winds."""
    colours = np.arange(length)
    step = (colours[:, None] - colours[None, :]) % length
    domain = np.ones((g.n, length), dtype=bool)
    domain[0, 1:] = False
    if bip.valid:
        domain &= colours[None, :] % 2 == np.array(bip.side)[:, None]
    row, _ = kernels.first_unbalanced(g, (step == 1) | (step == length - 1), domain,
                                      cycles, budget)
    return None if row is None else row.tolist()


def _fold_by_image(g: Graph, image: list, length: int) -> FoldTrace:
    """Fold g by ``image`` (vertex -> position), a homomorphism onto a cycle
    that winds a cycle of g: fold the least pair of vertices with a common
    neighbour and one image until none is left, then pair-fold the cycle
    that is left down to C_length.

    The loop works on the builder's representatives, whose order is the
    order of the current labels, and a class keeps its representative's
    image."""
    builder = _TraceBuilder(g)
    reps, adj = builder.reps, builder.adj
    while True:
        pair = min(((x, y) for x in reps for w in adj[x] for y in adj[w]
                    if y > x and image[y] == image[x]), default=None)
        if pair is None:
            break
        builder.fold(builder.label(pair[0]), builder.label(pair[1]))
    # a cycle is left: walk it from its least vertex towards the smaller
    # neighbour
    cycle = [reps[0], min(adj[reps[0]])]
    while len(cycle) < len(reps):
        cycle.append(next(w for w in adj[cycle[-1]] if w != cycle[-2]))
    while len(cycle) > length:
        # fold positions 2 and 3 onto 0 and 1; each pair keeps its least
        a, b, c, d = cycle[:4]
        builder.fold(builder.label(a), builder.label(c))
        builder.fold(builder.label(b), builder.label(d))
        cycle = [min(a, c), min(b, d)] + cycle[4:]
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
    bip = bipartition(g)
    if not bip.valid:
        raise ValueError("the odd-cycle fold criterion applies to bipartite graphs")
    target = 4 * k + 2
    comps = connected_components(g)
    for comp in comps:
        if len(comps) == 1:
            sub, sub_bip = g, bip
        else:
            # each component's BFS starts at its least vertex, in g as in sub
            sub = induced_subgraph(g, comp)[0]
            sub_bip = Bipartition(valid=True, side=tuple(bip.side[v] for v in comp))
        trace = _fold_trace(sub, target, sub_bip, budget)
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
    Below that each k is settled by whether a fold exists, never by building
    one: g folds onto C_{4k+2} when 4k+2 is at most its girth (the first
    cycle of the same basis), and otherwise exactly when some homomorphism
    onto C_{4k+2} winds one of that basis's cycles.
    """
    bip = bipartition(g)
    if not bip.valid:
        raise ValueError("threshold defined here for bipartite graphs only")
    if not is_connected(g):
        raise ValueError("threshold expects a connected graph")
    basis = minimum_cycle_basis(g)  # shortest first
    girth, longest = (basis[0][0], basis[-1][0]) if basis else (0, 0)
    cycles = None  # the basis cycles, decoded for the first scan
    k = 1
    tested = []
    while 4 * k + 2 <= longest:
        tested.append(k)
        length = 4 * k + 2
        if length > girth:
            # a graph on at most L vertices folds onto C_L only if it is C_L
            if g.n <= length:
                break
            cycles = cycles or edge_set_cycles(g, basis)
            if _winding_image(g, length, bip, cycles, budget) is None:
                break
        k += 1
    return ThresholdResult(k=k, longest_basis_cycle=longest, tested=tuple(tested))
