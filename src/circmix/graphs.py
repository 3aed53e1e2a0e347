"""Graph representation and structural machinery shared by every other module.

Vertices are dense integers 0..n-1.  Graphs are immutable after construction
and all operations here are pure, so values can be shared freely between
threads.  Tie-breaking is always lowest-index-first so that downstream
certificates are reproducible.

``bfs_forest`` is the one vertex-level BFS: it runs on any adjacency
(undirected graphs pass ``g.adjacency``; the tight digraph and the planar
dual pass their own neighbour lists), and ``tree_path`` reads a path out of
its parent array.  ``shortest_cycle`` keeps its own early-exit BFS and is
the one odd-cycle answer (``bipartition`` only reports whether one exists).
``minimum_cycle_basis`` is the one basis routine behind every cycle-length
bound (the fold prune, the threshold scan, the wind shortcut) and every
balance scan, which reads its chordless cycles (``edge_set_cycles``); it is
polynomial, so it has no vertex cap.  Both cycle searches start only from
``_cycle_roots``, the vertices of degree 3 or more plus one vertex of each
bare-cycle component: every cycle meets them, and a cycle search from a
vertex of a cycle sees that cycle, so a long cycle costs one BFS, not one
per vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph: vertex count plus adjacency."""

    n: int
    edges: frozenset  # frozenset of (u, v) tuples with u < v
    adjacency: tuple  # per-vertex sorted tuple of neighbours

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable) -> Graph:
    """Normalize an edge list into a Graph.

    Endpoints must lie in 0..n-1 and loops are rejected.  Duplicate edges are
    collapsed.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    adj = [[] for _ in range(n)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    return Graph(n=n, edges=frozenset(seen), adjacency=adjacency)


@dataclass(frozen=True)
class Bipartition:
    """Two-colouring of the vertex set: ``side[v]`` is 0 or 1 when valid,
    and ``side`` is empty when not (``shortest_cycle(g, odd=True)`` gives an
    odd cycle as evidence)."""

    valid: bool
    side: tuple


def bipartition(g: Graph) -> Bipartition:
    """2-colour by BFS depth parity: g is bipartite exactly when no edge
    joins two vertices of equal depth."""
    depth = bfs_forest(g.adjacency, range(g.n))[1]
    if any(depth[u] == depth[v] for u, v in g.edges):
        return Bipartition(valid=False, side=())
    return Bipartition(valid=True, side=tuple(d % 2 for d in depth))


@dataclass(frozen=True)
class Cycle:
    """Simple cycle stored as an oriented vertex sequence.

    The representative starts at its minimum vertex with the smaller of that
    vertex's two cycle-neighbours second, so equality is up to rotation and
    reflection.
    """

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("cycle needs at least 3 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle has a repeated vertex")

    def __len__(self) -> int:
        return len(self.vertices)

    def directed_edges(self) -> list:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    @staticmethod
    def from_vertices(vertices) -> "Cycle":
        return Cycle(canonical_cycle_tuple(tuple(vertices)))


def canonical_cycle_tuple(vs: tuple) -> tuple:
    """Rotate/reflect so the minimum vertex leads with its smaller neighbour second."""
    k = len(vs)
    i = vs.index(min(vs))
    fwd = tuple(vs[(i + j) % k] for j in range(k))
    rev = tuple(vs[(i - j) % k] for j in range(k))
    return fwd if fwd[1] <= rev[1] else rev


def is_cycle_of(g: Graph, vs: tuple) -> bool:
    """Check that ``vs`` is a simple cycle of g (consecutive vertices adjacent)."""
    k = len(vs)
    if k < 3 or len(set(vs)) != k:
        return False
    return all(g.has_edge(vs[i], vs[(i + 1) % k]) for i in range(k))


def bfs_forest(adjacency, roots) -> tuple:
    """Deterministic BFS forest over ``adjacency`` (a neighbour sequence per
    vertex, scanned in its own order) grown from each unvisited root in turn.
    The one vertex-level BFS: every traversal of a graph, digraph or dual
    graph runs on it.

    Returns (parent, depth, order): parent -1 at roots and at vertices no
    root reaches, depth -1 at the latter, and ``order`` lists the reached
    vertices in discovery order, so every parent precedes its children.
    """
    parent = [-1] * len(adjacency)
    depth = [-1] * len(adjacency)
    order = []
    for root in roots:
        if depth[root] != -1:
            continue
        depth[root] = 0
        order.append(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if depth[v] == -1:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    order.append(v)
                    queue.append(v)
    return parent, depth, order


def tree_path(parent, v: int) -> list:
    """``[v, parent[v], ..., root]``, following ``parent`` until it reads -1."""
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def _tree_cycle(parent, u: int, v: int) -> list:
    """``[u, ..., a, ..., v]``: the tree paths from u and v joined at their
    lowest common ancestor a, so a non-tree edge u-v closes it into a cycle."""
    pu, pv = tree_path(parent, u), tree_path(parent, v)
    while len(pu) > 1 and len(pv) > 1 and pu[-2] == pv[-2]:
        pu.pop()
        pv.pop()
    return pu + pv[:-1][::-1]


def enumerate_cycles(g: Graph, max_len: int) -> Iterator[Cycle]:
    """Stream every simple cycle of length <= max_len, once up to
    rotation/reflection.

    Each cycle is emitted with its minimum vertex first; the search only walks
    through vertices larger than that minimum and keeps second < last to kill
    the reflected copy.
    """
    if max_len < 3:
        return
    for s in range(g.n):
        path = [s]
        on_path = {s}

        def extend():
            u = path[-1]
            for v in g.adjacency[u]:
                if v == s and len(path) >= 3 and path[1] < path[-1]:
                    yield Cycle(tuple(path))
                elif v > s and v not in on_path and len(path) < max_len:
                    path.append(v)
                    on_path.add(v)
                    yield from extend()
                    on_path.discard(v)
                    path.pop()

        yield from extend()


def _cycle_roots(g: Graph, comps=None) -> list:
    """A feedback vertex set, ascending: the vertices of degree at least 3
    and the least vertex of each component that is a bare cycle.  Every
    cycle meets one of them, since a cycle through degree-2 vertices only
    is a whole component.  ``comps`` is ``connected_components(g)`` when
    the caller already has it."""
    roots = [v for v in range(g.n) if len(g.adjacency[v]) >= 3]
    for comp in comps if comps is not None else connected_components(g):
        if len(comp) >= 3 and all(len(g.adjacency[v]) == 2 for v in comp):
            roots.append(comp[0])
    return sorted(roots)


def _shorter_cycle_from(g: Graph, s: int, odd: bool, best):
    """BFS from s, closing a cycle through the tree at every non-tree edge
    u-v (odd exactly when u and v sit on the same level); returns the first
    of the shortest it closes when that is shorter than ``best`` (a vertex
    list, or None), else ``best``."""
    slack = 1 if odd else 0
    dist = {s: 0}
    parent = {s: -1}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if best is not None and 2 * dist[u] + slack >= len(best):
            break
        for v in g.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
            elif parent[u] != v and (not odd or dist[v] == dist[u]):
                # Cross or level edge closes a cycle through s.
                vs = _tree_cycle(parent, u, v)
                if best is None or len(vs) < len(best):
                    best = vs
    return best


def shortest_cycle(g: Graph, odd: bool = False) -> Optional[Cycle]:
    """A shortest cycle (with ``odd``, a shortest odd cycle), or None when
    there is none.

    The answer is the first cycle of the minimum length that BFS scans from
    the vertices in ascending order close (``_shorter_cycle_from``).  A
    shortest (odd) cycle is isometric, so the scan from any of its vertices
    closes one of its length; every cycle meets ``_cycle_roots``, so the
    scans from those roots alone give the length.  The ascending scan then
    reruns only until it closes a cycle of that length, which is the cycle
    the full scan keeps, since later scans only replace a strictly longer
    one.  When every vertex is a root the first pass is that scan.
    """
    roots = _cycle_roots(g)
    best = None
    for s in roots:
        best = _shorter_cycle_from(g, s, odd, best)
        if best is not None and len(best) == 3:
            break
    if best is not None and len(roots) < g.n:
        girth, best = len(best), None
        for s in range(g.n):
            best = _shorter_cycle_from(g, s, odd, best)
            if best is not None and len(best) == girth:
                break
    return Cycle.from_vertices(best) if best is not None else None


def minimum_cycle_basis(g: Graph) -> list:
    """A minimum cycle basis, shortest first, as (length, edges) pairs where
    ``edges`` is an int bitset over ``sorted(g.edges)``; ``edge_set_cycles``
    turns them into vertex sequences.  Empty when g is acyclic.

    Horton (1987): for a root r and an edge u-v whose BFS tree paths r..u
    and r..v meet only at r, those paths closed by u-v form a candidate
    cycle.  His exchange argument works at any one vertex x of a cycle C:
    either C is a candidate from x, or a tree path from x to C splits C
    into two cycles through x that are shorter, or as long with fewer
    non-tree edges.  So the candidates from roots that every cycle meets
    (``_cycle_roots``, a feedback vertex set; Kavitha et al. 2009) span,
    length by length, what all cycles span.  Taking them shortest first
    (then by bitset) and keeping each one GF(2)-independent of those kept
    builds a minimum basis.  Every minimum basis has the same lengths, so
    they do not depend on the roots or on the order of ties; which cycles
    win a tie does (a search from every vertex can add a tied candidate
    that only a degree-2 vertex closes).
    """
    bit = {}
    for i, (u, v) in enumerate(sorted(g.edges)):
        bit[u, v] = bit[v, u] = 1 << i
    comps = connected_components(g)
    candidates = set()
    for r in _cycle_roots(g, comps):
        parent, depth, order = bfs_forest(g.adjacency, (r,))
        branch = [r] * g.n  # the child of r whose subtree holds v
        path_edges = [0] * g.n
        for v in order[1:]:
            u = parent[v]
            branch[v] = v if u == r else branch[u]
            path_edges[v] = path_edges[u] | bit[u, v]
        for (u, v) in g.edges:
            # a tree edge at r or an edge outside r's component closes
            # fewer than three vertices
            length = depth[u] + depth[v] + 1
            if length >= 3 and branch[u] != branch[v]:
                candidates.add((length, path_edges[u] | path_edges[v] | bit[u, v]))
    rank = g.m - g.n + len(comps)
    basis, rows = [], {}
    for length, edges in sorted(candidates):
        if len(basis) == rank:
            break
        if _independent(rows, edges):
            basis.append((length, edges))
    return basis


def cycle_space_dimension(g: Graph) -> int:
    """m - n + c: the size of every cycle basis of g."""
    return g.m - g.n + len(connected_components(g))


def cycle_rank(g: Graph, cycles) -> int:
    """GF(2) rank of the edge sets of ``cycles``, cycles of g."""
    index = {e: i for i, e in enumerate(sorted(g.edges))}
    rows = {}
    return sum(_independent(rows, sum(1 << index[min(e), max(e)]
                                      for e in c.directed_edges()))
               for c in cycles)


def _independent(rows: dict, edges: int) -> bool:
    """Reduce the bitset ``edges`` by ``rows`` (leading bit -> row) and keep
    what is left as a new row; False when nothing is left."""
    while edges:
        lead = edges.bit_length()
        if lead not in rows:
            rows[lead] = edges
            return True
        edges ^= rows[lead]
    return False


def edge_set_cycles(g: Graph, basis) -> list:
    """The cycles of ``basis``, ``minimum_cycle_basis`` pairs, all read
    against one sorted edge list."""
    order = sorted(g.edges)
    cycles = []
    for _, edges in basis:
        ends = {}
        while edges:  # set bits lowest first
            low = edges & -edges
            u, v = order[low.bit_length() - 1]
            ends.setdefault(u, []).append(v)
            ends.setdefault(v, []).append(u)
            edges ^= low
        walk = [min(ends)]
        walk.append(ends[walk[0]][0])
        while len(walk) < len(ends):
            a, b = ends[walk[-1]]
            walk.append(b if a == walk[-2] else a)
        cycles.append(Cycle.from_vertices(walk))
    return cycles


def blocks(g: Graph) -> list:
    """Vertex sets of the biconnected components (blocks), as frozensets
    sorted by their sorted vertices: Hopcroft-Tarjan on a stack of vertices.

    Every edge lies inside exactly one block; isolated vertices are in none.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    found = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        reached = [root]  # vertices in discovery order whose block is open
        # Iterative DFS; frames are mutable [vertex, parent, neighbour index].
        stack = [[root, -1, 0]]
        while stack:
            frame = stack[-1]
            u, pu = frame[0], frame[1]
            if frame[2] < len(g.adjacency[u]):
                v = g.adjacency[u][frame[2]]
                frame[2] += 1
                if disc[v] == -1:
                    disc[v] = low[v] = timer
                    timer += 1
                    reached.append(v)
                    stack.append([v, u, 0])
                else:
                    # the edge back to pu lowers low[u] to disc[pu] at most,
                    # which the block test below allows
                    low[u] = min(low[u], disc[v])
            else:
                stack.pop()
                if pu != -1:
                    low[pu] = min(low[pu], low[u])
                    if low[u] >= disc[pu]:  # pu cuts u's subtree off: a block
                        block = {pu}
                        while u not in block:
                            block.add(reached.pop())
                        found.append(frozenset(block))
    return sorted(found, key=sorted)


def distance(g: Graph, u: int, v: int) -> Optional[int]:
    """BFS hop count from u to v; None when unreachable."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertices ({u},{v}) out of range 0..{g.n - 1}")
    d = bfs_forest(g.adjacency, (u,))[1][v]
    return None if d == -1 else d


def connected_components(g: Graph) -> list:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    _, depth, order = bfs_forest(g.adjacency, range(g.n))
    comps = []
    for v in order:  # each component is a contiguous run starting at its root
        if depth[v] == 0:
            comps.append([])
        comps[-1].append(v)
    return [sorted(c) for c in comps]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def induced_subgraph(g: Graph, vertices) -> tuple:
    """Induced subgraph with dense relabelling; returns (graph, old->new map)."""
    vs = sorted(vertices)
    remap = {v: i for i, v in enumerate(vs)}
    edges = [(remap[u], remap[v]) for (u, v) in g.edges if u in remap and v in remap]
    return build_graph(len(vs), edges), remap
