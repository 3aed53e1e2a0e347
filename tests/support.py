"""Shared builders and independent brute-force oracles for the test suite.

The brute-force routines here deliberately avoid the package's own search
machinery (they enumerate permutations, vertex subsets, or raw colour
vectors) so they can serve as independent cross-checks.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from functools import lru_cache

import numpy as np

from circmix.circular import CircularParams, Colouring
from circmix.generators import grid_graph
from circmix.graphs import (Cycle, Graph, bfs_forest, build_graph, connected_components,
                            edge_set_cycles, is_connected, minimum_cycle_basis,
                            tree_path)
from circmix.kernels import BudgetExceededError
from circmix.planar import RotationSystem, faces


# ---------------------------------------------------------------------------
# Builders.


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def grid(rows: int, cols: int) -> Graph:
    vid = lambda r, c: r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return build_graph(rows * cols, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def mobius_ladder(k: int) -> Graph:
    """C_2k plus the chords i-(i+k); bipartite exactly when k is odd."""
    return build_graph(2 * k, [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
                       + [(i, i + k) for i in range(k)])


# ---------------------------------------------------------------------------
# Isomorphism key for small graphs: one graph per class in the exhaustive
# families, and the fold closure of ``brute_folds_to_cycle``.

_CANONICAL_VERTEX_GUARD = 16
_CANONICAL_LEAF_GUARD = 200_000


def canonical_key(g: Graph) -> bytes:
    """Isomorphism-invariant key: equal keys iff isomorphic graphs.

    Backtracking canonical labelling over the leaves of an equitable-
    refinement search tree; meant for graphs up to ~12 vertices, and
    guarded at 16 vertices and 200,000 leaves.
    """
    if g.n > _CANONICAL_VERTEX_GUARD:
        raise BudgetExceededError(
            f"canonical_key guarded at {_CANONICAL_VERTEX_GUARD} vertices, got {g.n}")
    if g.n == 0:
        return b"\x00"
    best = _canonical_search(g)
    return bytes([g.n]) + _pack_bits(best)


def _refine(g: Graph, partition: list) -> list:
    """Equitable refinement: split cells by multiset of neighbour-cell counts."""
    cells = [list(c) for c in partition]
    changed = True
    while changed:
        changed = False
        cell_id = {}
        for i, cell in enumerate(cells):
            for v in cell:
                cell_id[v] = i
        new_cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig = {}
            for v in cell:
                counts = [0] * len(cells)
                for u in g.adjacency[v]:
                    counts[cell_id[u]] += 1
                sig.setdefault(tuple(counts), []).append(v)
            if len(sig) > 1:
                changed = True
            for key in sorted(sig):
                new_cells.append(sorted(sig[key]))
        cells = new_cells
    return cells


def _canonical_search(g: Graph) -> tuple:
    """Minimum adjacency bit-tuple over the leaves of the refinement tree."""
    degrees = {}
    for v in range(g.n):
        degrees.setdefault(g.degree(v), []).append(v)
    initial = [sorted(degrees[d]) for d in sorted(degrees)]
    best = [None]
    leaves = [0]

    def descend(cells):
        cells = _refine(g, cells)
        target = None
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                if target is None or len(cells[target]) > len(cell):
                    target = i
        if target is None:
            leaves[0] += 1
            if leaves[0] > _CANONICAL_LEAF_GUARD:
                raise BudgetExceededError("canonical_key leaf guard exceeded")
            order = [c[0] for c in cells]
            bits = tuple(
                1 if g.has_edge(order[i], order[j]) else 0
                for i in range(g.n) for j in range(i + 1, g.n))
            if best[0] is None or bits < best[0]:
                best[0] = bits
            return
        for v in cells[target]:
            rest = [u for u in cells[target] if u != v]
            branched = cells[:target] + [[v], rest] + cells[target + 1:]
            descend(branched)

    descend(initial)
    return best[0]


def _pack_bits(bits: tuple) -> bytes:
    out = bytearray()
    acc = 0
    k = 0
    for b in bits:
        acc = (acc << 1) | b
        k += 1
        if k == 8:
            out.append(acc)
            acc, k = 0, 0
    if k:
        out.append(acc << (8 - k))
    return bytes(out)


# ---------------------------------------------------------------------------
# Exhaustive graph families.


def all_labelled_graphs(n: int):
    """Every graph on vertices 0..n-1 (2^(n choose 2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


@lru_cache(maxsize=None)
def connected_bipartite_upto_iso(n: int) -> tuple:
    """All connected bipartite graphs on n vertices, one per isomorphism class."""
    if n == 1:
        return (build_graph(1, []),)
    seen = {}
    for a in range(1, n // 2 + 1):
        b = n - a
        pairs = [(i, a + j) for i in range(a) for j in range(b)]
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            if len(edges) < n - 1:
                continue
            g = build_graph(n, edges)
            if not is_connected(g):
                continue
            key = canonical_key(g)
            if key not in seen:
                seen[key] = g
    return tuple(seen[k] for k in sorted(seen))


@lru_cache(maxsize=None)
def connected_graphs_upto_iso(n: int) -> tuple:
    """All connected graphs on n vertices up to isomorphism (small n only)."""
    seen = {}
    for g in all_labelled_graphs(n):
        if not is_connected(g):
            continue
        key = canonical_key(g)
        if key not in seen:
            seen[key] = g
    return tuple(seen[k] for k in sorted(seen))


def random_connected_bipartite(n: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randint(1, n - 1)
        edges = [(i, a + j) for i in range(a) for j in range(n - a)
                 if rng.random() < 0.45]
        g = build_graph(n, edges)
        if is_connected(g):
            out.append(g)
    return out


def random_sparse_bipartite(rng: random.Random, max_n: int = 18) -> Graph:
    """A connected bipartite graph of at most ``max_n`` vertices: an even
    cycle of 4-12 vertices, up to 3 paths of 1-6 edges between two of its
    vertices so far (lengthened by one where needed to stay bipartite), and
    up to 3 pendant vertices; labels shuffled."""
    length = rng.randrange(4, 13, 2)
    side = [v % 2 for v in range(length)]
    edges = {(v, v + 1) for v in range(length - 1)} | {(0, length - 1)}
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(len(side)), 2)
        hops = rng.randint(1, 6)
        hops += hops % 2 != (side[u] != side[v])
        if len(side) + hops - 1 > max_n:
            continue
        inner = list(range(len(side), len(side) + hops - 1))
        side += [(side[u] + 1 + i) % 2 for i in range(hops - 1)]
        chain = [u] + inner + [v]
        edges |= {(min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])}
    for _ in range(rng.randint(0, 3)):
        if len(side) < max_n:
            u = rng.randrange(len(side))
            edges.add((u, len(side)))
            side.append(1 - side[u])
    label = list(range(len(side)))
    rng.shuffle(label)
    return build_graph(len(side), [(label[u], label[v]) for u, v in edges])


def random_plane_bipartite(rng: random.Random) -> tuple:
    """An embedded bipartite plane graph: a grid after 0-8 random edits.

    With probability 0.6 an edit pinches a 4-face walk (a, b, c, d) with a
    new vertex x joined to a and c inside it, which splits it into the
    4-faces (a, x, c, d) and (x, a, b, c); otherwise it deletes a random
    edge whose removal keeps the graph connected.  Returns (graph, rotation).
    """
    gg = grid_graph(rng.randint(2, 5), rng.randint(2, 6))
    n, edges = gg.graph.n, set(gg.graph.edges)
    rings = [list(ring) for ring in gg.rotation.rotation]

    def embedded():
        g = build_graph(n, edges)
        rot = RotationSystem(rotation=tuple(tuple(ring) for ring in rings))
        return g, rot, faces(g, rot)  # faces checks Euler's formula

    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.6:
            quads = [f for f in embedded()[2].faces if len(f) == len(set(f)) == 4]
            if not quads:
                continue
            a, b, c, d = rng.choice(quads)
            rings[a].insert(rings[a].index(d) + 1, n)
            rings[c].insert(rings[c].index(b) + 1, n)
            rings.append([a, c])
            edges |= {(a, n), (c, n)}
            n += 1
        else:
            u, v = rng.choice(sorted(edges))
            if is_connected(build_graph(n, edges - {(u, v)})):
                edges.discard((u, v))
                rings[u].remove(v)
                rings[v].remove(u)
    g, rot, _ = embedded()
    return g, rot


def joined_odd_cycles(rng: random.Random, p: int, q: int):
    """Two or three tight C_p cycles (colours step by +q or -q round each)
    joined in a chain by paths of 1-4 edges, each path tight forwards, tight
    backwards or loose (proper random steps), plus up to three proper
    chords; vertex labels shuffled.  Returns (graph, colours)."""
    colours, edges = [], []

    def new_vertex(c):
        colours.append(c % p)
        return len(colours) - 1

    prev = None
    for _ in range(rng.choice((2, 3))):
        if prev is None:
            first = new_vertex(rng.randrange(p))
        else:
            kind = rng.choice(("forward", "backward", "loose"))
            u = rng.choice(prev)
            for _ in range(rng.randint(1, 4)):
                step = {"forward": q, "backward": -q}.get(kind)
                v = new_vertex(colours[u] + (step or rng.randint(q, p - q)))
                edges.append((u, v))
                u = v
            first = u
        sign = rng.choice((1, -1))
        cyc = [first] + [new_vertex(colours[first] + sign * i * q)
                         for i in range(1, p)]
        edges += [(cyc[i], cyc[(i + 1) % p]) for i in range(p)]
        prev = cyc
    n = len(colours)
    present = {frozenset(e) for e in edges}
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in present and q <= (colours[v] - colours[u]) % p <= p - q:
            present.add(frozenset((u, v)))
            edges.append((u, v))
    label = list(range(n))
    rng.shuffle(label)
    relabelled = [0] * n
    for v in range(n):
        relabelled[label[v]] = colours[v]
    return build_graph(n, [(label[u], label[v]) for u, v in edges]), relabelled


# ---------------------------------------------------------------------------
# Independent oracles.


def brute_cycle_sets(g: Graph, max_len: int) -> set:
    """All simple cycles up to rotation/reflection, by brute force over
    vertex subsets and permutations.  Exponential; tiny graphs only."""
    found = set()
    for size in range(3, max_len + 1):
        for subset in itertools.combinations(range(g.n), size):
            s0 = subset[0]
            for perm in itertools.permutations(subset[1:]):
                seq = (s0,) + perm
                if seq[1] > seq[-1]:
                    continue  # reflection representative
                if all(g.has_edge(seq[i], seq[(i + 1) % size]) for i in range(size)):
                    found.add(seq)
    return found


def brute_longest_basis_cycle(g: Graph) -> int:
    """Longest cycle of a minimum cycle basis: every simple cycle from
    ``brute_cycle_sets``, shortest first, kept when GF(2)-independent of
    those kept (edge sets as vertex-pair sets)."""
    kept = []  # (pivot edge, edge set), each pivot absent from later rows
    longest = 0
    for seq in sorted(brute_cycle_sets(g, g.n), key=len):
        row = {frozenset((seq[i], seq[(i + 1) % len(seq)])) for i in range(len(seq))}
        for pivot, other in kept:
            if pivot in row:
                row ^= other
        if row:
            kept.append((min(row, key=sorted), row))
            longest = len(seq)
    return longest


def reference_horton_candidates(g: Graph, roots=None) -> set:
    """Horton's candidate cycles from ``roots`` (every vertex when None), as
    (length, edge bitset over ``sorted(g.edges)``) pairs: for each root r,
    the BFS tree paths r..u and r..v that meet only at r, closed by the
    edge u-v."""
    bit = {e: 1 << i for i, e in enumerate(sorted(g.edges))}
    candidates = set()
    for r in range(g.n) if roots is None else roots:
        parent, depth, order = bfs_forest(g.adjacency, (r,))
        branch = [r] * g.n
        path_edges = [0] * g.n
        for v in order[1:]:
            u = parent[v]
            branch[v] = v if u == r else branch[u]
            path_edges[v] = path_edges[u] | bit[min(u, v), max(u, v)]
        for (u, v), b in bit.items():
            length = depth[u] + depth[v] + 1
            if length >= 3 and branch[u] != branch[v]:
                candidates.add((length, path_edges[u] | path_edges[v] | b))
    return candidates


def reference_minimum_cycle_basis(g: Graph, roots=None) -> list:
    """A minimum cycle basis from the Horton candidates of ``roots`` (every
    vertex when None), shortest first, then by bitset, each kept when
    GF(2)-independent of those kept, until m - n + c are kept."""
    rank = g.m - g.n + len(connected_components(g))
    basis, rows = [], {}
    for length, edges in sorted(reference_horton_candidates(g, roots)):
        if len(basis) == rank:
            break
        rest = edges
        while rest and rest.bit_length() in rows:
            rest ^= rows[rest.bit_length()]
        if rest:
            rows[rest.bit_length()] = rest
            basis.append((length, edges))
    return basis


def reference_shortest_cycle(g: Graph, odd: bool = False):
    """``graphs.shortest_cycle`` by a BFS from every vertex in ascending
    order, keeping the first cycle of the least length that one closes."""
    best = None
    slack = 1 if odd else 0
    for s in range(g.n):
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
                    pu, pv = tree_path(parent, u), tree_path(parent, v)
                    while len(pu) > 1 and len(pv) > 1 and pu[-2] == pv[-2]:
                        pu.pop()
                        pv.pop()
                    vs = pu + pv[:-1][::-1]
                    if best is None or len(vs) < len(best):
                        best = vs
        if best is not None and len(best) == 3:
            break
    return Cycle.from_vertices(best) if best is not None else None


def reference_fold(g: Graph, x: int, y: int):
    """``fold.elementary_fold`` by rebuilding the graph: identify x and y
    (at distance exactly 2) into min(x, y), splice out max(x, y) and return
    (folded graph, (kept, merged, old vertex -> new vertex))."""
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
    return build_graph(g.n - 1, edges), (kept, removed, tuple(vmap))


def brute_folds_to_cycle(g: Graph, length: int) -> bool:
    """Does g fold onto C_length?  Walks the whole fold closure (every
    identification of two vertices at distance 2), one graph per
    isomorphism class, with no pruning.  Tiny graphs only."""
    target = canonical_key(cycle(length))
    seen, todo = set(), [g]
    while todo:
        h = todo.pop()
        key = canonical_key(h)
        if key == target:
            return True
        if key in seen:
            continue
        seen.add(key)
        for x, y in itertools.combinations(range(h.n), 2):
            if not h.has_edge(x, y) and set(h.adjacency[x]) & set(h.adjacency[y]):
                image = [x if v == y else v - (v > y) for v in range(h.n)]
                todo.append(build_graph(h.n - 1, [(image[u], image[v]) for u, v in h.edges]))
    return False


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for (u, v) in g.edges):
            return True
    return False


@lru_cache(maxsize=None)
def _relabel_table(n: int):
    """(n!, n(n-1)/2) table: row = permutation, column k = the index of the
    pair (perm[i], perm[j]) for the k-th pair i < j; plus big-endian bit
    weights over the pair positions."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    table = np.array([[index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
                      for perm in itertools.permutations(range(n))],
                     dtype=np.intp).reshape(math.factorial(n), len(pairs))
    weights = 1 << np.arange(len(pairs) - 1, -1, -1, dtype=np.int64)
    return pairs, table, weights


def brute_min_label_key(g: Graph) -> tuple:
    """Minimum adjacency bit-tuple over all vertex permutations.

    Every permuted bit row is packed big-endian into one int; fixed-width
    packing keeps lexicographic order, so the least int is the least row.
    """
    pairs, table, weights = _relabel_table(g.n)
    bits = np.array([g.has_edge(i, j) for i, j in pairs], dtype=np.int64)
    best = int((bits[table] @ weights).min())
    return tuple((best >> (len(pairs) - 1 - k)) & 1 for k in range(len(pairs)))


def brute_colouring_count(g: Graph, params: CircularParams) -> int:
    """Filter all p^n colour vectors by the edge rule."""
    count = 0
    for colours in itertools.product(range(params.p), repeat=g.n):
        if all(params.compatible(colours[u], colours[v]) for (u, v) in g.edges):
            count += 1
    return count


def python_mixing_components(g: Graph, params: CircularParams):
    """Connected components of the recolouring graph, in pure Python.

    Independent of the array kernels: uses the lazy enumerator and the
    single-step neighbour generator.  Returns (states list, label list).
    """
    from circmix.circular import enumerate_colourings
    from circmix.reconfig import col_neighbours

    states = list(enumerate_colourings(g, params))
    index = {f.colours: i for i, f in enumerate(states)}
    labels = [-1] * len(states)
    comp = 0
    for i in range(len(states)):
        if labels[i] != -1:
            continue
        labels[i] = comp
        stack = [i]
        while stack:
            j = stack.pop()
            for nb in col_neighbours(states[j]):
                k = index[nb.colours]
                if labels[k] == -1:
                    labels[k] = comp
                    stack.append(k)
        comp += 1
    return states, labels


def python_bfs_tree(g: Graph, params: CircularParams, start: int):
    """Level-synchronous BFS over the recolouring graph, in pure Python.

    Frontiers are scanned in ascending state index, so a state's parent is
    its lowest-index discoverer in the previous level.  Returns (visited,
    parent) lists over the lexicographic state order; parent is -1 at the
    start and at unreached states.
    """
    from circmix.circular import enumerate_colourings
    from circmix.reconfig import col_neighbours

    states = list(enumerate_colourings(g, params))
    index = {f.colours: i for i, f in enumerate(states)}
    visited = [False] * len(states)
    parent = [-1] * len(states)
    visited[start] = True
    frontier = [start]
    while frontier:
        found = []
        for i in frontier:
            for nb in col_neighbours(states[i]):
                k = index[nb.colours]
                if not visited[k]:
                    visited[k] = True
                    parent[k] = i
                    found.append(k)
        frontier = sorted(found)
    return visited, parent


def python_col_graph_dot(g: Graph, params: CircularParams) -> str:
    """DOT text of the recolouring graph, in pure Python: states in
    lexicographic order, then each state's moves to later states in
    (vertex, colour) order."""
    from circmix.circular import enumerate_colourings
    from circmix.reconfig import col_neighbours

    states = list(enumerate_colourings(g, params))
    index = {f.colours: i for i, f in enumerate(states)}
    lines = ["graph col {"]
    for i, f in enumerate(states):
        label = "".join(str(c) for c in f.colours)
        lines.append(f'  s{i} [label="{label}"];')
    for i, f in enumerate(states):
        for h in col_neighbours(f):
            j = index[h.colours]
            if j > i:
                lines.append(f"  s{i} -- s{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def basis_cycles(g: Graph) -> list:
    """The cycles of ``graphs.minimum_cycle_basis(g)``, shortest first."""
    return edge_set_cycles(g, minimum_cycle_basis(g))


def fundamental_cycles(g: Graph) -> tuple:
    """The fundamental cycle of every edge outside the BFS spanning forest
    rooted at the least vertex of each component, in ``sorted(g.edges)``
    order: a cycle basis by a route independent of Horton's."""
    parent = bfs_forest(g.adjacency, range(g.n))[0]
    cycles = []
    for u, v in sorted(g.edges):
        if parent[v] != u and parent[u] != v:
            pu, pv = tree_path(parent, u), tree_path(parent, v)
            while len(pu) > 1 and len(pv) > 1 and pu[-2] == pv[-2]:
                pu.pop()
                pv.pop()
            cycles.append(Cycle.from_vertices(pu + pv[:-1][::-1]))
    return tuple(cycles)


def chords(g: Graph, cycle) -> list:
    """The edges of g joining two vertices of ``cycle`` that are not
    consecutive on it."""
    vs, k = cycle.vertices, len(cycle)
    return [(vs[i], vs[j]) for i in range(k) for j in range(i + 2, k)
            if j - i < k - 1 and g.has_edge(vs[i], vs[j])]


def count_calls(monkeypatch, names, *modules) -> dict:
    """Count the calls of each function in ``names`` through every module of
    ``modules`` that binds it; the returned counts fill in as calls run."""
    counts = dict.fromkeys(names, 0)

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def colouring(g: Graph, params: CircularParams, colours) -> Colouring:
    return Colouring(params=params, colours=tuple(colours), host=g)
