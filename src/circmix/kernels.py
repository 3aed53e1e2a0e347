"""Hot kernels for colouring-state enumeration and recolouring-graph search.

States are colour vectors packed into int16 rows; a state's code is its
mixed-radix value with vertex 0 as the most significant digit, so ascending
codes equal lexicographic order.  ``state_blocks`` is the one enumerator: it
streams the maps allowed by an edge table and per-vertex domains in
lexicographic blocks.  ``first_unbalanced`` is the one balance scan over
those blocks: it stops at the first map that unbalances a cycle, and it
answers both the wind scan (colourings) and the fold construction
(homomorphisms to a cycle).  The wind scan pins the least vertex of each
component to colour 0: shifting a component's colours keeps every cycle
weight and changes no earlier vertex, so the least unbalanced colouring is
pinned.  The kernels are plain numpy, and this is the one module that
imports it: lazily, on a kernel's first use of ``np``, so commands that
enumerate nothing never load it.
BFS parent trees are deterministic (a state's parent is its lowest-index
discoverer in the previous level), and the tests hold them to a pure-Python
reference.

``python3 perfbench/run.py`` times them end to end and per layer.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_numpy():
    """numpy, executed on its first attribute access (the ``LazyLoader``
    recipe of the ``importlib`` docs); the loaded module if already imported."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

DEFAULT_STATE_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """State-count budget hit; never a silent approximation."""


def compat_table(p: int, q: int) -> np.ndarray:
    """(p, p) boolean table: colours at circular distance >= q."""
    x = np.arange(p)
    d = np.abs(x[:, None] - x[None, :])
    d = np.minimum(d, p - d)
    return d >= q


def digit_weights(n: int, p: int) -> np.ndarray:
    """Mixed-radix digit weights; vertex 0 most significant."""
    if n * np.log2(max(p, 2)) > 62:
        raise BudgetExceededError(
            f"state codes for n={n}, p={p} exceed 63 bits; instance too large")
    return np.int64(p) ** np.arange(n - 1, -1, -1, dtype=np.int64)


def state_codes(states: np.ndarray, p: int) -> np.ndarray:
    n = states.shape[1]
    return states.astype(np.int64) @ digit_weights(n, p)


# ---------------------------------------------------------------------------
# Proper-state enumeration (lexicographic).


def state_blocks(g, compat: np.ndarray, domain: np.ndarray,
                 budget: int = DEFAULT_STATE_BUDGET, block: int = 1 << 16):
    """Yield the colour vectors of g with ``compat[a, b]`` true on every
    edge and ``domain[v, c]`` true at every vertex, in lexicographic order,
    as int16 blocks of shape (k, n) with 1 <= k <= ``block``.

    Prefixes are extended one vertex at a time, depth first over slices
    whose extensions fit in one block, so memory stays near n blocks
    whatever the state count.  The running count of rows made at each
    vertex is checked against ``budget`` before those rows are built.
    """
    n = g.n
    if n == 0:
        yield np.zeros((1, 0), dtype=np.int16)
        return
    earlier = [[u for u in g.adjacency[v] if u < v] for v in range(n)]
    made = [0] * n

    def extend(states, v):
        if v == n:
            yield states
            return
        ok = np.repeat(domain[v:v + 1], states.shape[0], axis=0)
        for u in earlier[v]:
            ok &= compat[states[:, u], :]
        ends = np.cumsum(np.count_nonzero(ok, axis=1))
        lo = 0
        while lo < states.shape[0]:
            base = int(ends[lo - 1]) if lo else 0
            hi = max(int(np.searchsorted(ends, base + block, side="right")), lo + 1)
            count = int(ends[hi - 1]) - base
            made[v] += count
            if made[v] > budget:
                what = ("proper states" if v == n - 1
                        else f"partial states at vertex {v}")
                raise BudgetExceededError(f"more than {budget} {what}")
            if count:
                rows, cols = np.nonzero(ok[lo:hi])  # row-major: lexicographic
                child = np.concatenate(
                    [states[lo + rows], cols.astype(np.int16).reshape(-1, 1)], axis=1)
                del rows, cols  # not held while deeper levels run
                yield from extend(child, v + 1)
            lo = hi

    yield from extend(np.zeros((1, 0), dtype=np.int16), 0)


def enumerate_states(g, p: int, q: int,
                     budget: int = DEFAULT_STATE_BUDGET) -> np.ndarray:
    """All proper colour vectors of g at (p,q), lexicographic, shape (S, n)."""
    digit_weights(g.n, p)  # every caller codes this table: refuse past 63 bits
    empty = np.zeros((0, g.n), dtype=np.int16)
    blocks = state_blocks(g, compat_table(p, q), np.ones((g.n, p), dtype=bool),
                          budget=budget)
    return np.concatenate([empty, *blocks])


# ---------------------------------------------------------------------------
# The recolouring graph: states are adjacent when they differ at one vertex.

MOVE_CHUNK = 1 << 11  # frontier states per ``moves`` call in the BFS


def moves(states, codes, g, p: int, q: int, rows) -> tuple:
    """Every single-vertex recolouring out of the given state rows.

    Returns (source, target) int64 state indices, ascending by (vertex,
    colour) and, within one (vertex, colour), in the order of ``rows``.
    """
    return _moves(states, codes, _move_tables(g, p, q), rows)


def _move_tables(g, p: int, q: int) -> tuple:
    # built once per BFS, not once per frontier chunk
    return compat_table(p, q), g.adjacency, digit_weights(g.n, p)


def _moves(states, codes, tables, rows) -> tuple:
    compat, adjacency, powv = tables
    p = compat.shape[0]
    rows = np.asarray(rows, dtype=np.int64)
    picked = states[rows]
    empty = np.zeros(0, dtype=np.int64)
    sources, targets = [empty], [empty]
    for v in range(powv.size):
        ok = np.ones((rows.size, p), dtype=bool)
        for u in adjacency[v]:
            ok &= compat[picked[:, u]]
        digits = picked[:, v].astype(np.int64)
        ok[np.arange(rows.size), digits] = False
        cs, ks = np.nonzero(ok.T)  # colour-major: (colour, row order)
        tcode = codes[rows[ks]] + (cs - digits[ks]) * powv[v]
        tidx = np.searchsorted(codes, tcode)
        if tidx.size and (tidx.max() >= codes.size
                          or not np.array_equal(codes[tidx], tcode)):
            raise AssertionError("recolouring produced an unknown state")
        sources.append(rows[ks])
        targets.append(tidx)
    return np.concatenate(sources), np.concatenate(targets)


def bfs_tree(states, codes, g, p: int, q: int, start: int,
             target: int = -1) -> tuple:
    """Return (visited bool[S], parent int64[S]) for BFS from ``start``.

    Level-synchronous with sorted frontiers, so the shortest-path tree is
    deterministic: a state's parent is its lowest-index discoverer in the
    previous level.  Stops early once ``target`` (if >= 0) has been assigned
    a parent and its level is complete.  parent[start] == -1.  Moves are
    listed ``MOVE_CHUNK`` frontier states at a time and only those to
    unvisited states are kept, so memory follows the next level.
    """
    tables = _move_tables(g, p, q)
    S = states.shape[0]
    visited = np.zeros(S, dtype=bool)
    parent = np.full(S, -1, dtype=np.int64)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        if target >= 0 and visited[target]:
            break
        ss, ts = [], []
        for lo in range(0, frontier.size, MOVE_CHUNK):
            src, tgt = _moves(states, codes, tables, frontier[lo:lo + MOVE_CHUNK])
            keep = ~visited[tgt]
            ss.append(src[keep])
            ts.append(tgt[keep])
        s_all, t_all = np.concatenate(ss), np.concatenate(ts)
        if t_all.size == 0:
            break
        order = np.lexsort((s_all, t_all))
        t_all, s_all = t_all[order], s_all[order]
        first = np.ones(t_all.size, dtype=bool)
        first[1:] = t_all[1:] != t_all[:-1]
        t_new, s_new = t_all[first], s_all[first]
        visited[t_new] = True
        parent[t_new] = s_new
        frontier = t_new  # already sorted ascending by the lexsort
    return visited, parent


def component_labels(states, codes, g, p: int, q: int) -> np.ndarray:
    """Connected-component label per state; component ids are assigned in
    order of each component's lowest state index."""
    S = states.shape[0]
    labels = np.full(S, -1, dtype=np.int64)
    comp = 0
    for i in range(S):
        if labels[i] >= 0:
            continue
        visited, _ = bfs_tree(states, codes, g, p, q, i)
        labels[visited] = comp
        comp += 1
    return labels


# ---------------------------------------------------------------------------
# Vectorized per-colouring cycle-weight sums and the balance scan.


def cycle_weight_sums(states: np.ndarray, p: int, cycle) -> np.ndarray:
    """W(C, f) for every state row, along the stored orientation of C."""
    vs = cycle.vertices
    tails = np.array(vs, dtype=np.int64)
    heads = np.array([vs[(i + 1) % len(vs)] for i in range(len(vs))], dtype=np.int64)
    w = (states[:, heads].astype(np.int64) - states[:, tails].astype(np.int64)) % p
    return w.sum(axis=1)


def first_unbalanced(g, compat: np.ndarray, domain: np.ndarray, cycles,
                     budget: int = DEFAULT_STATE_BUDGET) -> tuple:
    """The balance scan: stream the maps of ``state_blocks`` and stop at the
    first one that unbalances a cycle, one whose weight W misses 2W = |C|*m
    with m = ``compat.shape[0]`` (so an odd cycle is never balanced).

    Returns (first unbalanced map row, positions in ``cycles`` of the cycles
    it unbalances), or (None, number of maps scanned) when every map
    balances every cycle.  ``budget`` caps the maps as in ``state_blocks``.
    """
    m = compat.shape[0]
    scanned = 0
    for block in state_blocks(g, compat, domain, budget=budget):
        bad = np.zeros((len(cycles), block.shape[0]), dtype=bool)
        for j, c in enumerate(cycles):
            bad[j] = 2 * cycle_weight_sums(block, m, c) != len(c) * m
        hit = bad.any(axis=0)
        if hit.any():
            i = int(np.argmax(hit))
            return block[i], np.flatnonzero(bad[:, i]).tolist()
        scanned += block.shape[0]
    return None, scanned
