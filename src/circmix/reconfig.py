"""The recolouring graph as an implicit object: exhaustive mixing and
reachability oracles, locked/fixed vertex analysis, and the cycle-wind
decision procedure with checkable certificates.

Two colourings are adjacent when they differ at exactly one vertex.  A graph
"mixes" at (p,q) when that state graph is connected.  For 2 < p/q < 4 this
is equivalent to every cycle having weight (|E|/2)*p under every colouring,
which the wind decider checks on a minimum cycle basis (the per-edge labels
2W-p and W_f-W_g are antisymmetric, so their cycle sums are linear over the
cycle space and a basis check is exact).

No cycle shorter than T = 2*ceil(p/(p-2q)) is ever unbalanced, so a
bipartite graph with a minimum cycle basis of cycles shorter than T mixes
without any colouring being scanned.  That basis is the YES-certificate
(``MixingBasis``); a wrapped cycle of that basis under one colouring is
the NO-certificate (``NonMixingWitness``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import kernels
from .circular import (CircularParams, Colouring, cycle_wind, edge_weight,
                       enumerate_colourings, minimal_non_mixing_even_cycle,
                       require_ratio_open, validate_colouring)
from .graphs import (Cycle, Graph, bfs_forest, bipartition, connected_components,
                     cycle_rank, cycle_space_dimension, edge_set_cycles,
                     is_cycle_of, minimum_cycle_basis, shortest_cycle, tree_path)
from .kernels import DEFAULT_STATE_BUDGET, BudgetExceededError, np

__all__ = [
    "MixingVerdict", "NonMixingWitness", "MixingBasis", "FixedSetReport",
    "col_neighbours", "is_mixing_oracle", "is_reachable_oracle",
    "locked_vertices", "fixed_vertices", "is_reachable_characterized",
    "reachability_signature", "is_mixing_wind", "verify_witness",
    "mixing_basis", "verify_mixing_basis", "BudgetExceededError",
]


@dataclass(frozen=True)
class NonMixingWitness:
    """A colouring plus a wrapped cycle: the concise NO-certificate.
    ``weight`` and ``required`` are those of ``circular.cycle_wind``.
    """

    colouring: Colouring
    cycle: Cycle
    weight: int
    required: Fraction


@dataclass(frozen=True)
class MixingBasis:
    """Cycles spanning the cycle space of a bipartite graph, each shorter
    than 2*ceil(p/(p-2q)): the YES-certificate of a wind verdict reached
    without a scan.

    ``p`` and ``q`` stay plain integers so that a ratio outside (2,4) is a
    failed check rather than a parameter error.
    """

    graph: Graph
    p: int
    q: int
    cycles: tuple  # tuple of Cycle


@dataclass(frozen=True)
class MixingVerdict:
    status: str  # "mixing" | "not-mixing" | "vacuous"
    # Proper colourings; None when not counted: a wind NO verdict stops at
    # the first wrapped colouring, a wind YES from a short cycle basis scans
    # none, and fold and planar verdicts count none.
    state_count: Optional[int] = None
    component_count: Optional[int] = None
    witness: Optional[NonMixingWitness] = None
    split_pair: Optional[tuple] = None  # two Colourings in distinct components

    @property
    def mixing(self) -> bool:
        return self.status == "mixing"


@dataclass(frozen=True)
class FixedSetReport:
    fixed: frozenset
    method: str  # "oracle" | "tight-digraph"
    evidence: dict  # vertex -> tight walk (tight-digraph) or {} (oracle)


# ---------------------------------------------------------------------------
# Single-step structure.


def col_neighbours(f: Colouring) -> Iterator[Colouring]:
    """All proper colourings differing from f at exactly one vertex,
    ascending by (vertex, colour)."""
    g = f.host
    p = f.params.p
    for v in range(g.n):
        for c in range(p):
            if c == f.colours[v]:
                continue
            if all(f.params.compatible(c, f.colours[u]) for u in g.adjacency[v]):
                colours = list(f.colours)
                colours[v] = c
                yield Colouring(params=f.params, colours=tuple(colours), host=g)


def locked_vertices(f: Colouring) -> frozenset:
    """Vertices that cannot change colour in a single step (2 < p/q < 4).

    v is locked exactly when its incoming edge weights include both q and
    p-q: that is the two-neighbour pattern with both weights q (or both p-q)
    along some u -> v -> w orientation.
    """
    require_ratio_open(f.params)
    p, q = f.params.p, f.params.q
    out = set()
    for v in range(f.host.n):
        win = {edge_weight(f, u, v) for u in f.host.adjacency[v]}
        if q in win and (p - q) in win:
            out.add(v)
    return frozenset(out)


# ---------------------------------------------------------------------------
# State-space plumbing shared by the oracle operations.


def _state_table(g: Graph, params: CircularParams, budget: int):
    states = kernels.enumerate_states(g, params.p, params.q, budget=budget)
    codes = kernels.state_codes(states, params.p)
    return states, codes


def _state_index(codes: np.ndarray, f: Colouring) -> int:
    code = int(kernels.state_codes(
        np.array([f.colours], dtype=np.int16), f.params.p)[0])
    i = int(np.searchsorted(codes, code))
    if i >= codes.size or codes[i] != code:
        raise ValueError("colouring is not a proper state of this instance")
    return i


def _row_colouring(row: np.ndarray, g: Graph, params: CircularParams) -> Colouring:
    return Colouring(params=params, colours=tuple(int(x) for x in row), host=g)


def is_mixing_oracle(g: Graph, params: CircularParams,
                     budget: int = DEFAULT_STATE_BUDGET) -> MixingVerdict:
    """Exact mixing decision by exhausting the recolouring graph.

    A graph with no proper colourings is reported "vacuous", distinct from
    "mixing".  On not-mixing, ``split_pair`` holds the lexicographically
    least state and the least state outside its component.
    """
    states, codes = _state_table(g, params, budget)
    if states.shape[0] == 0:
        return MixingVerdict(status="vacuous", state_count=0)
    labels = kernels.component_labels(states, codes, g, params.p, params.q)
    ncomp = int(labels.max()) + 1
    if ncomp == 1:
        return MixingVerdict(status="mixing", state_count=states.shape[0],
                             component_count=1)
    j = int(np.argmax(labels != labels[0]))
    pair = (_row_colouring(states[0], g, params),
            _row_colouring(states[j], g, params))
    return MixingVerdict(status="not-mixing", state_count=states.shape[0],
                         component_count=ncomp, split_pair=pair)


def is_reachable_oracle(f: Colouring, g: Colouring,
                        budget: int = DEFAULT_STATE_BUDGET):
    """BFS reachability; returns (flag, path of colourings f..g or None)."""
    _check_same_instance(f, g)
    host = f.host
    states, codes = _state_table(host, f.params, budget)
    i = _state_index(codes, f)
    j = _state_index(codes, g)
    if i == j:
        return True, [f]
    visited, parent = kernels.bfs_tree(states, codes, host, f.params.p,
                                       f.params.q, i, target=j)
    if not visited[j]:
        return False, None
    return True, [_row_colouring(states[k], host, f.params)
                  for k in reversed(tree_path(parent, j))]


def _check_same_instance(f: Colouring, g: Colouring) -> None:
    if f.params != g.params:
        raise ValueError("colourings use different (p,q) parameters")
    if f.host != g.host:
        raise ValueError("colourings live on different host graphs")
    for col, name in ((f, "first"), (g, "second")):
        proper, bad = validate_colouring(col.host, col)
        if not proper:
            raise ValueError(f"{name} colouring is improper on edge {bad}")


# ---------------------------------------------------------------------------
# Fixed vertices.


def _tight_arcs(f: Colouring) -> list:
    """Ascending out-neighbour lists of the arcs u -> v where W(uv, f) == q."""
    q = f.params.q
    arcs = [[] for _ in range(f.host.n)]
    for (u, v) in f.host.edges:
        if edge_weight(f, u, v) == q:
            arcs[u].append(v)
        if edge_weight(f, v, u) == q:
            arcs[v].append(u)
    return [sorted(ws) for ws in arcs]


def _tight_fixed_set(f: Colouring):
    """Fixed-set reconstruction from the tight digraph.

    Vertices on directed tight cycles can never move (the first one to move
    would have to move while its cycle neighbours still hold their colours,
    but it is locked); vertices on directed tight paths between such
    vertices inherit the same freeze.  Returns (fixed set, tight arcs, their
    reverses, tight cycle by vertex).
    """
    arcs = _tight_arcs(f)
    rev = [[] for _ in arcs]
    for u, ws in enumerate(arcs):
        for w in ws:
            rev[w].append(u)
    # Peel vertices left with no tight in-arc or no tight out-arc: none lies
    # on a tight cycle, and a long tight path then costs no BFS per vertex.
    live_in, live_out = [len(ws) for ws in rev], [len(ws) for ws in arcs]
    stack = [v for v in range(len(arcs)) if not live_in[v] or not live_out[v]]
    peeled = set(stack)
    while stack:
        v = stack.pop()
        for live, ws in ((live_in, arcs[v]), (live_out, rev[v])):
            for w in ws:
                live[w] -= 1
                if not live[w] and w not in peeled:
                    peeled.add(w)
                    stack.append(w)
    # v lies on a tight cycle when the BFS from v reaches some u with an arc
    # u -> v; the tree path v..u closed by that arc is v's evidence.  No
    # strong-component filter is needed: a reached vertex with an arc into
    # v's component is in it, so no outside vertex is the parent of an
    # inside one, and the inside vertices keep the discovery order and
    # parents of a BFS confined to the component.
    cycles = {}
    for v in range(len(arcs)):
        if v not in peeled:
            parent, _, order = bfs_forest(arcs, (v,))
            u = next((u for u in order if v in arcs[u]), None)
            if u is not None:
                cycles[v] = tuple(reversed(tree_path(parent, u))) + (v,)
    fixed = set(bfs_forest(arcs, cycles)[2]) & set(bfs_forest(rev, cycles)[2])
    return frozenset(fixed), arcs, rev, cycles


def _core_walk(arcs: list, rev: list, core, v: int) -> tuple:
    """A tight walk from the core through v back to the core: the BFS paths
    from v to the first core vertex reached against the arcs and along them."""
    back, fwd = (tree_path(parent, next(u for u in order if u in core))
                 for parent, _, order in (bfs_forest(rev, (v,)), bfs_forest(arcs, (v,))))
    return tuple(back) + tuple(fwd[-2::-1])


def fixed_vertices(f: Colouring, method: str = "tight-digraph",
                   budget: int = DEFAULT_STATE_BUDGET) -> FixedSetReport:
    """Vertices whose colour is constant over everything reachable from f.

    "oracle" walks f's whole component (exact by construction).
    "tight-digraph" reconstructs the set from weight-q arcs (fast); it is
    cross-checked against the oracle in the test suite rather than trusted.
    """
    proper, bad = validate_colouring(f.host, f)
    if not proper:
        raise ValueError(f"colouring is improper on edge {bad}")
    if method == "oracle":
        states, codes = _state_table(f.host, f.params, budget)
        i = _state_index(codes, f)
        visited, _ = kernels.bfs_tree(states, codes, f.host, f.params.p,
                                      f.params.q, i)
        comp = states[visited]
        constant = np.all(comp == comp[0], axis=0)
        fixed = frozenset(int(v) for v in np.nonzero(constant)[0])
        return FixedSetReport(fixed=fixed, method="oracle", evidence={})
    if method == "tight-digraph":
        require_ratio_open(f.params)
        fixed, arcs, rev, cycles = _tight_fixed_set(f)
        evidence = {v: cycles[v] if v in cycles else _core_walk(arcs, rev, cycles, v)
                    for v in sorted(fixed)}
        return FixedSetReport(fixed=fixed, method="tight-digraph",
                              evidence=evidence)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Reachability by characterization.


def reachability_signature(f: Colouring):
    """Everything the step-by-step reachability relation can distinguish:

    * the fixed vertex set with its images,
    * the wind of every edge u < v outside the BFS spanning forest, in
      ``sorted(g.edges)`` order: ``(phi[u] + w(u,v) - phi[v]) / p``, where
      ``phi`` is the root-based tree-path weight.  The edge's fundamental
      cycle weighs a fixed affine function of it, the same for every
      colouring, and wind is linear over the cycle space, so these winds
      settle every cycle;
    * per component, tree-path weights from the least fixed vertex to every
      other fixed vertex (as differences of ``phi``).

    Two colourings of the same instance are inter-reachable iff their
    signatures are equal (for 2 <= p/q < 4).
    """
    g = f.host
    fixed = _tight_fixed_set(f)[0]
    images = tuple((v, f.colours[v]) for v in sorted(fixed))
    parent, _, order = bfs_forest(g.adjacency, range(g.n))
    phi = [0] * g.n
    root = list(range(g.n))
    for v in order:
        if parent[v] != -1:
            phi[v] = phi[parent[v]] + edge_weight(f, parent[v], v)
            root[v] = root[parent[v]]
    winds = tuple((phi[u] + edge_weight(f, u, v) - phi[v]) // f.params.p
                  for u, v in sorted(g.edges) if parent[v] != u and parent[u] != v)
    anchor = {}
    for v in sorted(fixed):
        anchor.setdefault(root[v], v)
    deltas = tuple((v, phi[v] - phi[anchor[root[v]]]) for v in sorted(fixed))
    return fixed, images, winds, deltas


def is_reachable_characterized(f: Colouring, g: Colouring) -> bool:
    """Reachability for 2 <= p/q < 4 without searching the state space."""
    _check_same_instance(f, g)
    r = f.params.ratio
    if not (2 <= r < 4):
        raise ValueError(f"characterization needs 2 <= p/q < 4, got {r}")
    return reachability_signature(f) == reachability_signature(g)


# ---------------------------------------------------------------------------
# The wind decider and its certificates.


def _make_witness(f: Colouring, cycle: Cycle) -> NonMixingWitness:
    report = cycle_wind(f, cycle)
    if not report.wrapped:
        raise AssertionError("witness cycle is not wrapped")
    return NonMixingWitness(colouring=f, cycle=report.cycle, weight=report.weight,
                            required=report.required)


def is_mixing_wind(g: Graph, params: CircularParams,
                   budget: int = DEFAULT_STATE_BUDGET) -> MixingVerdict:
    """Mixing via the cycle-wind characterization (2 < p/q < 4).

    Non-bipartite colourable inputs short-circuit through an odd cycle,
    which is always wrapped.  A shortest odd cycle C_{2k+1} with
    p/q < (2k+1)/k answers VACUOUS at once; otherwise finding a first
    colouring counts partial colourings against ``budget``.  A bipartite
    graph whose minimum cycle basis has only cycles shorter than
    2*ceil(p/(p-2q)) mixes with no scan (``state_count`` None;
    ``mixing_basis`` gives the certificate), since no shorter cycle is ever
    unbalanced and imbalance is linear over the cycle space.  Every other
    graph is scanned over that basis: a basis cycle whose weight misses
    (|E|/2)*p is a concise witness as it stands, since a chord would split
    it into two shorter cycles, one of which could replace it in the basis
    (a shortest odd cycle is chordless too).  The reported witness is
    deterministic: lexicographically least colouring, then shortest
    unbalanced basis cycle.
    """
    require_ratio_open(params)
    if not bipartition(g).valid:
        odd = shortest_cycle(g, odd=True)
        if odd is None:
            raise AssertionError("graph claimed non-bipartite but no odd cycle found")
        k = len(odd) // 2  # C_{2k+1} has circular chromatic number (2k+1)/k
        if k * params.p < len(odd) * params.q:
            return MixingVerdict(status="vacuous", state_count=0)
        f0 = next(enumerate_colourings(g, params, budget=budget), None)
        if f0 is None:
            return MixingVerdict(status="vacuous", state_count=0)
        return MixingVerdict(status="not-mixing", witness=_make_witness(f0, odd))
    basis = minimum_cycle_basis(g)  # shortest first
    if not basis or basis[-1][0] < minimal_non_mixing_even_cycle(params):
        return MixingVerdict(status="mixing")
    return _wind_scan(g, params, edge_set_cycles(g, basis), budget)


def _wind_scan(g: Graph, params: CircularParams, cycles: list,
               budget: int) -> MixingVerdict:
    """The balance scan of a bipartite graph over its spanning ``cycles``.

    Only colourings giving the least vertex of each component colour 0 are
    scanned, by ``kernels.first_unbalanced``, which stops at the first
    unbalanced one: shifting a component's colours keeps every cycle weight
    and moves its least vertex to 0 without changing any earlier position,
    so the least unbalanced colouring is among them.  One side at 0 and the
    other at q is always a pinned colouring, so the scan never finds none.
    ``budget`` caps those pinned states.
    """
    roots = [c[0] for c in connected_components(g)]
    domain = np.ones((g.n, params.p), dtype=bool)
    domain[roots, 1:] = False
    row, found = kernels.first_unbalanced(
        g, kernels.compat_table(params.p, params.q), domain, cycles, budget)
    if row is not None:
        f = _row_colouring(row, g, params)
        shortest = min((cycles[j] for j in found), key=lambda c: (len(c), c.vertices))
        return MixingVerdict(status="not-mixing", witness=_make_witness(f, shortest))
    return MixingVerdict(status="mixing", state_count=found * params.p ** len(roots))


def mixing_basis(g: Graph, params: CircularParams) -> Optional[MixingBasis]:
    """The certificate behind a MIXING answer of ``is_mixing_wind`` that
    scanned nothing; None for a graph it scans or finds not bipartite."""
    require_ratio_open(params)
    if not bipartition(g).valid:
        return None
    basis = minimum_cycle_basis(g)
    if basis and basis[-1][0] >= minimal_non_mixing_even_cycle(params):
        return None
    return MixingBasis(graph=g, p=params.p, q=params.q,
                       cycles=tuple(edge_set_cycles(g, basis)))


def verify_mixing_basis(b: MixingBasis):
    """Re-check a mixing basis from scratch; returns (ok, failed check names).

    Checks: the graph is bipartite, 2 < p/q < 4, every entry is a cycle of
    the graph shorter than 2*ceil(p/(p-2q)), and the entries have GF(2)
    rank m - n + c, so they span the cycle space.
    """
    failures = []
    g = b.graph
    if not bipartition(g).valid:
        failures.append("not-bipartite")
    if not 2 * b.q < b.p < 4 * b.q:
        failures.append("ratio-outside-(2,4)")
    elif any(len(c) >= minimal_non_mixing_even_cycle(CircularParams(b.p, b.q))
             for c in b.cycles):
        failures.append("cycle-too-long")
    if not all(is_cycle_of(g, c.vertices) for c in b.cycles):
        failures.append("not-a-cycle")
    elif cycle_rank(g, b.cycles) != cycle_space_dimension(g):
        failures.append("not-spanning")
    return not failures, failures


def verify_witness(w: NonMixingWitness):
    """Re-validate a witness from scratch; returns (ok, failed check names).

    Checks: colouring properness, cycle membership in the host, the weight
    arithmetic, the required value, wrappedness, and 2 < p/q < 4 (outside
    it a wrapped cycle does not show that the graph fails to mix).
    """
    failures = []
    f = w.colouring
    proper, _ = validate_colouring(f.host, f)
    if not proper:
        failures.append("colouring-improper")
    if not is_cycle_of(f.host, w.cycle.vertices):
        failures.append("not-a-cycle")
    else:
        report = cycle_wind(f, w.cycle)
        if proper and report.weight != w.weight:
            failures.append("weight-mismatch")
        if w.required != report.required:
            failures.append("required-mismatch")
        if not failures and not report.wrapped:
            failures.append("not-wrapped")
    if not 2 * f.params.q < f.params.p < 4 * f.params.q:
        failures.append("ratio-outside-(2,4)")
    return not failures, failures
