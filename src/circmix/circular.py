"""Circular cliques, (p,q)-colourings, edge/walk/cycle weights and winds.

A (p,q)-colouring assigns each vertex a colour in 0..p-1 so that adjacent
colours are at circular distance at least q (equivalently the mod-p colour
difference lies in [q, p-q]).  Parameters are kept literally, never reduced
by gcd: the recolouring state space of (6,2) differs from (3,1) even though
the targets are homomorphically equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .graphs import Cycle, Graph, build_graph
from .kernels import DEFAULT_STATE_BUDGET, BudgetExceededError


@dataclass(frozen=True)
class CircularParams:
    p: int
    q: int

    def __post_init__(self):
        if self.q <= 0 or self.p <= 0:
            raise ValueError("p and q must be positive integers")
        if self.p < 2 * self.q:
            raise ValueError(f"need p/q >= 2, got {self.p}/{self.q}")

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.p, self.q)

    def circular_distance(self, x: int, y: int) -> int:
        d = abs(x - y) % self.p
        return min(d, self.p - d)

    def compatible(self, x: int, y: int) -> bool:
        return self.circular_distance(x, y) >= self.q

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def require_ratio_open(params: CircularParams) -> None:
    """Guard for results that hold only for 2 < p/q < 4."""
    if not 2 * params.q < params.p < 4 * params.q:
        raise ValueError(f"p/q must lie strictly between 2 and 4, got {params.ratio}")


def minimal_non_mixing_even_cycle(params: CircularParams) -> int:
    """Smallest even L with C_L not (p,q)-mixing, for 2 < p/q < 4:
    2 * ceil(p / (p - 2q)).

    C_L mixes exactly when every colouring has weight (L/2)*p.  Edge
    weights lie in [q, p-q] and can be chosen freely around the cycle, and
    a cycle's weight is a multiple of p, so the weights that occur are the
    multiples of p in [L*q, L*(p-q)].  A wrapped weight (L/2 - 1)*p (and its
    reflection (L/2 + 1)*p) is therefore reachable exactly when
    L*q <= (L/2 - 1)*p, that is L/2 >= p / (p - 2q).  So no cycle shorter
    than this is ever unbalanced.
    """
    require_ratio_open(params)
    p, q = params.p, params.q
    return 2 * -(-p // (p - 2 * q))


@dataclass(frozen=True)
class Colouring:
    """Total colour assignment for a host graph under fixed (p,q)."""

    params: CircularParams
    colours: tuple
    host: Graph

    def __post_init__(self):
        if len(self.colours) != self.host.n:
            raise ValueError("colouring must assign every vertex exactly once")
        for v, c in enumerate(self.colours):
            if not (0 <= c < self.params.p):
                raise ValueError(f"colour {c} of vertex {v} outside 0..{self.params.p - 1}")

    def __getitem__(self, v: int) -> int:
        return self.colours[v]


def circular_clique(params: CircularParams) -> Graph:
    """The graph on 0..p-1 with edges between colours at circular distance
    in [q, p-q]."""
    p = params.p
    edges = [(u, v) for u in range(p) for v in range(u + 1, p)
             if params.compatible(u, v)]
    return build_graph(p, edges)


def validate_colouring(g: Graph, f: Colouring):
    """Return (proper, violating_edge); the first bad edge in sorted order."""
    if f.host is not g and f.host != g:
        raise ValueError("colouring was built for a different host graph")
    for (u, v) in sorted(g.edges):
        if not f.params.compatible(f.colours[u], f.colours[v]):
            return False, (u, v)
    return True, None


def edge_weight(f: Colouring, u: int, v: int) -> int:
    """Directed weight of the edge u->v: (f(v) - f(u)) mod p, in (0, p)."""
    if not f.host.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge of the host")
    return (f.colours[v] - f.colours[u]) % f.params.p


def walk_weight(f: Colouring, walk) -> int:
    """Sum of directed edge weights along a walk (consecutive vertices adjacent)."""
    walk = list(walk)
    if len(walk) < 2:
        return 0
    total = 0
    for a, b in zip(walk, walk[1:]):
        total += edge_weight(f, a, b)
    return total


@dataclass(frozen=True)
class WindReport:
    cycle: Cycle
    weight: int
    wind: int
    required: Fraction  # (|E|/2)*p, a half-integer multiple of p when |E| is odd
    wrapped: bool


def cycle_wind(f: Colouring, c: Cycle) -> WindReport:
    """Weight and wind of a cycle under f: the one balance test.  A cycle is
    wrapped when its weight differs from (|E|/2)*p; the weight is a multiple
    of p, so odd cycles always are."""
    p = f.params.p
    weight = sum(edge_weight(f, a, b) for a, b in c.directed_edges())
    if weight % p != 0:
        raise AssertionError("cycle weight not divisible by p; weights are corrupt")
    required = Fraction(len(c) * p, 2)
    return WindReport(cycle=c, weight=weight, wind=weight // p, required=required,
                      wrapped=weight != required)


def enumerate_colourings(g: Graph, params: CircularParams,
                         budget: int = DEFAULT_STATE_BUDGET) -> Iterator[Colouring]:
    """Stream every proper colouring in lexicographic colour-vector order.

    Backtracking with forward checking on the circular interval constraint;
    meant for desk-scale graphs (the empty stream means uncolourable).  As
    in ``kernels.state_blocks``, the proper partial colourings made at each
    vertex are counted, and one more than ``budget`` at any vertex raises
    ``BudgetExceededError``, so an uncolourable graph cannot backtrack
    unboundedly.
    """
    n = g.n
    p = params.p
    if n == 0:
        yield Colouring(params=params, colours=(), host=g)
        return
    earlier = [tuple(u for u in g.adjacency[v] if u < v) for v in range(n)]
    assignment = [0] * n
    made = [0] * n

    def assign(v: int) -> Iterator[Colouring]:
        for c in range(p):
            if all(params.compatible(assignment[u], c) for u in earlier[v]):
                made[v] += 1
                if made[v] > budget:
                    what = ("proper states" if v == n - 1
                            else f"partial states at vertex {v}")
                    raise BudgetExceededError(f"more than {budget} {what}")
                assignment[v] = c
                if v + 1 == n:
                    yield Colouring(params=params, colours=tuple(assignment), host=g)
                else:
                    yield from assign(v + 1)

    yield from assign(0)


def shift(f: Colouring, c: int) -> Colouring:
    """Add c (mod p) to every colour; preserves every edge weight."""
    p = f.params.p
    return Colouring(params=f.params,
                     colours=tuple((x + c) % p for x in f.colours),
                     host=f.host)


def reflect(f: Colouring) -> Colouring:
    """Map every colour x to (p - x) mod p; sends each edge weight w to p-w."""
    p = f.params.p
    return Colouring(params=f.params,
                     colours=tuple((p - x) % p for x in f.colours),
                     host=f.host)

