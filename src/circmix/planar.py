"""Combinatorial embeddings, face traversal, separating-cycle machinery, and
the polynomial planar mixing decider for 3 <= p/q < 4.

Embeddings arrive as rotation systems (a cyclic neighbour order per vertex);
they are validated, never computed.  For a 2-connected embedded bipartite
graph with no short separating cycles, mixing reduces to counting long
faces; separating 4-cycles are split away first, which is exactly what the
3 <= p/q < 4 range needs since the minimal non-mixing even cycle there is
the 6-cycle.  That threshold comes in closed form from the wind
characterization (``circular.minimal_non_mixing_even_cycle``, importable
from here too); the decider runs no colouring enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .circular import CircularParams, minimal_non_mixing_even_cycle
from .graphs import (Cycle, Graph, bfs_forest, bipartition, blocks,
                     connected_components, enumerate_cycles, induced_subgraph,
                     is_connected, is_cycle_of)
from .reconfig import MixingVerdict


class EmbeddingError(ValueError):
    """Rotation system is not a valid sphere embedding."""


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic neighbour order per vertex; ``outer`` optionally designates the
    outer face by its index in the traversal order (default: a longest face)."""

    rotation: tuple  # per-vertex tuple of neighbours
    outer: Optional[int] = None


@dataclass(frozen=True)
class FaceSet:
    faces: tuple  # closed vertex walks, one tuple per face
    lengths: tuple
    outer: int  # resolved outer face index


@dataclass(frozen=True)
class EmbeddedPiece:
    graph: Graph
    rotation: RotationSystem
    original_ids: tuple  # local vertex -> vertex of the graph it came from


@dataclass(frozen=True)
class RegionSplit:
    cycle: Cycle
    interior: frozenset
    exterior: frozenset
    interior_piece: EmbeddedPiece
    exterior_piece: EmbeddedPiece

    @property
    def separating(self) -> bool:
        return bool(self.interior) and bool(self.exterior)


def _check_ring(v: int, ring, neighbours) -> None:
    """Refuse a rotation ``ring`` of v that is not a permutation of v's
    sorted ``neighbours``; graph files run it as they are read."""
    if sorted(ring) != list(neighbours):
        raise EmbeddingError(
            f"rotation of vertex {v} is not a permutation of its neighbours")


def _check_rotation_shape(g: Graph, rot: RotationSystem) -> None:
    if len(rot.rotation) != g.n:
        raise EmbeddingError("rotation system must cover every vertex")
    for v in range(g.n):
        _check_ring(v, rot.rotation[v], g.adjacency[v])


def faces(g: Graph, rot: RotationSystem) -> FaceSet:
    """Trace all faces by the next-edge-in-rotation rule and validate Euler's
    formula per connected component."""
    _check_rotation_shape(g, rot)
    succ = {}  # (u, v) -> (v, w): w follows u in the rotation around v
    for v in range(g.n):
        ring = rot.rotation[v]
        for i, u in enumerate(ring):
            succ[(u, v)] = (v, ring[(i + 1) % len(ring)])
    walks = []
    seen = set()
    for dart in sorted(succ):
        if dart in seen:
            continue
        walk = []
        d = dart
        while True:
            seen.add(d)
            walk.append(d[0])
            d = succ[d]
            if d == dart:
                break
        walks.append(_normalize_walk(tuple(walk)))
    _check_euler(g, walks)
    lengths = tuple(len(w) for w in walks)
    outer = rot.outer
    if outer is None:
        longest = max(lengths)
        outer = min((i for i in range(len(walks)) if lengths[i] == longest),
                    key=lambda i: walks[i])
    if not (0 <= outer < len(walks)):
        raise EmbeddingError(f"outer face index {outer} out of range")
    return FaceSet(faces=tuple(walks), lengths=lengths, outer=outer)


def _normalize_walk(walk: tuple) -> tuple:
    k = len(walk)
    rotations = [walk[i:] + walk[:i] for i in range(k)]
    return min(rotations)


def _check_euler(g: Graph, walks: list) -> None:
    if sum(len(w) for w in walks) != 2 * g.m:
        raise EmbeddingError("face walks do not cover every dart exactly once")
    comp_of = {}
    comps = connected_components(g)
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    face_count = [0] * len(comps)
    for w in walks:
        face_count[comp_of[w[0]]] += 1
    for i, comp in enumerate(comps):
        mc = sum(1 for (u, v) in g.edges if comp_of[u] == i)
        if mc == 0:
            continue
        euler = len(comp) - mc + face_count[i]
        if euler != 2:
            raise EmbeddingError(
                f"component of vertex {comp[0]}: V-E+F = {euler}, expected 2")


def region_split(g: Graph, rot: RotationSystem, c: Cycle) -> RegionSplit:
    """Split the sphere along a cycle: dual flood fill from the outer face
    with the dual edges across the cycle removed."""
    if not is_connected(g):
        raise ValueError("region split expects a connected embedded graph")
    if not is_cycle_of(g, c.vertices):
        raise ValueError("not a cycle of the host graph")
    fs = faces(g, rot)
    dart_face = {}
    for i, walk in enumerate(fs.faces):
        k = len(walk)
        for j in range(k):
            dart_face[(walk[j], walk[(j + 1) % k])] = i
    cut = {(min(u, v), max(u, v)) for u, v in zip(c.vertices,
                                                  c.vertices[1:] + c.vertices[:1])}
    outside = set(bfs_forest(_dual_adjacency(g, dart_face, cut), (fs.outer,))[2])
    on_cycle = set(c.vertices)
    interior, exterior = set(), set()
    for v in range(g.n):
        if v in on_cycle:
            continue
        # every face at v has a dart out of v
        sides = {dart_face[(v, w)] in outside for w in g.adjacency[v]}
        if sides == {True}:
            exterior.add(v)
        elif sides == {False}:
            interior.add(v)
        else:
            raise EmbeddingError(
                f"vertex {v} touches both sides of the cycle; embedding invalid")
    int_piece = restrict_embedding(g, rot, sorted(on_cycle | interior))
    ext_piece = restrict_embedding(g, rot, sorted(on_cycle | exterior))
    return RegionSplit(cycle=c, interior=frozenset(interior),
                       exterior=frozenset(exterior),
                       interior_piece=int_piece, exterior_piece=ext_piece)


def _dual_adjacency(g: Graph, dart_face: dict, cut: set) -> list:
    nfaces = max(dart_face.values()) + 1 if dart_face else 0
    dual = [set() for _ in range(nfaces)]
    for (u, v) in g.edges:
        if (u, v) in cut:
            continue
        fa, fb = dart_face[(u, v)], dart_face[(v, u)]
        if fa != fb:
            dual[fa].add(fb)
            dual[fb].add(fa)
    return dual


def restrict_embedding(g: Graph, rot: RotationSystem, vertices) -> EmbeddedPiece:
    """Embedding of the subgraph induced on a vertex subset: each kept vertex
    keeps the cyclic order of its kept neighbours.  A block's vertex set
    induces exactly the block's edges, so this also cuts out blocks."""
    sub, remap = induced_subgraph(g, vertices)
    rotation = tuple(tuple(remap[w] for w in rot.rotation[v] if w in remap)
                     for v in remap)
    return EmbeddedPiece(graph=sub, rotation=RotationSystem(rotation=rotation),
                         original_ids=tuple(remap))


def separating_cycles(g: Graph, rot: RotationSystem, length: int) -> list:
    """All cycles of exactly the given length whose removal leaves vertices
    strictly inside and strictly outside, in enumeration order."""
    out = []
    for c in enumerate_cycles(g, length):
        if len(c) != length:
            continue
        if region_split(g, rot, c).separating:
            out.append(c)
    return out


def face_criterion(fs: FaceSet, threshold: int):
    """Count faces of length >= threshold; mixing iff at most one."""
    count = sum(1 for ln in fs.lengths if ln >= threshold)
    return count, count <= 1


# ---------------------------------------------------------------------------
# The decider.


@dataclass(frozen=True)
class DecisionNode:
    """One step of the planar decision: block split, 4-cycle split, or a
    face-count leaf.  ``detail`` holds human-readable specifics with vertex
    names in the original graph's labelling."""

    kind: str  # "blocks" | "split" | "faces"
    mixing: bool
    detail: dict
    children: tuple = field(default_factory=tuple)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        verdict = "mixing" if self.mixing else "not-mixing"
        line = f"{pad}{self.kind}: {verdict} {self.detail}"
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "mixing": self.mixing, "detail": self.detail,
                "children": [c.to_dict() for c in self.children]}


def planar_mixing_decider(g: Graph, rot: RotationSystem, params: CircularParams,
                          split_chooser=None):
    """Polynomial mixing decision for embedded bipartite planar graphs at
    3 <= p/q < 4.  Returns (MixingVerdict, DecisionNode).

    Blocks are decided independently (isolated vertices, in no block, drop
    out); within a 2-connected piece any separating 4-cycle splits the
    instance into its closed interior and exterior; a piece without
    separating 4-cycles mixes iff at most one of its faces has length >=
    the minimal non-mixing even cycle (6 throughout this parameter range).

    ``split_chooser`` picks which separating 4-cycle to split at (default:
    the first in enumeration order); the verdict is independent of the
    choice and the test suite exercises randomized choosers.
    """
    r = params.ratio
    if not (3 <= r < 4):
        raise ValueError(f"planar decider needs 3 <= p/q < 4, got {r}")
    if not bipartition(g).valid:
        raise ValueError("planar decider needs a bipartite input; "
                         "use the oracle or wind methods for non-bipartite graphs")
    if g.m == 0:
        raise ValueError("planar decider needs at least one edge")
    threshold = minimal_non_mixing_even_cycle(params)
    piece = EmbeddedPiece(graph=g, rotation=rot, original_ids=tuple(range(g.n)))
    faces(g, rot)  # validate the embedding up front
    chooser = split_chooser if split_chooser is not None else lambda seps: seps[0]
    tree = _decide(piece, threshold, chooser)
    status = "mixing" if tree.mixing else "not-mixing"
    return MixingVerdict(status=status), tree


def _decide(piece: EmbeddedPiece, threshold: int, chooser) -> DecisionNode:
    g = piece.graph
    ids = piece.original_ids
    pieces = blocks(g)
    if len(pieces) > 1 or len(pieces[0]) < g.n:
        children = tuple(
            _decide(_renamed(restrict_embedding(g, piece.rotation, blk), ids),
                    threshold, chooser)
            for blk in pieces)
        return DecisionNode(kind="blocks", mixing=all(c.mixing for c in children),
                            detail={"count": len(pieces)}, children=children)
    if g.n >= 5:
        seps = separating_cycles(g, piece.rotation, 4)
        if seps:
            chosen = chooser(seps)
            split = region_split(g, piece.rotation, chosen)
            children = tuple(_decide(_renamed(half, ids), threshold, chooser)
                             for half in (split.interior_piece, split.exterior_piece))
            return DecisionNode(
                kind="split", mixing=all(c.mixing for c in children),
                detail={"cycle": tuple(ids[v] for v in chosen.vertices)},
                children=children)
    fs = faces(g, piece.rotation)
    count, verdict = face_criterion(fs, threshold)
    return DecisionNode(
        kind="faces", mixing=verdict,
        detail={"lengths": sorted(fs.lengths), "threshold": threshold,
                "long_faces": count})


def _renamed(child: EmbeddedPiece, ids: tuple) -> EmbeddedPiece:
    """A child piece with its vertices named by the input graph's ids, given
    ``ids``, its parent's names for them."""
    return replace(child, original_ids=tuple(ids[v] for v in child.original_ids))
