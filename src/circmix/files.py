"""Plain-text line formats: graph documents, colourings, witnesses, fold
traces, and DOT export.

Everything is line-oriented and human-auditable; certificates must be
checkable by eye and by independent tooling.  ``#`` starts a comment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels
from .circular import CircularParams, Colouring
from .fold import FoldTrace, _is_cycle_graph, replay_trace
from .graphs import Cycle, Graph, build_graph, induced_subgraph
from .planar import RotationSystem
from .reconfig import NonMixingWitness


class ParseError(ValueError):
    pass


@dataclass
class GraphDocument:
    graph: Graph
    rotation: Optional[RotationSystem] = None
    colourings: dict = field(default_factory=dict)  # name -> colour tuple


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_graph_document(text: str) -> GraphDocument:
    n = None
    edges = []
    rotations = {}
    outer = None
    colourings = {}
    current_colouring = None
    for lineno, line in _content_lines(text):
        try:
            if current_colouring is not None:
                if line == "end":
                    current_colouring = None
                    continue
                for tok in line.split():
                    v, c = tok.split("=")
                    colourings[current_colouring][int(v)] = int(c)
                continue
            if line.startswith("n "):
                n = int(line.split()[1])
            elif line.startswith("edge "):
                _, u, v = line.split()
                edges.append((int(u), int(v)))
            elif line.startswith("rotation "):
                head, rest = line.split(":", 1)
                v = int(head.split()[1])
                rotations[v] = tuple(int(x) for x in rest.split())
            elif line.startswith("outer:"):
                outer = int(line.split(":", 1)[1])
            elif line.startswith("colouring "):
                name = line.split(None, 1)[1].rstrip(":")
                colourings[name] = {}
                current_colouring = name
            else:
                raise ParseError(f"line {lineno}: unrecognized directive {line!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"line {lineno}: cannot parse {line!r}") from exc
    if n is None:
        raise ParseError("graph document missing an 'n <count>' line")
    graph = build_graph(n, edges)
    rotation = None
    if rotations:
        missing = [v for v in range(n) if graph.adjacency[v] and v not in rotations]
        if missing:
            raise ParseError(f"rotation lines missing for vertices {missing}")
        rotation = RotationSystem(
            rotation=tuple(rotations.get(v, ()) for v in range(n)), outer=outer)
    done = {}
    for name, mapping in colourings.items():
        if sorted(mapping) != list(range(n)):
            raise ParseError(f"colouring {name!r} does not cover vertices 0..{n - 1}")
        done[name] = tuple(mapping[v] for v in range(n))
    return GraphDocument(graph=graph, rotation=rotation, colourings=done)


def serialize_graph_document(doc: GraphDocument, header: str = "") -> str:
    out = []
    if header:
        out.append(f"# {header}")
    out.append(f"n {doc.graph.n}")
    for (u, v) in sorted(doc.graph.edges):
        out.append(f"edge {u} {v}")
    if doc.rotation is not None:
        for v in range(doc.graph.n):
            ring = doc.rotation.rotation[v]
            if ring:
                out.append(f"rotation {v}: " + " ".join(str(w) for w in ring))
        if doc.rotation.outer is not None:
            out.append(f"outer: {doc.rotation.outer}")
    for name, colours in doc.colourings.items():
        out.append(f"colouring {name}")
        out.append(serialize_colouring(colours).rstrip("\n"))
        out.append("end")
    return "\n".join(out) + "\n"


def load_graph_document(path: str) -> GraphDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_document(fh.read())


# ---------------------------------------------------------------------------
# Colouring files: one v=c pair per line.


def parse_colouring_file(text: str) -> dict:
    mapping = {}
    for lineno, line in _content_lines(text):
        for tok in line.split():
            try:
                v, c = tok.split("=")
                mapping[int(v)] = int(c)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad colour entry {tok!r}") from exc
    return mapping


def serialize_colouring(colours) -> str:
    return "\n".join(f"{v}={c}" for v, c in enumerate(colours)) + "\n"


def bind_colouring(mapping: dict, graph: Graph, params: CircularParams) -> Colouring:
    if sorted(mapping) != list(range(graph.n)):
        raise ParseError(f"colouring does not cover vertices 0..{graph.n - 1}")
    return Colouring(params=params,
                     colours=tuple(mapping[v] for v in range(graph.n)),
                     host=graph)


# ---------------------------------------------------------------------------
# Witness files.


def serialize_witness(w: NonMixingWitness, graph_ref: str) -> str:
    out = ["witness", f"graph: {graph_ref}",
           f"p: {w.colouring.params.p}", f"q: {w.colouring.params.q}",
           "colouring:"]
    out.extend(f"{v}={c}" for v, c in enumerate(w.colouring.colours))
    out.append("end")
    out.append("cycle: " + " ".join(str(v) for v in w.cycle.vertices))
    out.append(f"weight: {w.weight}")
    out.append(f"required: {w.required}")
    return "\n".join(out) + "\n"


def parse_witness(text: str, base_dir: str = ".") -> NonMixingWitness:
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != "witness":
        raise ParseError("not a witness file")
    fields = {}
    colour_map = {}
    in_colouring = False
    for lineno, line in lines[1:]:
        if in_colouring:
            if line == "end":
                in_colouring = False
                continue
            for tok in line.split():
                v, c = tok.split("=")
                colour_map[int(v)] = int(c)
            continue
        if line == "colouring:":
            in_colouring = True
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        fields[key.strip()] = value.strip()
    for key in ("graph", "p", "q", "cycle", "weight", "required"):
        if key not in fields:
            raise ParseError(f"witness missing field {key!r}")
    doc = load_graph_document(os.path.join(base_dir, fields["graph"]))
    params = CircularParams(int(fields["p"]), int(fields["q"]))
    colouring = bind_colouring(colour_map, doc.graph, params)
    cycle = Cycle(tuple(int(x) for x in fields["cycle"].split()))
    return NonMixingWitness(colouring=colouring, cycle=cycle,
                            weight=int(fields["weight"]),
                            required=Fraction(fields["required"]))


# ---------------------------------------------------------------------------
# Fold trace files.


@dataclass
class FoldTraceFile:
    graph_ref: str
    component: Optional[tuple]  # original vertex ids, None = whole graph
    target: Optional[int]
    steps: tuple  # (kept, merged) pairs
    final_edges: tuple


def serialize_fold_trace(trace: FoldTrace, graph_ref: str,
                         component=None, target=None) -> str:
    out = ["fold-trace", f"graph: {graph_ref}"]
    if component is not None:
        out.append("component: " + " ".join(str(v) for v in component))
    if target is not None:
        out.append(f"target: {target}")
    for step in trace.steps:
        out.append(f"fold {step.kept} {step.merged}")
    out.append("final:")
    out.extend(f"{u} {v}" for (u, v) in sorted(trace.final.edges))
    out.append("end")
    return "\n".join(out) + "\n"


def parse_fold_trace(text: str) -> FoldTraceFile:
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != "fold-trace":
        raise ParseError("not a fold-trace file")
    graph_ref = None
    component = None
    target = None
    steps = []
    final_edges = []
    in_final = False
    for lineno, line in lines[1:]:
        if in_final:
            if line == "end":
                in_final = False
                continue
            u, v = line.split()
            final_edges.append((int(u), int(v)))
            continue
        if line.startswith("graph:"):
            graph_ref = line.split(":", 1)[1].strip()
        elif line.startswith("component:"):
            component = tuple(int(x) for x in line.split(":", 1)[1].split())
        elif line.startswith("target:"):
            target = int(line.split(":", 1)[1])
        elif line.startswith("fold "):
            _, a, b = line.split()
            steps.append((int(a), int(b)))
        elif line == "final:":
            in_final = True
        else:
            raise ParseError(f"line {lineno}: unrecognized trace line {line!r}")
    if graph_ref is None:
        raise ParseError("fold trace missing its graph reference")
    return FoldTraceFile(graph_ref=graph_ref, component=component, target=target,
                        steps=tuple(steps), final_edges=tuple(final_edges))


def verify_fold_trace_file(tf: FoldTraceFile, base_dir: str = "."):
    """Replay the trace against its referenced graph; returns (ok, messages)."""
    problems = []
    doc = load_graph_document(os.path.join(base_dir, tf.graph_ref))
    source = doc.graph
    if tf.component is not None:
        source, _ = induced_subgraph(source, tf.component)
    try:
        trace = replay_trace(source, tf.steps)
    except ValueError as exc:
        return False, [f"replay failed: {exc}"]
    if frozenset((min(u, v), max(u, v)) for u, v in tf.final_edges) != trace.final.edges:
        problems.append("final edge list does not match the replayed graph")
    if tf.target is not None:
        if not _is_cycle_graph(trace.final, tf.target):
            problems.append(f"final graph is not a {tf.target}-cycle")
    return not problems, problems


# ---------------------------------------------------------------------------
# DOT export (output only).

DOT_STATE_CAP = 20_000  # desk scale: larger recolouring graphs are unreadable


def graph_to_dot(g: Graph, name: str = "g") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for (u, v) in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def col_graph_to_dot(g: Graph, params: CircularParams) -> str:
    """The recolouring graph itself, nodes labelled by colour vectors.

    Raises ``BudgetExceededError`` past ``DOT_STATE_CAP`` proper states.
    """
    p, q = params.p, params.q
    blocks, count = [np.zeros((0, g.n), dtype=np.int16)], 0
    for block in kernels.state_blocks(g, p, q):  # stop at the cap, not after
        count += block.shape[0]
        if count > DOT_STATE_CAP:
            raise kernels.BudgetExceededError(
                f"more than {DOT_STATE_CAP} proper states")
        blocks.append(block)
    states = np.concatenate(blocks)
    codes = kernels.state_codes(states, p)
    source, target = kernels.moves(states, codes, g, p, q,
                                   np.arange(states.shape[0]))
    order = np.argsort(source, kind="stable")
    source, target = source[order], target[order]
    keep = target > source
    lines = ["graph col {"]
    for i, row in enumerate(states.tolist()):
        label = "".join(str(c) for c in row)
        lines.append(f'  s{i} [label="{label}"];')
    for i, j in zip(source[keep].tolist(), target[keep].tolist()):
        lines.append(f"  s{i} -- s{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
