"""Plain-text line formats: graph documents, colourings, witnesses, fold
traces, mixing bases, and DOT export.

Everything is line-oriented and human-auditable; certificates must be
checkable by eye and by independent tooling.  ``#`` starts a comment.
``_read`` is the one loop over content lines: every format parses through
it, so a malformed line is always a ``ParseError`` that names its line.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import kernels
from .circular import CircularParams, Colouring
from .fold import FoldTrace, _is_cycle_graph, replay_trace
from .graphs import Cycle, Graph, build_graph, induced_subgraph
from .kernels import np
from .planar import RotationSystem, _check_ring
from .reconfig import (MixingBasis, NonMixingWitness, verify_mixing_basis,
                       verify_witness)


class ParseError(ValueError):
    pass


@dataclass
class GraphDocument:
    graph: Graph
    rotation: Optional[RotationSystem] = None
    colourings: dict = field(default_factory=dict)  # name -> colour tuple


def _content_lines(text: str):
    """(line number, line) for each line left once ``#`` comments and
    blank lines are dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read(text: str, handle) -> str:
    """The one loop over content lines (``_content_lines``); returns the
    first of them, or "" when there is none.

    ``handle(lineno, line)`` parses one line and returns the handler for the
    lines after it, or None to keep itself.  A ``ParseError`` it raises is a
    whole-file message and passes through; a ``ValueError``, ``IndexError``
    or ``ZeroDivisionError`` is the line's fault and becomes
    ``ParseError("line N: cannot parse ...")``.
    """
    first = ""
    for lineno, line in _content_lines(text):
        first = first or line
        try:
            handle = handle(lineno, line) or handle
        except ParseError:
            raise
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: cannot parse {line!r}") from exc
    return first


def _read_headed(text: str, header: str, handle) -> None:
    """``_read`` for a file whose first content line must be ``header``."""
    def first(_, line):
        if line != header:
            raise ParseError(f"not a {header} file")
        return handle
    if not _read(text, first):
        raise ParseError(f"not a {header} file")


def _colours(into: dict, back=None):
    """Handler reading ``v=c`` entries into ``into``, refusing a second
    entry for one vertex; with ``back``, a line ``end`` closes the block and
    hands the next line to ``back``."""
    def entries(_, line):
        if back is not None and line == "end":
            return back
        for tok in line.split():
            v, c = tok.split("=")
            if int(v) in into:
                raise ValueError("a second entry for one vertex")
            into[int(v)] = int(c)
    return entries


@contextmanager
def _at_line(lineno: int):
    """Name line ``lineno`` in a ``ValueError`` raised inside the block."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _ints(value: str) -> tuple:
    return tuple(int(x) for x in value.split())


def parse_graph_document(text: str) -> GraphDocument:
    n = outer = None
    edges, rotations, colourings = [], {}, {}  # edge and rotation lines keep their numbers

    def directive(lineno, line):
        nonlocal n, outer
        if line.startswith("n "):
            _, count = line.split()
            if n is not None or int(count) < 0:
                raise ValueError("a second or negative vertex count")
            n = int(count)
        elif line.startswith("edge "):
            _, u, v = line.split()
            edges.append((lineno, (int(u), int(v))))
        elif line.startswith("rotation "):
            head, ring = line.split(":", 1)
            _, v = head.split()
            if int(v) in rotations:
                raise ValueError("a second rotation of one vertex")
            rotations[int(v)] = (lineno, _ints(ring))
        elif line.startswith("outer:"):
            # the upper bound needs the face count, so planar checks it
            if outer is not None or int(line.split(":", 1)[1]) < 0:
                raise ValueError("a second or negative outer face")
            outer = int(line.split(":", 1)[1])
        elif line.startswith("colouring "):
            name = line.split(None, 1)[1].rstrip(":")
            if name in colourings:
                raise ValueError("a second colouring of one name")
            colourings[name] = {}
            return _colours(colourings[name], back=directive)
        else:
            raise ValueError("unrecognized directive")

    _read(text, directive)
    if n is None:
        raise ParseError("graph document missing an 'n <count>' line")
    # n may follow the edges and rotations, and the rings need every edge,
    # so a line these refuse is named only now
    try:
        graph = build_graph(n, [e for _, e in edges])
    except ValueError:
        for lineno, e in edges:
            with _at_line(lineno):
                build_graph(n, [e])
        raise
    for v, (lineno, ring) in rotations.items():
        with _at_line(lineno):
            if not 0 <= v < n:
                raise ValueError(f"rotation of vertex {v} outside 0..{n - 1}")
            _check_ring(v, ring, graph.adjacency[v])
    rotation = None
    if rotations:
        missing = [v for v in range(n) if graph.adjacency[v] and v not in rotations]
        if missing:
            raise ParseError(f"rotation lines missing for vertices {missing}")
        rotation = RotationSystem(
            rotation=tuple(rotations[v][1] if v in rotations else () for v in range(n)),
            outer=outer)
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
    _read(text, _colours(mapping))
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


_WITNESS_FIELDS = {"p": int, "q": int, "weight": int, "required": Fraction,
                   "cycle": lambda value: Cycle(_ints(value))}


def parse_witness(text: str, base_dir: str = ".") -> NonMixingWitness:
    fields, colour_map = {}, {}

    def entry(_, line):
        if line == "colouring:":
            return _colours(colour_map, back=entry)
        key, value = (part.strip() for part in line.split(":", 1))
        if key in fields:
            raise ValueError("a second copy of one field")
        fields[key] = _WITNESS_FIELDS.get(key, str)(value)

    _read_headed(text, "witness", entry)
    for key in ("graph", "p", "q", "cycle", "weight", "required"):
        if key not in fields:
            raise ParseError(f"witness missing field {key!r}")
    doc = load_graph_document(os.path.join(base_dir, fields["graph"]))
    params = CircularParams(fields["p"], fields["q"])
    return NonMixingWitness(colouring=bind_colouring(colour_map, doc.graph, params),
                            cycle=fields["cycle"], weight=fields["weight"],
                            required=fields["required"])


# ---------------------------------------------------------------------------
# Mixing-basis files: the cycles behind a wind MIXING answer with no scan.


def serialize_mixing_basis(b: MixingBasis, graph_ref: str) -> str:
    out = ["mixing-basis", f"graph: {graph_ref}", f"p: {b.p}", f"q: {b.q}"]
    out.extend("cycle: " + " ".join(str(v) for v in c.vertices) for c in b.cycles)
    return "\n".join(out) + "\n"


_BASIS_FIELDS = {"p": int, "q": int}


def parse_mixing_basis(text: str, base_dir: str = ".") -> MixingBasis:
    fields, cycles = {}, []

    def entry(_, line):
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "cycle":
            cycles.append(Cycle(_ints(value)))
        elif key in fields:
            raise ValueError("a second copy of one field")
        else:
            fields[key] = _BASIS_FIELDS.get(key, str)(value)

    _read_headed(text, "mixing-basis", entry)
    for key in ("graph", "p", "q"):
        if key not in fields:
            raise ParseError(f"mixing basis missing field {key!r}")
    doc = load_graph_document(os.path.join(base_dir, fields["graph"]))
    return MixingBasis(graph=doc.graph, p=fields["p"], q=fields["q"],
                       cycles=tuple(cycles))


# ---------------------------------------------------------------------------
# Fold trace files.


def serialize_fold_trace(trace: FoldTrace, graph_ref: str, component=None) -> str:
    """The trace as text; its ``target:`` is the cycle length it ends on."""
    out = ["fold-trace", f"graph: {graph_ref}"]
    if component is not None:
        out.append("component: " + " ".join(str(v) for v in component))
    out.append(f"target: {trace.final.n}")
    for step in trace.steps:
        out.append(f"fold {step.kept} {step.merged}")
    out.append("final:")
    out.extend(f"{u} {v}" for (u, v) in sorted(trace.final.edges))
    out.append("end")
    return "\n".join(out) + "\n"


_TRACE_FIELDS = {"graph": str.strip, "component": _ints, "target": int}


def verify_fold_trace_file(text: str, base_dir: str = "."):
    """Parse a fold trace and replay it against its referenced graph;
    returns (ok, problems).  The trace must name the cycle it ends on."""
    fields = {}
    steps, final_edges = [], []

    def entry(_, line):
        key, colon, value = line.partition(":")
        if colon and key in _TRACE_FIELDS:
            if key in fields:
                raise ValueError("a second copy of one field")
            fields[key] = _TRACE_FIELDS[key](value)
        elif line.startswith("fold "):
            _, a, b = line.split()
            steps.append((int(a), int(b)))
        elif line == "final:":
            return final
        else:
            raise ValueError("unrecognized trace line")

    def final(_, line):
        if line == "end":
            return entry
        u, v = line.split()
        final_edges.append((int(u), int(v)))

    _read_headed(text, "fold-trace", entry)
    if "graph" not in fields:
        raise ParseError("fold trace missing its graph reference")
    if "target" not in fields:
        raise ParseError("fold trace missing its target cycle length")
    source = load_graph_document(os.path.join(base_dir, fields["graph"])).graph
    if "component" in fields:
        source, _ = induced_subgraph(source, fields["component"])
    try:
        trace = replay_trace(source, steps)
    except ValueError as exc:
        return False, [f"replay failed: {exc}"]
    problems = []
    if frozenset((min(u, v), max(u, v)) for u, v in final_edges) != trace.final.edges:
        problems.append("final edge list does not match the replayed graph")
    if not _is_cycle_graph(trace.final, fields["target"]):
        problems.append(f"final graph is not a {fields['target']}-cycle")
    return not problems, problems


def verify_certificate(path: str) -> tuple:
    """Re-check the witness, fold trace or mixing basis at ``path`` from
    scratch, chosen by its first line; returns (ok, "PASS" or
    "FAIL: <checks that failed>")."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    base = os.path.dirname(os.path.abspath(path))
    header = _read(text, lambda _, line: None)
    if header == "fold-trace":
        ok, problems = verify_fold_trace_file(text, base_dir=base)
        return ok, "PASS" if ok else "FAIL: " + "; ".join(problems)
    if header == "witness":
        ok, failures = verify_witness(parse_witness(text, base_dir=base))
    elif header == "mixing-basis":
        ok, failures = verify_mixing_basis(parse_mixing_basis(text, base_dir=base))
    else:
        raise ParseError("file is not a witness, a fold trace or a mixing basis")
    return ok, "PASS" if ok else "FAIL: " + ", ".join(failures)


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
    compat, domain = kernels.compat_table(p, q), np.ones((g.n, p), dtype=bool)
    for block in kernels.state_blocks(g, compat, domain):  # stop at the cap, not after
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
