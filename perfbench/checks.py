"""Reference checks that use only the benchmark's own arithmetic.

Nothing here imports circmix: a graph is ``(n, edges)`` with ``edges`` a
list of ``(u, v)`` pairs, a colouring is a tuple of colours, and every
certificate is re-derived from those plain values.  The file formats parsed
here are the documented line formats of witness and fold-trace files.
"""

from __future__ import annotations

from fractions import Fraction


class Wrong(Exception):
    """The program gave an answer that the reference rejects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def adjacency(n: int, edges) -> list:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def proper(colours, edges, p: int, q: int) -> bool:
    """Adjacent colours are at circular distance at least q."""
    return all(min((colours[u] - colours[v]) % p, (colours[v] - colours[u]) % p) >= q
               for u, v in edges)


def check_split_pair(pair, edges, p: int, q: int) -> None:
    """An oracle NOT-MIXING answer names two proper, distinct colourings."""
    expect(pair is not None and len(pair) == 2, "not-mixing verdict without a split pair")
    a, b = (tuple(f.colours) for f in pair)
    expect(a != b, "split pair repeats one colouring")
    expect(proper(a, edges, p, q) and proper(b, edges, p, q), "split pair is improper")


def check_witness(n: int, edges, p: int, colours, cycle, weight, required,
                  q: int) -> None:
    """A wrapped-cycle witness: proper colouring, a cycle of the graph, and
    a directed weight that misses (|C|/2) * p."""
    adj = adjacency(n, edges)
    expect(len(colours) == n, "witness colouring does not cover the graph")
    expect(proper(colours, edges, p, q), "witness colouring is improper")
    k = len(cycle)
    expect(k >= 3 and len(set(cycle)) == k, "witness cycle is not simple")
    closed = list(zip(cycle, cycle[1:] + cycle[:1]))
    expect(all(b in adj[a] for a, b in closed), "witness cycle is not in the graph")
    total = sum((colours[b] - colours[a]) % p for a, b in closed)
    expect(total == weight, f"witness weight {weight} but recomputed {total}")
    expect(Fraction(required) == Fraction(k * p, 2), "witness required value is wrong")
    expect(total != Fraction(k * p, 2), "witness cycle is not wrapped")


def check_path(path, start, end, edges, p: int, q: int) -> None:
    """Every step of a reach path recolours exactly one vertex and stays proper."""
    expect(bool(path), "reachable answer without a path")
    expect(path[0] == start and path[-1] == end, "path does not join the pair")
    for a, b in zip(path, path[1:]):
        expect(sum(x != y for x, y in zip(a, b)) == 1, "path step changes != 1 vertex")
    expect(all(proper(c, edges, p, q) for c in path), "path visits an improper colouring")


def fold_once(n: int, edges, x: int, y: int):
    """Identify x and y (at distance exactly 2) into min(x, y), splicing out
    max(x, y) so labels stay dense."""
    adj = adjacency(n, edges)
    expect(0 <= x < n and 0 <= y < n and x != y, f"fold ({x},{y}) out of range")
    expect(y not in adj[x] and adj[x] & adj[y], f"fold ({x},{y}) not at distance 2")
    kept, gone = min(x, y), max(x, y)
    relabel = lambda v: kept if v == gone else (v - 1 if v > gone else v)
    folded = {tuple(sorted((relabel(u), relabel(v)))) for u, v in edges}
    return n - 1, sorted(folded)


def is_cycle_graph(n: int, edges, length: int) -> bool:
    if n != length or len(edges) != length:
        return False
    adj = adjacency(n, edges)
    if any(len(a) != 2 for a in adj):
        return False
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def induced(edges, vertices):
    """Induced subgraph on ``vertices``, relabelled in ascending order."""
    index = {v: i for i, v in enumerate(sorted(vertices))}
    return len(index), [(index[u], index[v]) for u, v in edges
                        if u in index and v in index]


def check_fold_steps(n: int, edges, steps, target: int) -> None:
    """Replay (kept, merged) folds and require the C_target cycle at the end."""
    for x, y in steps:
        n, edges = fold_once(n, edges, x, y)
    expect(is_cycle_graph(n, edges, target), f"fold trace does not end on C_{target}")


# ---------------------------------------------------------------------------
# Certificate files, parsed from their documented line formats.


def _content(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_witness_text(text: str) -> dict:
    lines = list(_content(text))
    expect(bool(lines) and lines[0] == "witness", "certificate is not a witness")
    fields, colours, block = {}, {}, False
    for line in lines[1:]:
        if block:
            if line == "end":
                block = False
            else:
                for tok in line.split():
                    v, c = tok.split("=")
                    colours[int(v)] = int(c)
        elif line == "colouring:":
            block = True
        else:
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
    return {"p": int(fields["p"]), "q": int(fields["q"]),
            "colours": tuple(colours[v] for v in sorted(colours)),
            "cycle": [int(x) for x in fields["cycle"].split()],
            "weight": int(fields["weight"]), "required": Fraction(fields["required"])}


def parse_fold_trace_text(text: str) -> dict:
    lines = list(_content(text))
    expect(bool(lines) and lines[0] == "fold-trace", "certificate is not a fold trace")
    out = {"component": None, "target": None, "steps": []}
    for line in lines[1:]:
        if line == "final:":
            break
        if line.startswith("component:"):
            out["component"] = [int(x) for x in line.split(":", 1)[1].split()]
        elif line.startswith("target:"):
            out["target"] = int(line.split(":", 1)[1])
        elif line.startswith("fold "):
            _, a, b = line.split()
            out["steps"].append((int(a), int(b)))
    return out
