"""Graphs the benchmark generates itself, and the reference verdicts it holds.

A graph is ``(n, edges)``; grids also carry coordinates so that rotation
systems come from geometry (neighbours sorted counterclockwise), never from
the program under test.

Verdict codes: ``M`` mixing, ``N`` not-mixing, ``V`` vacuous (no proper
colouring), ``.`` not run.  Where they come from:

* even cycles C_2r at (2k+1, k) mix iff r <= 2k, and the minimal non-mixing
  even cycle at (7,2) is C_6 (the paper's cycle results);
* odd cycles never mix for 2 < p/q < 4 (an odd cycle is always wrapped) and
  have no colouring at p/q = 2; a connected bipartite graph at p/q = 2 is
  frozen (every colouring is isolated), so it does not mix;
* everything else is where oracle, wind, planar and fold agree: every row
  was checked by every method that is defined for it before it was written
  down here, and the benchmark checks each answer against the row.
"""

from __future__ import annotations

import math

PARAMS = ((3, 1), (5, 2), (7, 2), (7, 3), (4, 2), (6, 3), (9, 2))

# instance -> one verdict code per entry of PARAMS
ORACLE_VERDICTS = {
    "C6": "NMNMNNM",
    "C7": "NNNNVVM",
    "C8": "NMNMNN.",
    "C9": "NNNNVV.",
    "C10": "NN.MNN.",
    "C12": "NN.M...",
    "grid2x4": "MMMMNN.",
    "grid2x5": "MMMMNN.",
    "grid3x3": "MMMMNN.",
    "cube": "MMMMNN.",
    "theta2-2-4": "NMNMNNM",
    "theta3-3-5": "NM.MNN.",
}

# (instance, p, q) -> verdict of the wind decider at the default budget;
# "B" marks an instance whose state table exceeds the default budget today:
# a budget stop is its correct answer, and so is a verified NOT-MIXING.
WIND_VERDICTS = {
    ("grid3x4", 7, 2): "M", ("grid2x6", 7, 2): "M", ("C12", 7, 2): "B",
    ("C10", 7, 2): "N", ("theta3-3-5", 7, 2): "N", ("theta4-4-4", 7, 2): "N",
    ("C8", 7, 2): "N", ("theta2-2-4", 7, 2): "N", ("C10", 5, 2): "N",
    ("C12", 5, 2): "N", ("C14", 5, 2): "N", ("C16", 5, 2): "N",
    ("C9", 7, 2): "N", ("C11", 5, 2): "N", ("C7", 7, 3): "N",
    ("grid2x5", 7, 2): "M", ("grid3x3", 7, 2): "M", ("cube", 7, 2): "M",
    ("grid2x4", 7, 2): "M", ("C8", 5, 2): "M", ("C6", 5, 2): "M",
    ("theta3-3-5", 5, 2): "M", ("theta3-5-5", 5, 2): "M",
}

# instance -> (fold verdict at k=1, fold verdict at k=2, mixing threshold k);
# the threshold is the least k with the graph C_{2k+1}-mixing.
FOLD_VERDICTS = {
    "C6": ("N", "M", 2), "C8": ("N", "M", 2), "C10": ("N", "N", 3),
    "C12": ("N", "N", 3), "C14": ("N", "N", 4),
    "theta2-2-4": ("N", "M", 2), "theta2-4-4": ("N", "M", 2),
    "theta3-3-5": ("N", "M", 2), "theta4-4-4": ("N", "M", 2),
    "grid2x3": ("M", "M", 1), "grid2x4": ("M", "M", 1), "grid3x3": ("M", "M", 1),
    "cube": ("M", "M", 1), "c4-pinch": ("M", "M", 1),
    "grid3x4": ("M", "M", 1), "grid2x6": ("M", "M", 1),
    "pinched-octagon": ("N", "M", 2),
}

PINCHED_OCTAGON_EDGES = ([(i, (i + 1) % 8) for i in range(8)]
                         + [(8, 0), (8, 2), (8, 4), (8, 6)]
                         + [(0, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 4)])


def cycle(n: int):
    return n, [(i, (i + 1) % n) for i in range(n)]


def grid(rows: int, cols: int):
    """Grid graph plus coordinates: vertex r*cols + c sits at (c, -r)."""
    vid = lambda r, c: r * cols + c
    edges = [(vid(r, c), vid(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(vid(r, c), vid(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    pos = {vid(r, c): (c, -r) for r in range(rows) for c in range(cols)}
    return rows * cols, edges, pos


def theta(a: int, b: int, c: int):
    """Hubs 0 and 1 joined by internally disjoint paths of lengths a, b, c."""
    edges, nxt = [], 2
    for length in (a, b, c):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, 1))
    return nxt, edges


def graph(name: str):
    """(n, edges) for a catalogue name such as C10, grid3x4 or theta3-3-5."""
    if name.startswith("C"):
        return cycle(int(name[1:]))
    if name.startswith("grid"):
        rows, cols = name[4:].split("x")
        n, edges, _ = grid(int(rows), int(cols))
        return n, edges
    if name.startswith("theta"):
        return theta(*(int(x) for x in name[5:].split("-")))
    if name == "cube":
        edges = [(i, (i + 1) % 4) for i in range(4)]
        edges += [(4 + i, 4 + (i + 1) % 4) for i in range(4)] + [(i, i + 4) for i in range(4)]
        return 8, edges
    if name == "c4-pinch":
        return 6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4), (0, 5), (2, 5)]
    if name == "pinched-octagon":
        return 14, list(PINCHED_OCTAGON_EDGES)
    raise KeyError(name)


def rotation_from_positions(n: int, edges, pos) -> list:
    """Counterclockwise neighbour order at every vertex, ties by label."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def angle(v, w):
        return math.degrees(math.atan2(pos[w][1] - pos[v][1], pos[w][0] - pos[v][0])) % 360

    return [sorted(nbrs[v], key=lambda w: (angle(v, w), w)) for v in range(n)]


def delete_grid_edges(rows: int, cols: int, interior: int, boundary: int, rng):
    """Grid minus ``interior`` interior edges and ``boundary`` outer edges,
    chosen so no two deleted edges touch a common unit square or vertex.

    Each interior deletion merges two unit squares into a 6-face; each
    boundary deletion opens one square into the outer face.  The graph stays
    2-connected with no separating 4-cycle, so by the face criterion at
    3 <= p/q < 4 it mixes iff it has at most one face of length >= 6, that is
    iff ``interior == 0``.  Returns (n, edges, pos, expected verdict code).
    """
    n, edges, pos = grid(rows, cols)
    rc = lambda v: divmod(v, cols)

    def touching_squares(e):
        out = set()
        for v in e:
            r, c = rc(v)
            out |= {(r + dr, c + dc) for dr in (-1, 0) for dc in (-1, 0)
                    if 0 <= r + dr < rows - 1 and 0 <= c + dc < cols - 1}
        return out

    def on_boundary(e):
        (r1, c1), (r2, c2) = rc(e[0]), rc(e[1])
        return (r1 == r2 and r1 in (0, rows - 1)) or (c1 == c2 and c1 in (0, cols - 1))

    def at_corner(e):
        return any(rc(v)[0] in (0, rows - 1) and rc(v)[1] in (0, cols - 1) for v in e)

    inner = [e for e in edges if not on_boundary(e)]
    outer = [e for e in edges if on_boundary(e) and not at_corner(e)]
    blocked, chosen = set(), []
    for pool, want in ((inner, interior), (outer, boundary)):
        pool = pool[:]
        rng.shuffle(pool)
        picked = 0
        for e in pool:
            if picked == want:
                break
            if touching_squares(e) & blocked:
                continue
            blocked |= touching_squares(e)
            chosen.append(e)
            picked += 1
        if picked != want:
            raise ValueError(f"grid {rows}x{cols} has no room for {want} deletions")
    kept = [e for e in edges if e not in set(chosen)]
    return n, kept, pos, ("M" if interior == 0 else "N")
