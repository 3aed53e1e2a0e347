"""The four workloads: inputs generated from a seed, answers checked against
the reference in ``catalogue`` with the arithmetic in ``checks``.

Each workload has three task lists:

* ``ladder``: heavy tasks run once per run, at the start of the timed phase.
  They set the workload's memory peak.  Their labelling is fixed so their
  cost does not depend on the seed.
* ``rounds``: ``VARIANTS`` (wind-scan: ``WIND_VARIANTS``) task lists of the
  same instance classes, each with its own seeded inputs (relabelled graphs,
  drawn colourings, deleted edges).  Round r runs variant r mod their number
  in a seeded order, until the run's seconds are used up, so a run averages
  over many draws.
* ``cli``: ``circmix`` command lines, run one at a time as subprocesses, one
  after each round, cycling through the list.

``warm`` holds a few round tasks and cache fills run once during set-up, so
first-call costs are not timed.

Task costs in a round spread over three or four decades, so the median of
a plain mix can sit where tasks are sparse and jump with every reordering
or noisy task.  Where that happens a workload repeats one steady mid-cost
class (``ORACLE_REPEAT``, ``WIND_REPEAT``, ``REACH_FIXED``) so that the
median falls inside it, and repeats its heaviest class often enough that
the tail percentile (at least ten tasks beyond it) falls inside that class
whatever the number of rounds.  These repeat counts are chosen to make the
median and tail steady, not taken from any measured traffic: on wind-scan
``verdict_s_p50`` is the time of one cube@(7,2) task and ``verdict_s_tail``
that of theta4-4-4@(7,2); ``tasks_per_s`` is the figure for the whole mix.

A task returns nothing and raises ``checks.Wrong`` when an answer is wrong;
any other exception is a failed operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from circmix import files, fold, planar, reconfig
from circmix.circular import CircularParams
from circmix.kernels import BudgetExceededError

import catalogue
import checks
from checks import expect

VARIANTS = 16
STATUS = {"M": "mixing", "N": "not-mixing", "V": "vacuous"}
EXIT = {"M": 0, "N": 1, "V": 2}


@dataclass
class Task:
    name: str
    run: Callable[[], None]


@dataclass
class CliTask:
    """One command line; ``check(exit_code, stdout)`` raises on a wrong answer.
    An exit code other than ``expected_exit`` (when given) fails the task."""

    name: str
    argv: list
    expected_exit: Optional[int]
    check: Optional[Callable[[int, str], None]] = None


@dataclass
class Workload:
    ladder: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    cli: list = field(default_factory=list)
    warm: list = field(default_factory=list)


@dataclass
class Instance:
    name: str
    path: Path
    n: int
    edges: list
    graph: object  # circmix Graph parsed from the generated file
    rotation: object = None


class Inputs:
    """Writes generated graph and colouring files into one directory and
    loads them through the program's own parsers."""

    def __init__(self, directory: Path, rng: random.Random):
        self.dir = directory
        self.rng = rng
        self.count = 0

    def _path(self, stem: str, suffix: str) -> Path:
        self.count += 1
        return self.dir / f"{stem}-{self.count}{suffix}"

    def graph(self, name: str, relabel: bool = False, n=None, edges=None,
              rotation=None) -> Instance:
        if edges is None:
            n, edges = catalogue.graph(name)
        if relabel:
            perm = list(range(n))
            self.rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in edges]
        edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        lines = [f"# {name}", f"n {n}"] + [f"edge {u} {v}" for u, v in edges]
        if rotation is not None:
            lines += [f"rotation {v}: " + " ".join(map(str, ring))
                      for v, ring in enumerate(rotation) if ring]
        path = self._path(name, ".txt")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = files.load_graph_document(str(path))
        return Instance(name, path, n, edges, doc.graph, doc.rotation)

    def colouring(self, inst: Instance, p: int, q: int):
        """A seeded proper colouring (randomised backtracking), written as a
        colouring file and bound through the program's parser."""
        adj = checks.adjacency(inst.n, inst.edges)
        colours = [None] * inst.n

        def extend(v):
            if v == inst.n:
                return True
            options = list(range(p))
            self.rng.shuffle(options)
            for c in options:
                if all(colours[u] is None or min((c - colours[u]) % p, (colours[u] - c) % p) >= q
                       for u in adj[v]):
                    colours[v] = c
                    if extend(v + 1):
                        return True
            colours[v] = None
            return False

        if not extend(0):
            raise ValueError(f"{inst.name} has no ({p},{q})-colouring")
        path = self._path(f"{inst.name}-col", ".col")
        path.write_text("".join(f"{v}={c}\n" for v, c in enumerate(colours)), encoding="utf-8")
        mapping = files.parse_colouring_file(path.read_text(encoding="utf-8"))
        return path, files.bind_colouring(mapping, inst.graph, CircularParams(p, q))


def _draw(rng: random.Random, options):
    return options[rng.randrange(len(options))]


# ---------------------------------------------------------------------------
# Shared checks on program answers.


def _check_oracle(inst: Instance, p: int, q: int, code: str) -> None:
    v = reconfig.is_mixing_oracle(inst.graph, CircularParams(p, q))
    expect(v.status == STATUS[code], f"{inst.name}@({p},{q}): {v.status}, expected {STATUS[code]}")
    if code == "N":
        checks.check_split_pair(v.split_pair, inst.edges, p, q)
        expect(v.component_count >= 2, "not-mixing with fewer than two components")
    elif code == "M":
        expect(v.component_count == 1, "mixing with more than one component")
    else:
        expect(v.state_count == 0, "vacuous verdict with proper states")


def _check_witness_file(inst: Instance, p: int, q: int, path: Path) -> None:
    w = checks.parse_witness_text(path.read_text(encoding="utf-8"))
    expect((w["p"], w["q"]) == (p, q), "witness names other parameters")
    checks.check_witness(inst.n, inst.edges, p, w["colours"], w["cycle"], w["weight"],
                         w["required"], q)


def _check_wind(inst: Instance, p: int, q: int, code: str, tmp: Path) -> None:
    try:
        v = reconfig.is_mixing_wind(inst.graph, CircularParams(p, q))
    except BudgetExceededError:
        expect(code == "B", f"{inst.name}@({p},{q}) stopped at the state budget")
        return
    want = "N" if code == "B" else code
    expect(v.status == STATUS[want], f"{inst.name}@({p},{q}): {v.status}")
    if v.status != "not-mixing":
        return
    # Round-trip the witness through its file format, then re-verify it twice:
    # with the program's verifier and with the benchmark's own arithmetic.
    path = tmp / f"{inst.path.stem}-{p}-{q}.wit"
    path.write_text(files.serialize_witness(v.witness, graph_ref=inst.path.name),
                    encoding="utf-8")
    parsed = files.parse_witness(path.read_text(encoding="utf-8"), base_dir=str(tmp))
    ok, failures = reconfig.verify_witness(parsed)
    expect(ok, f"witness fails the program's verifier: {failures}")
    _check_witness_file(inst, p, q, path)


def _check_fold(inst: Instance, k: int, code: str) -> None:
    mixing, payload = fold.odd_mixing_by_fold(inst.graph, k)
    expect(mixing == (code == "M"), f"{inst.name} fold k={k}: mixing={mixing}")
    if mixing:
        return
    component, trace = payload
    steps = [(s.kept, s.merged) for s in trace.steps]
    replayed = fold.replay_trace(trace.source, steps)
    expect(replayed.final == trace.final, "fold trace does not replay to its final graph")
    n, edges = checks.induced(inst.edges, component)
    checks.check_fold_steps(n, edges, steps, 4 * k + 2)


def _check_threshold(inst: Instance, k: int) -> None:
    res = fold.circular_mixing_threshold(inst.graph)
    expect(res.k == k, f"{inst.name} threshold {res.k}, expected {k}")


def _check_planar(inst: Instance, p: int, q: int, code: str) -> None:
    verdict, tree = planar.planar_mixing_decider(inst.graph, inst.rotation, CircularParams(p, q))
    expect(verdict.status == STATUS[code], f"{inst.name} planar@({p},{q}): {verdict.status}")
    expect(tree.mixing == (code == "M"), "decision tree disagrees with the verdict")


def _exit_and_verdict(code: str):
    def check(exit_code: int, out: str) -> None:
        first = out.splitlines()[0] if out else ""
        expect(first == STATUS[code].upper(), f"printed {first!r}")
    return check


def _mix_cli(inst: Instance, p: int, q: int, method: str, code: str,
             certificate: Optional[str] = None) -> CliTask:
    argv = ["mix", inst.path.name, "-p", str(p), "-q", str(q), "--method", method]
    if certificate:
        argv += ["--certificate", certificate]
    verdict = _exit_and_verdict(code)

    def check(exit_code, out):
        verdict(exit_code, out)
        if certificate and code == "N":
            cert = inst.path.parent / certificate
            expect(cert.is_file(), "no certificate written")
            if method == "fold":
                # the fold method decides p = 2q+1, i.e. k = q: the trace must end on C_{4q+2}
                t = checks.parse_fold_trace_text(cert.read_text(encoding="utf-8"))
                expect(t["target"] == 4 * q + 2, f"fold trace targets C_{t['target']}")
                n, edges = checks.induced(inst.edges, t["component"] or range(inst.n))
                checks.check_fold_steps(n, edges, t["steps"], 4 * q + 2)
            else:
                _check_witness_file(inst, p, q, cert)

    return CliTask(f"cli mix {method} {inst.name}@({p},{q})", argv, EXIT[code], check)


def _verify_cli(certificate: str) -> CliTask:
    def check(exit_code, out):
        expect(out.startswith("PASS"), f"verify printed {out.strip()!r}")
    return CliTask(f"cli verify {certificate}", ["verify", certificate], 0, check)


# ---------------------------------------------------------------------------
# oracle-mix: component labelling dominates task time, so this is where the
# fibre kernel shows its effect.

ORACLE_LADDER = [("grid2x5", 7, 2), ("C7", 9, 2), ("C9", 7, 2), ("theta2-2-4", 9, 2)]
ORACLE_SKIP = {("C8", 9, 2), ("C10", 7, 2), ("theta3-3-5", 7, 2)}
ORACLE_REPEAT = {("grid3x3", 7, 2): 2, ("theta2-2-4", 5, 2): 16}


def oracle_mix(inp: Inputs) -> Workload:
    wl = Workload()
    cases = [(name, p, q, codes[i]) for name, codes in catalogue.ORACLE_VERDICTS.items()
             for i, (p, q) in enumerate(catalogue.PARAMS) if codes[i] != "."]
    by_key = {(n, p, q): c for n, p, q, c in cases}
    for name, p, q in ORACLE_LADDER:
        inst = inp.graph(name)
        wl.ladder.append(Task(f"oracle {name}@({p},{q})",
                              lambda i=inst, p=p, q=q, c=by_key[(name, p, q)]: _check_oracle(i, p, q, c)))
    round_cases = [c for c in cases if c[:3] not in ORACLE_SKIP and c[:3] not in ORACLE_LADDER]
    for _ in range(VARIANTS):
        batch = []
        for name, p, q, code in round_cases:
            for _ in range(ORACLE_REPEAT.get((name, p, q), 1)):
                inst = inp.graph(name, relabel=True)
                batch.append(Task(f"oracle {name}@({p},{q})",
                                  lambda i=inst, p=p, q=q, c=code: _check_oracle(i, p, q, c)))
        wl.rounds.append(batch)
    # CLI: one case from each stratum.  The first stratum hits a known defect:
    # at p/q = 2 the oracle certificate comes from the wind decider, which
    # rejects p/q = 2, so the call prints NOT-MIXING and exits 4.
    small = [c for c in cases if (c[1], c[2]) in ((3, 1), (5, 2), (7, 3))]
    odd = lambda name: name[0] == "C" and int(name[1:]) % 2 == 1
    strata = [
        [c for c in cases if c[1] == 2 * c[2] and c[3] == "N"],
        [c for c in small if c[3] == "N" and not odd(c[0])],
        [c for c in small if c[3] == "M"],
        [("C6", 9, 2, "M")],
        [c for c in cases if c[3] == "V"],
        [c for c in small if c[3] == "N" and odd(c[0])],
    ]
    for i, stratum in enumerate(strata):
        name, p, q, code = _draw(inp.rng, stratum)
        inst = inp.graph(name, relabel=True)
        wl.cli.append(_mix_cli(inst, p, q, "oracle", code, certificate=f"oracle-{i}.wit"))
    wl.warm = _warm(wl, ("oracle C6@(5,2)", "oracle C8@(7,2)"))
    return wl


def _warm(wl: Workload, names) -> list:
    """Round tasks run once before timing, so first-call costs land in set-up."""
    return [next(t for t in wl.rounds[0] if t.name == name) for name in names]


# ---------------------------------------------------------------------------
# wind-scan: enumeration and memory dominate and no BFS runs, so this shows
# pinned and streamed enumeration (and nothing of the fibre kernel).

WIND_LADDER = [("grid3x4", 7, 2), ("C12", 7, 2), ("grid2x6", 7, 2)]
# Relabelling changes the partial-state counts of the enumeration; only
# tables of at most ~70k states are relabelled, so no instance nears the
# default budget.
WIND_RELABEL = {("C10", 5, 2), ("C12", 5, 2), ("C14", 5, 2), ("C16", 5, 2), ("C8", 7, 2),
                ("theta2-2-4", 7, 2), ("C9", 7, 2), ("C11", 5, 2), ("C7", 7, 3),
                ("cube", 7, 2), ("grid2x4", 7, 2), ("C8", 5, 2), ("C6", 5, 2),
                ("theta3-3-5", 5, 2), ("theta3-5-5", 5, 2)}
WIND_REPEAT = {("theta4-4-4", 7, 2): 2, ("cube", 7, 2): 10}
# Not-mixing wind tasks write witness files all through the run, which makes
# creating input files slow and uneven; fewer variants keep set-up small.
WIND_VARIANTS = 4


def wind_scan(inp: Inputs) -> Workload:
    wl = Workload()
    check = lambda i, p, q, c: (lambda: _check_wind(i, p, q, c, inp.dir))
    fixed = {}
    for (name, p, q), code in catalogue.WIND_VERDICTS.items():
        if (name, p, q) in WIND_LADDER:
            wl.ladder.append(Task(f"wind {name}@({p},{q})", check(inp.graph(name), p, q, code)))
        elif (name, p, q) not in WIND_RELABEL:
            fixed[(name, p, q)] = inp.graph(name)
    for _ in range(WIND_VARIANTS):
        batch = []
        for (name, p, q), code in catalogue.WIND_VERDICTS.items():
            if (name, p, q) in WIND_LADDER:
                continue
            for _ in range(WIND_REPEAT.get((name, p, q), 1)):
                inst = fixed.get((name, p, q)) or inp.graph(name, relabel=True)
                batch.append(Task(f"wind {name}@({p},{q})", check(inst, p, q, code)))
        wl.rounds.append(batch)
    small_not = [("C10", 5, 2), ("C12", 5, 2), ("C14", 5, 2), ("C8", 7, 2), ("theta2-2-4", 7, 2)]
    small_mix = [("C8", 5, 2), ("theta3-3-5", 5, 2), ("cube", 7, 2), ("grid2x4", 7, 2)]
    odd = [("C9", 7, 2), ("C11", 5, 2), ("C7", 7, 3)]
    for i, pool in enumerate((small_not, small_not)):
        name, p, q = _draw(inp.rng, pool)
        inst = inp.graph(name, relabel=True)
        wl.cli.append(_mix_cli(inst, p, q, "wind", "N", certificate=f"wind-{i}.wit"))
        wl.cli.append(_verify_cli(f"wind-{i}.wit"))
    for pool, code in ((small_mix, "M"), (odd, "N")):
        name, p, q = _draw(inp.rng, pool)
        inst = inp.graph(name, relabel=True)
        wl.cli.append(_mix_cli(inst, p, q, "wind", code, certificate="wind-x.wit"))
    wl.warm = _warm(wl, ("wind C10@(5,2)", "wind C8@(5,2)"))
    return wl


# ---------------------------------------------------------------------------
# reach-query: the same bfs_tree kernel from one source with an early stop
# and a parent tree, so a kernel that speeds up full labelling but builds
# costly structures up front shows its cost here.

REACH_INSTANCES = [("C10", 5, 2), ("C8", 5, 2), ("C6", 7, 2), ("C8", 7, 2),
                   ("theta2-2-4", 7, 2), ("grid2x4", 7, 2), ("cube", 7, 2)]
REACH_PAIRS = 2  # seeded colouring pairs per instance in each round variant
# fixed-set queries per round on each instance; the mixing C8 at (5,2) has
# one component, so its queries cost the same for every colouring
REACH_FIXED = {("C8", 5, 2): 10}


def _check_reach(inst: Instance, f, g) -> None:
    p, q = f.params.p, f.params.q
    ok, path = reconfig.is_reachable_oracle(f, g)
    by_signature = reconfig.is_reachable_characterized(f, g)
    expect(ok == by_signature, f"{inst.name}: oracle says {ok}, characterization {by_signature}")
    if ok:
        checks.check_path([tuple(x.colours) for x in path], tuple(f.colours),
                          tuple(g.colours), inst.edges, p, q)
    else:
        expect(path is None, "unreachable answer with a path")


def _check_fixed(inst: Instance, f) -> None:
    by_search = reconfig.fixed_vertices(f, method="oracle").fixed
    by_digraph = reconfig.fixed_vertices(f).fixed
    expect(by_search == by_digraph, f"{inst.name}: fixed sets differ")


def reach_query(inp: Inputs) -> Workload:
    wl = Workload()
    instances = [(inp.graph(name), p, q) for name, p, q in REACH_INSTANCES]
    for _ in range(VARIANTS):
        batch = []
        for inst, p, q in instances:
            for _ in range(REACH_PAIRS):
                (_, f), (_, g) = inp.colouring(inst, p, q), inp.colouring(inst, p, q)
                batch.append(Task(f"reach {inst.name}@({p},{q})",
                                  lambda i=inst, f=f, g=g: _check_reach(i, f, g)))
            for _ in range(REACH_FIXED.get((inst.name, p, q), 1)):
                _, f = inp.colouring(inst, p, q)
                batch.append(Task(f"fixed {inst.name}@({p},{q})",
                                  lambda i=inst, f=f: _check_fixed(i, f)))
        wl.rounds.append(batch)
    cheap = [c for c in instances if c[0].name in ("C10", "C8", "theta2-2-4", "C6")
             and (c[0].name, c[1], c[2]) != ("C8", 7, 2)]
    for inst, p, q in inp.rng.sample(cheap, 3):
        (fpath, f), (gpath, g) = inp.colouring(inst, p, q), inp.colouring(inst, p, q)
        answers = {}
        for method in ("oracle", "characterized"):
            argv = ["reach", inst.path.name, "-p", str(p), "-q", str(q),
                    "--from", fpath.name, "--to", gpath.name, "--method", method]
            wl.cli.append(CliTask(f"cli reach {method} {inst.name}@({p},{q})", argv, None,
                                  _reach_cli_check(inst, f, g, method, answers)))
    wl.warm = _warm(wl, ("reach C10@(5,2)", "fixed C10@(5,2)"))
    return wl


def _reach_cli_check(inst: Instance, f, g, method: str, answers: dict):
    p, q = f.params.p, f.params.q

    def check(exit_code, out):
        lines = out.splitlines()
        expect(exit_code in (0, 1), f"reach exited {exit_code}")
        expect(lines[:1] == [("REACHABLE", "UNREACHABLE")[exit_code]], "verdict line does not match exit")
        answers[method] = exit_code
        if method == "oracle" and exit_code == 0:
            path = [tuple(f.colours)]
            for line in lines[2:]:
                _, v, _, c = line.split()
                step = list(path[-1])
                step[int(v)] = int(c)
                path.append(tuple(step))
            checks.check_path(path, tuple(f.colours), tuple(g.colours), inst.edges, p, q)
        if len(answers) == 2:
            expect(answers["oracle"] == answers["characterized"], "CLI reach methods disagree")
    return check


# ---------------------------------------------------------------------------
# structural: fold and planar deciders, no state enumeration.  The
# canonical_key / distance closure search dominates, so kernel changes should
# show no change here; fold de-duplication shows its effect here.

FOLD_ROUND = ["C6", "C8", "C10", "C12", "C14", "theta2-2-4", "theta2-4-4", "theta3-3-5",
              "theta4-4-4", "grid2x3", "grid2x4", "grid3x3", "cube", "c4-pinch"]
PLANAR_FULL = [4, 5, 6, 7, 8, 9, 10]  # square grids, each at (7,2) and (3,1)
PLANAR_DELETED = 4  # seeded edge-deleted 10x10 grids per round variant


def _planar_instance(inp: Inputs, rows: int, cols: int, interior=0, boundary=0):
    if interior or boundary:
        n, edges, pos, code = catalogue.delete_grid_edges(rows, cols, interior, boundary, inp.rng)
        name = f"grid{rows}x{cols}-minus{interior}+{boundary}"
    else:
        n, edges, pos = catalogue.grid(rows, cols)
        code, name = "M", f"grid{rows}x{cols}"
    rotation = catalogue.rotation_from_positions(n, edges, pos)
    return inp.graph(name, n=n, edges=edges, rotation=rotation), code


def structural(inp: Inputs) -> Workload:
    wl = Workload()
    heavy = inp.graph("grid3x4")
    wl.ladder.append(Task("threshold grid3x4", lambda: _check_threshold(heavy, 1)))
    for name, k in (("pinched-octagon", 2), ("grid2x6", 1)):
        inst = inp.graph(name)
        code = catalogue.FOLD_VERDICTS[name][k - 1]
        wl.ladder.append(Task(f"fold {name} k={k}", lambda i=inst, k=k, c=code: _check_fold(i, k, c)))
    full = [_planar_instance(inp, size, size) for size in PLANAR_FULL]
    for _ in range(VARIANTS):
        batch = []
        for name in FOLD_ROUND:
            inst = inp.graph(name, relabel=True)
            k1, k2, threshold = catalogue.FOLD_VERDICTS[name]
            batch.append(Task(f"fold {name} k=1", lambda i=inst, c=k1: _check_fold(i, 1, c)))
            batch.append(Task(f"fold {name} k=2", lambda i=inst, c=k2: _check_fold(i, 2, c)))
            batch.append(Task(f"threshold {name}", lambda i=inst, t=threshold: _check_threshold(i, t)))
        cases = [(inst, code, p, q) for inst, code in full for p, q in ((7, 2), (3, 1))]
        for _ in range(PLANAR_DELETED):
            inst, code = _planar_instance(inp, 10, 10, inp.rng.randrange(3), inp.rng.randrange(3))
            cases.append((inst, code) + _draw(inp.rng, [(7, 2), (3, 1)]))
        for inst, code, p, q in cases:
            batch.append(Task(f"planar {inst.name}@({p},{q})",
                              lambda i=inst, p=p, q=q, c=code: _check_planar(i, p, q, c)))
        wl.rounds.append(batch)
    grid_inst, _ = _planar_instance(inp, 6, 6)
    cut_inst, cut_code = _planar_instance(inp, 6, 6, 1 + inp.rng.randrange(2), inp.rng.randrange(2))
    cyc = inp.graph(_draw(inp.rng, ["C6", "C8", "C10", "C12"]))
    theta = inp.graph(_draw(inp.rng, ["theta2-2-4", "theta3-3-5", "theta4-4-4"]))
    wl.cli += [
        _mix_cli(grid_inst, 7, 2, "planar", "M"),
        _mix_cli(cut_inst, 3, 1, "planar", cut_code),
        _mix_cli(cyc, 3, 1, "fold", "N", certificate="fold.trace"),
        _verify_cli("fold.trace"),
        CliTask(f"cli threshold {cyc.name}", ["threshold", cyc.path.name], 0,
                _threshold_cli_check(catalogue.FOLD_VERDICTS[cyc.name][2])),
        _mix_cli(theta, 5, 2, "fold", "M"),
    ]
    wl.warm = [Task("warm planar cache", warm_planar_cache)]
    wl.warm += _warm(wl, ("fold C10 k=1", "planar grid4x4@(7,2)"))
    return wl


def _threshold_cli_check(k: int):
    def check(exit_code, out):
        expect(out.startswith(f"threshold k = {k} "), f"printed {out.strip()!r}")
    return check


def warm_planar_cache() -> None:
    """Clear and refill the minimal-non-mixing-cycle cache the planar decider uses."""
    cached = getattr(planar, "_minimal_non_mixing_cached", None)
    if cached is not None and hasattr(cached, "cache_clear"):
        cached.cache_clear()
    for p, q in ((7, 2), (3, 1)):
        planar.minimal_non_mixing_even_cycle(CircularParams(p, q))


WORKLOADS = {
    "oracle-mix": oracle_mix,
    "wind-scan": wind_scan,
    "reach-query": reach_query,
    "structural": structural,
}
