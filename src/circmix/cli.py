"""Command-line surface.

Commands: gen, mix, reach, verify, fold-search, threshold, min-cycle.
Exit codes are stable so scripts can branch on them:

  0  mixing / reachable / verification passed
  1  not-mixing / unreachable / verification failed
  2  vacuous (no proper colourings at all)
  3  state budget exceeded
  4  usage or precondition errors
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import files, fold, planar, reconfig
from .circular import CircularParams
from .generators import (c4_pinch_graph, clique_graph, cube_graph, cycle_graph,
                         grid_graph, pinched_octagon, theta_graph)
from .kernels import DEFAULT_STATE_BUDGET, BudgetExceededError

EXIT_YES = 0
EXIT_NO = 1
EXIT_VACUOUS = 2
EXIT_BUDGET = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _params(args) -> CircularParams:
    return CircularParams(args.p, args.q)


def _emit(outputs):
    """Write each ``(path, text)`` of ``outputs``: the files first, then the
    texts whose path is "-" or None to stdout in order, so a file that
    cannot be written (exit 4) leaves stdout empty."""
    for path, text in outputs:
        if path not in ("-", None):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    sys.stdout.write("".join(text for path, text in outputs if path in ("-", None)))


def _graph_ref(graph: str, path) -> str:
    """The graph path a certificate written to ``path`` records: relative
    to the certificate's directory, where ``verify`` resolves it."""
    if path == "-" or path is None:
        return graph
    return os.path.relpath(graph, os.path.dirname(os.path.abspath(path)))


# generator name -> (argument count, factory over the integer arguments)
_GENERATORS = {
    "cycle": (1, cycle_graph),
    "clique": (2, lambda p, q: clique_graph(CircularParams(p, q))),
    "grid": (2, grid_graph),
    "figure1": (0, pinched_octagon),
    "cube": (0, cube_graph),
    "theta": (3, theta_graph),
    "c4-pinch": (0, c4_pinch_graph),
}


def cmd_gen(args) -> int:
    arity, factory = _GENERATORS[args.kind]
    if len(args.args) != arity:
        raise ValueError(f"generator {args.kind} takes {arity} argument(s)")
    gg = factory(*(int(a) for a in args.args))
    doc = files.GraphDocument(graph=gg.graph, rotation=gg.rotation)
    outputs = [(args.out, files.serialize_graph_document(doc, header=gg.name))]
    if args.dot:
        outputs.append((args.dot, files.graph_to_dot(gg.graph)))
    _emit(outputs)
    return EXIT_YES


def _verdict_exit(status: str) -> int:
    return {"mixing": EXIT_YES, "not-mixing": EXIT_NO, "vacuous": EXIT_VACUOUS}[status]


def cmd_mix(args) -> int:
    if args.explain and args.method != "planar":
        raise ValueError("--explain needs --method planar")
    doc = files.load_graph_document(args.graph)
    params = _params(args)
    g = doc.graph
    witness = None
    trace_payload = None
    explanation = None
    if args.method == "oracle":
        verdict = reconfig.is_mixing_oracle(g, params, budget=args.budget)
    elif args.method == "wind":
        verdict = reconfig.is_mixing_wind(g, params, budget=args.budget)
        witness = verdict.witness
    elif args.method == "fold":
        if params.p != 2 * params.q + 1:
            raise ValueError("fold method needs p = 2q+1 (odd-cycle targets)")
        mixing, payload = fold.odd_mixing_by_fold(g, params.q, budget=args.budget)
        status = "mixing" if mixing else "not-mixing"
        verdict = reconfig.MixingVerdict(status=status)
        trace_payload = payload
    else:  # planar
        if doc.rotation is None:
            raise ValueError("planar method needs rotation lines in the graph file")
        verdict, explanation = planar.planar_mixing_decider(g, doc.rotation, params)

    # Every output is built before any is written and every file is written
    # before stdout, so a certificate or DOT export that exits 3 or 4 leaves
    # no verdict behind on stdout.
    text = None
    graph_ref = _graph_ref(args.graph, args.certificate)
    if verdict.status == "not-mixing" and args.certificate:
        if args.method == "fold":
            component, trace = trace_payload
            text = files.serialize_fold_trace(trace, graph_ref=graph_ref,
                                              component=component)
        else:
            if witness is None:
                witness = reconfig.is_mixing_wind(g, params, budget=args.budget).witness
            text = files.serialize_witness(witness, graph_ref=graph_ref)
    elif verdict.mixing and args.certificate and args.method == "wind":
        basis = reconfig.mixing_basis(g, params)  # None when the scan decided
        if basis is not None:
            text = files.serialize_mixing_basis(basis, graph_ref=graph_ref)
    dot = files.col_graph_to_dot(g, params) if args.dot else None

    outputs = [(None, verdict.status.upper() + "\n")]
    if explanation is not None:
        outputs.append((None, explanation.render() + "\n"))
        if args.explain:
            outputs.append((args.explain, json.dumps(explanation.to_dict(), indent=2) + "\n"))
    if text is not None:
        outputs += [(args.certificate, text), (None, f"certificate: {args.certificate}\n")]
    if dot is not None:
        outputs.append((args.dot, dot))
    _emit(outputs)
    return _verdict_exit(verdict.status)


def cmd_reach(args) -> int:
    doc = files.load_graph_document(args.graph)
    params = _params(args)
    with open(args.frm, "r", encoding="utf-8") as fh:
        f = files.bind_colouring(files.parse_colouring_file(fh.read()), doc.graph, params)
    with open(args.to, "r", encoding="utf-8") as fh:
        g = files.bind_colouring(files.parse_colouring_file(fh.read()), doc.graph, params)
    if args.method == "oracle":
        ok, path = reconfig.is_reachable_oracle(f, g, budget=args.budget)
        print("REACHABLE" if ok else "UNREACHABLE")
        if ok:
            print(f"steps: {len(path) - 1}")
            for a, b in zip(path, path[1:]):
                v = next(i for i in range(doc.graph.n) if a.colours[i] != b.colours[i])
                print(f"recolour {v} -> {b.colours[v]}")
        return EXIT_YES if ok else EXIT_NO
    ok = reconfig.is_reachable_characterized(f, g)
    print("REACHABLE" if ok else "UNREACHABLE")
    return EXIT_YES if ok else EXIT_NO


def cmd_verify(args) -> int:
    ok, message = files.verify_certificate(args.file)
    print(message)
    return EXIT_YES if ok else EXIT_NO


def cmd_fold_search(args) -> int:
    doc = files.load_graph_document(args.graph)
    trace = fold.folds_to_cycle(doc.graph, args.length, budget=args.budget)
    if trace is None:
        print("NONE")
        return EXIT_NO
    _emit([(None, f"folds to C_{args.length} in {len(trace.steps)} step(s)\n"),
           (args.out, files.serialize_fold_trace(
               trace, graph_ref=_graph_ref(args.graph, args.out)))])
    return EXIT_YES


def cmd_threshold(args) -> int:
    doc = files.load_graph_document(args.graph)
    res = fold.circular_mixing_threshold(doc.graph, budget=args.budget)
    print(f"threshold k = {res.k} (target cycle C_{2 * res.k + 1}; "
          f"longest basis cycle {res.longest_basis_cycle}; "
          f"fold-tested k = {list(res.tested)})")
    return EXIT_YES


def cmd_min_cycle(args) -> int:
    params = _params(args)
    length = planar.minimal_non_mixing_even_cycle(params)
    print(length)
    return EXIT_YES


def _budget(text: str) -> int:
    """A ``--budget`` value: a negative one is refused at parsing (exit 4)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="circmix",
                     description="decide and certify circular-colouring mixing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a named generator's graph document")
    p_gen.add_argument("kind", choices=sorted(_GENERATORS))
    p_gen.add_argument("args", nargs="*")
    p_gen.add_argument("--out", default="-")
    p_gen.add_argument("--dot", default=None, help="also write a DOT rendering")
    p_gen.set_defaults(func=cmd_gen)

    def add_pq(p):
        p.add_argument("-p", type=int, required=True)
        p.add_argument("-q", type=int, required=True)

    def add_budget(p):
        p.add_argument("--budget", type=_budget, default=DEFAULT_STATE_BUDGET,
                       help="cap on states enumerated at any one vertex: "
                       "colourings (the wind method counts those with each "
                       "component's least vertex at colour 0, or on a "
                       "non-bipartite graph the partial colourings it tries) "
                       "or, for fold answers, maps onto the target cycle")

    p_mix = sub.add_parser("mix", help="decide whether a graph mixes at (p,q)")
    p_mix.add_argument("graph")
    add_pq(p_mix)
    p_mix.add_argument("--method", choices=["oracle", "wind", "fold", "planar"],
                       default="oracle")
    add_budget(p_mix)
    p_mix.add_argument("--certificate", default=None,
                       help="where to write the certificate: a witness or "
                       "fold trace for NOT-MIXING, and for --method wind the "
                       "cycle basis behind a MIXING answer found without a "
                       "scan; oracle and planar NOT-MIXING witnesses come from "
                       "a wind scan after the decision, under --budget")
    p_mix.add_argument("--explain", default=None,
                       help="write the planar decision tree as JSON "
                       "(--method planar only; otherwise exit 4)")
    p_mix.add_argument("--dot", default=None,
                       help="export the recolouring graph as DOT (at most "
                       "20,000 states, else exit 3)")
    p_mix.set_defaults(func=cmd_mix)

    p_reach = sub.add_parser("reach", help="decide recolouring reachability")
    p_reach.add_argument("graph")
    add_pq(p_reach)
    p_reach.add_argument("--from", dest="frm", required=True,
                         help="colouring file (v=c lines)")
    p_reach.add_argument("--to", dest="to", required=True)
    p_reach.add_argument("--method", choices=["oracle", "characterized"],
                         default="oracle")
    add_budget(p_reach)
    p_reach.set_defaults(func=cmd_reach)

    p_verify = sub.add_parser("verify",
                              help="re-check a witness, fold trace or mixing basis")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=cmd_verify)

    p_fold = sub.add_parser("fold-search", help="fold the graph onto the cycle C_L")
    p_fold.add_argument("graph")
    p_fold.add_argument("-L", dest="length", type=int, required=True)
    add_budget(p_fold)
    p_fold.add_argument("--out", default=None)
    p_fold.set_defaults(func=cmd_fold_search)

    p_thresh = sub.add_parser("threshold",
                              help="smallest k with the graph C_{2k+1}-mixing")
    p_thresh.add_argument("graph")
    add_budget(p_thresh)
    p_thresh.set_defaults(func=cmd_threshold)

    p_min = sub.add_parser("min-cycle",
                           help="minimal even cycle length that fails to mix")
    add_pq(p_min)
    p_min.set_defaults(func=cmd_min_cycle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
