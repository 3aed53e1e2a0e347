#!/usr/bin/env python3
"""Time-to-verified-verdict benchmark for circmix.

Run from the repository root:

    python3 perfbench/run.py --workload wind-scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One run builds its inputs from the seed into a temporary directory under
``perfbench/out``, runs the workload's heavy ladder once, then rounds of
seeded tasks until ``--seconds`` of task time have passed, with one
``circmix`` command line as a subprocess after each round.  The set-up is
repeated between rounds, spread over the run, and ``setup_s`` takes the
median, so one slow moment of the host does not set it.  Each task is timed from the public API call until its answer has
been checked against the reference.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are per-layer numbers from wrappers around each module's public
functions, over the ladder and one round, each task run untraced and traced
back to back.  Details (tail percentile and sample count, per-task medians,
failures, environment, spans) go to ``perfbench/out/*.json``.

``correct`` is false when an answer was wrong: a verdict or exit code that
contradicts the reference, a certificate, fold trace or reach path that does
not re-verify, or two methods that disagree.  ``failed`` also counts
operations that failed without answering: an unexpected exception, a usage
error exit or a timeout.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import tempfile
from importlib import metadata, util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5  # set-ups per run: one before timing, the rest between rounds
TAIL_BEYOND = 10  # the tail is the highest percentile with this many tasks beyond it
CLI_TIMEOUT_S = 60
CLI_PASSES = 2  # every command line runs at least this often in a run
CLI_IMPORT_REPEATS = 3
WORKLOAD_NAMES = ("oracle-mix", "wind-scan", "reach-query", "structural")

END_TO_END_UNITS = {"verdict_s_p50": "s", "verdict_s_tail": "s", "tasks_per_s": "1/s",
                    "cli_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unavailable"

    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": NPROC,
            "numba": "available" if util.find_spec("numba") else "unavailable"}


def run_task(task):
    """Run one task; returns (seconds, failure kind or None, message)."""
    from checks import Wrong

    t = time.perf_counter()
    try:
        task.run()
    except Wrong as exc:
        return time.perf_counter() - t, "wrong", f"{task.name}: {exc}"
    except Exception as exc:  # a failed task is recorded and the run goes on
        return time.perf_counter() - t, "error", f"{task.name}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - t, None, ""


def judge_cli(ct, code: int, out: str):
    """Failure kind and message for one finished command line."""
    from checks import Wrong

    if ct.expected_exit is not None and code != ct.expected_exit:
        verdicts = (0, 1, 2)
        kind = "wrong" if code in verdicts and ct.expected_exit in verdicts else "error"
        return kind, f"{ct.name}: exit {code}, expected {ct.expected_exit}"
    if ct.check is not None:
        try:
            ct.check(code, out)
        except Wrong as exc:
            return "wrong", f"{ct.name}: {exc}"
        except Exception as exc:  # a malformed output is a failed task, not a crash
            return "error", f"{ct.name}: {type(exc).__name__}: {exc}"
    return None, ""


def cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(NPROC) for var in THREAD_VARS})
    return env


def run_cli(ct, cwd: Path):
    """One ``circmix`` subprocess, from interpreter start to exit."""
    t = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "circmix.cli", *ct.argv], cwd=cwd,
                              env=cli_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t, "error", f"{ct.name}: timed out"
    dt = time.perf_counter() - t
    kind, msg = judge_cli(ct, proc.returncode, proc.stdout)
    return dt, kind, msg


def build(name: str, seed: int, directory: Path):
    import workloads

    directory.mkdir()
    inputs = workloads.Inputs(directory, random.Random(f"{name}:{seed}"))
    wl = workloads.WORKLOADS[name](inputs)
    for task in wl.warm:
        run_task(task)
    return wl


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, kind, msg):
        self.attempted += 1
        if kind:
            self.failures.append({"kind": kind, "message": msg})

    def result(self, metrics: dict) -> dict:
        return {"correct": not any(f["kind"] == "wrong" for f in self.failures),
                "attempted": self.attempted, "failed": len(self.failures),
                "metrics": metrics}


def tail(times: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND tasks beyond it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:  # no such percentile: report the maximum
        return ordered[-1], 100.0
    i = len(ordered) - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def measure(args, import_s: float, tmp: Path):
    tally = Tally()
    setups = []

    def timed_build():
        t = time.perf_counter()
        built = build(args.workload, args.seed, tmp / f"inputs{len(setups)}")
        setups.append(time.perf_counter() - t)
        return built

    wl = timed_build()
    inputs_dir = tmp / "inputs0"
    order = random.Random(f"{args.workload}:{args.seed}:order")
    times, cli_times = [], []
    by_name = {}
    timed = 0.0  # wall seconds of in-process tasks; the interleaved CLI calls are not counted
    t = time.perf_counter()
    for task in wl.ladder:
        dt, kind, msg = run_task(task)
        times.append(dt)
        by_name.setdefault(task.name, []).append(dt)
        tally.add(kind, msg)
    timed += time.perf_counter() - t
    rounds = 0
    while timed < args.seconds or len(cli_times) < CLI_PASSES * len(wl.cli):
        if timed < args.seconds or rounds == 0:
            batch = wl.rounds[rounds % len(wl.rounds)][:]
            order.shuffle(batch)
            t = time.perf_counter()
            for task in batch:
                dt, kind, msg = run_task(task)
                times.append(dt)
                by_name.setdefault(task.name, []).append(dt)
                tally.add(kind, msg)
            timed += time.perf_counter() - t
            rounds += 1
        # one command line after each round spreads them over the whole run
        dt, kind, msg = run_cli(wl.cli[len(cli_times) % len(wl.cli)], inputs_dir)
        cli_times.append(dt)
        tally.add(kind, msg)
        if len(setups) < SETUP_REPEATS and timed >= args.seconds * len(setups) / SETUP_REPEATS:
            timed_build()
    while len(setups) < SETUP_REPEATS:
        timed_build()
    tail_s, tail_pct = tail(times)
    metrics = {
        "verdict_s_p50": statistics.median(times),
        "verdict_s_tail": tail_s,
        "tasks_per_s": len(times) / timed,
        "cli_s_p50": statistics.median(cli_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": import_s + statistics.median(setups),
    }
    details = {"tasks": len(times), "rounds": rounds, "timed_s": timed,
               "tail_percentile": tail_pct, "cli_calls": len(cli_times),
               "setup_repeats_s": setups, "import_s": import_s,
               "fail_share": len(tally.failures) / tally.attempted,
               "cli_s": cli_times,
               "task_median_s": {k: statistics.median(v) for k, v in sorted(by_name.items())}}
    return tally, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, details


def run_cli_in_process(ct, cwd: Path):
    """A command line through ``circmix.cli.main`` in this process, so the
    wrappers see the layers it calls."""
    from circmix import cli

    here = os.getcwd()
    buf = io.StringIO()
    try:
        os.chdir(cwd)
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(ct.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 4
    finally:
        os.chdir(here)
    return judge_cli(ct, code, buf.getvalue())


def measure_traced(args, tmp: Path):
    """Ladder and first round variant, each task run once untraced and once
    traced (on a second, identical build), back to back."""
    from tracing import Tracer

    tally = Tally()
    tracer = Tracer()
    plain_wl = build(args.workload, args.seed, tmp / "untraced")
    tracer.install()
    try:
        tracer.task = "setup"
        inputs_dir = tmp / "traced"
        wl = build(args.workload, args.seed, inputs_dir)
    finally:
        tracer.restore()
    pairs = list(zip(plain_wl.ladder + plain_wl.rounds[0], wl.ladder + wl.rounds[0]))
    random.Random(f"{args.workload}:{args.seed}:order").shuffle(pairs)
    plain = traced = 0.0
    for i, (plain_task, task) in enumerate(pairs):
        # alternate which copy goes first, so neither side always runs warmer
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_now:
                dt, kind, msg = run_task(plain_task)
                plain += dt
            else:
                tracer.task = f"{i}:{task.name}"
                tracer.install()
                try:
                    dt, kind, msg = run_task(task)
                finally:
                    tracer.restore()
                traced += dt
            tally.add(kind, msg)
    tracer.install()
    try:
        for i, ct in enumerate(wl.cli):
            tracer.task = f"cli{i}:{ct.name}"
            kind, msg = run_cli_in_process(ct, inputs_dir)
            tally.add(kind, msg)
    finally:
        tracer.restore()

    import_times = []
    for _ in range(CLI_IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import circmix.cli"], env=cli_env(),
                       check=True, timeout=CLI_TIMEOUT_S)
        import_times.append(time.perf_counter() - t)
    metrics = per_layer_metrics(tracer, statistics.median(import_times), (traced - plain) / plain)
    return tally, metrics, tracer


def per_layer_metrics(tracer, import_s: float, overhead: float) -> dict:
    from tracing import LAYERS

    summary = tracer.summary()
    inclusive, own, calls = summary["inclusive_s"], summary["self_s"], summary["calls"]
    counters = tracer.counters
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for fn in ("kernels.component_labels", "kernels.bfs_tree", "kernels.enumerate_states",
               "kernels.first_unbalanced_state", "kernels.state_codes",
               "reconfig.is_reachable_characterized", "reconfig.verify_witness",
               "fold.odd_mixing_by_fold", "fold.elementary_fold", "fold.replay_trace",
               "graphs.canonical_key", "graphs.distance", "graphs.has_cycle_of_length_at_least",
               "planar.planar_mixing_decider", "planar.separating_cycles", "planar.faces",
               "planar.minimal_non_mixing_even_cycle", "files.load_graph_document",
               "files.serialize_witness", "files.parse_witness", "files.verify_fold_trace_file",
               "cli.main"):
        put(f"{fn}.s", inclusive[fn], "s")
    for fn in ("kernels.bfs_tree", "kernels.enumerate_states", "fold.folds_to_cycle",
               "fold.elementary_fold", "graphs.canonical_key", "graphs.distance",
               "planar.region_split", "planar.faces"):
        put(f"{fn}.calls", calls[fn], "count")
    for fn in ("reconfig.is_mixing_oracle", "reconfig.is_mixing_wind",
               "reconfig.is_reachable_oracle", "reconfig.fixed_vertices"):
        put(f"{fn}.self_s", own[fn], "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", summary["layer_self_s"][layer], "s")
    put("kernels.states_enumerated", counters["states_enumerated"], "count")
    put("kernels.state_table_bytes", counters["state_table_bytes"], "bytes")
    put("kernels.states_scanned", counters["states_scanned"], "count")
    put("kernels.scan_useful_ratio",
        counters["states_scanned"] / counters["states_enumerated"]
        if counters["states_enumerated"] else 0.0, "ratio")
    put("graphs.canonical_key.distinct_ratio",
        len(tracer.keys) / calls["graphs.canonical_key"] if calls["graphs.canonical_key"] else 0.0,
        "ratio")
    put("cli.import_s", import_s, "s")
    put("trace.overhead_share", overhead, "ratio")
    return m


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def run_one(args) -> int:
    if not (SRC / "circmix" / "__init__.py").is_file():
        print(f"error: no circmix sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports numpy and circmix: part of set-up)

    import_s = time.perf_counter() - START
    OUT.mkdir(exist_ok=True)
    env = environment()
    stem = f"{args.workload}-seed{args.seed}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{stem}-") as tmp:
        if args.trace:
            tally, metrics, tracer = measure_traced(args, Path(tmp))
            write_json(OUT / f"trace-{stem}.json",
                       {"environment": env, "metrics": metrics, "failures": tally.failures,
                        "counters": dict(tracer.counters),
                        "span_columns": ["task", "span", "parent", "name", "start", "end"],
                        "spans": tracer.spans})
        else:
            tally, metrics, details = measure(args, import_s, Path(tmp))
            write_json(OUT / f"result-{stem}.json",
                       {"environment": env, "metrics": metrics, "details": details,
                        "failures": tally.failures})
    result = tally.result(metrics)
    print(f"{args.workload} seed {args.seed}: " + ", ".join(f"{k}={v}" for k, v in env.items()),
          file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    if not args.trace:
        print(f"  verdict_s_tail is p{details['tail_percentile']:.1f} of {details['tasks']} tasks;"
              f" fail_share {details['fail_share']:.4f}"
              f" ({result['failed']} of {result['attempted']})", file=sys.stderr)
    for failure in tally.failures[:5]:
        print(f"  {failure['kind']}: {failure['message']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
