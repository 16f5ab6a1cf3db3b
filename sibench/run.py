#!/usr/bin/env python3
"""Benchmark of the lazily replicated SI system, end to end and per layer.

Run from the repository root::

    python3 sibench/run.py --workload shop-write --seed 1 --seconds 20 --trace 0

``--workload`` is ``shop-write``, ``browse-scan`` or ``paper-sim``
(``BENCHMARK.json`` says why each exists, ``workloads.json`` gives its
sizes).  The run repeats rounds of the seed's inputs for about
``--seconds`` wall seconds; each round sets the system up afresh, so
set-up time is measured in every round.  Every step of a round (a set-up
step, a ``system.run``, a transaction call, a checker) is timed, and the
wall metrics are built from each step's least time over the rounds,
scaled by the host-speed factor of ``hostspeed.py``; the raw values are
in the run's report.  Virtual-time metrics and counts repeat exactly per seed, and a round that
does not repeat them fails the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer self-time table of the
median traced round and reports the per-layer metrics; the spans of the
last traced round are written under ``.bench_out/``, beside a JSON record
of each run's metrics, seed and host.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def run_rounds(run_round, seconds: float, traced: bool) -> tuple[list, list]:
    """Run rounds for about ``seconds``: untraced ones only, or untraced
    and traced alternately (at least one of each) when ``traced``."""
    from sibench.tracing import Tracer, installed

    plain, with_trace = [], []
    durations = []
    started = time.perf_counter()
    while True:
        tracing = traced and len(with_trace) < len(plain)
        # Start every round from the same heap: no garbage left by the
        # previous round, and the long-lived inputs out of the collector's
        # scans, so a round's collections cost what its own objects cost.
        gc.collect()
        gc.freeze()
        begun = time.perf_counter()
        if tracing:
            tracer = Tracer()
            with installed(tracer), tracer.span("bench.driver", "round"):
                outcome = run_round(tracer)
            with_trace.append((outcome, tracer))
        else:
            outcome = run_round(None)
            plain.append((outcome, begun, time.perf_counter()))
        durations.append(time.perf_counter() - begun)
        enough = plain and (with_trace or not traced)
        if enough and (time.perf_counter() - started
                       + statistics.median(durations) > seconds):
            return plain, with_trace


def best_steps(rounds: list) -> dict[str, list[float]]:
    """Each step's least wall time over the rounds, step by step.

    Every round repeats the same steps on a fresh system, so a step's
    times differ only by what the host did meanwhile; the host's speed
    drifts by half over seconds, and each step's least time is the one
    the host disturbed least.
    """
    return {name: [min(times) for times in zip(*(r.steps[name]
                                                 for r in rounds))]
            for name in rounds[0].steps}


def wall_metrics(workload: str, rounds: list, factor: float = 1.0
                 ) -> tuple[dict, list[str]]:
    """The wall-clock end-to-end metrics, built from :func:`best_steps`,
    times multiplied and rates divided by the host-speed ``factor``.

    On ``paper-sim`` the model has no per-call latencies: its latency
    metrics are wall ms of simulation per simulated transaction of the
    type, p50 the median and p99 the maximum over the guarantees' runs.
    """
    best = {name: [time * factor for time in times]
            for name, times in best_steps(rounds).items()}
    first = rounds[0]
    values = {"setup_s": sum(best["setup"]),
              "txn_per_s": first.completed / sum(best["timed"]),
              "verify_s": sum(best["verify"])}
    if workload == "paper-sim":
        for kind in ("update", "read"):
            per_txn = [wall * 1e3 / getattr(run, f"{kind}_completions")
                       for wall, run in zip(best["timed"],
                                            first.results.values())]
            values[f"{kind}_ms_p50"] = statistics.median(per_txn)
            values[f"{kind}_ms_p99"] = max(per_txn)
        notes = ["paper-sim latencies are wall ms of simulation per "
                 "simulated transaction of the type: p50 the median and "
                 "p99 the maximum over the guarantees' runs"]
        for guarantee, run in first.results.items():
            notes.append(f"{guarantee}: throughput {run.throughput:.4f}/s, "
                         f"read rt {run.read_response_time:.4f} s, "
                         f"update rt {run.update_response_time:.4f} s, "
                         f"blocked reads {run.blocked_reads}")
    else:
        for kind in ("update", "read"):
            samples = best[f"{kind}_ms"]
            values[f"{kind}_ms_p50"] = percentile(samples, 50)
            values[f"{kind}_ms_p99"] = percentile(samples, 99)
        notes = [f"samples: update_ms {len(best['update_ms'])}, read_ms "
                 f"{len(best['read_ms'])}, each the call's least time over "
                 "the rounds; p50/p99 are nearest-rank percentiles"]
    return values, notes


def layer_metrics(workload: str, names: list[str], plain: list,
                  with_trace: list) -> tuple[dict, str, list[str]]:
    """Per-layer metrics, the layer table and any split inconsistency.

    Self times come from the traced round with the median root span;
    counts repeat exactly in every traced round.  A layer a workload never
    enters reports 0.
    """
    from sibench.tracing import LAYERS, format_layer_table, layer_split

    splits = sorted(((layer_split(tracer), outcome)
                     for outcome, tracer in with_trace),
                    key=lambda item: item[0][2])
    (seconds, spans, root), outcome = splits[len(splits) // 2]
    values = dict(with_trace[0][1].counts)
    values.update(outcome.counts)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = seconds[layer]
    rows = values.get("storage.scan.rows", 0)
    values["storage.versions_per_row"] = (
        values.get("storage.scan.versions", 0) / rows if rows else 0.0)
    if workload == "paper-sim":
        runs = outcome.results.values()
        values["simmodel.restart_frac"] = (
            sum(r.update_restarts for r in runs)
            / sum(r.update_completions for r in runs))
        values["simmodel.blocked_reads"] = sum(r.blocked_reads for r in runs)
    else:
        values.update({f"txn.checkers.{name}_s": spent
                       for name, spent in outcome.checker_s.items()})
        values["txn.checkers.violations"] = outcome.violations
        values["core.system.blocked_reads"] = outcome.blocked_reads
        values["core.system.blocked_frac"] = (outcome.blocked_reads
                                              / len(outcome.read_virtual_s))
        values["bench.driver.late_s"] = statistics.fmean(outcome.late_s)
    plain_wall = statistics.median(end - begun for _o, begun, end in plain)
    traced_wall = statistics.median(split[2] for split, _o in splits)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    errors = []
    if abs(sum(seconds.values()) - root) > 1e-6 * max(root, 1.0):
        errors.append(f"layer self times sum to {sum(seconds.values())} s, "
                      f"the root span lasted {root} s")
    metrics = {name: values.get(name, 0) for name in names}
    return metrics, format_layer_table(seconds, spans, root), errors


def consistency_errors(outcomes: list, key) -> list[str]:
    """Rounds of one seed must agree on everything ``key`` extracts."""
    first = key(outcomes[0])
    return [f"round {index} did not repeat round 0"
            for index, outcome in enumerate(outcomes[1:], start=1)
            if key(outcome) != first]


def main(argv: list[str] | None = None) -> int:
    source = ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    from sibench.workloads import (WORKLOADS, generate_ops, load_spec,
                                   simulation_seeds)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (source / "repro" / "__init__.py").is_file():
        print(f"sibench: no system under test at {source}", file=sys.stderr)
        return 2
    from sibench import functional, papersim
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from sibench.hostspeed import HostSpeed
    speed = HostSpeed()
    sizes = load_spec()[args.workload]["sizes"]
    if args.workload == "paper-sim":
        seeds = simulation_seeds(args.seed, sizes["guarantees"])

        def run_round(tracer):
            return papersim.run_round(sizes, seeds, tracer,
                                      None if tracer else speed)

        def digest(outcome):
            return outcome.results
    else:
        ops = generate_ops(args.workload, sizes, args.seed)

        def run_round(tracer):
            return functional.run_round(args.workload, sizes, ops, tracer,
                                        None if tracer else speed)

        def digest(outcome):
            return outcome.digest

    plain, with_trace = run_rounds(run_round, args.seconds, bool(args.trace))
    outcomes = [o for o, *_ in plain] + [o for o, _t in with_trace]
    errors = [e for o in outcomes for e in o.errors]
    errors += consistency_errors(outcomes, digest)
    if with_trace:
        errors += consistency_errors(
            with_trace, lambda item: (item[0].counts, item[1].counts))
    rounds = [o for o, *_ in plain]
    if args.workload == "paper-sim":
        attempted, failed = sum(o.calls for o in outcomes), 0
        virtual = rounds[0].results["strong-session-si"].read_response_time
    else:
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        virtual = statistics.fmean(rounds[0].read_virtual_s)
    factor = speed.factor(len(rounds))
    values, notes = wall_metrics(args.workload, rounds, factor)
    raw, _notes = wall_metrics(args.workload, rounds)
    notes.append(f"host-speed factor {factor:.4f} from "
                 f"{len(speed.samples)} probe samples; raw wall values: "
                 + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    values["ok_frac"] = 1.0 - failed / attempted
    values["read_rt_virtual_s"] = virtual
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in spec["end_to_end"]}

    per_round = {f"{name}_s": [sum(r.steps[name]) for r in rounds]
                 for name in ("setup", "timed", "verify")}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host(),
              "rounds": len(plain), "traced_rounds": len(with_trace),
              "host_factor": factor, "raw_wall_metrics": raw,
              "per_round": per_round, "notes": notes, "errors": errors}
    print(f"# sibench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(plain)}+{len(with_trace)} traced; host "
          + " ".join(f"{k}={v}" for k, v in report["host"].items()))
    for note in notes:
        print(f"# {note}")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layered, table, split_errors = layer_metrics(
            args.workload, list(units), plain, with_trace)
        errors += split_errors
        print(table)
        shown = {name: (value, units[name])
                 for name, value in layered.items()}
        tracer = with_trace[-1][1]
        from sibench.tracing import write_spans
        write_spans(tracer, OUT_DIR / f"{args.workload}-spans")
    else:
        shown = metrics
    for name, (value, unit) in shown.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    for error in errors:
        print(f"# CHECK FAILED: {error}")
    report["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in shown.items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
