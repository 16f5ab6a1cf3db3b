"""Tests of the benchmark's own generator, scan bounds, tracing and names."""

import json
import re
from pathlib import Path

import pytest

from repro import Guarantee
from sibench import functional, hostspeed, papersim, run, tracing
from sibench.workloads import (WORKLOADS, expected_scan_keys, generate_ops,
                               load_spec, scan_bounds, simulation_seeds)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def small_sizes(workload: str, **changes) -> dict:
    sizes = dict(load_spec()[workload]["sizes"])
    sizes.update(sessions=12, books=200, **changes)
    return sizes


@pytest.mark.parametrize("workload", ["shop-write", "browse-scan"])
def test_generator_is_deterministic_per_seed(workload):
    sizes = load_spec()[workload]["sizes"]
    first = generate_ops(workload, sizes, seed=7)
    assert first == generate_ops(workload, sizes, seed=7)
    assert first != generate_ops(workload, sizes, seed=8)
    assert len(first) == sizes["sessions"] * sizes["txns_per_session"]
    assert [op.due for op in first] == sorted(op.due for op in first)


def test_generator_respects_sizes():
    sizes = load_spec()["browse-scan"]["sizes"]
    ops = generate_ops("browse-scan", sizes, seed=3)
    assert all(0 <= op.book <= sizes["books"] - sizes["scan_width"]
               for op in ops)
    share = sum(op.is_update for op in ops) / len(ops)
    assert abs(share - sizes["update_share"]) < 0.02


def test_simulation_seeds_are_deterministic_per_seed():
    guarantees = load_spec()["paper-sim"]["sizes"]["guarantees"]
    assert simulation_seeds(1, guarantees) == simulation_seeds(1, guarantees)
    assert simulation_seeds(1, guarantees) != simulation_seeds(2, guarantees)


def test_scan_bounds_are_exact_where_string_bounds_go_wrong():
    sizes = small_sizes("browse-scan")
    width = sizes["scan_width"]
    system = functional.build_system(sizes)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    for start in (0, 1, 7, 42, 120, sizes["books"] - width):
        lo, hi = scan_bounds(start, width)
        keys = session.execute_read_only(
            lambda txn: [key for key, _ in txn.scan(lo, hi)])
        assert keys == expected_scan_keys(start, width), start
        assert len(keys) == 2 * width


def test_self_times_on_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [5, 7]
    # and b2 [6, 8], which overlap and are counted once.
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
    parents = [-1, 0, 1, 0, 3, 3]
    assert tracing.self_times(starts, ends, parents) == [
        3.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_layer_split_sums_to_the_root():
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracing.perf_counter, saved = (lambda: next(clock)), tracing.perf_counter
    try:
        with tracer.span("bench.driver", "root"):
            with tracer.span("storage", "read"):
                with tracer.span("txn.history", "record"):
                    pass
            with tracer.span("kernel", "run"):
                pass
    finally:
        tracing.perf_counter = saved
    seconds, spans, root = tracing.layer_split(tracer)
    assert root == 10.0
    assert seconds["txn.history"] == 1.0
    assert seconds["storage"] == 2.0
    assert seconds["kernel"] == 4.0
    assert seconds["bench.driver"] == 3.0
    assert sum(seconds.values()) == root
    assert spans["storage"] == 1


def test_installed_restores_every_entry_point():
    from repro.kernel.loop import Kernel
    from repro.storage.engine import Transaction
    before = (Kernel.__dict__["spawn"], Transaction.__dict__["scan"])
    with tracing.installed(tracing.Tracer()):
        assert Kernel.__dict__["spawn"] is not before[0]
    assert (Kernel.__dict__["spawn"], Transaction.__dict__["scan"]) == before


@pytest.mark.parametrize("workload", ["shop-write", "browse-scan"])
def test_traced_rounds_repeat_their_counts_and_split(workload):
    sizes = small_sizes(workload)
    ops = generate_ops(workload, sizes, seed=5)
    plain = functional.run_round(workload, sizes, ops)
    assert plain.errors == [] and plain.failed == 0
    traced = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer), tracer.span("bench.driver", "round"):
            outcome = functional.run_round(workload, sizes, ops, tracer)
        traced.append((outcome, tracer))
        seconds, _spans, root = tracing.layer_split(tracer)
        assert sum(seconds.values()) == pytest.approx(root, rel=1e-9)
        assert outcome.digest == plain.digest
    layered, _table, errors = run.layer_metrics(
        workload, PER_LAYER, [(plain, 0.0, 1.0)], traced)
    assert errors == []
    assert list(layered) == PER_LAYER
    assert layered["txn.history.events"] > 0
    assert layered["core.refresh.applied"] > 0
    assert layered["txn.checkers.weak_si_s"] > 0
    (first, tracer_a), (second, tracer_b) = traced
    assert first.counts == second.counts
    assert tracer_a.counts == tracer_b.counts
    assert first.counts["txn.history.events"] > 0
    if workload == "browse-scan":
        assert tracer_a.counts["storage.scan.rows"] == (
            2 * sizes["scan_width"] * tracer_a.counts["storage.scan.calls"])


def test_paper_sim_traced_and_untraced_results_agree():
    sizes = dict(load_spec()["paper-sim"]["sizes"], duration_s=240.0,
                 warmup_s=60.0)
    seeds = simulation_seeds(3, sizes["guarantees"])
    plain = papersim.run_round(sizes, seeds)
    assert plain.errors == []
    assert plain.calls == 2 * len(sizes["guarantees"]) + 1
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.span("bench.driver", "round"):
        traced = papersim.run_round(sizes, seeds, tracer)
    assert traced.results == plain.results
    assert traced.counts["kernel.events"] > 0
    layered, _table, errors = run.layer_metrics(
        "paper-sim", PER_LAYER, [(plain, 0.0, 1.0)], [(traced, tracer)])
    assert errors == []
    assert layered["simmodel.self_s"] > 0
    assert layered["storage.self_s"] == layered["core.refresh.self_s"] == 0
    assert tracer.kernels == []


def test_scan_check_flags_a_wrong_range():
    shape = functional._BrowseScan({"scan_width": 3, "initial_stock": 1})
    op = generate_ops("browse-scan", load_spec()["browse-scan"]["sizes"],
                      seed=5)[0]
    result = functional.RoundResult()
    shape.checked(op, expected_scan_keys(op.book, 3), result)
    assert result.errors == []
    shape.checked(op, expected_scan_keys(op.book, 4), result)
    shape.checked(op, expected_scan_keys(op.book, 3)[::-1], result)
    assert len(result.errors) == 2


def test_best_steps_take_each_steps_least_time():
    rounds = [functional.RoundResult(steps={"timed": [3.0, 1.0, 2.0]}),
              functional.RoundResult(steps={"timed": [2.0, 4.0, 2.5]})]
    assert run.best_steps(rounds) == {"timed": [2.0, 1.0, 2.0]}


def test_wall_metrics_scale_times_and_rates_by_the_host_factor():
    rounds = [functional.RoundResult(
        completed=4, steps={"setup": [1.0], "timed": [2.0, 2.0],
                            "update_ms": [1.0, 3.0], "read_ms": [2.0],
                            "verify": [0.5]})]
    raw, _ = run.wall_metrics("shop-write", rounds)
    scaled, _ = run.wall_metrics("shop-write", rounds, factor=0.5)
    assert raw["txn_per_s"] == 1.0 and scaled["txn_per_s"] == 2.0
    for name in ("setup_s", "verify_s", "update_ms_p50", "update_ms_p99",
                 "read_ms_p50", "read_ms_p99"):
        assert scaled[name] == raw[name] / 2, name


def test_host_factor_matches_the_quantile_of_a_least_time():
    speed = hostspeed.HostSpeed()
    with pytest.raises(ValueError):
        speed.factor(rounds=1)
    speed.samples.extend(hostspeed.REFERENCE_S * (1 + i / 100)
                         for i in range(200))
    # One round: its times are typical, so the factor uses the median;
    # the least of 19 rounds sits near the 5th percentile.
    assert speed.factor(rounds=1) == pytest.approx(1 / 2.0)
    assert speed.factor(rounds=19) == pytest.approx(1 / 1.1)
    speed.sample(3)
    assert len(speed.samples) == 203


def test_metric_names_follow_the_rules():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
