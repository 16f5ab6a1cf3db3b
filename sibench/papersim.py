"""The ``paper-sim`` workload: the Section 5 simulation model at Figure 2's
top sweep point, once per guarantee, through ``run_once``.

Verification replays the strong session SI run on the kernel's reference
heap scheduler, which must give an identical result; the model has no
history for the SI checkers to audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional

from repro.core.guarantees import Guarantee
from repro.simmodel.experiment import RunResult, run_once
from repro.simmodel.params import SimulationParameters

from sibench.hostspeed import HostSpeed
from sibench.tracing import Tracer


@dataclass
class SimRound:
    """What one round measured; ``results`` must repeat across rounds.

    ``steps`` holds the wall seconds of each ``run_once`` call, in order:
    one model set-up per guarantee, one measured run per guarantee (in
    the order of ``results``) and the verifying replay.
    """

    steps: dict[str, list[float]] = field(default_factory=lambda: {
        "setup": [], "timed": [], "verify": []})
    results: dict[str, RunResult] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: ``run_once`` calls made: the round's attempted operations.
    calls: int = 0
    #: Exact counts of the measured runs' kernels (traced rounds only).
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        return sum(self.steps["timed"])

    @property
    def completed(self) -> int:
        return sum(r.read_completions + r.update_completions
                   for r in self.results.values())


def parameters(sizes: dict, guarantee: str, seed: int,
               **changes) -> SimulationParameters:
    """Figure 2's configuration at ``sizes["clients"]`` clients."""
    fields = {"num_sec": sizes["secondaries"],
              "update_tran_prob": sizes["update_share"],
              "duration": sizes["duration_s"],
              "warmup": sizes["warmup_s"],
              "algorithm": Guarantee(guarantee),
              "seed": seed, **changes}
    return SimulationParameters(**fields).with_total_clients(sizes["clients"])


#: Host-speed probe samples taken before each ``run_once`` call.
PROBE_BURST = 40


def run_round(sizes: dict, seeds: dict[str, int],
              tracer: Optional[Tracer] = None,
              host: Optional[HostSpeed] = None) -> SimRound:
    """Set up each model, run each guarantee, then verify, sampling
    ``host`` before each call.

    A set-up is a ``run_once`` of ``setup_duration_s`` simulated seconds
    with no warm-up, short enough that it times building the model.
    """
    result = SimRound()
    steps = result.steps

    def call(step: str, params: SimulationParameters,
             seed: int) -> RunResult:
        """``run_once``, its wall time appended to ``steps[step]``."""
        result.calls += 1
        if host is not None:
            host.sample(PROBE_BURST)
        started = perf_counter()
        if tracer is None:
            outcome = run_once(params, seed=seed)
        else:
            with tracer.span("simmodel", "run_once"):
                outcome = run_once(params, seed=seed)
        steps[step].append(perf_counter() - started)
        return outcome

    for guarantee in sizes["guarantees"]:
        call("setup", parameters(sizes, guarantee, seeds[guarantee],
                                 duration=sizes["setup_duration_s"],
                                 warmup=0.0), seeds[guarantee])

    kernels_before = len(tracer.kernels) if tracer is not None else 0
    for guarantee in sizes["guarantees"]:
        result.results[guarantee] = call(
            "timed", parameters(sizes, guarantee, seeds[guarantee]),
            seeds[guarantee])
    if tracer is not None:
        counters = [kernel.counters()
                    for kernel in tracer.kernels[kernels_before:]]
        result.counts = {
            "kernel.events": sum(c["events_dispatched"] for c in counters),
            "kernel.peak_queue_depth": max(c["peak_queue_depth"]
                                           for c in counters),
        }

    reference = Guarantee.STRONG_SESSION_SI.value
    replay = call("verify", parameters(sizes, reference, seeds[reference],
                                       scheduler="heap"), seeds[reference])
    if replace(replay, params=result.results[reference].params) \
            != result.results[reference]:
        result.errors.append("the heap-scheduler replay of the strong "
                             "session SI run gave a different result")

    throughput = {g: r.throughput for g, r in result.results.items()}
    strong = Guarantee.STRONG_SI.value
    if any(throughput[strong] >= value for g, value in throughput.items()
           if g != strong):
        result.errors.append(f"strong SI throughput is not below both "
                             f"other guarantees: {throughput}")
    return result
