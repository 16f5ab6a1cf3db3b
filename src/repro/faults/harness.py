"""The chaos harness: seeded fault schedules vs. the SI guarantees.

``run_chaos(ChaosConfig(seed=7))`` builds a full
:class:`~repro.core.system.ReplicatedSystem` with lossy propagation
channels (drop/duplicate/jitter/reorder, all drawn from seeded streams),
runs a seeded multi-session client workload while a seeded
:class:`~repro.faults.plan.FaultPlan` crashes and recovers secondaries,
crashes and WAL-restarts the primary (or, with ``primary_kill``, kills
it for good and promotes a secondary under a new cluster epoch — an
election the :mod:`~repro.core.failover` control plane runs on its own
when ``auto_failover`` is set), stalls the propagator, and (with
``partitions``) blackholes links for seeded windows — then verifies
that nothing the paper proves was lost:

* the system **converges**: after recovery and ``quiesce()`` every
  secondary state equals the primary state;
* the recorded history still passes the **completeness**, **weak SI**
  and **strong session SI** checkers (which trust no middleware
  bookkeeping, only the history itself).

Every run is a pure function of its seed — replay a failing seed to get
the identical execution, fault for fault.

CLI: ``python -m repro.faults --seeds 20``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.admission import AdmissionConfig
from repro.core.failover import FailoverConfig
from repro.core.guarantees import Guarantee
from repro.core.promotion import PromotionConfig
from repro.core.sharding import ShardingConfig, shard_of
from repro.core.system import ReplicatedSystem
from repro.errors import (
    CircuitOpenError,
    FirstCommitterWinsError,
    FreshnessTimeoutError,
    LostUpdatesError,
    NoPrimaryError,
    OverloadError,
    ShardUnavailableError,
    SiteUnavailableError,
)
from repro.faults.channel import ChannelFaults
from repro.faults.plan import FaultInjector, FaultPlan
from repro.kernel import Kernel
from repro.kernel.sync import Condition
from repro.sim.rng import RandomStreams
from repro.workload.generator import arrival_times
from repro.txn.checkers import (
    CheckResult,
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)
from repro.txn.history import HistoryRecorder

#: Channel faults aggressive enough that every schedule sees drops,
#: duplicates and reordering, yet tame enough to converge quickly.
DEFAULT_FAULTS = ChannelFaults(drop=0.15, duplicate=0.10, jitter=2.0,
                               reorder=0.10, reorder_delay=3.0)


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos run: a seed plus workload/fault shape knobs."""

    seed: int
    num_secondaries: int = 3
    num_sessions: int = 4
    ops: int = 120
    keys: int = 8
    horizon: float = 120.0
    propagation_delay: float = 1.0
    faults: ChannelFaults = DEFAULT_FAULTS
    secondary_outages: int = 2
    primary_crash: bool = True
    propagator_stall: bool = True
    #: Make the primary failure *permanent*: the plan's primary window
    #: becomes kill + promotion of the freshest live secondary, the
    #: system gets ``promotion=PromotionConfig(promotion_wait=...)``,
    #: and the workload rides the failover (retrying updates, replacing
    #: sessions whose acknowledged commits were truncated).
    primary_kill: bool = False
    promotion_wait: float = 30.0
    failover_wait: float = 60.0
    update_fraction: float = 0.4
    #: Seeded partition windows: each blackholes one secondary's link
    #: (data held, control dropped) and heals it later in the run.
    partitions: int = 0
    #: Autonomous failover: run the heartbeat/lease/suspicion control
    #: plane and let the :class:`~repro.core.failover.AutoFailover`
    #: coordinator detect a killed primary and promote on its own — the
    #: plan's scripted ``promote_secondary`` trigger is suppressed.
    auto_failover: bool = False
    heartbeat_interval: float = 2.0
    suspicion_timeout: float = 8.0
    lease_duration: float = 12.0
    #: Throughput knobs (all default-off so classic chaos runs are
    #: bit-identical): propagation batching cycle and per-site
    #: autovacuum cadence.
    batch_interval: Optional[float] = None
    autovacuum_interval: Optional[float] = None
    #: Dependency-tracked parallel refresh (workers per secondary) and
    #: per-update-op virtual apply cost.  A nonzero cost is what makes
    #: reordering actually happen under faults — with free applies every
    #: commit finishes instantly and in order.  Both default off, so
    #: classic chaos runs stay bit-identical.
    parallel_refresh: Optional[int] = None
    refresh_apply_cost: float = 0.0
    #: Checker implementation ("incremental" or "legacy") and history
    #: recording mode ("ops" records every operation; "commits" records
    #: only transaction boundaries — the SI/completeness audits are then
    #: skipped, leaving just the convergence check).
    checker_method: str = "incremental"
    history_detail: str = "ops"
    #: Kernel event scheduler ("calendar" or "heap").  Same-seed chaos
    #: runs are bit-identical between the two (the equivalence CI leg
    #: diffs their summaries); the knob exists for that differential.
    scheduler: str = "calendar"
    #: Client arrival shaping ("uniform", "flash-crowd" or "diurnal").
    #: "uniform" keeps the classic sorted-uniform op times (bit-identical
    #: replay); the shaped patterns draw op instants from a dedicated
    #: "arrivals" stream, so the workload stream's draw sequence — and
    #: thus every op's session/key/value choice — is untouched.
    arrival_pattern: str = "uniform"
    #: Admission control / overload protection.  Default ``None`` keeps
    #: the classic closed-loop driver and a controller-free system
    #: (bit-identical).  When set, client ops are dispatched *open-loop*:
    #: per-session runner processes execute them concurrently across
    #: sessions (serialized within each), which is what actually fills
    #: the bounded admission queue during a burst.
    admission: Optional[AdmissionConfig] = None
    #: Keyspace sharding with partial replication: ``shards=N`` derives a
    #: placement where the first two secondaries hold every shard (so
    #: promotion always has a full-coverage candidate through any single
    #: outage) and each further secondary subscribes to an alternating
    #: half of the keyspace.  Default off, so classic chaos runs are
    #: bit-identical.
    shards: Optional[int] = None

    def sharding_config(self) -> Optional[ShardingConfig]:
        """The derived :class:`ShardingConfig` (None with sharding off)."""
        if self.shards is None:
            return None
        return ShardingConfig(
            shards=self.shards,
            placement=derived_placement(self.shards,
                                        self.num_secondaries))


def derived_placement(shards: int,
                      num_secondaries: int) -> tuple[frozenset, ...]:
    """Chaos-harness placement: two full-coverage replicas, then halves.

    Secondaries 0 and 1 subscribe to every shard — the promotion pool
    stays non-empty through any single-site outage — and each further
    secondary takes an alternating half of the shard range, so partial
    subscription, shard-aware routing and per-shard watermarks all get
    exercised whenever there are three or more secondaries.
    """
    full = frozenset(range(shards))
    if shards < 2:
        return tuple(full for _ in range(num_secondaries))
    half = shards // 2
    halves = (frozenset(range(half)), frozenset(range(half, shards)))
    placement = []
    for index in range(num_secondaries):
        if index < 2:
            placement.append(full)
        else:
            placement.append(halves[index % 2])
    return tuple(placement)


@dataclass
class ChaosResult:
    """Outcome and diagnostics of one chaos run."""

    seed: int
    converged: bool
    checks: list[CheckResult] = field(default_factory=list)
    plan: Optional[FaultPlan] = None
    #: The run's recorded history (for re-checking, e.g. differential
    #: incremental-vs-legacy tests) and its approximate size.
    recorder: Optional["HistoryRecorder"] = None
    history_bytes: int = 0
    #: Operation outcomes.
    updates: int = 0
    reads: int = 0
    deferred_updates: int = 0      # primary was down; dropped client-side
    fcw_aborts: int = 0
    #: Fault-machinery activity, summed over all links.
    channel_drops: int = 0
    channel_duplicates: int = 0
    channel_reorders: int = 0
    retransmissions: int = 0
    duplicates_filtered: int = 0
    failovers: int = 0
    secondary_crashes: int = 0
    secondary_recoveries: int = 0
    primary_crashes: int = 0
    primary_restarts: int = 0
    #: Promotion activity (all zero unless ``primary_kill`` is set).
    primary_kills: int = 0
    promotions: int = 0
    fenced_stale_records: int = 0
    lost_update_windows: int = 0
    lost_sessions: int = 0
    no_primary_errors: int = 0
    #: Autonomous-failover / partition activity (all zero unless
    #: ``auto_failover``/``partitions`` are set).
    suspicions: int = 0
    false_suspicions: int = 0
    lease_expiries: int = 0
    auto_promotions: int = 0
    partitions: int = 0            # partition events applied
    heals: int = 0
    zombie_records_fenced: int = 0
    #: Injector bookkeeping: how many plan events actually fired vs.
    #: were skipped as inapplicable (e.g. promote with no live
    #: candidate, heal of a never-cut link).
    events_applied: int = 0
    events_skipped: int = 0
    skipped_actions: tuple = ()
    #: Parallel-refresh activity, summed over all secondaries (zero
    #: unless ``parallel_refresh`` is set).
    out_of_order_commits: int = 0
    #: Kernel scheduler activity (identical between the calendar and
    #: heap schedulers on the same seed — part of the equivalence diff).
    events_dispatched: int = 0
    peak_queue_depth: int = 0
    timer_cancellations: int = 0
    same_instant_ratio: float = 0.0
    #: Partial-replication activity (all zero unless ``shards`` is set).
    shards: int = 0
    shard_routing_misses: int = 0
    deferred_reads: int = 0        # no live holder of the touched shard
    #: Overload / admission activity (all zero unless ``admission`` set).
    shed_updates: int = 0          # updates shed after the retry budget
    overload_retries: int = 0      # backed-off re-submissions
    breaker_fast_fails: int = 0    # updates failed fast by an open breaker
    breaker_opens: int = 0
    degraded_reads: int = 0        # reads served stale under degradation
    max_reported_staleness: int = 0
    read_timeouts: int = 0         # freshness deadline hit, no degradation
    admission_attempts: int = 0
    admission_admitted: int = 0
    admission_shed: int = 0        # controller-side sheds (incl. retried)
    admission_throttled: int = 0
    admission_peak_queue: int = 0
    brownouts: int = 0
    #: Storage-maintenance outcome (zero with autovacuum off).
    vacuum_runs: int = 0
    versions_reclaimed: int = 0
    max_version_count: int = 0     # worst per-site store after quiesce
    live_keys: int = 0             # keys in the converged primary state

    @property
    def ok(self) -> bool:
        return self.converged and all(c.ok for c in self.checks)

    def describe(self) -> str:
        """One human-readable line per aspect (used by CLI and asserts)."""
        lines = [f"seed {self.seed}: "
                 f"{'OK' if self.ok else 'FAILED'} "
                 f"(converged={self.converged})"]
        for check in self.checks:
            lines.append(f"  {check.summary()}")
            for violation in check.violations[:5]:
                lines.append(f"    {violation.kind}: {violation.message}")
        lines.append(
            f"  ops: {self.updates} updates ({self.deferred_updates} "
            f"deferred while primary down), {self.reads} reads, "
            f"{self.failovers} failovers")
        lines.append(
            f"  channel: {self.channel_drops} dropped, "
            f"{self.channel_duplicates} duplicated, "
            f"{self.channel_reorders} reordered, "
            f"{self.retransmissions} retransmitted, "
            f"{self.duplicates_filtered} dup-filtered")
        lines.append(
            f"  crashes: {self.secondary_crashes} secondary "
            f"(+{self.secondary_recoveries} recoveries), "
            f"{self.primary_crashes} primary "
            f"(+{self.primary_restarts} restarts)")
        if self.primary_kills or self.promotions:
            lines.append(
                f"  promotion: {self.primary_kills} kills, "
                f"{self.promotions} promotions, "
                f"{self.fenced_stale_records} fenced records, "
                f"{self.lost_update_windows} lost windows, "
                f"{self.lost_sessions} lost sessions, "
                f"{self.no_primary_errors} no-primary errors")
        if (self.partitions or self.suspicions or self.lease_expiries
                or self.auto_promotions or self.zombie_records_fenced):
            lines.append(
                f"  failover: {self.suspicions} suspicions "
                f"({self.false_suspicions} false), "
                f"{self.lease_expiries} lease expiries, "
                f"{self.auto_promotions} auto-promotions, "
                f"{self.partitions} partitions (+{self.heals} heals), "
                f"{self.zombie_records_fenced} zombie records fenced")
        if self.events_skipped:
            lines.append(
                f"  plan: {self.events_applied} events applied, "
                f"{self.events_skipped} skipped "
                f"({', '.join(sorted(set(self.skipped_actions)))})")
        if self.out_of_order_commits:
            lines.append(
                f"  parallel refresh: {self.out_of_order_commits} "
                f"commits applied out of order")
        if self.shards:
            lines.append(
                f"  sharding: {self.shards} shards, "
                f"{self.shard_routing_misses} routing misses, "
                f"{self.deferred_reads} reads deferred "
                f"(no live shard holder)")
        if self.admission_attempts:
            lines.append(
                f"  admission: {self.admission_attempts} attempts, "
                f"{self.admission_admitted} admitted, "
                f"{self.admission_shed} shed "
                f"({self.shed_updates} client-visible after "
                f"{self.overload_retries} retries), "
                f"{self.admission_throttled} throttled, "
                f"peak queue {self.admission_peak_queue}, "
                f"{self.brownouts} brownouts")
        if (self.degraded_reads or self.read_timeouts
                or self.breaker_opens):
            lines.append(
                f"  degradation: {self.degraded_reads} degraded reads "
                f"(max staleness {self.max_reported_staleness}), "
                f"{self.read_timeouts} freshness timeouts, "
                f"{self.breaker_opens} breaker opens "
                f"({self.breaker_fast_fails} fast-fails)")
        if self.vacuum_runs:
            lines.append(
                f"  vacuum: {self.vacuum_runs} runs, "
                f"{self.versions_reclaimed} versions reclaimed, "
                f"max store {self.max_version_count} "
                f"({self.live_keys} live keys)")
        if self.events_dispatched:
            lines.append(
                f"  kernel: {self.events_dispatched} events dispatched "
                f"({self.same_instant_ratio:.1%} same-instant), "
                f"peak queue depth {self.peak_queue_depth}, "
                f"{self.timer_cancellations} timer cancellations")
        return "\n".join(lines)


def _dispatch_closed_loop(system, config, result, workload, op_times,
                          sessions, replace_lost) -> None:
    """The classic serialized driver: one op at a time, in arrival order.

    Ops never overlap (the driver blocks on each), so no admission queue
    can ever fill — this is the ``admission=None`` path, kept draw-for-
    draw identical to the pre-admission harness.
    """
    for when in op_times:
        if when > system.kernel.now:
            system.run(until=when)
        session = workload.choice(sessions)
        key = f"k{workload.randint(0, config.keys - 1)}"
        if workload.bernoulli(config.update_fraction):
            try:
                session.write(key, workload.randint(0, 10_000))
                result.updates += 1
            except SiteUnavailableError:
                # Primary down: a real client would queue/retry; the
                # harness counts and moves on (reads keep working).
                result.deferred_updates += 1
            except NoPrimaryError:
                # Promotion-enabled runs retry internally; the bounded
                # wait expired before a new primary appeared.
                result.deferred_updates += 1
            except LostUpdatesError:
                replace_lost(session)
            except FirstCommitterWinsError:
                result.fcw_aborts += 1
        else:
            try:
                session.read(key, default=None)
                result.reads += 1
            except LostUpdatesError:
                replace_lost(session)
            except ShardUnavailableError:
                # Every replica holding the key's shard is down and the
                # failover deadline passed; a real client would retry.
                result.deferred_reads += 1


def _dispatch_open_loop(system, config, result, workload, op_times,
                        sessions, replace_lost) -> None:
    """The overload driver: per-session runners execute ops concurrently.

    Each op is handed to its session's runner process at the arrival
    instant and the driver moves straight on to the next arrival, so
    distinct sessions' operations overlap — during a flash crowd the
    token bucket empties and the bounded admission queue actually fills.
    Within one session ops stay serialized (a session is one client).
    """
    kernel = system.kernel
    pending: list[list] = [[] for _ in range(config.num_sessions)]
    closed = [False]
    cond = Condition(kernel, name="chaos-ops")

    def runner(index: int):
        while True:
            if not pending[index]:
                if closed[0]:
                    return
                yield cond.wait_for(
                    lambda: pending[index] or closed[0])
                continue
            is_update, key, value = pending[index].pop(0)
            session = sessions[index]
            if is_update:
                try:
                    yield from session._update_process(
                        lambda txn, k=key, v=value: txn.write(k, v))
                    result.updates += 1
                except (SiteUnavailableError, NoPrimaryError):
                    result.deferred_updates += 1
                except LostUpdatesError:
                    replace_lost(session)
                except FirstCommitterWinsError:
                    result.fcw_aborts += 1
                except OverloadError:
                    # Shed after the session's whole retry budget.
                    result.shed_updates += 1
                except CircuitOpenError:
                    result.breaker_fast_fails += 1
            else:
                try:
                    yield from session._read_only_process(
                        lambda txn, k=key: txn.read(k, default=None),
                        keys=[key])
                    result.reads += 1
                except LostUpdatesError:
                    replace_lost(session)
                except ShardUnavailableError:
                    result.deferred_reads += 1
                except FreshnessTimeoutError:
                    # read_deadline hit with degradation off.
                    result.read_timeouts += 1

    runners = [kernel.spawn(runner(i), name=f"client@{i}")
               for i in range(config.num_sessions)]
    for when in op_times:
        if when > kernel.now:
            system.run(until=when)
        index = workload.randint(0, config.num_sessions - 1)
        key = f"k{workload.randint(0, config.keys - 1)}"
        if workload.bernoulli(config.update_fraction):
            pending[index].append(
                (True, key, workload.randint(0, 10_000)))
        else:
            pending[index].append((False, key, None))
        cond.notify_all()
    closed[0] = True
    cond.notify_all()
    # Drain: every queued op (including backed-off retries past the
    # horizon) finishes before the fault plan is settled and audited.
    for process in runners:
        kernel.run_until_complete(process)


def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Execute one seeded chaos schedule and audit the result."""
    streams = RandomStreams(config.seed)
    promotion = (PromotionConfig(promotion_wait=config.promotion_wait)
                 if config.primary_kill or config.auto_failover else None)
    failover = (FailoverConfig(
        heartbeat_interval=config.heartbeat_interval,
        suspicion_timeout=config.suspicion_timeout,
        lease_duration=config.lease_duration)
        if config.auto_failover else None)
    system = ReplicatedSystem(
        kernel=Kernel(scheduler=config.scheduler),
        num_secondaries=config.num_secondaries,
        propagation_delay=config.propagation_delay,
        batch_interval=config.batch_interval,
        parallel_refresh=config.parallel_refresh,
        refresh_apply_cost=config.refresh_apply_cost,
        autovacuum_interval=config.autovacuum_interval,
        history_detail=config.history_detail,
        channel_faults=config.faults,
        fault_seed=config.seed,
        promotion=promotion,
        sharding=config.sharding_config(),
        failover=failover,
        admission=config.admission)
    plan = FaultPlan.random(
        streams["plan"], horizon=config.horizon,
        num_secondaries=config.num_secondaries,
        secondary_outages=config.secondary_outages,
        primary_crash=config.primary_crash,
        propagator_stall=config.propagator_stall,
        permanent_primary_kill=config.primary_kill,
        partitions=config.partitions,
        scripted_promotion=not config.auto_failover,
        overload=(config.admission is not None
                  and config.arrival_pattern == "flash-crowd"))
    injector = FaultInjector(system, plan)
    injector.start()

    # All sessions run at the strictest level: strong session SI must
    # hold for each of them through every fault in the plan.  Priorities
    # only differ (alternating high/low) when the shed policy actually
    # ranks by them, so the other policies see the classic flat field.
    def session_priority(index: int) -> int:
        if (config.admission is not None
                and config.admission.shed_policy == "by-session-priority"):
            return index % 2
        return 0

    sessions = [system.session(Guarantee.STRONG_SESSION_SI,
                               failover_wait=config.failover_wait,
                               priority=session_priority(i))
                for i in range(config.num_sessions)]
    all_sessions = list(sessions)      # replaced sessions still count

    def replace_lost(session) -> None:
        """Swap a session poisoned by ``LostUpdatesError`` for a fresh
        one — the client-side answer to a truncated session."""
        fresh = system.session(Guarantee.STRONG_SESSION_SI,
                               failover_wait=config.failover_wait,
                               priority=session.priority)
        sessions[sessions.index(session)] = fresh
        all_sessions.append(fresh)

    result = ChaosResult(seed=config.seed, converged=False, plan=plan)
    workload = streams["workload"]
    if config.arrival_pattern == "uniform":
        # The classic draw, verbatim: uniform runs replay bit-identically.
        op_times = sorted(workload.uniform(0.0, config.horizon)
                          for _ in range(config.ops))
    else:
        # Shaped arrivals come from a dedicated stream, so the workload
        # stream's draw sequence is untouched by the pattern choice.
        op_times = arrival_times(config.arrival_pattern, config.ops,
                                 config.horizon, streams["arrivals"])
    if config.admission is None:
        _dispatch_closed_loop(system, config, result, workload, op_times,
                              sessions, replace_lost)
    else:
        _dispatch_open_loop(system, config, result, workload, op_times,
                            sessions, replace_lost)

    # Drain the plan, then bring everything back and settle the system.
    if plan.horizon > system.kernel.now:
        system.run(until=plan.horizon)
    system.run(until=max(system.kernel.now, config.horizon))
    if system.partitions_active:           # pragma: no cover - plan ends healed
        system.heal()
    if system.propagator.paused:           # pragma: no cover - plan ends resumed
        system.propagator.resume()
    if config.auto_failover and system.primary.crashed:
        # Give the detector one full suspicion+lease cycle to declare
        # the death and promote on its own before falling back to the
        # scripted path (a kill at the very end of the horizon may not
        # have aged past the lease bound yet).
        grace = (config.lease_duration + config.suspicion_timeout
                 + 4 * config.heartbeat_interval)
        system.run(until=system.kernel.now + grace)
    if system.primary.crashed:             # pragma: no cover - plan ends restarted
        if system.primary.permanently_failed:
            system.promote_secondary()
        else:
            system.restart_primary()
    for index, secondary in enumerate(system.secondaries):
        if secondary.crashed:              # pragma: no cover - plan ends recovered
            system.recover_secondary(index)
    system.quiesce()

    # Retired sites share the new primary's engine; convergence is over
    # the replicas that still follow the feed.
    primary_state = system.primary_state()
    sharding = system.sharding
    if sharding is None:
        result.converged = all(
            system.secondary_state(i) == primary_state
            and system.secondaries[i].seq_db
            == system.primary.latest_commit_ts
            for i in range(config.num_secondaries)
            if not system.secondaries[i].retired)
    else:
        # Partial replication: a subscriber converges when it holds the
        # primary state *projected onto its subscription* and every
        # subscribed shard frontier reached the newest commit touching
        # the shard (the scalar seq_db target is unreachable for partial
        # subscribers — commits outside their subscription never ship).
        shard_last = system.propagator._shard_last_commit_ts

        def _shard_converged(index: int) -> bool:
            secondary = system.secondaries[index]
            expected = {
                key: value for key, value in primary_state.items()
                if shard_of(key, sharding.shards) in secondary.subscription}
            return (system.secondary_state(index) == expected
                    and all(secondary.shard_frontier.get(shard, 0)
                            >= shard_last.get(shard, 0)
                            for shard in secondary.subscription))

        result.converged = all(
            _shard_converged(i) for i in range(config.num_secondaries)
            if not system.secondaries[i].retired)
    result.recorder = system.recorder
    result.history_bytes = system.recorder.nbytes()
    if config.history_detail == "ops":
        method = config.checker_method
        result.checks = [
            check_completeness(system.recorder, method=method),
            check_weak_si(system.recorder, method=method),
            check_strong_session_si(system.recorder, method=method),
        ]

    for secondary in system.secondaries:
        link = system.propagator.link_for(secondary)
        if link is not None:               # None for the promoted site
            result.channel_drops += link.data_channel.dropped \
                + link.ack_channel.dropped
            result.channel_duplicates += link.data_channel.duplicated \
                + link.ack_channel.duplicated
            result.channel_reorders += link.data_channel.reordered \
                + link.ack_channel.reordered
            result.retransmissions += link.retransmissions
            result.duplicates_filtered += link.duplicates_filtered
        result.secondary_crashes += secondary.crash_count
        result.secondary_recoveries += secondary.recover_count
        result.out_of_order_commits += secondary.refresher.out_of_order_commits
    result.failovers = sum(s.failovers for s in all_sessions)
    result.no_primary_errors = sum(s.no_primary_errors
                                   for s in all_sessions)
    result.shards = config.shards or 0
    result.shard_routing_misses = sum(s.shard_routing_misses
                                      for s in all_sessions)
    result.primary_crashes = system.primary.crash_count
    result.primary_restarts = system.primary.restart_count
    result.primary_kills = sum(1 for event in injector.applied
                               if event.action == "kill_primary")
    result.promotions = system.promotions
    result.fenced_stale_records = system.fenced_stale_records
    result.lost_update_windows = system.lost_update_windows
    result.lost_sessions = sum(len(r.lost_sessions)
                               for r in system.promotion_reports)
    detector = system.auto_failover
    if detector is not None:
        result.suspicions = detector.suspicions
        result.false_suspicions = detector.false_suspicions
        result.lease_expiries = detector.lease_expiries
        result.auto_promotions = detector.auto_promotions
    controller = system.admission_controller
    if controller is not None:
        result.admission_attempts = controller.attempts
        result.admission_admitted = controller.admitted
        result.admission_shed = controller.shed
        result.admission_throttled = controller.throttled
        result.admission_peak_queue = controller.peak_queue_depth
        result.brownouts = controller.brownouts
        result.degraded_reads = controller.degraded_reads
        result.overload_retries = sum(s.overload_retries
                                      for s in all_sessions)
        result.breaker_opens = sum(
            s._breaker.opens for s in all_sessions
            if s._breaker is not None)
        result.max_reported_staleness = max(
            (report.staleness for s in all_sessions
             for report in s.staleness_reports), default=0)
    result.partitions = sum(1 for event in injector.applied
                            if event.action == "partition")
    result.heals = sum(1 for event in injector.applied
                       if event.action == "heal")
    result.zombie_records_fenced = system.zombie_records_fenced
    result.events_applied = len(injector.applied)
    result.events_skipped = len(injector.skipped)
    result.skipped_actions = tuple(event.action
                                   for event in injector.skipped)
    result.vacuum_runs = sum(d.runs for d in system.autovacuums)
    result.versions_reclaimed = sum(d.versions_reclaimed
                                    for d in system.autovacuums)
    result.max_version_count = max(
        site.engine.version_count
        for site in [system.primary, *system.secondaries])
    result.live_keys = len(primary_state)
    kernel_counters = system.kernel.counters()
    result.events_dispatched = kernel_counters["events_dispatched"]
    result.peak_queue_depth = kernel_counters["peak_queue_depth"]
    result.timer_cancellations = kernel_counters["timer_cancellations"]
    result.same_instant_ratio = kernel_counters["same_instant_ratio"]
    return result


def run_chaos_suite(seeds: list[int],
                    base: Optional[ChaosConfig] = None,
                    **overrides) -> list[ChaosResult]:
    """Run one chaos schedule per seed (shared config shape)."""
    from dataclasses import replace
    template = base or ChaosConfig(seed=0)
    return [run_chaos(replace(template, seed=seed, **overrides))
            for seed in seeds]
