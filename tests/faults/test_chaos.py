"""Chaos property tests: the SI guarantees survive seeded fault storms.

Each run drives a full system — lossy channels on every propagation link,
two secondary crash/recovery windows, one primary crash with WAL restart,
one propagator stall — under a concurrent multi-session client workload,
then audits the recorded history with the checkers and requires replica
convergence.  Marked ``chaos`` so CI can run the sweep as its own job.
"""

import pytest

from repro.core.system import ReplicatedSystem
from repro.faults.channel import ChannelFaults
from repro.faults.harness import ChaosConfig, run_chaos
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)

pytestmark = pytest.mark.chaos

SEEDS = range(20)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_converges_and_passes_checkers(seed):
    result = run_chaos(ChaosConfig(seed=seed))
    # The schedule must actually have exercised the fault machinery...
    assert result.plan.count("crash_secondary") >= 1
    assert result.plan.count("crash_primary") == 1
    assert result.channel_drops > 0
    assert result.channel_duplicates > 0
    assert result.retransmissions > 0
    assert result.secondary_crashes >= 1
    assert result.secondary_recoveries == result.secondary_crashes
    assert result.primary_crashes == 1 and result.primary_restarts == 1
    # ... and the paper's guarantees must have survived it.
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()
    assert result.ok


#: Memory bound for the autovacuum storm: no site may hold more than
#: this multiple of the live key count in version-chain entries once the
#: run has settled (vacuum keeps chains near one version per key; the
#: slack absorbs updates committed after the final vacuum pass).
MEMORY_BOUND_MULTIPLE = 3


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_memory_bounded_with_autovacuum(seed):
    """A fault storm with autovacuum running stays memory-bounded: the
    guarantees survive AND version chains do not grow with update count."""
    result = run_chaos(ChaosConfig(seed=seed, autovacuum_interval=5.0))
    assert result.ok, result.describe()
    assert result.vacuum_runs > 0
    assert result.versions_reclaimed > 0
    bound = MEMORY_BOUND_MULTIPLE * max(result.live_keys, 1)
    assert result.max_version_count <= bound, (
        f"seed {seed}: {result.max_version_count} versions for "
        f"{result.live_keys} live keys exceeds {bound}\n"
        + result.describe())


def test_chaos_survives_full_throughput_pipeline():
    """Batch shipping + costly applies + autovacuum, all enabled,
    under the same fault storm: convergence and checkers must hold."""
    result = run_chaos(ChaosConfig(seed=5, batch_interval=0.5,
                                   refresh_apply_cost=0.02,
                                   autovacuum_interval=5.0))
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()
    assert result.ok


def test_chaos_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=3))
    b = run_chaos(ChaosConfig(seed=3))
    assert a.describe() == b.describe()
    assert a.plan == b.plan


def test_different_seeds_differ():
    a = run_chaos(ChaosConfig(seed=1))
    b = run_chaos(ChaosConfig(seed=2))
    assert a.plan != b.plan


@pytest.mark.parametrize("seed", range(3))
def test_chaos_identical_across_schedulers(seed):
    """Heap-vs-calendar bit-identity under the heaviest fault schedule.

    Partitions plus autonomous failover exercise every timer user in
    the stack (heartbeats, leases, retransmit backoffs, partition
    windows); the summary — including the kernel counter line, which
    counts properties of the event stream — must match byte-for-byte.
    The full 20-seed sweep diff runs in the CI chaos job via
    ``python -m repro.faults --scheduler {calendar,heap}``.
    """
    config = dict(seed=seed, partitions=2, primary_kill=True,
                  auto_failover=True)
    calendar = run_chaos(ChaosConfig(scheduler="calendar", **config))
    heap = run_chaos(ChaosConfig(scheduler="heap", **config))
    assert calendar.describe() == heap.describe()
    assert calendar.plan == heap.plan
    assert calendar.events_dispatched == heap.events_dispatched > 0
    assert calendar.peak_queue_depth == heap.peak_queue_depth > 0


def test_chaos_summary_reports_kernel_counters():
    result = run_chaos(ChaosConfig(seed=0))
    assert result.events_dispatched > 0
    summary = result.describe()
    assert "kernel:" in summary
    assert "events dispatched" in summary
    assert "peak queue depth" in summary


def test_fault_injection_disabled_means_no_links():
    """The bit-identical contract: without channel faults the propagator
    routes records exactly as before (no links, no extra RNG draws)."""
    plain = ReplicatedSystem(num_secondaries=2)
    assert all(plain.propagator.link_for(s) is None
               for s in plain.secondaries)
    faulty = ReplicatedSystem(num_secondaries=2,
                              channel_faults=ChannelFaults(drop=0.1),
                              fault_seed=1)
    assert all(faulty.propagator.link_for(s) is not None
               for s in faulty.secondaries)


def test_faulty_system_converges_without_fault_plan():
    """Channel faults alone (no crashes) must be fully absorbed by the
    link protocol: clients and checkers cannot tell the difference."""
    system = ReplicatedSystem(
        num_secondaries=2, propagation_delay=1.0,
        channel_faults=ChannelFaults(drop=0.3, duplicate=0.2, jitter=2.0,
                                     reorder=0.2, reorder_delay=3.0),
        fault_seed=42)
    session = system.session(secondary=0)
    for i in range(20):
        session.write(f"k{i % 4}", i)
    system.quiesce()
    assert system.secondary_state(0) == system.primary_state()
    assert system.secondary_state(1) == system.primary_state()
    total_dropped = sum(
        system.propagator.link_for(s).data_channel.dropped
        for s in system.secondaries)
    assert total_dropped > 0        # faults actually fired


# ---------------------------------------------------------------------------
# Promotion storms: permanent primary kill + epoch-fenced failover
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_promotion_storm_converges_and_passes_checkers(seed):
    """Every storm permanently kills the primary and promotes a
    secondary mid-run; the surviving replicas must converge on the new
    primary and the history must pass all checkers across the promotion
    epoch (no transaction inversion for any surviving session)."""
    result = run_chaos(ChaosConfig(seed=seed, primary_kill=True))
    assert result.plan.count("kill_primary") == 1
    assert result.plan.count("promote_secondary") == 1
    assert result.primary_kills == 1
    assert result.promotions == 1
    assert result.primary_restarts == 0
    # Acknowledged-commit loss, when it happens, is accounted: a lost
    # window implies lost sessions were poisoned (or nobody owned the
    # truncated commits), never silently absorbed.
    assert result.lost_update_windows in (0, 1)
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()
    assert result.ok


def test_promotion_storm_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=4, primary_kill=True))
    b = run_chaos(ChaosConfig(seed=4, primary_kill=True))
    assert a.describe() == b.describe()
    assert a.plan == b.plan


# ---------------------------------------------------------------------------
# Parallel-refresh storms: dependency-tracked out-of-order apply
# ---------------------------------------------------------------------------

#: Nonzero apply cost is what makes out-of-order apply actually happen:
#: with free applies every commit finishes instantly and in order.
PARALLEL = dict(parallel_refresh=4, refresh_apply_cost=0.02)


def _legacy_checks(result):
    """Re-audit the run's history with the legacy checkers: parallel
    apply must satisfy both implementations, not just the incremental
    one used inside ``run_chaos``."""
    return [check_completeness(result.recorder, method="legacy"),
            check_weak_si(result.recorder, method="legacy"),
            check_strong_session_si(result.recorder, method="legacy")]


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_refresh_storm_converges_and_passes_checkers(seed):
    """Out-of-order apply under the full fault storm: convergence plus
    completeness/weak-SI/strong-session-SI, with both checker
    implementations, for every seed."""
    result = run_chaos(ChaosConfig(seed=seed, **PARALLEL))
    assert result.converged, result.describe()
    for check in result.checks + _legacy_checks(result):
        assert check.ok, result.describe()
    assert result.ok


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_refresh_promotion_storm(seed):
    """Parallel refresh must survive a permanent primary kill: fencing
    a secondary mid-apply (workers in flight, parked commits above the
    watermark) must not wedge promotion or leak phantom versions."""
    result = run_chaos(ChaosConfig(seed=seed, primary_kill=True,
                                   **PARALLEL))
    assert result.primary_kills == 1
    assert result.promotions == 1
    assert result.converged, result.describe()
    for check in result.checks + _legacy_checks(result):
        assert check.ok, result.describe()
    assert result.ok


def test_parallel_refresh_storms_actually_reorder():
    """The storms above only prove something if apply really runs out
    of order somewhere in the sweep — guard against a silently serial
    configuration."""
    total = sum(
        run_chaos(ChaosConfig(seed=seed, **PARALLEL)).out_of_order_commits
        for seed in range(4))
    assert total > 0


def test_parallel_refresh_storm_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=6, **PARALLEL))
    b = run_chaos(ChaosConfig(seed=6, **PARALLEL))
    assert a.describe() == b.describe()
    assert a.plan == b.plan


def test_promotion_disabled_same_seed_is_bit_identical():
    """The promotion=None guard: a primary_kill=False run draws the
    same plan and produces the identical execution with every promotion
    counter dormant — the new machinery is invisible until enabled."""
    a = run_chaos(ChaosConfig(seed=3))
    b = run_chaos(ChaosConfig(seed=3))
    assert a.describe() == b.describe()
    assert a.promotions == a.primary_kills == 0
    assert a.lost_update_windows == a.lost_sessions == 0
    assert a.no_primary_errors == 0
    assert "promotion:" not in a.describe()
    assert a.plan.count("kill_primary") == 0
    # The failover/partition machinery is equally dormant by default:
    # no detector, no control traffic, no partition draws, no fencing.
    assert a.plan.count("partition") == a.plan.count("heal") == 0
    assert a.suspicions == a.false_suspicions == 0
    assert a.lease_expiries == a.auto_promotions == 0
    assert a.partitions == a.heals == a.zombie_records_fenced == 0
    assert "failover:" not in a.describe()


# ---------------------------------------------------------------------------
# Autonomous-failover storms: partitions + permanent kill, no scripted
# promotion trigger — the heartbeat/lease/suspicion control plane must
# detect the death and elect on its own.
# ---------------------------------------------------------------------------

AUTO = dict(primary_kill=True, auto_failover=True, partitions=2)


@pytest.mark.parametrize("seed", SEEDS)
def test_auto_failover_partition_storm(seed):
    """Every storm kills the primary for good and cuts links with seeded
    partition windows, with *no* promote_secondary event in the plan:
    promotion must come from the AutoFailover coordinator.  Convergence
    and all three checkers (both implementations) must hold, every
    zombie record must be fenced, and any acknowledged-commit loss must
    be surfaced as a poisoned session — never silent."""
    result = run_chaos(ChaosConfig(seed=seed, **AUTO))
    assert result.plan.count("kill_primary") == 1
    assert result.plan.count("promote_secondary") == 0
    assert result.plan.count("partition") == 2
    assert result.plan.count("heal") == 2
    assert result.primary_kills == 1
    assert result.promotions == 1
    assert result.auto_promotions == 1
    assert result.suspicions >= 1
    # At most the one kill can truncate acknowledged commits, and the
    # loss is accounted, never silently absorbed.
    assert result.lost_update_windows in (0, 1)
    assert result.converged, result.describe()
    for check in result.checks + _legacy_checks(result):
        assert check.ok, result.describe()
    assert result.ok


def test_auto_failover_storm_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=7, **AUTO))
    b = run_chaos(ChaosConfig(seed=7, **AUTO))
    assert a.describe() == b.describe()
    assert a.plan == b.plan


def test_partitions_alone_are_absorbed():
    """Partition windows without any primary failure: the held traffic
    is delivered on heal and the run is indistinguishable from a slow
    network — no suspicion quorum, no election, full convergence."""
    result = run_chaos(ChaosConfig(seed=9, primary_crash=False,
                                   partitions=2))
    assert result.partitions >= 1
    assert result.promotions == 0
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()


def test_auto_failover_plan_has_no_scripted_trigger():
    """The same-draws discipline end to end: the auto-failover plan is
    the scripted kill plan minus its promote_secondary event, with no
    other seeded choice shifted."""
    scripted = run_chaos(ChaosConfig(seed=11, primary_kill=True)).plan
    auto = run_chaos(ChaosConfig(seed=11, **AUTO)).plan
    scripted_events = [(e.at, e.action, e.target) for e in scripted
                       if e.action != "promote_secondary"]
    auto_events = [(e.at, e.action, e.target) for e in auto
                   if e.action not in ("partition", "heal")]
    assert scripted_events == auto_events


# -- keyspace sharding / partial replication (PR 9) ----------------------------

SHARDED = dict(shards=8)


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_storm_converges_and_passes_checkers(seed):
    """Partial replication under the full fault storm: per-shard
    convergence (each replica against its subscription-projected primary
    state) plus completeness/weak-SI/strong-session-SI verified against
    projected sub-histories, with both checker implementations."""
    result = run_chaos(ChaosConfig(seed=seed, **SHARDED))
    assert result.shards == 8
    assert result.converged, result.describe()
    for check in result.checks + _legacy_checks(result):
        assert check.ok, result.describe()
    assert result.ok


@pytest.mark.parametrize("seed", range(8))
def test_sharded_promotion_storm(seed):
    """A permanent primary kill under partial placement: only a
    full-coverage replica may be promoted, and the rebuilt per-shard
    frontier map must keep every surviving session and recovery
    satisfiable (no frontier-wait deadlocks)."""
    result = run_chaos(ChaosConfig(seed=seed, primary_kill=True,
                                   **SHARDED))
    assert result.primary_kills == 1
    assert result.promotions == 1
    assert result.converged, result.describe()
    for check in result.checks + _legacy_checks(result):
        assert check.ok, result.describe()
    assert result.ok


@pytest.mark.parametrize("seed", range(4))
def test_sharded_combined_storm(seed):
    """Sharding composed with everything else at once: partitions,
    permanent kill and dependency-tracked parallel refresh."""
    result = run_chaos(ChaosConfig(seed=seed, shards=4, num_secondaries=5,
                                   partitions=2, primary_kill=True,
                                   parallel_refresh=4,
                                   refresh_apply_cost=0.02))
    assert result.shards == 4
    assert result.converged, result.describe()
    for check in result.checks + _legacy_checks(result):
        assert check.ok, result.describe()
    assert result.ok


def test_sharded_storm_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=5, **SHARDED))
    b = run_chaos(ChaosConfig(seed=5, **SHARDED))
    assert a.describe() == b.describe()
    assert a.plan == b.plan
