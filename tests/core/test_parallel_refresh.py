"""Dependency-tracked parallel refresh: the conflict-graph scheduler.

Commit records carrying write-set fingerprints and a ``dep_ts`` bound
are injected straight into a secondary's update queue; the tests verify
the scheduler's contract — conflicting commits serialise, independent
commits overlap, and the watermark keeps every out-of-order apply
invisible until the contiguous prefix below it is complete — plus the
fence semantics and the dormant default.
"""

import pytest

from repro.core.guarantees import Guarantee
from repro.core.monitoring import system_status
from repro.core.records import (
    PropagatedCommit,
    PropagatedStart,
    key_fingerprint,
)
from repro.core.site import SecondarySite
from repro.core.system import ReplicatedSystem
from repro.errors import ConfigurationError, ReplicationError
from repro.kernel import Kernel
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)
from repro.txn.history import HistoryRecorder


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def recorder():
    return HistoryRecorder()


@pytest.fixture
def site(kernel, recorder):
    """Two parallel workers with a 1 s/op apply cost: commit durations
    are proportional to update-list length, so apply order is under
    test control."""
    return SecondarySite(kernel, name="secondary-1", recorder=recorder,
                         parallel_refresh=2, refresh_apply_cost=1.0)


def start(txn_id, start_ts=0):
    return PropagatedStart(txn_id=txn_id, start_ts=start_ts)


def commit(txn_id, commit_ts, updates, dep_ts=0, write_fps=None):
    updates = tuple(updates)
    if write_fps is None:
        write_fps = tuple(key_fingerprint(k) for k, _v, _d in updates)
    return PropagatedCommit(txn_id=txn_id, commit_ts=commit_ts,
                            updates=updates, write_fps=tuple(write_fps),
                            dep_ts=dep_ts)


def slow(txn_id, commit_ts, key, value, dep_ts=0):
    """A commit whose apply takes 3 virtual seconds (three updates of
    the same key fingerprint — the engine keeps the last value)."""
    ups = [(key, value, False)] * 3
    return commit(txn_id, commit_ts, ups, dep_ts=dep_ts)


def fast(txn_id, commit_ts, key, value, dep_ts=0, write_fps=None):
    return commit(txn_id, commit_ts, [(key, value, False)],
                  dep_ts=dep_ts, write_fps=write_fps)


def _commit_order(recorder):
    return [e.refresh_of for e in recorder.events
            if e.kind == "commit" and e.refresh_of is not None]


# ---------------------------------------------------------------------------
# The scheduler itself
# ---------------------------------------------------------------------------

def test_independent_commits_apply_out_of_order(kernel, recorder, site):
    """T2 (short, no conflict with T1) physically commits before T1 —
    the whole point of the mode."""
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(slow(1, 1, "a", 1))
    site.update_queue.put(fast(2, 2, "b", 2))
    kernel.run()
    assert _commit_order(recorder) == ["txn-p2", "txn-p1"]
    assert site.refresher.out_of_order_commits == 1
    assert site.engine.state_at() == {"a": 1, "b": 2}
    assert site.seq_db == 2


def test_conflicting_commits_serialise(kernel, recorder, site):
    """T2 writes T1's key (dep_ts names T1): despite being much
    shorter it must wait for T1 and apply second."""
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(slow(1, 1, "x", 1))
    site.update_queue.put(fast(2, 2, "x", 2, dep_ts=1))
    kernel.run()
    assert _commit_order(recorder) == ["txn-p1", "txn-p2"]
    assert site.refresher.out_of_order_commits == 0
    assert site.engine.state_at() == {"x": 2}
    assert site.seq_db == 2


def test_dep_ts_prunes_fingerprint_collisions(kernel, recorder, site):
    """A fingerprint match newer than the shipped dep_ts is a collision,
    not a real conflict: the edge is pruned and T2 still overtakes."""
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(slow(1, 1, "a", 1))
    # Same fingerprint as T1's key, but the primary says T2 depends on
    # nothing (dep_ts=0) — so the match cannot be a true conflict.
    site.update_queue.put(fast(2, 2, "b", 2,
                               write_fps=(key_fingerprint("a"),)))
    kernel.run()
    assert _commit_order(recorder) == ["txn-p2", "txn-p1"]
    assert site.refresher.out_of_order_commits == 1


def test_transitive_dependency_chain(kernel, recorder, site):
    """T3 depends on T2 depends on T1: the chain applies strictly in
    order even with idle workers available."""
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(start(3, 0))
    site.update_queue.put(slow(1, 1, "x", 1))
    site.update_queue.put(fast(2, 2, "x", 2, dep_ts=1))
    site.update_queue.put(fast(3, 3, "x", 3, dep_ts=2))
    kernel.run()
    assert _commit_order(recorder) == ["txn-p1", "txn-p2", "txn-p3"]
    assert site.engine.state_at() == {"x": 3}
    assert site.seq_db == 3


def test_watermark_gates_visibility(kernel, site):
    """While T1 is still applying, T2's already-committed version is
    invisible: reads and seq(DBsec) stay at the watermark."""
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(slow(1, 1, "a", 1))      # finishes at t=3
    site.update_queue.put(fast(2, 2, "b", 2))      # finishes at t=1
    probed = {}

    def probe():
        probed["state"] = site.engine.state_at()
        probed["seq_db"] = site.seq_db
        probed["lag"] = site.refresher.watermark_lag

    kernel.call_at(2.0, probe)                     # T2 done, T1 not
    kernel.run()
    assert probed["state"] == {}
    assert probed["seq_db"] == 0
    assert probed["lag"] == 2
    # Once the prefix completes, seq_db publishes both at once.
    assert site.seq_db == 2
    assert site.refresher.watermark_lag == 0
    assert site.refresher.max_watermark_lag == 2


def test_seq_db_never_exposes_a_hole(kernel, site):
    """A strong-session waiter blocked on seq_db >= 1 wakes only when
    the watermark crosses 1 — which, with T1 finishing last, means it
    observes 2 directly (1 alone was never a published state)."""
    seen = []

    def waiter():
        yield site.seq_cond.wait_for(lambda: site.seq_db >= 1)
        seen.append(site.seq_db)

    kernel.spawn(waiter())
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(slow(1, 1, "a", 1))
    site.update_queue.put(fast(2, 2, "b", 2))
    kernel.run()
    assert seen == [2]


def test_fence_truncates_out_of_order_applies(kernel, site):
    """A fence catching the scheduler mid-hole rolls back every commit
    above the watermark: those versions were never visible, and the new
    epoch's feed re-delivers or supersedes them."""
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(slow(1, 1, "a", 1))
    site.update_queue.put(fast(2, 2, "b", 2))
    kernel.run(until=2.0)                  # T2 applied above the watermark
    assert site.refresher.pending_count == 1       # T1 still in flight
    discarded = site.fence()
    # The in-flight T1 plus the rolled-back T2 both count as fenced.
    assert discarded == 2
    assert site.engine.state_at() == {}
    assert site.engine.latest_commit_ts == 0
    assert site.seq_db == 0
    # No refresh transaction survives the fence, and the site still
    # serves: a fresh feed starts clean.
    assert not site.engine.active_transactions
    site.update_queue.put(start(9, 0))
    site.update_queue.put(fast(9, 1, "c", 3))
    kernel.run()
    assert site.engine.state_at() == {"c": 3}
    assert site.seq_db == 1


def test_redelivered_commit_is_dropped_not_reapplied(kernel, site):
    site.update_queue.put(start(1, 0))
    site.update_queue.put(fast(1, 1, "x", 1))
    kernel.run()
    site.update_queue.put(fast(1, 1, "x", 1))      # redelivery
    kernel.run()
    assert site.refresher.stale_records_dropped == 1
    assert site.seq_db == 1
    assert site.engine.state_at() == {"x": 1}


# ---------------------------------------------------------------------------
# System integration, validation, and the dormant default
# ---------------------------------------------------------------------------

def test_parallel_system_converges_and_passes_checkers():
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.5,
                              parallel_refresh=4, refresh_apply_cost=0.05)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    for i in range(40):
        session.write(f"k{i % 10}", i)
    system.quiesce()
    state = system.primary_state()
    for i in range(2):
        assert system.secondary_state(i) == state
        assert system.secondaries[i].seq_db == \
            system.primary.latest_commit_ts
    for method in ("incremental", "legacy"):
        for check in (check_completeness, check_weak_si,
                      check_strong_session_si):
            result = check(system.recorder, method=method)
            assert result.ok, [v.message for v in result.violations]


def test_parallel_knob_validation():
    with pytest.raises((ConfigurationError, ReplicationError)):
        ReplicatedSystem(num_secondaries=1, parallel_refresh=0)
    with pytest.raises((ConfigurationError, ReplicationError)):
        ReplicatedSystem(num_secondaries=1, parallel_refresh=2,
                         serial_refresh=True)
    with pytest.raises((ConfigurationError, ReplicationError)):
        ReplicatedSystem(num_secondaries=1, refresh_apply_cost=-1.0)


def test_monitoring_surfaces_parallel_counters():
    system = ReplicatedSystem(num_secondaries=1, propagation_delay=0.5,
                              parallel_refresh=2, refresh_apply_cost=0.2)
    session = system.session()
    session.write("a", 1)
    session.write("b", 2)
    system.quiesce()
    status = system_status(system)
    assert status.secondaries[0].parallel_workers == 2
    assert "parallel:" in status.report()
    assert "workers=2" in status.report()


def test_parallel_off_is_dormant():
    """The default keeps every new surface inert: FIFO pending queue,
    no parallel report lines, zero scheduler state."""
    system = ReplicatedSystem(num_secondaries=1)
    session = system.session()
    session.write("a", 1)
    system.quiesce()
    refresher = system.secondaries[0].refresher
    assert refresher.parallel is None
    assert refresher.out_of_order_commits == 0
    assert refresher.watermark_lag == 0
    assert refresher.max_runnable_depth == 0
    status = system_status(system)
    assert status.secondaries[0].parallel_workers is None
    assert "parallel:" not in status.report()
