"""Algorithms 3.2/3.3 — secondary refresh with concurrent applicators.

One refresher process runs per secondary.  It dequeues propagated records
from the local FIFO *update queue* and:

* on ``start_p(T)`` — **blocks until the pending queue is empty**, then
  starts T's refresh transaction R against the local engine (this is what
  enforces relationship 2: a refresh transaction does not start until every
  refresh transaction that committed before T started has committed here);
* on ``commit_p(T)`` — appends ``commit_p(T)`` to the pending queue and
  hands the record to an *applicator* that replays T's update list inside
  R, then waits until its commit record reaches the **head** of the
  pending queue before committing (relationship 3: commit order equals
  primary commit order);
* on ``abort_p(T)`` — aborts R.

A :class:`~repro.core.records.PropagatedBatch` frame (produced by a
batching propagator) is unpacked in place: its records are processed in
log order exactly as if they had arrived individually, but the whole
frame cost only one delivery event.

Every commit record forks its own applicator process (the paper's
"spawn an applicator thread").  Multiple applicators run concurrently,
which is the whole point: the refresher exploits the local SI
concurrency control instead of replaying the log serially.  ``serial``
mode, the ablation baseline, joins each applicator before reading the
next record (the ablation benchmark quantifies the difference).

The applicator additionally maintains ``seq(DBsec)`` for
ALG-STRONG-SESSION-SI: immediately after R commits — and before the commit
record is removed from the pending queue — it sets ``seq(DBsec)`` to
``commit_p(T)`` (Section 4).

Dependency-tracked parallel refresh
-----------------------------------
The FIFO refresher above commits refresh transactions strictly in
primary commit order, so commit parallelism never exceeds 1: every
applicator but the pending-queue head is blocked.  ``parallel`` workers
instead run a conflict-graph scheduler over the dependency summary the
propagator ships with each commit (C5-style out-of-order apply):

* a commit record becomes **runnable** once every conflicting
  predecessor — computed from the shipped write-set key fingerprints
  against a local last-writer map, with the shipped ``dep_ts`` pruning
  fingerprint-collision false edges — has applied; non-conflicting
  commits run (and commit, at their explicit primary timestamps) in any
  order, on any worker;
* a **watermark** tracks the contiguous applied prefix; ``seq(DBsec)``
  and the engine's snapshot counter advance only at watermark
  boundaries, so versions committed out of order above the watermark
  are invisible to every read until the prefix below them is complete.

Observationally the secondary is unchanged: reads begin at snapshot
``watermark`` and see exactly the primary state of that number, strong
session blocking waits on the watermark, and promotion fencing sees
``latest_commit_ts == seq(DBsec)`` — relationships 1-3 hold for every
*visible* state even though the physical apply order is relaxed.

Sharded (partial-replication) streams
-------------------------------------
Under :class:`~repro.core.sharding.ShardingConfig` the propagator ships
commit records only — no starts, no aborts — and projects each commit
onto the subscriber's shard set, so the arriving stream has commit
timestamp *gaps* (filtered-out commits) while staying in primary commit
order.  Two consequences, both gated on ``site.sharded``:

* every refresh transaction begins at its commit record and commits via
  ``commit_refresh_at`` at the explicit primary timestamp (with the
  snapshot counter published separately), exactly as parallel mode
  already does — a locally-assigned commit number would drift off the
  primary's numbering at the first gap.  Since such a transaction only
  buffers blind writes, its begin snapshot carries no ordering
  obligation and admission needs no relationship-2 wait at all;
* visibility advances along *admission order* rather than timestamp
  contiguity: FIFO modes still retire the pending-queue head, and
  parallel mode walks an admission-order queue instead of probing
  ``watermark + 1``.  At each visibility step the site's per-shard
  frontiers advance from the record's ``shard_seqs`` metadata.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.records import (
    PropagatedAbort,
    PropagatedBatch,
    PropagatedCommit,
    PropagatedStart,
)
from repro.errors import ReplicationError
from repro.kernel import Condition, Kernel, Process, Queue

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.site import SecondarySite


class Refresher:
    """The refresh process plus its applicators at one secondary."""

    def __init__(self, kernel: Kernel, site: "SecondarySite",
                 serial: bool = False,
                 parallel: Optional[int] = None,
                 apply_cost: float = 0.0):
        if parallel is not None and parallel < 1:
            raise ReplicationError("parallel refresh worker count must "
                                   "be >= 1")
        if parallel is not None and serial:
            raise ReplicationError(
                "parallel refresh excludes serial refresh")
        if apply_cost < 0:
            raise ReplicationError("refresh apply cost must be >= 0")
        self.kernel = kernel
        self.site = site
        #: Serial mode applies each transaction to completion before
        #: processing the next record — the naive log-sequence replay the
        #: paper argues against (used by the ablation study).
        self.serial = serial
        #: Dependency-tracked out-of-order worker count; ``None`` keeps
        #: the strict-FIFO commit order of the other modes.
        self.parallel = parallel
        #: Modelled apply cost (virtual time per update operation) spent
        #: by an applicator before replaying a commit's update list; 0.0
        #: adds no kernel events (bit-identical).
        self.apply_cost = apply_cost
        self.pending: deque[int] = deque()
        self.pending_cond = Condition(kernel, name=f"{site.name}-pending")
        self._refresh_txns: dict[int, object] = {}
        self._applicators: list[Process] = []
        self._workers: list[Process] = []
        self._busy_workers = 0
        # -- conflict-graph scheduler state (parallel mode only) --------
        #: Runnable commit records, claimable by any worker.
        self._runnable: Optional[Queue] = None
        #: key fingerprint -> newest enqueued commit_ts writing it.
        self._fp_last_writer: dict[int, int] = {}
        #: blocked commit_ts -> unapplied conflicting predecessor ts.
        self._blockers: dict[int, set[int]] = {}
        #: predecessor ts -> commit_ts values waiting on it.
        self._dependents: dict[int, list[int]] = {}
        #: blocked commit_ts -> its commit record (parked until runnable).
        self._parked: dict[int, PropagatedCommit] = {}
        #: Every enqueued-but-not-yet-applied commit_ts (parked, queued
        #: runnable, or claimed by a worker) — the parallel-mode
        #: equivalent of the FIFO pending queue.
        self._inflight: set[int] = set()
        #: Applied commit_ts above the watermark (holes pending below).
        self._applied: set[int] = set()
        #: Contiguous applied prefix; the only state reads ever see.
        self._watermark = 0
        #: Admission-order commit queue (sharded parallel mode only):
        #: projected streams leave commit_ts gaps, so the visible prefix
        #: advances along arrival order instead of ts contiguity.
        self._admitted: deque[int] = deque()
        #: commit_ts -> ``shard_seqs`` wire metadata, consumed when the
        #: commit becomes visible (sharded parallel mode only).
        self._shard_meta: dict[int, tuple] = {}
        #: Newest primary commit_ts accepted into the pending queue.
        #: Together with ``seq(DBsec)`` this is the replay high-water
        #: mark: commit records at or below it are redeliveries.
        self._max_enqueued_ts = 0
        self.refreshes_applied = 0
        self.stale_records_dropped = 0
        self.max_concurrent_applicators = 0
        #: Refresh transactions committed at a timestamp beyond
        #: watermark+1 (parallel mode): actual out-of-order applies.
        self.out_of_order_commits = 0
        #: Peak depth of the runnable queue (parallel mode).
        self.max_runnable_depth = 0
        #: Peak of ``_max_enqueued_ts - watermark`` observed at apply
        #: time (parallel mode): how far the backlog stretched.
        self.max_watermark_lag = 0
        #: Peak accepted-but-unapplied backlog (any mode) — the
        #: unbounded-queue evidence the overload bench compares across
        #: admission-on/off runs.
        self.peak_pending = 0
        self.process: Optional[Process] = None
        self.start()

    def start(self) -> None:
        """(Re)start the refresher process (after construction or crash)."""
        self.process = self.kernel.spawn(
            self._run(), name=f"refresher@{self.site.name}", daemon=True)
        if self.parallel is not None:
            # The watermark resumes from the visible state: after a
            # recovery the installed copy *is* S^seq_db, so everything at
            # or below it is applied by definition.
            self._watermark = self.site.seq_db
            self._runnable = Queue(self.kernel,
                                   name=f"{self.site.name}-runnable")
            self._workers = [
                self.kernel.spawn(
                    self._parallel_worker(),
                    name=f"refresh-worker@{self.site.name}:{i}",
                    daemon=True)
                for i in range(self.parallel)
            ]

    def stop(self) -> None:
        """Kill the refresher and all in-flight applicators (site crash)."""
        if self.process is not None:
            self.kernel.kill(self.process)
            self.process = None
        for applicator in self._applicators:
            self.kernel.kill(applicator)
        self._applicators.clear()
        for worker in self._workers:
            self.kernel.kill(worker)
        self._workers.clear()
        if self._runnable is not None:
            self._runnable.drain()
            self._runnable = None
        self._fp_last_writer.clear()
        self._blockers.clear()
        self._dependents.clear()
        self._parked.clear()
        self._inflight.clear()
        self._applied.clear()
        self._admitted.clear()
        self._shard_meta.clear()
        self._busy_workers = 0
        self.pending.clear()
        self._refresh_txns.clear()
        self._max_enqueued_ts = 0

    def fence(self, restart: bool = True) -> int:
        """Discard all refresh state across a cluster-epoch fence.

        Unlike a crash — where ``engine.crash()`` aborts every open
        transaction as a side effect — a fenced site keeps its engine up
        to serve reads, so the open refresh transactions must be aborted
        explicitly: both the ones still parked in ``_refresh_txns``
        awaiting their commit records and the ones already claimed by an
        applicator (popped from the dict, held only by the process about
        to be killed).  With ``restart=False`` the refresher stays down
        (a promoted site permanently leaves the replica tier).

        In parallel mode, commits applied out of order above the
        watermark are additionally rolled back
        (``engine.truncate_after``): they were never visible to any read,
        and the new regime re-delivers or supersedes them — leaving their
        versions installed would collide with that re-delivery.  Returns
        the number of such discarded out-of-order commits (0 in FIFO
        modes).
        """
        from repro.storage.engine import TxnStatus
        for txn in list(self.site.engine.active_transactions):
            if (txn.metadata or {}).get("refresh_of") is not None \
                    and txn.status is TxnStatus.ACTIVE:
                txn.abort("cluster epoch fence")
        stale_applied = 0
        if self.parallel is not None and self._applied:
            stale_applied = len(self._applied)
            self.site.engine.truncate_after(self._watermark)
        self.stop()
        if restart:
            self.start()
        return stale_applied

    @property
    def pending_count(self) -> int:
        """Accepted-but-unapplied refresh transactions, any mode (the
        FIFO pending queue, or the parallel scheduler's in-flight set)."""
        if self.parallel is not None:
            return len(self._inflight)
        return len(self.pending)

    @property
    def watermark_lag(self) -> int:
        """How far the newest accepted commit runs ahead of the visible
        contiguous prefix (0 in FIFO modes, where they coincide)."""
        if self.parallel is None:
            return 0
        return max(0, self._max_enqueued_ts - self._watermark)

    @property
    def idle(self) -> bool:
        """True when there is no queued or in-flight refresh work."""
        return (not self.pending and not self._inflight
                and self.site.update_queue.empty
                and self.site.records_unprocessed == 0)

    # -- Algorithm 3.2 -----------------------------------------------------
    def _run(self):
        while True:
            item = yield self.site.update_queue.get()
            if type(item) is PropagatedBatch:
                # One delivery event carried a whole propagation cycle;
                # unpack and process the records in log order.
                for record in item.records:
                    yield from self._handle(record)
            else:
                yield from self._handle(item)
            self.site.record_handled()

    def _handle(self, record):
        """Process one propagated record (one Algorithm 3.2 iteration)."""
        if isinstance(record, PropagatedStart):
            if record.txn_id in self._refresh_txns:
                # Redelivered start (recovery replay overlapping the
                # propagator's own resumed stream); already begun.
                self.stale_records_dropped += 1
                return
            if self.parallel is None:
                yield self.pending_cond.wait_for(lambda: not self.pending)
            # Parallel mode needs no relationship-2 wait: the refresh
            # transaction only buffers writes and commits at an explicit
            # primary timestamp, so its begin snapshot carries no
            # ordering obligation — conflict scheduling at commit time
            # provides exactly the serialisation the wait provided.
            self._begin_refresh(record.txn_id, record.start_ts)
        elif isinstance(record, PropagatedCommit):
            if record.commit_ts <= max(self.site.seq_db,
                                       self._max_enqueued_ts):
                # Replay high-water mark: this commit is already in
                # the database (contained in a recovery copy, or
                # redelivered behind its twin).  Applying it again
                # would shift the local state numbering off the
                # primary's, so discard it — and the refresh
                # transaction a redelivered start may have opened.
                if record.commit_ts in self.pending \
                        or record.commit_ts in self._inflight:
                    # The original commit is still queued for
                    # application (FIFO pending queue or the parallel
                    # scheduler's in-flight set): its refresh
                    # transaction is live and owned by an applicator,
                    # so only the duplicate is dropped.
                    self.stale_records_dropped += 1
                    return
                txn = self._refresh_txns.pop(record.txn_id, None)
                if txn is not None:
                    txn.abort("stale refresh redelivery")
                self.stale_records_dropped += 1
                return
            self._max_enqueued_ts = record.commit_ts
            if self.parallel is not None:
                if record.txn_id not in self._refresh_txns:
                    self._begin_refresh(record.txn_id, None)
                if self.site.sharded:
                    self._admitted.append(record.commit_ts)
                    self._shard_meta[record.commit_ts] = record.shard_seqs
                self._schedule(record)
                return
            if record.txn_id not in self._refresh_txns:
                if self.site.sharded:
                    # Commit-only projected stream: the refresh
                    # transaction begins here, buffers blind writes and
                    # will commit at its explicit primary timestamp, so
                    # its begin snapshot carries no ordering obligation
                    # — no relationship-2 wait (see module docstring).
                    self._begin_refresh(record.txn_id, None)
                else:
                    # Late join after recovery: the start record was lost
                    # with the old epoch.  Serialise this transaction.
                    yield self.pending_cond.wait_for(
                        lambda: not self.pending)
                    self._begin_refresh(record.txn_id, None)
            self.pending.append(record.commit_ts)
            if len(self.pending) > self.peak_pending:
                self.peak_pending = len(self.pending)
            applicator = self.kernel.spawn(
                self._apply(record),
                name=f"applicator@{self.site.name}:{record.txn_id}",
                daemon=True)
            self._applicators.append(applicator)
            self.max_concurrent_applicators = max(
                self.max_concurrent_applicators,
                sum(1 for a in self._applicators if a.alive))
            if self.serial:
                yield applicator.join()
            self._applicators = [a for a in self._applicators
                                 if a.alive]
        elif isinstance(record, PropagatedAbort):
            txn = self._refresh_txns.pop(record.txn_id, None)
            if txn is not None:
                txn.abort("primary abort propagated")
        else:
            raise ReplicationError(
                f"unknown record in update queue: {record!r}")

    def _begin_refresh(self, primary_txn_id: int,
                       start_ts: Optional[int]) -> None:
        txn = self.site.engine.begin(update=True, metadata={
            "logical_id": f"refresh-{primary_txn_id}@{self.site.name}",
            "refresh_of": f"txn-p{primary_txn_id}",
            "primary_start_ts": start_ts,
        })
        self._refresh_txns[primary_txn_id] = txn

    # -- conflict-graph scheduling (parallel mode) ----------------------------
    def _schedule(self, record: PropagatedCommit) -> None:
        """Admit one commit record: park it behind its unapplied
        conflicting predecessors, or hand it straight to the workers.

        Records arrive in primary commit order, so the local last-writer
        map mirrors the propagator's at every admission point; a
        predecessor missing from the in-flight set is already applied
        (or predates this refresher incarnation's visible state) and
        imposes no edge.  The shipped ``dep_ts`` upper-bounds every true
        per-key predecessor, pruning fingerprint-collision edges that
        would only over-serialise.
        """
        ts = record.commit_ts
        inflight = self._inflight
        inflight.add(ts)
        if len(inflight) > self.peak_pending:
            self.peak_pending = len(inflight)
        fp_last = self._fp_last_writer
        dep_ts = record.dep_ts
        blockers: Optional[set[int]] = None
        for fp in record.write_fps:
            prev = fp_last.get(fp)
            if prev is not None and prev <= dep_ts and prev in inflight \
                    and prev != ts:
                if blockers is None:
                    blockers = set()
                blockers.add(prev)
            fp_last[fp] = ts
        if blockers:
            self._blockers[ts] = blockers
            self._parked[ts] = record
            dependents = self._dependents
            for prev in blockers:
                dependents.setdefault(prev, []).append(ts)
        else:
            self._make_runnable(record)

    def _make_runnable(self, record: PropagatedCommit) -> None:
        self._runnable.put(record)
        depth = len(self._runnable)
        if depth > self.max_runnable_depth:
            self.max_runnable_depth = depth

    def _parallel_worker(self):
        """One out-of-order applicator: applies any runnable commit and
        commits it at its explicit primary timestamp."""
        while True:
            record = yield self._runnable.get()
            self._busy_workers += 1
            if self._busy_workers > self.max_concurrent_applicators:
                self.max_concurrent_applicators = self._busy_workers
            txn = self._refresh_txns.pop(record.txn_id, None)
            if txn is None:
                # Defensive: the refresh transaction vanished, so retire
                # the commit unapplied — its dependents (and the
                # watermark) must not wedge.
                self.stale_records_dropped += 1
                self._mark_applied(record.commit_ts)
                self._busy_workers -= 1
                continue
            if self.apply_cost > 0.0 and record.updates:
                yield self.kernel.sleep(
                    self.apply_cost * len(record.updates))
            txn.apply_update_records(record.updates)
            self.site.engine.commit_refresh_at(txn, record.commit_ts)
            if self.site.sharded:
                # Gapped stream: "in order" means the admission head,
                # not watermark+1 (filtered commits never arrive).
                if self._admitted and record.commit_ts != self._admitted[0]:
                    self.out_of_order_commits += 1
            elif record.commit_ts != self._watermark + 1:
                self.out_of_order_commits += 1
            lag = self._max_enqueued_ts - self._watermark
            if lag > self.max_watermark_lag:
                self.max_watermark_lag = lag
            self.refreshes_applied += 1
            self._mark_applied(record.commit_ts)
            self._busy_workers -= 1

    def _mark_applied(self, commit_ts: int) -> None:
        """Retire an applied commit: release its dependents and publish
        any newly contiguous prefix as the watermark."""
        self._inflight.discard(commit_ts)
        self._applied.add(commit_ts)
        for dep_ts in self._dependents.pop(commit_ts, ()):
            blockers = self._blockers.get(dep_ts)
            if blockers is None:
                continue
            blockers.discard(commit_ts)
            if not blockers:
                del self._blockers[dep_ts]
                self._make_runnable(self._parked.pop(dep_ts))
        if self.site.sharded:
            # The projected stream has commit_ts gaps, so the visible
            # prefix advances along admission order: pop every applied
            # head, publishing its per-shard frontiers as it goes.
            admitted = self._admitted
            applied = self._applied
            watermark = self._watermark
            advanced = False
            while admitted and admitted[0] in applied:
                watermark = admitted.popleft()
                applied.remove(watermark)
                self.site.note_shards_applied(
                    self._shard_meta.pop(watermark, ()), watermark)
                advanced = True
            if advanced:
                self._watermark = watermark
                self.site.engine.advance_commit_counter(watermark)
                self.site.set_seq_db(watermark)
            return
        watermark = self._watermark
        applied = self._applied
        advanced = False
        while watermark + 1 in applied:
            watermark += 1
            applied.remove(watermark)
            advanced = True
        if advanced:
            self._watermark = watermark
            # Counter first, then seq(DBsec): a session woken by the
            # seq_cond notify may immediately begin a transaction at
            # snapshot watermark, which the engine must already accept.
            self.site.engine.advance_commit_counter(watermark)
            self.site.set_seq_db(watermark)

    def _commit_refresh(self, txn, record: PropagatedCommit) -> None:
        """Commit one FIFO refresh transaction at the pending-queue head.

        Classic streams use the local commit path (the engine's counter
        tracks the primary's because no commit is ever skipped); sharded
        streams carry gaps, so the commit installs at the explicit
        primary timestamp, the counter is published to it, and the
        per-shard frontiers advance.
        """
        if self.site.sharded:
            self.site.engine.commit_refresh_at(txn, record.commit_ts)
            self.site.engine.advance_commit_counter(record.commit_ts)
            self.site.note_shards_applied(record.shard_seqs,
                                          record.commit_ts)
        else:
            txn.commit()

    # -- Algorithm 3.3 (one applicator iteration) ----------------------------
    def _apply(self, record: PropagatedCommit):
        txn = self._refresh_txns.pop(record.txn_id)
        if self.apply_cost > 0.0 and record.updates:
            yield self.kernel.sleep(self.apply_cost * len(record.updates))
        txn.apply_update_records(record.updates)
        yield self.pending_cond.wait_for(
            lambda: self.pending and self.pending[0] == record.commit_ts)
        self._commit_refresh(txn, record)
        # Section 4: advance seq(DBsec) after commit, before dequeuing the
        # commit record, so blocked read-only transactions wake in order.
        self.site.set_seq_db(record.commit_ts)
        self.pending.popleft()
        self.refreshes_applied += 1
        self.pending_cond.notify_all()
