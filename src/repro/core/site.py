"""Primary and secondary replication sites (Figure 1's boxes).

Each site wraps an autonomous :class:`~repro.storage.SIDatabase` with
strong SI locally — the paper's architectural assumption.  The primary
additionally exposes its logical log; each secondary owns the FIFO update
queue records are delivered into, the refresher that drains it, and the
``seq(DBsec)`` freshness sequence with its wait condition.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.records import PropagatedBatch, PropagationRecord
from repro.core.refresh import Refresher
from repro.errors import ConfigurationError
from repro.kernel import Condition, Kernel, Queue
from repro.storage.engine import SIDatabase, Transaction
from repro.storage.wal import LogicalLog


class PrimarySite:
    """The single primary: executes all update transactions."""

    def __init__(self, kernel: Kernel, recorder: Any = None,
                 name: str = "primary"):
        self.kernel = kernel
        self.name = name
        self.log = LogicalLog(name=f"{name}-log")
        self.engine = SIDatabase(name=name, log=self.log, recorder=recorder,
                                 clock=lambda: kernel.now)
        self.crash_count = 0
        self.restart_count = 0
        #: Set by :meth:`kill`: the site is gone for good (disk and WAL
        #: lost), so :meth:`restart` refuses — the only way forward is
        #: promoting a secondary.
        self.permanently_failed = False
        #: Set by :meth:`demote`: this primary stepped down because its
        #: lease lapsed (autonomous failover's split-brain fence).
        self.lease_demoted = False
        #: Virtual time of the self-demotion (None until it happens):
        #: by construction exactly the lease deadline, never later.
        self.demoted_at: Optional[float] = None
        #: Transaction ids aborted *by* the self-demotion; the session
        #: layer maps these to :class:`~repro.errors.LeaseExpiredError`
        #: so the client sees a typed refusal, never a silent ack.
        self.demote_aborted: set[int] = set()

    @classmethod
    def adopt(cls, kernel: Kernel, site: "SecondarySite",
              log: LogicalLog) -> "PrimarySite":
        """Wrap a promoted secondary's engine as the new primary.

        The engine keeps its identity — name, recorder, committed state
        and version history all carry over, so commit timestamps continue
        the shared numbering from the promoted state.  Only the
        primary-side attachments are new: the freshly seeded logical log
        and the crash/restart accounting.
        """
        primary = cls.__new__(cls)
        primary.kernel = kernel
        primary.name = site.name
        primary.log = log
        primary.engine = site.engine
        primary.crash_count = 0
        primary.restart_count = 0
        primary.permanently_failed = False
        primary.lease_demoted = False
        primary.demoted_at = None
        primary.demote_aborted = set()
        return primary

    def begin_update(self, metadata: Optional[dict] = None) -> Transaction:
        """Start a forwarded update transaction under local strong SI."""
        return self.engine.begin(update=True, metadata=metadata)

    @property
    def latest_commit_ts(self) -> int:
        return self.engine.latest_commit_ts

    @property
    def crashed(self) -> bool:
        return self.engine.crashed

    def quiesced_copy(self) -> tuple[dict, int]:
        """A transaction-consistent copy of the latest committed state
        plus its commit timestamp (Section 3.4's recovery source)."""
        ts = self.engine.latest_commit_ts
        return self.engine.state_at(ts), ts

    # -- failure & recovery --------------------------------------------------
    def crash(self) -> None:
        """Fail the primary: in-flight update transactions abort.

        The aborts are written to the logical log *before* the engine
        goes down (a real DBMS resolves in-doubt transactions as aborted
        during restart and its replication agent ships the outcome), so
        secondaries that already received the transactions' start records
        discard the corresponding refresh transactions instead of holding
        them open forever.
        """
        if not self.engine.crashed:
            self.crash_count += 1
        for txn in self.engine.active_transactions:
            txn.abort("primary crash")
        self.engine.crash()

    def kill(self) -> None:
        """Permanently fail the primary.

        In-flight updates abort exactly as in :meth:`crash`; the
        difference is durability — the WAL is lost with the site, so
        :meth:`restart` refuses afterwards.
        """
        self.crash()
        self.permanently_failed = True

    def demote(self) -> None:
        """Self-demote: the primary's lease lapsed (autonomous failover).

        Functionally a permanent failure — the cluster is about to elect
        a successor, and a primary that kept serving after its lease
        expired could acknowledge commits the new epoch will orphan.
        The difference from :meth:`kill` is attribution: in-flight
        update transactions are aborted with a lease reason and their
        ids recorded in :attr:`demote_aborted`, so the session layer
        surfaces :class:`~repro.errors.LeaseExpiredError` instead of a
        silent no-op.
        """
        if not self.engine.crashed:
            self.crash_count += 1
        self.lease_demoted = True
        self.demoted_at = self.kernel.now
        for txn in self.engine.active_transactions:
            self.demote_aborted.add(txn.txn_id)
            txn.abort("lease expired; primary self-demoted")
        self.engine.crash()
        self.permanently_failed = True

    def restart(self) -> int:
        """Recover the primary by replaying its write-ahead (logical) log.

        In-memory multiversion state is discarded and rebuilt from the
        durable log: committed transactions are reinstalled at their
        original commit timestamps, uncommitted and aborted ones are
        discarded.  Returns the commit timestamp recovered to, which
        always equals the pre-crash committed state (Section 3.4 takes
        this recoverability for granted; here it is exercised).
        """
        if self.permanently_failed:
            raise ConfigurationError(
                f"primary {self.name!r} failed permanently (no WAL to "
                f"replay); promote a secondary instead of restarting")
        recovered_ts = self.engine.restart_from_wal()
        self.restart_count += 1
        return recovered_ts


class SecondarySite:
    """A secondary: executes read-only transactions, applies refreshes."""

    def __init__(self, kernel: Kernel, name: str, recorder: Any = None,
                 serial_refresh: bool = False,
                 parallel_refresh: Optional[int] = None,
                 refresh_apply_cost: float = 0.0,
                 subscription: Optional[frozenset] = None,
                 num_shards: Optional[int] = None):
        self.kernel = kernel
        self.name = name
        self.recorder = recorder
        #: Partial replication: the shard set this replica subscribes to
        #: (None = sharding off, classic full replication).
        self.subscription = subscription
        self.num_shards = num_shards
        #: Per-shard freshness frontier: commit ts of the newest *visible*
        #: commit touching each subscribed shard.  Advanced by the
        #: refresher alongside seq(DBsec); shard-aware strong-session
        #: blocking waits on these instead of the scalar.
        self.shard_frontier: dict[int, int] = \
            {} if subscription is None else {s: 0 for s in subscription}
        #: Per-shard wire sequence numbers (monotonic max of the
        #: ``shard_seqs`` metadata received; never contiguity-checked —
        #: recovery and promotion legitimately skip ranges).
        self.shard_seq_db: dict[int, int] = \
            {} if subscription is None else {s: 0 for s in subscription}
        self.engine = SIDatabase(name=name, log=None, recorder=recorder,
                                 clock=lambda: kernel.now)
        self.update_queue = Queue(kernel, name=f"{name}-update-queue")
        #: seq(DBsec): primary commit ts of the newest applied refresh.
        self.seq_db = 0
        self.seq_cond = Condition(kernel, name=f"{name}-seq")
        #: Delivery epoch; bumped on crash so in-flight deliveries from
        #: before the failure are discarded on arrival.
        self.epoch = 0
        self.refresher = Refresher(kernel, self, serial=serial_refresh,
                                   parallel=parallel_refresh,
                                   apply_cost=refresh_apply_cost)
        self.records_dropped = 0
        #: Records scheduled for delivery but not yet arrived (used by
        #: :meth:`ReplicatedSystem.quiesce` to detect idleness).
        self.in_flight = 0
        #: Records delivered but not yet fully handled by the refresher
        #: (covers the direct queue->getter handoff window).
        self.records_unprocessed = 0
        self.crash_count = 0
        self.recover_count = 0
        #: Durations from each recovery until seq(DBsec) reached the
        #: primary commit timestamp current at recovery time.
        self.catch_up_times: list[float] = []
        self._recovered_at: Optional[float] = None
        self._catch_up_target: Optional[int] = None
        #: Set when this site was promoted to primary: it permanently
        #: leaves the replica tier (bound sessions fail over and the
        #: refresher stays down), while the same engine keeps running as
        #: the new primary under :class:`PrimarySite`.
        self.retired = False

    @property
    def crashed(self) -> bool:
        return self.engine.crashed

    @property
    def live(self) -> bool:
        """The one "can this replica serve?" predicate: up and not
        retired by a promotion.  Used by failover, staleness accounting,
        quiescence detection and fault-plan applicability alike."""
        return not self.engine.crashed and not self.retired

    @property
    def sharded(self) -> bool:
        """True when this site runs under partial replication."""
        return self.subscription is not None

    def holds_shards(self, shards: frozenset) -> bool:
        """True when this replica subscribes to every given shard."""
        if self.subscription is None:
            return True
        return shards <= self.subscription

    # -- propagation endpoint ----------------------------------------------
    def deliver_later(self, record: PropagationRecord, delay: float) -> None:
        """Schedule arrival of ``record`` after ``delay`` (propagator API)."""
        epoch = self.epoch
        self.in_flight += 1
        self.kernel.call_at(self.kernel.now + delay, self._arrive, epoch,
                            record)

    def _arrive(self, epoch: int, record: PropagationRecord) -> None:
        self.in_flight -= 1
        if epoch != self.epoch or self.engine.crashed:
            self.records_dropped += 1
            return
        self.records_unprocessed += 1
        self.update_queue.put(record)

    def receive(self, record: PropagationRecord) -> bool:
        """Accept an already-arrived record (the :class:`ReliableLink`
        receiver hands over records here after sequencing/dedup).

        Returns False (dropping the record) if the site is down.
        """
        if self.engine.crashed:
            self.records_dropped += 1
            return False
        self.records_unprocessed += 1
        self.update_queue.put(record)
        return True

    def record_handled(self) -> None:
        """Refresher callback: one delivered record fully processed.

        Records injected directly into the queue (tests do this) never
        incremented the counter, hence the floor at zero.
        """
        if self.records_unprocessed > 0:
            self.records_unprocessed -= 1

    # -- freshness ----------------------------------------------------------
    def set_seq_db(self, commit_ts: int) -> None:
        """Advance seq(DBsec) and wake blocked read-only transactions."""
        if commit_ts > self.seq_db:
            self.seq_db = commit_ts
            if self._catch_up_target is not None \
                    and commit_ts >= self._catch_up_target:
                self.catch_up_times.append(
                    self.kernel.now - self._recovered_at)
                self._catch_up_target = None
            self.seq_cond.notify_all()

    def note_shards_applied(self, shard_seqs: tuple,
                            commit_ts: int) -> None:
        """Advance the per-shard frontiers for one newly *visible* commit.

        Called by the refresher when a sharded commit's versions become
        externally visible (at commit for FIFO refresh, at watermark
        advance for parallel refresh).  Both maps only grow; the blocked
        readers are woken by the caller's ``set_seq_db``.
        """
        frontier = self.shard_frontier
        seqs = self.shard_seq_db
        for shard, seq in shard_seqs:
            if commit_ts > frontier.get(shard, 0):
                frontier[shard] = commit_ts
            if seq > seqs.get(shard, 0):
                seqs[shard] = seq

    def begin_read_only(self, metadata: Optional[dict] = None) -> Transaction:
        """Start a read-only transaction under local strong SI."""
        return self.engine.begin(update=False, metadata=metadata)

    # -- failure & recovery (Section 3.4) -------------------------------------
    def crash(self) -> None:
        """Fail the site: lose queued updates and all refresh state."""
        if not self.engine.crashed:
            self.crash_count += 1
        self.epoch += 1
        self.refresher.stop()
        self.update_queue.drain()
        self.records_unprocessed = 0
        self._catch_up_target = None
        self.engine.crash()
        # Blocked freshness waits re-evaluate their predicates (which also
        # test ``crashed``) so client sessions can fail over immediately
        # instead of sleeping on a dead replica forever.
        self.seq_cond.notify_all()

    def recover(self, source_state: dict, source_commit_ts: int,
                shard_seqs: Optional[dict] = None,
                shard_frontiers: Optional[dict] = None) -> None:
        """Reinstall a quiesced primary copy and restart refresh machinery.

        ``seq(DBsec)`` is reinitialised to the copy's commit timestamp —
        the sequence number Section 4 obtains via a dummy transaction at
        the primary.  Under partial replication the copy is transaction-
        consistent at ``source_commit_ts``; ``shard_frontiers`` carries
        the per-shard timestamps of the newest commit *touching each
        subscribed shard* at copy time (NOT the scalar copy timestamp —
        frontier values must always name commits that touched the shard,
        or a session could observe an inflated frontier here and then
        block forever demanding it of a replica that can never reach
        it), and ``shard_seqs`` (the propagator's per-shard counters
        snapshotted with the copy) reseeds the wire sequence numbers so
        replay dedup stays monotonic.
        """
        self.engine.recover_from(source_state, source_commit_ts)
        if self.recorder is not None:
            self.recorder.record_recovery(self.name, self.kernel.now,
                                          source_state, source_commit_ts)
        self.seq_db = source_commit_ts
        if self.subscription is not None:
            for shard, frontier in (shard_frontiers or {}).items():
                if frontier > self.shard_frontier.get(shard, 0):
                    self.shard_frontier[shard] = frontier
            for shard, seq in (shard_seqs or {}).items():
                if shard in self.shard_seq_db \
                        and seq > self.shard_seq_db[shard]:
                    self.shard_seq_db[shard] = seq
        self.recover_count += 1
        self._recovered_at = self.kernel.now
        self.refresher.start()
        self.seq_cond.notify_all()

    # -- promotion (cluster epoch fence) --------------------------------------
    def _discard_stale(self) -> int:
        """Bump the delivery epoch and drop all pre-fence refresh work.

        Returns the number of stale records discarded *here* (queued
        frames count as their contained records); in-flight deliveries
        from the old epoch are dropped on arrival by the epoch check and
        land in ``records_dropped`` as usual.
        """
        self.epoch += 1
        discarded = sum(item.count if isinstance(item, PropagatedBatch) else 1
                        for item in self.update_queue.items)
        discarded += self.refresher.pending_count
        self.update_queue.drain()
        self.records_unprocessed = 0
        return discarded

    def fence(self) -> int:
        """Fence the old cluster epoch without losing the site.

        The committed state and all read service survive — only
        replication state from the dead primary's regime is discarded:
        queued records, pending refreshes and open refresh transactions
        go, and the refresher restarts clean for the new primary's feed.
        """
        discarded = self._discard_stale()
        discarded += self.refresher.fence()
        self.seq_cond.notify_all()
        return discarded

    def retire(self) -> int:
        """Withdraw this site from the replica tier: it was promoted.

        Like :meth:`fence`, but the refresher stays down and ``retired``
        flips — ``live`` turns False, so bound sessions fail over to the
        remaining replicas while the engine serves on as the primary.
        """
        discarded = self._discard_stale()
        discarded += self.refresher.fence(restart=False)
        self.retired = True
        self._catch_up_target = None
        self.seq_cond.notify_all()
        return discarded

    def track_catch_up(self, target_seq: int) -> None:
        """Arm catch-up timing: record how long after recovery it takes
        ``seq(DBsec)`` to reach ``target_seq`` (monitoring satellite)."""
        if self.seq_db >= target_seq:
            self.catch_up_times.append(self.kernel.now - self._recovered_at)
            self._catch_up_target = None
        else:
            self._catch_up_target = target_seq

    @property
    def lag(self) -> int:
        """Number of queued-but-unapplied refresh records (staleness).

        Batch frames in the update queue count as their contained
        records, so lag is comparable whether or not batching is on.
        """
        queued = sum(item.count if isinstance(item, PropagatedBatch) else 1
                     for item in self.update_queue.items)
        return queued + self.refresher.pending_count
