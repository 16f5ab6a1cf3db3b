"""The discrete-event model of Section 5, process by process.

Components (on virtual time):

* **clients** — each bound to one secondary; runs sessions of exponential
  length, thinks exponentially between transactions, then submits an
  update transaction (to the primary) or a read-only transaction (to its
  secondary) per the workload mix;
* **primary concurrency control** — strong SI with first-committer-wins
  modelled as the paper does: an update transaction consumes its service
  demand at the primary's shared server and then aborts with probability
  ``abort_prob``, restarting so the offered load is maintained;
* **propagator** — accumulates start/commit/abort records and ships them
  to every secondary each ``propagation_delay`` cycle (a log sniffer: it
  uses no concurrency control and no modelled network resource);
* **refresh** — per secondary; enforces relationships 1-3 exactly like
  :mod:`repro.core.refresh`, as a state machine the propagator feeds by
  direct call (no refresher or applicator processes): a start record
  waits until the pending queue is empty, each commit record's updates
  are a job on the secondary server whose completion callback commits
  in primary commit order, and each commit advances ``seq(DBsec)``.
  ``serial_refresh`` (the ablation baseline) also waits after each
  commit until it has been applied;
* **ALG blocking rule** — a read-only transaction captures its required
  sequence number at submission (``0`` for ALG-WEAK-SI, ``seq(c)`` for
  ALG-STRONG-SESSION-SI, the global sequence for ALG-STRONG-SI) and waits
  until ``seq(DBsec)`` reaches it.

Read-only transactions are never blocked by refresh transactions at the
server level other than through server sharing, mirroring "read-only
transactions ... access committed snapshots of data and do not contend
with refresh transactions" (Section 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Union

from repro.core.sessions import SequenceTracker
from repro.errors import ConfigurationError
from repro.kernel import Condition, Kernel, Sleep
from repro.sim.rng import RandomStream, RandomStreams
from repro.sim.resources import (
    FifoServer,
    ProcessorSharingServer,
    RoundRobinServer,
)
from repro.sim.stats import MetricsCollector, SummaryStats
from repro.simmodel.params import SimulationParameters

Server = Union[ProcessorSharingServer, RoundRobinServer, FifoServer]


@dataclass(frozen=True)
class _StartRecord:
    txn_key: int


@dataclass(frozen=True)
class _AbortRecord:
    txn_key: int


@dataclass(frozen=True)
class _CommitRecord:
    txn_key: int
    commit_ts: int
    update_ops: int


class _SecondaryModel:
    """State of one secondary site in the simulation."""

    def __init__(self, kernel: Kernel, index: int, server: Server):
        self.index = index
        self.server = server
        self.seq_db = 0
        self.seq_cond = Condition(kernel, name=f"sec{index}-seq")
        self.pending: deque[int] = deque()
        self.started: set[int] = set()
        #: Commit numbers whose update service finished but which are not
        #: yet at the pending head.
        self.serviced: set[int] = set()
        #: (batch, index) of the record to resume at once pending drains.
        self.feed_parked: tuple | None = None
        #: Batches queued behind a parked cursor.
        self.feed_backlog: deque = deque()
        #: Running peak of len(pending) (mirrors counters.max_pending).
        self.feed_peak = 0
        self.refreshes_applied = 0


@dataclass
class ModelCounters:
    """Non-metric counters exposed for tests and diagnostics."""

    update_commits: int = 0
    update_restarts: int = 0
    records_propagated: int = 0
    propagation_cycles: int = 0
    sessions_started: int = 0
    max_pending: dict[int, int] = field(default_factory=dict)


class LazyReplicationModel:
    """One simulation run of the lazy replicated system."""

    def __init__(self, params: SimulationParameters, seed: int | None = None):
        self.params = params
        self.kernel = Kernel(scheduler=params.scheduler)
        self.streams = RandomStreams(seed if seed is not None
                                     else params.seed)
        self.metrics = MetricsCollector(params.warmup,
                                        params.fast_threshold)
        self.tracker = SequenceTracker()
        self.counters = ModelCounters()
        self.primary_server = self._make_server("primary")
        self.secondaries = [
            _SecondaryModel(self.kernel, i, self._make_server(f"sec{i}"))
            for i in range(params.num_sec)
        ]
        self._commit_counter = 0
        self._txn_counter = 0
        self._propagation_buffer: list = []
        self._session_counter = 0
        #: Sampled replication lag (commits behind the primary) across all
        #: secondaries, post-warm-up; sampled every 5 s of virtual time.
        self.lag_stats = SummaryStats()

    # -- construction helpers ------------------------------------------------
    def _make_server(self, name: str) -> Server:
        discipline = self.params.server_discipline
        if discipline == "ps":
            return ProcessorSharingServer(self.kernel, name=name)
        if discipline == "rr":
            return RoundRobinServer(self.kernel, name=name,
                                    time_slice=self.params.time_slice)
        if discipline == "fifo":
            return FifoServer(self.kernel, name=name)
        raise ConfigurationError(f"unknown discipline {discipline!r}")

    def _client_assignment(self) -> list[int]:
        """Secondary index for each client (uniform + round-robin extras)."""
        assignment = []
        for sec in range(self.params.num_sec):
            assignment.extend([sec] * self.params.clients_per_secondary)
        for extra in range(self.params.extra_clients):
            assignment.append(extra % self.params.num_sec)
        return assignment

    # -- execution -------------------------------------------------------------
    def run(self) -> MetricsCollector:
        """Run for ``params.duration`` of virtual time; return metrics."""
        for client_id, sec_index in enumerate(self._client_assignment()):
            rng = self.streams.stream(f"client-{client_id}")
            self.kernel.spawn(
                self._client(client_id, rng, self.secondaries[sec_index]),
                name=f"client-{client_id}", daemon=True)
        self.kernel.spawn(self._propagator(), name="propagator", daemon=True)
        self.kernel.spawn(self._lag_sampler(), name="lag-sampler",
                          daemon=True)
        self.kernel.run(until=self.params.duration)
        return self.metrics

    def _lag_sampler(self, interval: float = 5.0):
        """Sample replication lag across secondaries after warm-up."""
        while True:
            yield self.kernel.sleep(interval)
            if self.kernel._now < self.params.warmup:
                continue
            for secondary in self.secondaries:
                self.lag_stats.add(self._commit_counter - secondary.seq_db)

    # -- client process -----------------------------------------------------------
    def _client(self, client_id: int, rng: RandomStream,
                secondary: _SecondaryModel):
        params = self.params
        kernel = self.kernel
        counters = self.counters
        # Draw-identical RNG fast path: exponential(m) == expovariate(1/m)
        # and bernoulli(p) == random() < p, minus two wrapper frames per
        # think-time cycle (this loop runs once per transaction).
        expovariate = rng._rng.expovariate
        rng_random = rng._rng.random
        randint = rng._rng.randint
        inv_session = 1.0 / params.session_time
        inv_think = 1.0 / params.think_time
        update_prob = params.update_tran_prob
        # Read-transaction fast path (reads are ~95% of the paper's main
        # mixes): the body of _read_transaction inlined so each read costs
        # no delegated generator, with every per-read lookup hoisted.
        algorithm = params.algorithm
        freshness_bound = params.freshness_bound
        per_op = params.per_op_requests
        size_min = params.tran_size_min
        size_max = params.tran_size_max
        op_service_time = params.op_service_time
        required_sequence = self.tracker.required_sequence
        record_completion = self.metrics.record_completion
        sec_request = secondary.server.request
        # One reusable Sleep per client: the client is only ever blocked
        # on one think-time sleep at a time, so mutating the delay in
        # place saves an allocation per transaction.
        think_sleep = Sleep(0.0)
        while True:
            self._session_counter += 1
            counters.sessions_started += 1
            label = f"c{client_id}/s{self._session_counter}"
            session_end = kernel._now + expovariate(inv_session)
            while kernel._now < session_end:
                think_sleep.delay = expovariate(inv_think)
                yield think_sleep
                if rng_random() < update_prob:
                    yield from self._update_transaction(rng, label)
                    continue
                submitted = kernel._now
                required = required_sequence(algorithm, label)
                if freshness_bound is not None:
                    # Extension: bounded staleness — the read must see a
                    # state at most freshness_bound commits behind.
                    bound = self._commit_counter - freshness_bound
                    if bound > required:
                        required = bound
                if required > secondary.seq_db:
                    req = required
                    yield secondary.seq_cond.wait_for(
                        lambda: secondary.seq_db >= req)
                    self.metrics.record_block(
                        "read", kernel._now - submitted, kernel._now)
                n_ops = randint(size_min, size_max)
                if per_op:
                    yield from self._service(secondary.server, rng, n_ops)
                else:
                    yield sec_request(n_ops * op_service_time)
                record_completion("read", submitted, kernel._now)
            # Session labels are never reused, so drop the retired label's
            # tracker entry — keeps tracker memory bounded by *live*
            # sessions on long (e.g. `large`-scale) runs.
            self.tracker.forget(label)

    def _service(self, server: Server, rng: RandomStream, n_ops: int):
        """Consume n_ops of service, per-op or aggregated (equivalent
        under PS; the per-op mode exists for the fidelity ablation)."""
        op_time = self.params.op_service_time
        if self.params.per_op_requests:
            for _ in range(n_ops):
                yield server.request(op_time)
        else:
            yield server.request(n_ops * op_time)

    # -- update transactions (primary) -----------------------------------------------
    def _update_transaction(self, rng: RandomStream, label: str):
        params = self.params
        submitted = self.kernel._now
        n_ops = rng.randint(params.tran_size_min, params.tran_size_max)
        update_ops = sum(1 for _ in range(n_ops)
                         if rng.bernoulli(params.update_op_prob))
        while True:
            txn_key = self._txn_counter
            self._txn_counter += 1
            # start_p(T) enters the log as soon as T starts.
            self._propagate(_StartRecord(txn_key))
            # Common path of _service() inlined: one awaitable instead of
            # a delegated generator per transaction.
            if params.per_op_requests:
                yield from self._service(self.primary_server, rng, n_ops)
            else:
                yield self.primary_server.request(
                    n_ops * params.op_service_time)
            if rng.bernoulli(params.abort_prob):
                # First-committer-wins loser: abort and restart to keep
                # the offered load at the primary (Section 5).
                self.metrics.record_abort(self.kernel._now)
                self.counters.update_restarts += 1
                self._propagate(_AbortRecord(txn_key))
                continue
            break
        self._commit_counter += 1
        commit_ts = self._commit_counter
        self.counters.update_commits += 1
        self._propagate(_CommitRecord(txn_key, commit_ts, update_ops))
        self.tracker.on_primary_commit(label, commit_ts)
        self.metrics.record_completion("update", submitted, self.kernel._now)

    # -- propagation (Algorithm 3.1, batched on a 10 s cycle) ----------------------------
    def _propagate(self, record) -> None:
        self._propagation_buffer.append(record)

    def _propagator(self):
        while True:
            yield self.kernel.sleep(self.params.propagation_delay)
            if not self._propagation_buffer:
                self.counters.propagation_cycles += 1
                continue
            batch, self._propagation_buffer = self._propagation_buffer, []
            self.counters.propagation_cycles += 1
            self.counters.records_propagated += len(batch)
            # The whole cycle is fed to each secondary by synchronous
            # call at the same instant (the PropagatedBatch frame of the
            # functional system); refresh iterates the shared list
            # without mutating it.
            for secondary in self.secondaries:
                self._feed_batch(secondary, batch)

    # -- refresh (Algorithms 3.2/3.3) ------------------------------------------------------
    def _feed_batch(self, secondary: _SecondaryModel, batch: list) -> None:
        """Refresh entry point: one propagation cycle's records.

        Processes the batch inline unless the cursor is parked waiting
        for the pending queue to drain, in which case the batch queues
        behind it, keeping the records in log order.
        """
        if secondary.feed_parked is not None or secondary.feed_backlog:
            secondary.feed_backlog.append(batch)
            return
        self._drain_records(secondary, batch, 0)

    def _drain_records(self, secondary: _SecondaryModel,
                       batch: list, idx: int) -> None:
        """Apply records until done or the cursor must wait.

        Algorithm 3.2 as a state machine: a start record waits for an
        empty pending queue (Relationship 2) by parking the cursor on
        itself, which :meth:`_apply_commit` resumes; aborts retire their
        start entry; commits join pending and go to the secondary server
        as zero-process completion callbacks.  Under ``serial_refresh``
        the cursor also parks after each commit until it is applied.
        """
        pending = secondary.pending
        started = secondary.started
        op_service_time = self.params.op_service_time
        serial = self.params.serial_refresh
        request_call = secondary.server.request_call
        apply_commit = self._apply_commit
        max_pending = self.counters.max_pending
        peak = secondary.feed_peak
        backlog = secondary.feed_backlog
        while True:
            n = len(batch)
            while idx < n:
                record = batch[idx]
                cls = record.__class__
                if cls is _CommitRecord:
                    started.discard(record.txn_key)
                    ts = record.commit_ts
                    pending.append(ts)
                    if len(pending) > peak:
                        peak = len(pending)
                        secondary.feed_peak = peak
                        max_pending[secondary.index] = peak
                    demand = record.update_ops * op_service_time
                    if demand:
                        request_call(demand, apply_commit, secondary, ts)
                    else:
                        apply_commit(secondary, ts)
                    if serial and pending:
                        # Ablation: naive log-sequence replay — apply
                        # each transaction to completion before the next.
                        secondary.feed_parked = (batch, idx + 1)
                        return
                elif cls is _StartRecord:
                    if pending:
                        secondary.feed_parked = (batch, idx)
                        return
                    started.add(record.txn_key)
                else:
                    started.discard(record.txn_key)
                idx += 1
            if not backlog:
                return
            batch = backlog.popleft()
            idx = 0

    def _apply_commit(self, secondary: _SecondaryModel,
                      commit_ts: int) -> None:
        """Completion callback of one commit record's update service.

        Commits strictly in pending (= primary commit) order, like
        Algorithm 3.3's applicators: a record whose service finishes out
        of order parks in ``serviced`` until the head catches up, then
        the whole contiguous run commits in one go, advancing
        ``seq(DBsec)`` (Section 4).
        """
        pending = secondary.pending
        if pending[0] != commit_ts:
            secondary.serviced.add(commit_ts)
            return
        serviced = secondary.serviced
        seq = secondary.seq_db
        applied = 0
        ts = commit_ts
        while True:
            pending.popleft()
            applied += 1
            if ts > seq:
                seq = ts
            if not pending:
                break
            ts = pending[0]
            if ts not in serviced:
                break
            serviced.remove(ts)
        secondary.seq_db = seq
        secondary.refreshes_applied += applied
        if not pending:
            parked = secondary.feed_parked
            if parked is not None:
                secondary.feed_parked = None
                self._drain_records(secondary, *parked)
        secondary.seq_cond.notify_all()

    # -- diagnostics -----------------------------------------------------------------------
    def primary_utilization(self) -> float:
        return self.primary_server.utilization(self.params.duration)

    def secondary_utilization(self) -> float:
        """Mean utilisation across secondary servers."""
        if not self.secondaries:
            return 0.0
        return sum(s.server.utilization(self.params.duration)
                   for s in self.secondaries) / len(self.secondaries)

    def replication_lag(self) -> int:
        """Commits not yet applied at the most-lagged secondary."""
        return max(self._commit_counter - s.seq_db
                   for s in self.secondaries)
