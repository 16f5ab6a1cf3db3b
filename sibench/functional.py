"""The two workloads that drive the functional ``ReplicatedSystem``.

One round builds a fresh system, loads the catalogue, runs every generated
transaction through client sessions, checks the outputs and runs the three
SI checkers.  Rounds of one seed repeat the same inputs, so everything the
round measures in virtual time, and every count, must repeat exactly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

from repro import (Guarantee, ReplicatedSystem, ReproError,
                   check_completeness, check_strong_session_si,
                   check_weak_si)

from sibench.hostspeed import HostSpeed
from sibench.tracing import Tracer
from sibench.workloads import (Op, book_key, expected_scan_keys,
                               order_key, orders_key, scan_bounds)

#: Books written per catalogue-load transaction.
LOAD_CHUNK = 500

CHECKERS = (("weak_si", check_weak_si),
            ("strong_session_si", check_strong_session_si),
            ("completeness", check_completeness))


@dataclass
class RoundResult:
    """What one round measured; ``digest`` must repeat across rounds.

    ``steps`` holds the wall time of every step of the round, in the order
    the steps ran: the set-up steps, the timed phase's ``system.run`` and
    transaction calls, each update's and each read's latency in ms, and
    the checkers.  Rounds of one seed run the same steps in the same order.
    """

    completed: int = 0
    attempted: int = 0
    failed: int = 0
    steps: dict[str, array] = field(default_factory=lambda: {
        name: array("d")
        for name in ("setup", "timed", "update_ms", "read_ms", "verify")})
    read_virtual_s: array = field(default_factory=lambda: array("d"))
    late_s: array = field(default_factory=lambda: array("d"))
    checker_s: dict[str, float] = field(default_factory=dict)
    violations: int = 0
    errors: list[str] = field(default_factory=list)
    blocked_reads: int = 0
    counts: dict[str, Any] = field(default_factory=dict)
    digest: tuple = ()

    @property
    def setup_s(self) -> float:
        return sum(self.steps["setup"])

    @property
    def timed_s(self) -> float:
        return sum(self.steps["timed"])

    @property
    def verify_s(self) -> float:
        return sum(self.steps["verify"])

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def initial_price(book: int) -> int:
    return 10 + (book * 7) % 90


def build_system(sizes: dict,
                 steps: Optional[array] = None) -> ReplicatedSystem:
    """Construct the system, load the catalogue and quiesce, appending the
    wall time of each of those steps to ``steps``."""
    steps = array("d") if steps is None else steps
    started = perf_counter()
    system = ReplicatedSystem(sizes["secondaries"],
                              propagation_delay=sizes["propagation_delay"],
                              batch_interval=sizes["batch_interval"])
    loader = system.session(Guarantee.WEAK_SI)
    stock = sizes["initial_stock"]
    steps.append(perf_counter() - started)
    for first in range(0, sizes["books"], LOAD_CHUNK):
        def load(txn, first=first):
            for book in range(first, min(first + LOAD_CHUNK,
                                         sizes["books"])):
                txn.write(book_key(book, "price"), initial_price(book))
                txn.write(book_key(book, "stock"), stock)
        started = perf_counter()
        loader.execute_update(load)
        steps.append(perf_counter() - started)
    started = perf_counter()
    loader.close()
    system.quiesce()
    steps.append(perf_counter() - started)
    return system


class _ShopWrite:
    """Purchases and point status checks at strong session SI."""

    def __init__(self, sizes: dict):
        self.restock = sizes["initial_stock"]
        self.placed: dict[int, int] = {}
        self.books_ordered: dict[tuple[int, int], int] = {}

    def update(self, op: Op) -> Callable:
        stock_key = book_key(op.book, "stock")
        count_key = orders_key(op.session)
        restock = self.restock

        def purchase(txn):
            stock = txn.read(stock_key)
            txn.write(stock_key, stock - 1 if stock > 1 else restock)
            number = txn.read(count_key, default=0) + 1
            txn.write(count_key, number)
            txn.write(order_key(op.session, number), op.book)
            return number
        return purchase

    def updated(self, op: Op, number: int, result: RoundResult) -> None:
        expected = self.placed.get(op.session, 0) + 1
        if number != expected:
            result.fail(f"session {op.session} placed order {number}, "
                        f"expected {expected}")
        self.placed[op.session] = number
        self.books_ordered[(op.session, number)] = op.book

    def read(self, op: Op) -> Callable:
        count_key = orders_key(op.session)
        stock_key = book_key(op.book, "stock")

        def status(txn):
            number = txn.read(count_key, default=0)
            last = (txn.read(order_key(op.session, number))
                    if number else None)
            txn.read(stock_key)
            return number, last
        return status

    def checked(self, op: Op, value: Any, result: RoundResult) -> None:
        number, last = value
        placed = self.placed.get(op.session, 0)
        if number < placed:
            result.fail(f"session {op.session} saw {number} orders after "
                        f"placing {placed}")
        elif number and last != self.books_ordered.get((op.session, number)):
            result.fail(f"session {op.session} order {number} reads "
                        f"{last!r}")

    def final_check(self, state: dict, result: RoundResult) -> None:
        for session, placed in self.placed.items():
            if state.get(orders_key(session)) != placed:
                result.fail(f"primary holds {state.get(orders_key(session))}"
                            f" orders for session {session}, placed {placed}")


class _BrowseScan:
    """Range scans of consecutive books beside hot-book reprices."""

    def __init__(self, sizes: dict):
        self.width = sizes["scan_width"]
        self.restock = sizes["initial_stock"]

    def update(self, op: Op) -> Callable:
        price_key = book_key(op.book, "price")
        stock_key = book_key(op.book, "stock")
        restock = self.restock

        def reprice(txn):
            txn.write(price_key, 10 + (txn.read(price_key) - 9) % 90)
            stock = txn.read(stock_key)
            txn.write(stock_key, stock - 1 if stock > 1 else restock)
        return reprice

    def updated(self, op: Op, value: Any, result: RoundResult) -> None:
        pass

    def read(self, op: Op) -> Callable:
        lo, hi = scan_bounds(op.book, self.width)

        def scan(txn):
            return [key for key, _value in txn.scan(lo, hi)]
        return scan

    def checked(self, op: Op, keys: list, result: RoundResult) -> None:
        expected = expected_scan_keys(op.book, self.width)
        if keys != expected:
            result.fail(f"scan from book {op.book} returned {len(keys)} "
                        f"keys, expected {len(expected)} in key order")

    def final_check(self, state: dict, result: RoundResult) -> None:
        pass


#: Transactions between two samples of the host-speed probe.
PROBE_EVERY = 20


def run_round(workload: str, sizes: dict, ops: list[Op],
              tracer: Optional[Tracer] = None,
              host: Optional[HostSpeed] = None) -> RoundResult:
    """Set up, run ``ops``, check the outputs and run the SI checkers,
    sampling ``host`` between transactions."""
    result = RoundResult()
    shape = (_ShopWrite if workload == "shop-write" else _BrowseScan)(sizes)
    guarantee = Guarantee(sizes["guarantee"])

    steps = result.steps
    system = build_system(sizes, steps["setup"])

    kernel = system.kernel
    sessions = [system.session(guarantee) for _ in range(sizes["sessions"])]
    timed = steps["timed"]
    for index, op in enumerate(ops):
        if host is not None and index % PROBE_EVERY == 0:
            host.sample()
        if kernel.now < op.due:
            started = perf_counter()
            system.run(until=op.due)
            timed.append(perf_counter() - started)
        result.late_s.append(kernel.now - op.due)
        session = sessions[op.session]
        body = shape.update(op) if op.is_update else shape.read(op)
        if tracer is not None:
            body = tracer.wrap(body, "bench.driver", "transaction body")
        result.attempted += 1
        virtual = kernel.now
        call_started = perf_counter()
        try:
            if op.is_update:
                value = session.execute_update(body)
            else:
                value = session.execute_read_only(body)
        except ReproError as exc:
            timed.append(perf_counter() - call_started)
            result.failed += 1
            result.fail(f"{type(exc).__name__}: {exc}")
            continue
        elapsed = perf_counter() - call_started
        timed.append(elapsed)
        result.completed += 1
        if op.is_update:
            steps["update_ms"].append(elapsed * 1e3)
            shape.updated(op, value, result)
        else:
            steps["read_ms"].append(elapsed * 1e3)
            result.read_virtual_s.append(kernel.now - virtual)
            shape.checked(op, value, result)
    started = perf_counter()
    system.quiesce()
    timed.append(perf_counter() - started)

    primary_state = system.primary_state()
    for index in range(len(system.secondaries)):
        if system.secondary_state(index) != primary_state:
            result.fail(f"secondary {index + 1} differs from the primary "
                        "after quiesce")
    shape.final_check(primary_state, result)

    for name, checker in CHECKERS:
        started = perf_counter()
        if tracer is None:
            verdict = checker(system.recorder)
        else:
            with tracer.span("txn.checkers", checker.__name__):
                verdict = checker(system.recorder)
        result.checker_s[name] = perf_counter() - started
        steps["verify"].append(result.checker_s[name])
        result.violations += len(verdict.violations)
        if not verdict.ok:
            result.fail(verdict.summary())

    result.blocked_reads = sum(session.blocked_reads for session in sessions)
    result.digest = (result.completed, result.failed, result.blocked_reads,
                     sum(result.read_virtual_s), sum(result.late_s),
                     len(system.recorder), kernel.counters()["events_dispatched"],
                     hash(frozenset(primary_state.items())),
                     tuple(len(times) for times in steps.values()))
    if tracer is not None:
        result.counts = system_counts(system)
    return result


def system_counts(system: ReplicatedSystem) -> dict[str, Any]:
    """Exact per-layer counts read from the system after a round."""
    engines = [system.primary.engine] + [s.engine for s in system.secondaries]
    refreshers = [s.refresher for s in system.secondaries]
    kernel = system.kernel.counters()
    return {
        "kernel.events": kernel["events_dispatched"],
        "kernel.peak_queue_depth": kernel["peak_queue_depth"],
        "storage.versions": sum(engine.version_count for engine in engines),
        "storage.max_chain": max(engine.max_chain_length
                                 for engine in engines),
        "txn.history.events": len(system.recorder),
        "txn.history.bytes": system.recorder.nbytes(),
        "core.propagation.records_sent": system.propagator.records_sent,
        "core.propagation.batches_sent": system.propagator.batches_sent,
        "core.refresh.applied": sum(r.refreshes_applied for r in refreshers),
        "core.refresh.peak_pending": max(r.peak_pending for r in refreshers),
    }
