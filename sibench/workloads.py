"""Seeded input generation for the benchmark's workloads.

Everything a run feeds the system is made here from the workload's sizes
(``workloads.json``) and the ``--seed``: the same seed gives the same
inputs, so every exact count the traced run reports repeats per seed.
Only ``random.Random.random`` is drawn from, and every distribution is
derived from it here, so the inputs do not depend on how a Python version
implements the other samplers.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

SPEC_PATH = Path(__file__).with_name("workloads.json")

WORKLOADS = ("shop-write", "browse-scan", "paper-sim")

#: Fields stored per book; zero-padded book numbers make key order equal
#: book order, so a scan of consecutive books is one contiguous key range.
BOOK_FIELDS = ("price", "stock")


def load_spec() -> dict:
    """Each workload's loop type and sizes, and the layer -> end-to-end
    predictions; why each workload exists is in ``BENCHMARK.json``."""
    with SPEC_PATH.open() as handle:
        return json.load(handle)


def workload_rng(workload: str, seed: int) -> random.Random:
    """The one random stream a workload's inputs come from."""
    return random.Random(f"{workload}:{seed}")


def book_key(book: int, field: str) -> str:
    return f"book:{book:05d}:{field}"


def orders_key(session: int) -> str:
    return f"cust:{session:05d}:orders"


def order_key(session: int, number: int) -> str:
    return f"order:{session:05d}:{number:05d}"


def scan_bounds(start: int, width: int) -> tuple[str, str]:
    """Inclusive key bounds covering books ``start .. start + width - 1``."""
    return f"book:{start:05d}:", f"book:{start + width - 1:05d}:~"


def expected_scan_keys(start: int, width: int) -> list[str]:
    """The keys, in key order, a scan of ``width`` books from ``start``
    must return from a catalogue holding every :data:`BOOK_FIELDS`."""
    return [book_key(book, field)
            for book in range(start, start + width)
            for field in BOOK_FIELDS]


class Zipf:
    """Zipf(s) over ``0 .. n-1``: rank 0 is the hottest item."""

    def __init__(self, n: int, s: float):
        if n < 1:
            raise ValueError("Zipf needs at least one item")
        self._cumulative = list(accumulate(1.0 / (rank + 1) ** s
                                           for rank in range(n)))

    def sample(self, rng: random.Random) -> int:
        target = rng.random() * self._cumulative[-1]
        return min(bisect_left(self._cumulative, target),
                   len(self._cumulative) - 1)


def exponential(rng: random.Random, mean: float) -> float:
    return -mean * math.log(1.0 - rng.random())


@dataclass(frozen=True)
class Op:
    """One client transaction, due at virtual time ``due``."""

    due: float
    session: int
    is_update: bool
    #: The book it touches; for a scan, the first book of the range.
    book: int


def generate_ops(workload: str, sizes: dict, seed: int) -> list[Op]:
    """The functional workloads' transactions, ordered by due time.

    Sessions arrive as a Poisson process of ``session_rate`` per virtual
    second; each issues ``txns_per_session`` transactions separated by
    exponential think times of mean ``think_mean``.  A transaction is an
    update with probability ``update_share``; its book is Zipf-chosen
    (for a scan, its first book, so the range always fits the catalogue).
    """
    rng = workload_rng(workload, seed)
    width = max(1, sizes["scan_width"])
    books = Zipf(sizes["books"] - width + 1, sizes["zipf_s"])
    ops = []
    arrival = 0.0
    for session in range(sizes["sessions"]):
        arrival += exponential(rng, 1.0 / sizes["session_rate"])
        due = arrival
        for _ in range(sizes["txns_per_session"]):
            is_update = rng.random() < sizes["update_share"]
            ops.append(Op(due, session, is_update, books.sample(rng)))
            due += exponential(rng, sizes["think_mean"])
    ops.sort(key=lambda op: (op.due, op.session))
    return ops


def simulation_seeds(seed: int, guarantees: list[str]) -> dict[str, int]:
    """One simulation seed per guarantee for ``paper-sim``."""
    rng = workload_rng("paper-sim", seed)
    return {guarantee: int(rng.random() * 2**31) for guarantee in guarantees}
