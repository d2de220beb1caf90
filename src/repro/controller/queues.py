"""Bounded command queues with watermark signalling.

The paper's controller (Table 4) uses a 32-entry read queue and a 32-entry
write queue with high/low watermarks of 24/8: writes buffer until the high
watermark, then drain exclusively until the low watermark — the standard
USIMM write-drain policy.

The queue keeps incremental per-bank indexes so the FR-FCFS scheduler
never rescans the whole queue:

- ``_queued_by_bank`` — per-(rank, bank) FIFO of still-QUEUED requests,
  so the scheduler visits only banks-with-work, in no particular order,
  and reads each bank's oldest request (and oldest row hit) off the
  bucket head; the head's ``queue_seq`` breaks ties between banks;
- ``_inflight`` — a min-heap of ``(complete_cycle, seq, request)`` for
  ISSUED requests, so retirement pops due completions instead of
  sweeping every entry on every poll;
- ``_queued_per_rank`` — QUEUED counts per rank for the refresh
  scheduler's idle-rank test.

All indexes are maintained by :meth:`push` / :meth:`mark_issued` /
:meth:`collect`. Requests whose ``state`` is mutated behind the queue's
back (some unit tests do) are still handled correctly by the scan-based
compatibility methods (:meth:`schedulable`, :meth:`retire_done`), which
rebuild the indexes when they remove entries.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, ItemsView, Iterator

from repro.controller.request import MemoryRequest, RequestState

BankKey = tuple[int, int]


class CommandQueue:
    """A bounded FIFO of memory requests.

    Requests stay resident (counted against capacity) until they reach
    DONE — a read occupies its queue entry while its data is in flight,
    matching USIMM.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: list[MemoryRequest] = []
        self._seq = 0  # monotone push counter; defines FIFO age
        self._queued_by_bank: dict[BankKey, deque[MemoryRequest]] = {}
        self._queued_per_rank: dict[int, int] = {}
        self._inflight: list[tuple[int, int, MemoryRequest]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def has_space(self) -> bool:
        return not self.is_full

    @property
    def has_queued(self) -> bool:
        """Whether any request still awaits its column command."""
        return bool(self._queued_by_bank)

    def push(self, request: MemoryRequest) -> None:
        if self.is_full:
            raise RuntimeError("push to a full queue")
        request.queue_seq = self._seq
        self._seq += 1
        self._entries.append(request)
        key = request.bank_key
        bucket = self._queued_by_bank.get(key)
        if bucket is None:
            bucket = self._queued_by_bank[key] = deque()
        bucket.append(request)
        rank = request.rank
        self._queued_per_rank[rank] = self._queued_per_rank.get(rank, 0) + 1

    # ------------------------------------------------------------------
    # Incremental scheduler interface
    # ------------------------------------------------------------------

    def mark_issued(self, request: MemoryRequest, complete_cycle: int) -> None:
        """Move a QUEUED request to ISSUED with a known completion cycle.

        Removes it from the per-bank bucket (it no longer needs a column
        command) and tracks its completion on the in-flight heap.
        """
        request.state = RequestState.ISSUED
        request.complete_cycle = complete_cycle
        bucket = self._queued_by_bank[request.bank_key]
        bucket.remove(request)
        if not bucket:
            del self._queued_by_bank[request.bank_key]
        self._queued_per_rank[request.rank] -= 1
        heapq.heappush(
            self._inflight, (complete_cycle, request.queue_seq, request)
        )

    def collect(self, cycle: int) -> bool:
        """Retire in-flight requests whose data completed by ``cycle``.

        Returns True when anything retired (queue occupancy dropped).
        """
        inflight = self._inflight
        if not inflight or inflight[0][0] > cycle:
            return False
        entries = self._entries
        while inflight and inflight[0][0] <= cycle:
            _, _, request = heapq.heappop(inflight)
            request.state = RequestState.DONE
            entries.remove(request)
        return True

    def next_completion(self) -> int | None:
        """Earliest in-flight completion cycle, or None when none is."""
        return self._inflight[0][0] if self._inflight else None

    def banks_with_work(self) -> ItemsView[BankKey, deque[MemoryRequest]]:
        """(bank key, bucket) pairs of banks with QUEUED requests, unordered.

        Each bucket holds its bank's requests oldest first.
        """
        return self._queued_by_bank.items()

    def oldest_queued(self) -> MemoryRequest | None:
        """The oldest still-QUEUED request (FCFS head), or None."""
        if not self._queued_by_bank:
            return None
        return min(
            (bucket[0] for bucket in self._queued_by_bank.values()),
            key=lambda r: r.queue_seq,
        )

    def queued_banks(self) -> set[BankKey]:
        """Bank keys with at least one QUEUED request."""
        return set(self._queued_by_bank)

    def pending_for_rank(self, rank: int) -> bool:
        """Any schedulable request targeting ``rank``?"""
        return bool(self._queued_per_rank.get(rank))

    # ------------------------------------------------------------------
    # Scan-based compatibility interface
    # ------------------------------------------------------------------

    def schedulable(self) -> list[MemoryRequest]:
        """Requests still awaiting their column command, oldest first."""
        return [r for r in self._entries if r.state is RequestState.QUEUED]

    def retire_done(self) -> list[MemoryRequest]:
        """Remove and return requests that have reached DONE.

        Unlike :meth:`collect` this tolerates states mutated behind the
        queue's back, at the cost of a full rebuild of the incremental
        indexes.
        """
        done = [r for r in self._entries if r.state is RequestState.DONE]
        if done:
            self._entries = [
                r for r in self._entries if r.state is not RequestState.DONE
            ]
            self._rebuild_indexes()
        return done

    def _rebuild_indexes(self) -> None:
        self._queued_by_bank.clear()
        self._queued_per_rank.clear()
        self._inflight = []
        for request in self._entries:
            if request.state is RequestState.QUEUED:
                self._queued_by_bank.setdefault(
                    request.bank_key, deque()
                ).append(request)
                self._queued_per_rank[request.rank] = (
                    self._queued_per_rank.get(request.rank, 0) + 1
                )
            elif request.state is RequestState.ISSUED:
                heapq.heappush(
                    self._inflight,
                    (request.complete_cycle, request.queue_seq, request),
                )


class WriteDrainPolicy:
    """Hysteresis controller for exclusive write drain.

    Drain turns on when the write queue reaches ``high`` and stays on
    until it falls to ``low``. Drain is also forced whenever the write
    queue is full (a stalled writer must make progress) and allowed
    opportunistically when there are no reads to serve.
    """

    def __init__(self, high: int = 24, low: int = 8) -> None:
        if not 0 <= low < high:
            raise ValueError("require 0 <= low < high")
        self.high = high
        self.low = low
        self._draining = False
        #: Observability sink for drain-mode transitions, called as
        #: ``on_change(cycle, draining)``. None (the default) costs one
        #: branch per hysteresis flip — the same zero-cost-when-off rule
        #: as the controller's command/request hooks.
        self.on_change: Callable[[int, bool], None] | None = None

    def update(self, write_queue_depth: int, cycle: int = 0) -> bool:
        """Advance the hysteresis and return whether drain mode is on.

        ``cycle`` stamps the transition for the drain-change observer; it
        does not affect the hysteresis itself.
        """
        was = self._draining
        if write_queue_depth >= self.high:
            self._draining = True
        elif write_queue_depth <= self.low:
            self._draining = False
        if self._draining is not was and self.on_change is not None:
            self.on_change(cycle, self._draining)
        return self._draining

    @property
    def draining(self) -> bool:
        return self._draining
