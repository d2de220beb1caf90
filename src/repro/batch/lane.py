"""Flat single-lane stepper for the batched kernel.

One :class:`Lane` is a complete (config, seed) simulation instance whose
per-command microstate — bank/rank timing floors, queue buckets, refresh
accrual, write-drain hysteresis, the decision memo — lives in flat
Python ints, lists and dicts instead of the scalar engine's object
graph. The scheduling semantics are a line-for-line replication of
``repro.controller.MemoryController`` + ``repro.dram.device`` +
``repro.dram.bank`` + ``repro.controller.refresh_scheduler`` and the
event loop of ``repro.sim.engine.SystemSimulator.run``; the equivalence
suites (``tests/test_batch_equivalence.py``,
``tests/test_engine_equivalence.py`` via the shared harness) pin every
:class:`~repro.sim.results.RunResult` field to the scalar engine's.

What the lane deliberately does NOT replicate:

- the scalar engine's always-on timing *checker* (`apply_*` raise paths)
  — legality is guaranteed by issuing exactly the scalar decision
  sequence, which the checker already validates on the reference side of
  every equivalence test;
- observability hooks — metrics, tracing, invariants and profiling
  instances stay scalar (see :mod:`repro.batch.compat`), so ``metrics``
  and ``profile`` are None on both engines.

The ROB core model (:class:`repro.cpu.core.Core`) and the address
mapper are reused as-is: their cost is a small fraction of the loop and
reusing them removes two whole classes of replication risk.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush

from repro.cpu.core import BlockReason, Core
from repro.dram.mcr import RowClass
from repro.dram.refresh import RefreshSlotKind
from repro.power.edp import edp_joule_seconds
from repro.power.micron import PowerModel, PowerStats
from repro.sim.engine import SimulationError
from repro.sim.results import RunResult
from repro.utils.stats import truncating_percentile

_INF = math.inf
_NEVER = 1 << 62
_NO_EXPIRY = 1 << 62
_COLUMN, _ACTIVATE, _PRECHARGE, _REFRESH = 0, 1, 2, 3
# Dense SchedulingPolicy encoding (see Lane.__init__).
_FR_FCFS, _FCFS, _CLOSED_PAGE = 0, 1, 2
_MAX_POSTPONED = 8

# Dense RowClass encoding: RowClass.NORMAL/MCR/MCR_ALT .value == 1/2/3.
_CLS_NORMAL, _CLS_MCR, _CLS_MCR_ALT = 1, 2, 3
_SKIPPED = RefreshSlotKind.SKIPPED
_FAST, _FAST_ALT = RefreshSlotKind.FAST, RefreshSlotKind.FAST_ALT


class _Req:
    """Flat stand-in for :class:`repro.controller.request.MemoryRequest`.

    Compared by identity (it doubles as the core's completion token);
    only fields the scheduler and results actually read are kept.
    """

    __slots__ = (
        "channel", "rank", "b", "row", "is_write",
        "cls", "arrival", "seq", "complete", "core_id",
    )

    def __init__(self, core_id: int, channel: int, rank: int,
                 b: int, row: int, is_write: bool) -> None:
        self.core_id = core_id
        self.channel = channel
        self.rank = rank
        self.b = b  # flat bank index: rank * banks_per_rank + bank
        self.row = row
        self.is_write = is_write
        self.cls = _CLS_NORMAL
        self.arrival = 0
        self.seq = 0
        self.complete = 0


class _Queue:
    """Flat CommandQueue: occupancy counter + per-bank FIFO buckets +
    in-flight completion heap (same indexes as the scalar queue, minus
    the resident-entries list — an int suffices for capacity checks)."""

    __slots__ = ("capacity", "occ", "seq", "by_bank", "per_rank", "inflight")

    def __init__(self, capacity: int, ranks: int) -> None:
        self.capacity = capacity
        self.occ = 0  # resident requests, including in-flight (USIMM)
        self.seq = 0  # monotone push counter; defines FIFO age
        self.by_bank: dict[int, deque] = {}
        self.per_rank = [0] * ranks
        self.inflight: list = []  # (complete_cycle, seq, req) min-heap

    def push(self, req: _Req) -> None:
        req.seq = self.seq
        self.seq += 1
        self.occ += 1
        bucket = self.by_bank.get(req.b)
        if bucket is None:
            bucket = self.by_bank[req.b] = deque()
        bucket.append(req)
        self.per_rank[req.rank] += 1

    def mark_issued(self, req: _Req, complete_cycle: int) -> None:
        req.complete = complete_cycle
        bucket = self.by_bank[req.b]
        bucket.remove(req)
        if not bucket:
            del self.by_bank[req.b]
        self.per_rank[req.rank] -= 1
        heappush(self.inflight, (complete_cycle, req.seq, req))

    def collect(self, cycle: int) -> bool:
        inflight = self.inflight
        if not inflight or inflight[0][0] > cycle:
            return False
        occ = self.occ
        while inflight and inflight[0][0] <= cycle:
            heappop(inflight)
            occ -= 1
        self.occ = occ
        return True

    def next_completion(self) -> int | None:
        return self.inflight[0][0] if self.inflight else None

    def oldest_queued(self) -> _Req | None:
        if not self.by_bank:
            return None
        return min(
            (bucket[0] for bucket in self.by_bank.values()),
            key=lambda r: r.seq,
        )


class _Ctrl:
    """Flat controller + channel/rank/bank device state for one channel."""

    __slots__ = (
        "ranks", "banks", "policy", "refresh_enabled", "row_class_fn",
        # base timings
        "t_rp", "t_cas", "t_cwd", "t_burst", "t_rrd", "t_faw", "t_wr",
        "t_wtr", "t_rtp", "t_ccd", "t_rtrs", "t_refi",
        # per-row-class timing tables indexed by RowClass.value (1..3)
        "trcd", "tras", "trc",
        # tRFC cycles per issued refresh-slot kind; SpreadSchedule.kind
        "trfc_by_kind", "slot_kind",
        # per-bank state, flat index b = rank * banks + bank
        "open_row", "open_cls", "act_ready", "col_ready", "pre_ready",
        # per-rank state
        "next_act", "faw", "next_read", "next_write", "refresh_until",
        "act_floor", "col_read_floor", "col_write_floor",
        "open_banks", "active_since", "active_standby", "idle_since",
        "idle_intervals",
        # per-rank refresh accounting
        "ref_cursor", "ref_served", "ref_skipped",
        "ref_fast", "ref_fast_alt", "ref_normal",
        # channel state
        "next_cmd", "bus_free", "bus_owner", "bus_owner_write",
        "data_bus_busy", "read_count", "write_count",
        # queues + write drain
        "rq", "wq", "drain_high", "drain_low", "draining",
        # decision memo
        "gen", "memo",
        # statistics
        "act_counts", "lat_total", "lat_count", "lats",
        "reads_enq", "writes_enq",
    )

    def __init__(self, ranks: int, banks: int, domain, spread, policy: int,
                 refresh_enabled: bool, row_class_fn) -> None:
        self.ranks = ranks
        self.banks = banks
        self.policy = policy
        self.refresh_enabled = refresh_enabled
        self.row_class_fn = row_class_fn
        base = domain.base
        self.t_rp = base.t_rp
        self.t_cas = base.t_cas
        self.t_cwd = base.t_cwd
        self.t_burst = base.t_burst
        self.t_rrd = base.t_rrd
        self.t_faw = base.t_faw
        self.t_wr = base.t_wr
        self.t_wtr = base.t_wtr
        self.t_rtp = base.t_rtp
        self.t_ccd = base.t_ccd
        self.t_rtrs = base.t_rtrs
        self.t_refi = base.t_refi
        # Index 0 unused: RowClass values start at 1. Sized off the enum
        # so mechanism-plugin classes (e.g. CHARGED) don't overflow the
        # fill loop — batch lanes themselves never *dispatch* such
        # classes (non-MCR mechanisms are scalar-fallback by compat).
        size = max(cls.value for cls in RowClass) + 1
        self.trcd = [0] * size
        self.tras = [0] * size
        self.trc = [0] * size

        for cls in RowClass:
            timings = domain.row_timings(cls)
            self.trcd[cls.value] = timings.t_rcd
            self.tras[cls.value] = timings.t_ras
            self.trc[cls.value] = timings.t_rc
        # Mirrors RefreshScheduler.trfc_class.
        self.trfc_by_kind = {
            RefreshSlotKind.NORMAL: domain.trfc_cycles(RowClass.NORMAL),
            _FAST: domain.trfc_cycles(RowClass.MCR),
            _FAST_ALT: domain.trfc_cycles(RowClass.MCR_ALT),
        }
        self.slot_kind = spread.kind
        nb = ranks * banks
        self.open_row = [-1] * nb
        self.open_cls = [_CLS_NORMAL] * nb
        self.act_ready = [0] * nb
        self.col_ready = [_NEVER] * nb
        self.pre_ready = [0] * nb
        self.next_act = [0] * ranks
        self.faw = [[] for _ in range(ranks)]
        self.next_read = [0] * ranks
        self.next_write = [0] * ranks
        self.refresh_until = [0] * ranks
        self.act_floor = [0] * ranks
        self.col_read_floor = [0] * ranks
        self.col_write_floor = [0] * ranks
        self.open_banks = [0] * ranks
        self.active_since = [0] * ranks
        self.active_standby = [0] * ranks
        self.idle_since = [0] * ranks
        self.idle_intervals = [[] for _ in range(ranks)]
        self.ref_cursor = [0] * ranks
        self.ref_served = [0] * ranks
        self.ref_skipped = [0] * ranks
        self.ref_fast = [0] * ranks
        self.ref_fast_alt = [0] * ranks
        self.ref_normal = [0] * ranks
        self.next_cmd = 0
        self.bus_free = 0
        self.bus_owner = -1
        self.bus_owner_write = False
        self.data_bus_busy = 0
        self.read_count = 0
        self.write_count = 0
        self.rq = _Queue(32, ranks)
        self.wq = _Queue(32, ranks)
        self.drain_high = 24
        self.drain_low = 8
        self.draining = False
        self.gen = 0
        self.memo = None  # (computed_cycle, gen, decision, valid_until)
        # By RowClass.value (index 0 unused); sized off the enum so new
        # plugin classes (e.g. CHARGED) can't index out of range.
        self.act_counts = [0] * (max(cls.value for cls in RowClass) + 1)
        self.lat_total = 0
        self.lat_count = 0
        self.lats: list[int] = []
        self.reads_enq = 0
        self.writes_enq = 0

    # ------------------------------------------------------------------
    # Enqueue side
    # ------------------------------------------------------------------

    def can_accept(self, is_write: bool, cycle: int) -> bool:
        self._collect(cycle)
        queue = self.wq if is_write else self.rq
        return queue.occ < queue.capacity

    def enqueue(self, req: _Req, cycle: int) -> None:
        req.arrival = cycle
        req.cls = self.row_class_fn(req.row).value
        if req.is_write:
            self.wq.push(req)
            self.writes_enq += 1
        else:
            self.rq.push(req)
            self.reads_enq += 1
        self.gen += 1

    def _collect(self, cycle: int) -> None:
        # Read retirements free queue slots but are invisible to _decide
        # (it never reads rq.occ or the inflight heap), so they need not
        # invalidate the decision memo. Write retirements change wq.occ,
        # which drives the drain hysteresis — those must.
        self.rq.collect(cycle)
        if self.wq.collect(cycle):
            self.gen += 1

    # ------------------------------------------------------------------
    # Refresh accrual (RefreshScheduler semantics)
    # ------------------------------------------------------------------

    def _consume_skips(self, rank: int, accrued: int) -> None:
        served = self.ref_served[rank]
        if served >= accrued:
            return
        cursor = self.ref_cursor[rank]
        kind = self.slot_kind
        skipped = 0
        while served < accrued and kind(cursor) is _SKIPPED:
            cursor += 1
            served += 1
            skipped += 1
        if skipped:
            self.ref_cursor[rank] = cursor
            self.ref_served[rank] = served
            self.ref_skipped[rank] += skipped

    def _pending_kind(self, rank: int, accrued: int) -> RefreshSlotKind | None:
        if self.ref_served[rank] >= accrued:
            return None  # nothing accrued — the common fast path
        # A pending slot is usually not a skip: read it once, and walk
        # the skips only when there are some.
        kind = self.slot_kind(self.ref_cursor[rank])
        if kind is _SKIPPED:
            self._consume_skips(rank, accrued)
            if self.ref_served[rank] >= accrued:
                return None
            kind = self.slot_kind(self.ref_cursor[rank])
        return kind

    def _forced_mask(self, accrued: int) -> int:
        """Bitmask of ranks whose refresh postponement is exhausted."""
        mask = 0
        served = self.ref_served
        for rank in range(self.ranks):
            if accrued - served[rank] < _MAX_POSTPONED:
                continue
            self._consume_skips(rank, accrued)
            if accrued - served[rank] >= _MAX_POSTPONED:
                mask |= 1 << rank
        return mask

    # ------------------------------------------------------------------
    # Event-driven scheduling
    # ------------------------------------------------------------------

    def next_action_cycle(self, now: int) -> int | None:
        decision = self._decide_at(now)
        best = decision[0] if decision is not None else None
        if self.draining:
            completion = self.wq.next_completion()
            if completion is not None and (best is None or completion < best):
                best = completion
        if self.refresh_enabled:
            boundary = (now // self.t_refi + 1) * self.t_refi
            if best is None or boundary < best:
                best = boundary
        if best is None:
            return None
        return now if best < now else best

    def _decide_at(self, now: int):
        memo = self.memo
        if memo is not None and memo[1] == self.gen and memo[0] <= now <= memo[3]:
            return memo[2]
        self._collect(now)
        decision = self._decide(now)
        valid_until = decision[0] if decision is not None else _NO_EXPIRY
        if self.refresh_enabled:
            boundary = (now // self.t_refi + 1) * self.t_refi
            if boundary <= valid_until:
                valid_until = boundary - 1
        if self.draining:
            completion = self.wq.next_completion()
            if completion is not None and completion <= valid_until:
                valid_until = completion - 1
        self.memo = (now, self.gen, decision, valid_until)
        return decision

    def _decide(self, now: int):
        """Best next command as (cycle, kind, arrival, payload), or None.

        Identical candidate set, clamping and tie-break rule as
        ``MemoryController._decide``; the ``earliest_*`` device queries
        are inlined reads of the flat floors. Both engines walk the
        bucket dict unordered and settle a (cycle, kind, arrival) tie
        between banks by the smaller bucket-head seq, a fourth key;
        candidates that serve no queued request keep the first-wins
        (cycle, kind, arrival) compare.
        """
        accrued = now // self.t_refi if self.refresh_enabled else 0
        forced = self._forced_mask(accrued) if self.refresh_enabled else 0
        best_c = -1
        best_k = 0
        best_a = 0
        best_h = 0
        best_p = None
        next_cmd = self.next_cmd
        open_row = self.open_row
        act_ready = self.act_ready
        col_ready = self.col_ready
        pre_ready = self.pre_ready
        banks = self.banks

        # --- request traffic ------------------------------------------------
        rq = self.rq
        wq = self.wq
        has_reads = bool(rq.by_bank)
        depth = wq.occ
        if depth >= self.drain_high:
            self.draining = True
        elif depth <= self.drain_low:
            self.draining = False
        draining = self.draining or (not has_reads and bool(wq.by_bank))
        active = wq if draining else rq
        if self.policy == _FCFS:
            oldest = active.oldest_queued()
            bank_work = () if oldest is None else ((oldest.b, (oldest,)),)
        else:
            bank_work = active.by_bank.items()

        for b, bucket in bank_work:
            rank = b // banks
            if forced & (1 << rank):
                continue
            head = bucket[0]
            hseq = head.seq
            row = open_row[b]
            if row >= 0:
                hit = None
                for req in bucket:
                    if req.row == row:
                        hit = req
                        break
                if hit is not None:
                    # earliest_column: bank col_ready, rank column floor,
                    # command bus, then the shared-data-bus slot.
                    if hit.is_write:
                        c = self.col_write_floor[rank]
                        latency = self.t_cwd
                    else:
                        c = self.col_read_floor[rank]
                        latency = self.t_cas
                    cr = col_ready[b]
                    if cr > c:
                        c = cr
                    if next_cmd > c:
                        c = next_cmd
                    owner = self.bus_owner
                    if owner != -1:
                        slot = self.bus_free + (
                            self.t_rtrs
                            if owner != rank or self.bus_owner_write != hit.is_write
                            else 0
                        )
                        if c + latency < slot:
                            c = slot - latency
                    a = hit.arrival
                    if c < now:
                        c = now
                    if c < a:
                        c = a
                    if best_p is None or c < best_c or (
                        c == best_c
                        and (
                            _COLUMN < best_k
                            or (
                                best_k == _COLUMN
                                and (a < best_a or (a == best_a and hseq < best_h))
                            )
                        )
                    ):
                        best_c, best_k, best_a, best_h, best_p = c, _COLUMN, a, hseq, hit
                else:
                    # never close a row that still has hits queued; miss ->
                    # earliest_precharge for the bucket's oldest request.
                    c = pre_ready[b]
                    if next_cmd > c:
                        c = next_cmd
                    a = head.arrival
                    if c < now:
                        c = now
                    if c < a:
                        c = a
                    if best_p is None or c < best_c or (
                        c == best_c
                        and (
                            _PRECHARGE < best_k
                            or (
                                best_k == _PRECHARGE
                                and (a < best_a or (a == best_a and hseq < best_h))
                            )
                        )
                    ):
                        best_c, best_k, best_a, best_h, best_p = c, _PRECHARGE, a, hseq, b
            else:
                # closed bank -> earliest_activate for the oldest request.
                c = act_ready[b]
                floor = self.act_floor[rank]
                if floor > c:
                    c = floor
                if next_cmd > c:
                    c = next_cmd
                a = head.arrival
                if c < now:
                    c = now
                if c < a:
                    c = a
                if best_p is None or c < best_c or (
                    c == best_c
                    and (
                        _ACTIVATE < best_k
                        or (
                            best_k == _ACTIVATE
                            and (a < best_a or (a == best_a and hseq < best_h))
                        )
                    )
                ):
                    best_c, best_k, best_a, best_h, best_p = c, _ACTIVATE, a, hseq, head

        if self.policy == _CLOSED_PAGE:
            # Eagerly close banks nothing in either queue still wants.
            wanted = set(rq.by_bank)
            wanted.update(wq.by_bank)
            for b in range(self.ranks * banks):
                if open_row[b] >= 0 and b not in wanted:
                    c = pre_ready[b]
                    if next_cmd > c:
                        c = next_cmd
                    if c < now:
                        c = now
                    a = now
                    if best_p is None or c < best_c or (
                        c == best_c and (_PRECHARGE < best_k or (best_k == _PRECHARGE and a < best_a))
                    ):
                        best_c, best_k, best_a, best_p = c, _PRECHARGE, a, b

        # --- refresh --------------------------------------------------------
        if self.refresh_enabled:
            rq_per_rank = rq.per_rank
            wq_per_rank = wq.per_rank
            for rank in range(self.ranks):
                kind = self._pending_kind(rank, accrued)
                if kind is None:
                    continue
                is_forced = bool(forced & (1 << rank))
                if not is_forced and (rq_per_rank[rank] or wq_per_rank[rank]):
                    continue  # only opportunistic on idle ranks
                base_b = rank * banks
                if self.open_banks[rank] != 0:
                    # Some bank still open: close banks to make way.
                    a = 0 if is_forced else now
                    for b in range(base_b, base_b + banks):
                        if open_row[b] >= 0:
                            c = pre_ready[b]
                            if next_cmd > c:
                                c = next_cmd
                            if c < now:
                                c = now
                            if c < a:
                                c = a
                            if best_p is None or c < best_c or (
                                c == best_c
                                and (_PRECHARGE < best_k or (best_k == _PRECHARGE and a < best_a))
                            ):
                                best_c, best_k, best_a, best_p = c, _PRECHARGE, a, b
                else:
                    c = self.refresh_until[rank]
                    na = self.next_act[rank]
                    if na > c:
                        c = na
                    for b in range(base_b, base_b + banks):
                        ar = act_ready[b]
                        if ar > c:
                            c = ar
                    if next_cmd > c:
                        c = next_cmd
                    a = 0 if is_forced else now
                    if c < now:
                        c = now
                    if c < a:
                        c = a
                    if best_p is None or c < best_c or (
                        c == best_c and (_REFRESH < best_k or (best_k == _REFRESH and a < best_a))
                    ):
                        best_c, best_k, best_a, best_p = c, _REFRESH, a, (rank, kind)

        if best_p is None:
            return None
        return (best_c, best_k, best_a, best_p)

    # ------------------------------------------------------------------
    # Command application (flat apply_* from repro.dram.device/bank,
    # sans the redundant legality checker — see module docstring)
    # ------------------------------------------------------------------

    def execute(self, cycle: int):
        """Issue the best legal command at ``cycle``, if any is ready.

        Returns ``(issued, read_completion_or_None, write_drained)``.
        """
        decision = self._decide_at(cycle)
        if decision is None or decision[0] > cycle:
            return False, None, False
        _, kind, _, payload = decision
        self.gen += 1
        if kind == _COLUMN:
            req = payload
            end = self._apply_column(cycle, req)
            if req.is_write:
                self.wq.mark_issued(req, end)
                return True, None, True
            self.rq.mark_issued(req, end)
            latency = end - req.arrival
            self.lat_total += latency
            self.lat_count += 1
            self.lats.append(latency)
            return True, req, False
        if kind == _ACTIVATE:
            req = payload
            self._apply_activate(cycle, req.rank, req.b, req.row, req.cls)
        elif kind == _PRECHARGE:
            b = payload
            self._apply_precharge(cycle, b // self.banks, b)
        else:  # _REFRESH
            rank, slot_kind = payload
            self._apply_refresh(cycle, rank, self.trfc_by_kind[slot_kind])
            self.ref_cursor[rank] += 1
            self.ref_served[rank] += 1
            if slot_kind is _FAST:
                self.ref_fast[rank] += 1
            elif slot_kind is _FAST_ALT:
                self.ref_fast_alt[rank] += 1
            else:
                self.ref_normal[rank] += 1
        return True, None, False

    def _apply_column(self, cycle: int, req: _Req) -> int:
        self.next_cmd = cycle + 1
        rank = req.rank
        b = req.b
        is_write = req.is_write
        if is_write:
            nw = cycle + self.t_ccd
            if nw > self.next_write[rank]:
                self.next_write[rank] = nw
            # WR -> RD same rank: write data must land, then tWTR.
            nr = cycle + self.t_cwd + self.t_burst + self.t_wtr
            if nr > self.next_read[rank]:
                self.next_read[rank] = nr
            recovery = cycle + self.t_cwd + self.t_burst + self.t_wr
            latency = self.t_cwd
        else:
            nr = cycle + self.t_ccd
            if nr > self.next_read[rank]:
                self.next_read[rank] = nr
            nw = cycle + self.t_ccd
            if nw > self.next_write[rank]:
                self.next_write[rank] = nw
            recovery = cycle + self.t_rtp
            latency = self.t_cas
        until = self.refresh_until[rank]
        nr = self.next_read[rank]
        nw = self.next_write[rank]
        self.col_read_floor[rank] = nr if nr > until else until
        self.col_write_floor[rank] = nw if nw > until else until
        if recovery > self.pre_ready[b]:
            self.pre_ready[b] = recovery
        end = cycle + latency + self.t_burst
        self.bus_free = end
        self.bus_owner = rank
        self.bus_owner_write = is_write
        self.data_bus_busy += self.t_burst
        if is_write:
            self.write_count += 1
        else:
            self.read_count += 1
        return end

    def _apply_activate(self, cycle: int, rank: int, b: int, row: int, cls: int) -> None:
        self.next_cmd = cycle + 1
        self.next_act[rank] = cycle + self.t_rrd
        faw = self.faw[rank]
        faw.append(cycle)
        if len(faw) > 4:
            del faw[0]
        self._recompute_act_floor(rank)
        if self.open_banks[rank] == 0:
            self.active_since[rank] = cycle
            self.idle_intervals[rank].append(cycle - self.idle_since[rank])
        self.open_banks[rank] += 1
        self.open_row[b] = row
        self.open_cls[b] = cls
        self.col_ready[b] = cycle + self.trcd[cls]
        self.pre_ready[b] = cycle + self.tras[cls]
        self.act_ready[b] = cycle + self.trc[cls]
        self.act_counts[cls] += 1

    def _apply_precharge(self, cycle: int, rank: int, b: int) -> None:
        self.next_cmd = cycle + 1
        self.open_row[b] = -1
        self.col_ready[b] = _NEVER
        ready = cycle + self.t_rp
        if ready > self.act_ready[b]:
            self.act_ready[b] = ready
        self.pre_ready[b] = 0
        self.open_banks[rank] -= 1
        if self.open_banks[rank] == 0:
            self.active_standby[rank] += cycle - self.active_since[rank]
            self.idle_since[rank] = cycle

    def _apply_refresh(self, cycle: int, rank: int, trfc: int) -> None:
        self.next_cmd = cycle + 1
        until = cycle + trfc
        self.refresh_until[rank] = until
        self._recompute_act_floor(rank)
        nr = self.next_read[rank]
        nw = self.next_write[rank]
        self.col_read_floor[rank] = nr if nr > until else until
        self.col_write_floor[rank] = nw if nw > until else until
        # A refresh interrupts the precharged-idle interval; idle resumes
        # once the refresh completes.
        self.idle_intervals[rank].append(cycle - self.idle_since[rank])
        self.idle_since[rank] = until
        act_ready = self.act_ready
        for b in range(rank * self.banks, (rank + 1) * self.banks):
            if until > act_ready[b]:
                act_ready[b] = until

    def _recompute_act_floor(self, rank: int) -> None:
        earliest = self.next_act[rank]
        until = self.refresh_until[rank]
        if until > earliest:
            earliest = until
        faw = self.faw[rank]
        if len(faw) == 4:
            window = faw[0] + self.t_faw
            if window > earliest:
                earliest = window
        self.act_floor[rank] = earliest

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def finalize_accounting(self, end_cycle: int) -> None:
        for rank in range(self.ranks):
            if self.open_banks[rank] > 0:
                self.active_standby[rank] += end_cycle - self.active_since[rank]
                self.active_since[rank] = end_cycle
            else:
                self.idle_intervals[rank].append(end_cycle - self.idle_since[rank])
                self.idle_since[rank] = end_cycle

    def refresh_counts(self) -> dict[str, int]:
        return {
            "issued_fast": sum(self.ref_fast),
            "issued_fast_alt": sum(self.ref_fast_alt),
            "issued_normal": sum(self.ref_normal),
            "skipped": sum(self.ref_skipped),
        }

    def stats(self) -> dict:
        columns = self.read_count + self.write_count
        activates = sum(self.act_counts[1:])
        return {
            "reads": self.reads_enq,
            "writes": self.writes_enq,
            "avg_read_latency_cycles": (
                self.lat_total / self.lat_count if self.lat_count else 0.0
            ),
            "activates_normal": self.act_counts[_CLS_NORMAL],
            "activates_mcr": self.act_counts[_CLS_MCR],
            "activates_mcr_alt": self.act_counts[_CLS_MCR_ALT],
            "row_hits": max(0, columns - activates),
            "row_hit_rate": (columns - activates) / columns if columns else 0.0,
            "refresh": self.refresh_counts(),
            "data_bus_busy_cycles": self.data_bus_busy,
        }


class Lane:
    """One simulation instance stepped by the lockstep kernel."""

    __slots__ = (
        "geometry", "mode", "spec", "max_cycles", "domain",
        "cpm", "cores", "ctrls", "decoded", "cursor", "completions",
        "comp_seq", "core_wake", "wq_blocked", "rq_blocked",
        "ctrl_next", "ctrl_dirty", "now", "done", "result",
        "trace_names", "unfinished",
    )

    def __init__(self, traces, mode, spec, max_cycles,
                 domain, spread, decoded, row_class_fn) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        geometry = spec.geometry
        self.geometry = geometry
        self.mode = mode
        self.spec = spec
        self.max_cycles = max_cycles
        self.domain = domain
        self.cpm = spec.core_params.cpu_cycles_per_mem_cycle
        from repro.controller.controller import SchedulingPolicy

        policy = {
            SchedulingPolicy.FR_FCFS: _FR_FCFS,
            SchedulingPolicy.FCFS: _FCFS,
            SchedulingPolicy.CLOSED_PAGE: _CLOSED_PAGE,
        }[spec.policy]
        self.ctrls = [
            _Ctrl(
                geometry.ranks_per_channel,
                geometry.banks_per_rank,
                domain,
                spread,
                policy,
                spec.refresh_enabled,
                row_class_fn,
            )
            for _ in range(geometry.channels)
        ]
        self.cores = [
            Core(i, trace, spec.core_params, self._try_send)
            for i, trace in enumerate(traces)
        ]
        self.trace_names = tuple(t.name for t in traces)
        self.decoded = decoded  # per core: list of (ch, rank, b, row)
        self.cursor = [0] * len(traces)
        self.completions: list = []  # (complete_cycle, seq, req) min-heap
        self.comp_seq = 0
        self.core_wake = [0.0] * len(traces)
        self.wq_blocked: set[int] = set()
        self.rq_blocked: set[int] = set()
        self.ctrl_next = [0.0] * len(self.ctrls)
        self.ctrl_dirty = [True] * len(self.ctrls)
        self.now = 0.0
        self.done = False
        self.result: RunResult | None = None
        self.unfinished = len(self.cores)

    # ------------------------------------------------------------------
    # Core -> controller path (engine._try_send semantics)
    # ------------------------------------------------------------------

    def _try_send(self, core_id: int, is_write: bool, address: int,
                  fetch_cpu: float):
        arrival = math.ceil(fetch_cpu / self.cpm)
        cursor = self.cursor[core_id]
        channel, rank, b, row = self.decoded[core_id][cursor]
        ctrl = self.ctrls[channel]
        if not ctrl.can_accept(is_write, arrival):
            return None
        self.cursor[core_id] = cursor + 1
        req = _Req(core_id, channel, rank, b, row, is_write)
        ctrl.enqueue(req, arrival)
        self.ctrl_dirty[channel] = True
        return req

    def _advance_core(self, idx: int, now_mem: float) -> None:
        core = self.cores[idx]
        result = core.advance(now_mem * self.cpm)
        blocked = core.blocked
        if blocked is BlockReason.FINISHED:
            # Call sites only advance unfinished cores, so this is the
            # finishing transition exactly once per core.
            self.unfinished -= 1
            self.core_wake[idx] = _INF
            return
        if blocked is BlockReason.WRITE_QUEUE_FULL:
            self.wq_blocked.add(idx)
            self.core_wake[idx] = _INF
        elif blocked is BlockReason.READ_QUEUE_FULL:
            self.rq_blocked.add(idx)
            self.core_wake[idx] = _INF
        elif result.wake_cpu is None:
            self.core_wake[idx] = _INF
        else:
            self.core_wake[idx] = result.wake_cpu / self.cpm

    # ------------------------------------------------------------------
    # One engine-loop iteration (engine.run body, one event instant)
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Process the next event instant; sets ``done`` (and ``result``)
        once every core has finished."""
        cores = self.cores
        if self.unfinished == 0:
            self.result = self._collect_results()
            self.done = True
            return
        now = self.now
        if self.max_cycles is not None and now > self.max_cycles:
            raise SimulationError(f"exceeded max_cycles={self.max_cycles}")
        ctrls = self.ctrls
        ctrl_next = self.ctrl_next
        ctrl_dirty = self.ctrl_dirty
        core_wake = self.core_wake
        single_ctrl = len(ctrls) == 1
        single_core = len(cores) == 1
        # ceil, not int — same fractional-enqueue rule as the engine.
        ceil_now = math.ceil(now)
        if single_ctrl:
            if ctrl_dirty[0]:
                nxt = ctrls[0].next_action_cycle(ceil_now)
                ctrl_dirty[0] = False
                ctrl_next[0] = _INF if nxt is None else float(nxt)
            m = ctrl_next[0]
        else:
            for ch, dirty in enumerate(ctrl_dirty):
                if dirty:
                    nxt = ctrls[ch].next_action_cycle(ceil_now)
                    ctrl_dirty[ch] = False
                    ctrl_next[ch] = _INF if nxt is None else float(nxt)
            m = min(ctrl_next)
        t = core_wake[0] if single_core else min(core_wake)
        if m < t:
            t = m
        completions = self.completions
        if completions and completions[0][0] < t:
            t = float(completions[0][0])
        if t == _INF:
            reasons = [
                c.blocked.name if c.blocked is not None else "None" for c in cores
            ]
            raise SimulationError(
                "deadlock: no pending events but cores unfinished "
                f"(blocked={reasons})"
            )
        self.now = now = t

        # 1. Data completions at exactly t.
        if completions and completions[0][0] <= now:
            woke: set[int] = set()
            cpm = self.cpm
            rq_blocked = self.rq_blocked
            while completions and completions[0][0] <= now:
                _, _, req = heappop(completions)
                cores[req.core_id].on_read_complete(req, req.complete * cpm)
                woke.add(req.core_id)
                # A completed read frees its queue slot.
                ctrl_dirty[req.channel] = True
                if rq_blocked:
                    woke |= rq_blocked
                    rq_blocked.clear()
            for idx in woke:
                if not cores[idx].finished:
                    self._advance_core(idx, now)

        # 2. Cores whose self-scheduled wake time arrived.
        if single_core:
            if core_wake[0] <= now and not cores[0].finished:
                self._advance_core(0, now)
        else:
            for idx, wake in enumerate(core_wake):
                if wake <= now and not cores[idx].finished:
                    self._advance_core(idx, now)

        # 3. Controllers whose next action is due.
        int_now = int(now)
        for ch in range(len(ctrls)) if not single_ctrl else (0,):
            if ctrl_next[ch] <= now:
                ctrl = ctrls[ch]
                issued, completion, drained = ctrl.execute(int_now)
                ctrl_dirty[ch] = True
                if not issued:
                    # Stale estimate; force it forward to guarantee progress.
                    nxt = ctrl.next_action_cycle(int_now + 1)
                    ctrl_dirty[ch] = False
                    ctrl_next[ch] = _INF if nxt is None else float(nxt)
                if completion is not None:
                    self.comp_seq += 1
                    heappush(
                        completions,
                        (completion.complete, self.comp_seq, completion),
                    )
                if drained and self.wq_blocked:
                    stalled = list(self.wq_blocked)
                    self.wq_blocked.clear()
                    for idx in stalled:
                        self._advance_core(idx, now)

    # ------------------------------------------------------------------
    # Results (engine._collect_results semantics)
    # ------------------------------------------------------------------

    def _collect_results(self) -> RunResult:
        cpm = self.cpm
        per_core = tuple(
            int(math.ceil((c.finish_cpu or 0.0) / cpm)) for c in self.cores
        )
        end_cycle = max(per_core) if per_core else 0
        for ctrl in self.ctrls:
            ctrl.finalize_accounting(end_cycle)

        reads = sum(c.reads_enq for c in self.ctrls)
        writes = sum(c.writes_enq for c in self.ctrls)
        latency_total = sum(c.lat_total for c in self.ctrls)
        latency_count = sum(c.lat_count for c in self.ctrls)
        avg_latency = latency_total / latency_count if latency_count else 0.0
        all_latencies = sorted(
            latency for ctrl in self.ctrls for latency in ctrl.lats
        )
        percentiles = (
            truncating_percentile(all_latencies, 0.50),
            truncating_percentile(all_latencies, 0.95),
            truncating_percentile(all_latencies, 0.99),
        )

        stats = self._power_stats(end_cycle)
        power_model = PowerModel(
            self.geometry, self.domain, self.mode, idd=self.spec.idd
        )
        energy = power_model.energy(stats)
        edp = edp_joule_seconds(energy.total, end_cycle, self.domain.base.tck_ns)

        return RunResult(
            workloads=self.trace_names,
            mode_label=self.mode.label(),
            execution_cycles=end_cycle,
            per_core_cycles=per_core,
            avg_read_latency_cycles=avg_latency,
            instructions=sum(c.instructions_fetched for c in self.cores),
            reads=reads,
            writes=writes,
            energy=energy,
            edp=edp,
            controller_stats=tuple(c.stats() for c in self.ctrls),
            read_latency_percentiles=percentiles,
        )

    def _power_stats(self, end_cycle: int) -> PowerStats:
        act_normal = act_mcr = act_alt = 0
        ref_counts = {
            "issued_fast": 0,
            "issued_fast_alt": 0,
            "issued_normal": 0,
            "skipped": 0,
        }
        active_cycles = 0
        idle_intervals: list[int] = []
        for ctrl in self.ctrls:
            act_normal += ctrl.act_counts[_CLS_NORMAL]
            act_mcr += ctrl.act_counts[_CLS_MCR]
            act_alt += ctrl.act_counts[_CLS_MCR_ALT]
            for key, value in ctrl.refresh_counts().items():
                ref_counts[key] += value
            for rank in range(ctrl.ranks):
                active_cycles += ctrl.active_standby[rank]
                idle_intervals.extend(ctrl.idle_intervals[rank])
        return PowerStats(
            total_cycles=end_cycle,
            activates_normal=act_normal,
            activates_mcr=act_mcr,
            activates_mcr_alt=act_alt,
            reads=sum(c.read_count for c in self.ctrls),
            writes=sum(c.write_count for c in self.ctrls),
            refreshes_normal=ref_counts["issued_normal"],
            refreshes_fast=ref_counts["issued_fast"],
            refreshes_fast_alt=ref_counts["issued_fast_alt"],
            refreshes_skipped=ref_counts["skipped"],
            active_standby_cycles=active_cycles,
            idle_intervals=idle_intervals,
        )
