"""Structured command-stream tracer.

Records every command a run issues — ACT/RD/WR/PRE/REF — with its cycle,
channel/rank/bank/row coordinates, the row's timing class, and the timing
constraint that *gated* it (the binding bound from the oracle's rule
tables, or ``queue`` when the scheduler, not a timing constraint, set
the issue cycle). Events export as JSONL (one object per line, stable
key order) for tooling, or render as a human-readable timeline for the
CLI.

The tracer itself is passive storage; gates come from
:meth:`repro.verify.oracle.ProtocolOracle.check` via the hub, so the
timeline and the checker can never disagree about why a command waited.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable

from repro.dram.commands import Command
from repro.dram.mcr import RowClass

#: JSONL schema version, bumped when the event shape changes.
TRACE_SCHEMA_VERSION = 1

#: RowClass -> stable string label used across trace/profile artifacts.
#: Derived from the enum so mechanism-plugin classes (e.g. CHARGED) get
#: labels automatically; the legacy three keep their historical names.
ROW_CLASS_LABELS = {cls: cls.name.lower() for cls in RowClass}


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One issued command, as the tracer records it."""

    cycle: int
    channel: int
    kind: str  # ACTIVATE | READ | WRITE | PRECHARGE | REFRESH
    rank: int
    bank: int  # -1 for rank-wide commands (REFRESH)
    row: int  # -1 when not applicable; tRFC cycles for REFRESH
    row_class: str  # normal | mcr | mcr_alt | "" when not applicable
    gate: str  # constraint name, "queue", or "ready"

    def to_json(self) -> dict:
        return {
            "cycle": self.cycle,
            "channel": self.channel,
            "kind": self.kind,
            "rank": self.rank,
            "bank": self.bank,
            "row": self.row,
            "row_class": self.row_class,
            "gate": self.gate,
        }


class CommandTracer:
    """Accumulates :class:`TraceEvent`\\ s for one run.

    ``max_events`` bounds memory for long runs; when the cap is hit the
    tracer keeps counting (``dropped``) but stops storing, so a truncated
    trace is detectable rather than silently complete.
    """

    def __init__(self, max_events: int | None = None) -> None:
        self.events: list[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def record(
        self,
        channel: int,
        cmd: Command,
        row_class: RowClass | None,
        gate: str,
    ) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(
                cycle=cmd.cycle,
                channel=channel,
                kind=cmd.kind.name,
                rank=cmd.rank,
                bank=cmd.bank,
                row=cmd.row,
                row_class=ROW_CLASS_LABELS.get(row_class, ""),
                gate=gate,
            )
        )

    def window(
        self, since: int | None = None, until: int | None = None
    ) -> list[TraceEvent]:
        """Events within the half-open cycle window ``[since, until)``.

        ``None`` leaves that edge unbounded, so ``window()`` is the full
        event list. Used by the CLI's ``--since/--until`` filters.
        """
        lo = since if since is not None else float("-inf")
        hi = until if until is not None else float("inf")
        return [e for e in self.events if lo <= e.cycle < hi]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """All events as JSON Lines (one compact object per line)."""
        return "\n".join(
            json.dumps(event.to_json(), separators=(",", ":"))
            for event in self.events
        )

    def write_jsonl(self, handle: IO[str]) -> int:
        """Stream events to ``handle``; returns the event count."""
        for event in self.events:
            handle.write(json.dumps(event.to_json(), separators=(",", ":")))
            handle.write("\n")
        return len(self.events)

    def timeline(self, limit: int | None = None, events: Iterable[TraceEvent] | None = None) -> str:
        """Human-readable timeline table.

        ``limit`` truncates to the first N events (with a trailing
        elision note); ``events`` substitutes a filtered subset.
        """
        chosen = list(events) if events is not None else self.events
        elided = 0
        if limit is not None and len(chosen) > limit:
            elided = len(chosen) - limit
            chosen = chosen[:limit]
        header = (
            f"{'cycle':>10}  ch rank bank  {'command':<9} {'row':<10} "
            f"{'class':<7} gate"
        )
        lines = [header, "-" * len(header)]
        for e in chosen:
            row = f"0x{e.row:04x}" if e.kind == "ACTIVATE" or e.kind in ("READ", "WRITE") else (
                f"tRFC={e.row}" if e.kind == "REFRESH" and e.row >= 0 else "-"
            )
            if e.row < 0:
                row = "-"
            bank = str(e.bank) if e.bank >= 0 else "-"
            lines.append(
                f"{e.cycle:>10}  {e.channel:>2} {e.rank:>4} {bank:>4}  "
                f"{e.kind:<9} {row:<10} {e.row_class or '-':<7} {e.gate}"
            )
        if elided:
            lines.append(f"... {elided} more events")
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (max_events cap)")
        return "\n".join(lines)


__all__ = [
    "CommandTracer",
    "ROW_CLASS_LABELS",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
]
