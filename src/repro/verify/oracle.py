"""Table-driven protocol oracle: the repository's one timing checker.

The oracle consumes the command stream a run issued and re-checks every
command against the independent rule tables in
:mod:`repro.verify.rules`:

- **spacing**: every :class:`~repro.verify.rules.SpacingRule` whose
  history applies must be satisfied (``cycle >= bound``);
- **state machine**: every :class:`~repro.verify.rules.StructuralRule`
  (ACT to an open bank, column to a closed/mismatched row, REF with an
  open bank, an off-table tRFC charge) must hold;
- **refresh interval**: the per-rank REFRESH pacing implied by the
  paper's 64 ms / M per-cell rule, projected onto a finite run — tREFI
  accrual with at most 8 postponed slots, the issued-command fraction
  implied by the refresh mix, and (for runs covering full windows) the
  exact per-window issued count.

It shares *no* timing code with ``repro.dram.timing``; the shadow state
below is written against the rule-table interface, not against any
simulator structure. The same shadow state serves three callers:
online, the observability hub checks each command as it issues and
hands the returned gate label to the tracer; post hoc,
:func:`replay_commands` replays a recorded log; and
:mod:`repro.obs.attribution` drives :meth:`ProtocolOracle.bounds` and
:meth:`ProtocolOracle.observe` under counterfactual configurations.

Commands are read duck-typed — anything with ``cycle``, ``kind.name``,
``rank``, ``bank``, ``row`` fields — so this module (like the rule
tables) loads without a single simulator module; the real
:class:`repro.dram.commands.Command` objects only arrive at run time.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.verify.rules import (
    cycles,
    MAX_POSTPONED_REFRESHES,
    SLOTS_PER_WINDOW,
    SPACING_RULES,
    STRUCTURAL_RULES,
    OracleConfig,
    OracleTimings,
    RowKind,
    issued_refresh_fraction,
    legal_trfc_values,
    oracle_timings,
    row_kind_of,
)

#: Extra tREFI periods of pacing slack beyond the JEDEC postponement
#: budget: a forced refresh still has to wait for its rank's banks to
#: close, so the lag can transiently exceed 8 by a fraction of a tREFI.
_PACING_SLACK_SLOTS: int = 1

#: Rounding slack (slots) when converting served-slot bounds to issued
#: commands through the spread mix fraction (the interleave guarantees
#: each kind stays within floor/ceil of its fair share per prefix).
_MIX_SLACK_SLOTS: int = 2

#: Gate label for a command that was legal earlier than it issued — the
#: scheduler or request arrival, not a timing constraint, delayed it.
GATE_QUEUE = "queue"
#: Gate label for a command with no applicable constraint history.
GATE_READY = "ready"


@dataclass(frozen=True)
class OracleViolation:
    """One command the oracle refuses to accept."""

    channel: int
    rule: str
    cycle: int
    kind: str
    rank: int
    bank: int
    row: int
    required_cycle: int | None = None

    def __str__(self) -> str:
        where = f"ch{self.channel} rank{self.rank}"
        if self.bank >= 0:
            where += f" bank{self.bank}"
        bound = (
            f" illegal before cycle {self.required_cycle}"
            if self.required_cycle is not None
            else ""
        )
        return f"{where} {self.rule}: {self.kind} @{self.cycle}{bound}"


@dataclass
class _BankShadow:
    """Raw last-event history for one bank."""

    act_cycle: int | None = None
    act_kind: RowKind = RowKind.NORMAL
    open_row: int | None = None
    pre_cycle: int | None = None
    col_cycle: int | None = None
    col_is_write: bool = False


@dataclass
class _RankShadow:
    """Raw last-event history for one rank."""

    act_cycles: list[int] = field(default_factory=list)  # last <= 4
    col_cycle: int | None = None
    col_is_write: bool = False
    ref_cycle: int | None = None
    ref_trfc: int = 0
    refs_issued: int = 0


class _ChannelShadow:
    """One channel's shadow state, exposing exactly the queries the rule
    tables call (the rule/state interface the module docstring names)."""

    def __init__(self, config: OracleConfig, timings: OracleTimings) -> None:
        self._config = config
        self._timings = timings
        self._banks: dict[tuple[int, int], _BankShadow] = {}
        self._ranks: dict[int, _RankShadow] = {}
        self.last_cmd_cycle: int | None = None
        #: (rank, is_write, data_end_cycle) of the latest data transfer.
        self._transfer: tuple[int, bool, int] | None = None
        self.legal_trfc = legal_trfc_values(config, timings)
        # ChargeCache shadow: the oracle's own bounded table of
        # recently-closed rows, rebuilt purely from the observed
        # PRECHARGE/ACTIVATE stream. It must mirror the controller-side
        # table move for move (pop on every activation, FIFO eviction at
        # capacity, expiry = precharge cycle + window) — any divergence
        # shows up as a spurious tRCD/tRAS verdict.
        self._charge_capacity = (
            config.cc_capacity if config.mechanism == "chargecache" else 0
        )
        self._charge_window = cycles(config.cc_window_ns)
        self._charge_table: OrderedDict[tuple[int, int, int], int] = OrderedDict()

    # -- queries the rule tables use -----------------------------------

    def bank(self, rank: int, bank: int) -> _BankShadow:
        return self._banks.setdefault((rank, bank), _BankShadow())

    def rank(self, rank: int) -> _RankShadow:
        return self._ranks.setdefault(rank, _RankShadow())

    def any_bank_open(self, rank: int) -> bool:
        return any(
            shadow.open_row is not None
            for (r, _), shadow in self._banks.items()
            if r == rank
        )

    def latest_pre_bound(self, rank: int, timings: OracleTimings) -> int | None:
        """REF needs every bank's precharge to have completed (tRP)."""
        pres = [
            shadow.pre_cycle
            for (r, _), shadow in self._banks.items()
            if r == rank and shadow.pre_cycle is not None
        ]
        if not pres:
            return None
        return max(pres) + timings.base["tRP"]

    def data_bus_bound(self, cmd, timings: OracleTimings) -> int | None:
        """Earliest column issue keeping data transfers non-overlapping.

        A read's data occupies [cycle+tCAS, +tBURST), a write's
        [cycle+tCWD, +tBURST); switching rank or direction inserts a
        tRTRS bubble between transfers.
        """
        if self._transfer is None:
            return None
        is_write = cmd.kind.name == "WRITE"
        prev_rank, prev_write, prev_end = self._transfer
        switch = prev_rank != cmd.rank or prev_write != is_write
        need_start = prev_end + (timings.base["tRTRS"] if switch else 0)
        latency = timings.base["tCWD"] if is_write else timings.base["tCAS"]
        return need_start - latency

    def write_recovery_bound(self, cmd, timings: OracleTimings) -> int | None:
        """PRE after a write: data end plus tWR."""
        shadow = self.bank(cmd.rank, cmd.bank)
        if (
            shadow.col_cycle is None
            or not shadow.col_is_write
            or shadow.act_cycle is None
            or shadow.col_cycle <= shadow.act_cycle
        ):
            return None
        return (
            shadow.col_cycle
            + timings.base["tCWD"]
            + timings.base["tBURST"]
            + timings.base["tWR"]
        )

    def read_to_precharge_bound(self, cmd, timings: OracleTimings) -> int | None:
        """PRE after a read: tRTP from the column command."""
        shadow = self.bank(cmd.rank, cmd.bank)
        if (
            shadow.col_cycle is None
            or shadow.col_is_write
            or shadow.act_cycle is None
            or shadow.col_cycle <= shadow.act_cycle
        ):
            return None
        return shadow.col_cycle + timings.base["tRTP"]

    # -- history fold ---------------------------------------------------

    def _activation_kind(self, cmd) -> RowKind:
        """Row kind of an ACTIVATE, including the dynamic CHARGED
        upgrade from the shadow charge table (a hit consumes its entry
        even when expired, exactly as the controller table does)."""
        static = row_kind_of(self._config, cmd.row)
        if self._charge_capacity == 0:
            return static
        expiry = self._charge_table.pop((cmd.rank, cmd.bank, cmd.row), None)
        if (
            expiry is not None
            and cmd.cycle <= expiry
            and static is RowKind.NORMAL
        ):
            return RowKind.CHARGED
        return static

    def observe(self, cmd) -> None:
        self.last_cmd_cycle = cmd.cycle
        kind = cmd.kind.name
        if kind == "ACTIVATE":
            shadow = self.bank(cmd.rank, cmd.bank)
            shadow.act_cycle = cmd.cycle
            shadow.act_kind = self._activation_kind(cmd)
            shadow.open_row = cmd.row
            rank = self.rank(cmd.rank)
            rank.act_cycles.append(cmd.cycle)
            del rank.act_cycles[:-4]
        elif kind in ("READ", "WRITE"):
            is_write = kind == "WRITE"
            shadow = self.bank(cmd.rank, cmd.bank)
            shadow.col_cycle = cmd.cycle
            shadow.col_is_write = is_write
            rank = self.rank(cmd.rank)
            rank.col_cycle = cmd.cycle
            rank.col_is_write = is_write
            latency = (
                self._timings.base["tCWD"] if is_write else self._timings.base["tCAS"]
            )
            self._transfer = (
                cmd.rank,
                is_write,
                cmd.cycle + latency + self._timings.base["tBURST"],
            )
        elif kind == "PRECHARGE":
            shadow = self.bank(cmd.rank, cmd.bank)
            closed_row = shadow.open_row
            shadow.open_row = None
            shadow.pre_cycle = cmd.cycle
            if self._charge_capacity > 0 and closed_row is not None:
                key = (cmd.rank, cmd.bank, closed_row)
                self._charge_table.pop(key, None)
                while len(self._charge_table) >= self._charge_capacity:
                    self._charge_table.popitem(last=False)
                self._charge_table[key] = cmd.cycle + self._charge_window
        elif kind == "REFRESH":
            rank = self.rank(cmd.rank)
            rank.ref_cycle = cmd.cycle
            rank.ref_trfc = cmd.row if cmd.row > 0 else 0
            rank.refs_issued += 1


class ProtocolOracle:
    """Checks a command stream against the independent rule tables.

    Args:
        config: The device/mode description (:class:`OracleConfig`).
        channels: How many channels the stream spans.
        refresh_enabled: When the run disabled refresh entirely (some
            ablations), the pacing check is skipped; spacing and state
            checks still apply.
    """

    def __init__(
        self,
        config: OracleConfig,
        channels: int = 1,
        refresh_enabled: bool = True,
    ) -> None:
        self.config = config
        self.timings = oracle_timings(config)
        self.refresh_enabled = refresh_enabled
        self._shadows = [
            _ChannelShadow(config, self.timings) for _ in range(channels)
        ]
        self._issued_fraction = issued_refresh_fraction(config)
        self.commands = 0
        self.violations: list[OracleViolation] = []
        self._last_cycle: dict[int, int] = {}

    @property
    def clean(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------

    def bounds(self, channel: int, cmd) -> list[tuple[str, int]]:
        """``(rule name, earliest legal cycle)`` of every spacing rule
        whose history applies to ``cmd``, in table order."""
        shadow = self._shadows[channel]
        kind = cmd.kind.name
        found = []
        for rule in SPACING_RULES:
            if kind in rule.applies_to:
                bound = rule.bound(shadow, cmd, self.timings)
                if bound is not None:
                    found.append((rule.name, bound))
        return found

    def observe(self, channel: int, cmd) -> None:
        """Fold ``cmd`` into the channel's shadow history unchecked."""
        self._shadows[channel].observe(cmd)

    def check(self, channel: int, cmd) -> str:
        """Validate one command, fold it into the shadow state, and
        return its gate: the rule whose bound made ``cmd.cycle`` the
        earliest legal issue cycle (the first in table order on a tie),
        or :data:`GATE_QUEUE` / :data:`GATE_READY`."""
        kind = cmd.kind.name
        shadow = self._shadows[channel]
        if kind == "MRS":
            # Mode-register traffic carries no bank/row state; it only
            # occupies the command bus, which the next command's
            # command-bus rule sees through last_cmd_cycle.
            shadow.last_cmd_cycle = cmd.cycle
            return GATE_READY
        self.commands += 1
        self._last_cycle[channel] = cmd.cycle
        for rule in STRUCTURAL_RULES:
            if kind in rule.applies_to and rule.violated(shadow, cmd):
                self._flag(channel, rule.name, cmd, None)
        gate = GATE_READY
        earliest = None
        for name, bound in self.bounds(channel, cmd):
            if cmd.cycle < bound:
                self._flag(channel, name, cmd, bound)
            if earliest is None or bound > earliest:
                gate, earliest = name, bound
        if earliest is not None and cmd.cycle > earliest:
            gate = GATE_QUEUE
        if kind == "REFRESH" and self.refresh_enabled:
            self._check_refresh_pacing(channel, cmd)
        shadow.observe(cmd)
        return gate

    def _flag(self, channel: int, rule: str, cmd, required: int | None) -> None:
        self.violations.append(
            OracleViolation(
                channel=channel,
                rule=rule,
                cycle=cmd.cycle,
                kind=cmd.kind.name,
                rank=cmd.rank,
                bank=cmd.bank,
                row=cmd.row,
                required_cycle=required,
            )
        )

    # ------------------------------------------------------------------
    # Refresh interval (the finite-run projection of 64 ms / M)
    # ------------------------------------------------------------------

    def _check_refresh_pacing(self, channel: int, cmd) -> None:
        """A REFRESH must not outrun the tREFI accrual clock.

        Only due slots may be served, and skipped slots are free, so the
        issued count can never exceed the accrued slot count (with the
        interleave's rounding slack).
        """
        shadow = self._shadows[channel]
        accrued = cmd.cycle // self.timings.base["tREFI"]
        issued = shadow.rank(cmd.rank).refs_issued  # before this command
        ceiling = math.ceil(accrued * self._issued_fraction) + _MIX_SLACK_SLOTS
        if issued + 1 > ceiling:
            self._flag(channel, "tREFI-overrun", cmd, None)

    def finalize(self) -> None:
        """End-of-stream refresh-interval audit.

        Every rank must have been refreshed often enough: by the last
        observed cycle, at most 8 slots (plus forced-issue slack) may
        remain unserved, and of the served slots the issued-command
        share follows the refresh mix. Per full 64 ms window the issued
        count must match the mix exactly (long runs only; short runs are
        bounded by the prefix fairness of the interleave).
        """
        if not self.refresh_enabled:
            return
        t_refi = self.timings.base["tREFI"]
        for channel, shadow in enumerate(self._shadows):
            horizon = self._last_cycle.get(channel)
            if horizon is None:
                continue
            accrued = horizon // t_refi
            min_served = max(
                0, accrued - MAX_POSTPONED_REFRESHES - _PACING_SLACK_SLOTS
            )
            floor_issued = (
                math.floor(min_served * self._issued_fraction) - _MIX_SLACK_SLOTS
            )
            for rank_id in range(self.config.ranks_per_channel):
                issued = shadow.rank(rank_id).refs_issued
                if issued < floor_issued:
                    self.violations.append(
                        OracleViolation(
                            channel=channel,
                            rule="refresh-starvation",
                            cycle=horizon,
                            kind="REFRESH",
                            rank=rank_id,
                            bank=-1,
                            row=-1,
                        )
                    )
                windows = accrued // SLOTS_PER_WINDOW
                if windows:
                    per_window = SLOTS_PER_WINDOW * self._issued_fraction
                    expected = windows * per_window
                    if abs(issued - expected) > per_window * 0.02 + 16:
                        self.violations.append(
                            OracleViolation(
                                channel=channel,
                                rule="refresh-window-mix",
                                cycle=horizon,
                                kind="REFRESH",
                                rank=rank_id,
                                bank=-1,
                                row=-1,
                            )
                        )


def replay_commands(
    stream,
    config: OracleConfig,
    channels: int = 1,
    refresh_enabled: bool = True,
) -> list[OracleViolation]:
    """Replay a traced ``(channel, command)`` stream; return violations."""
    oracle = ProtocolOracle(config, channels=channels, refresh_enabled=refresh_enabled)
    for channel, cmd in stream:
        oracle.check(channel, cmd)
    oracle.finalize()
    return oracle.violations


def run_case_with_oracle(case, bug: str | None = None):
    """Run a :class:`~repro.verify.generator.VerifyCase` through the real
    engine with the oracle attached via the hub's command tap.

    Returns ``(result, violations, command_count)``. ``bug`` injects one
    of the synthetic timing bugs (:mod:`repro.verify.bugs`) into the
    simulated device; the oracle still checks the paper's truth.
    """
    # Imported here: importing repro.verify must load no simulator
    # module, and obs.hub pulls in the whole observability package.
    from repro.obs.hub import ObservabilityConfig, observe_run
    from repro.verify.bugs import apply_bug
    from repro.verify.generator import build_spec, build_traces

    oracle = ProtocolOracle(
        case.oracle_config(),
        channels=case.channels,
        refresh_enabled=case.refresh_enabled,
    )
    stream: list[tuple[int, object]] = []

    def tap(channel: int, cmd, row_class) -> None:
        stream.append((channel, cmd))
        oracle.check(channel, cmd)

    sim_kwargs = apply_bug(case, bug) if bug is not None else {}
    result, _ = observe_run(
        build_traces(case),
        case.mode(),
        spec=build_spec(case),
        config=ObservabilityConfig(command_sink=tap),
        max_cycles=case.max_cycles,
        **sim_kwargs,
    )
    oracle.finalize()
    return result, oracle.violations, len(stream)


__all__ = [
    "GATE_QUEUE",
    "GATE_READY",
    "OracleViolation",
    "ProtocolOracle",
    "replay_commands",
    "run_case_with_oracle",
]
