"""Tests for the replay oracle (repro.verify.oracle).

Hand-built command streams trigger each rule individually — the stub
command below proves the oracle reads commands duck-typed (cycle,
kind.name, rank, bank, row) and never needs the simulator's Command
class.
"""

from dataclasses import dataclass, field

import pytest

from repro.verify.oracle import ProtocolOracle, replay_commands
from repro.verify.rules import (
    DDR3_1600_CYCLES,
    OracleConfig,
    RowKind,
    oracle_timings,
    row_kind_of,
)


@dataclass(frozen=True)
class _Kind:
    name: str


@dataclass(frozen=True)
class Cmd:
    """A duck-typed stand-in for repro.dram.commands.Command."""

    cycle: int
    kind: _Kind = field(compare=False)
    rank: int = 0
    bank: int = 0
    row: int = -1
    column: int = -1


def cmd(cycle, kind, rank=0, bank=0, row=-1):
    return Cmd(cycle=cycle, kind=_Kind(kind), rank=rank, bank=bank, row=row)


def plain_config(**kwargs):
    defaults = dict(
        rows_per_bank=1024,
        rows_per_subarray=512,
        banks_per_rank=4,
        ranks_per_channel=1,
        density="1Gb",
    )
    defaults.update(kwargs)
    return OracleConfig(**defaults)


def rules_of(violations):
    return [v.rule for v in violations]


TIMINGS = oracle_timings(plain_config())
TRCD = TIMINGS.trcd[RowKind.NORMAL]
TRAS = TIMINGS.tras[RowKind.NORMAL]
TRC = TIMINGS.trc[RowKind.NORMAL]
TRP = DDR3_1600_CYCLES["tRP"]
TRFC_1GB = TIMINGS.trfc[RowKind.NORMAL]


def replay(stream, refresh_enabled=False, **config_kwargs):
    return replay_commands(
        [(0, c) for c in stream],
        plain_config(**config_kwargs),
        channels=1,
        refresh_enabled=refresh_enabled,
    )


class TestLegalStreams:
    def test_well_spaced_read_is_clean(self):
        act = cmd(0, "ACTIVATE", row=7)
        read = cmd(TRCD, "READ", row=7)
        pre = cmd(max(TRAS, TRCD + DDR3_1600_CYCLES["tRTP"]), "PRECHARGE")
        act2 = cmd(pre.cycle + TRP, "ACTIVATE", row=9)
        assert replay([act, read, pre, act2]) == []

    def test_mrs_only_occupies_command_bus(self):
        stream = [cmd(0, "MRS"), cmd(0, "ACTIVATE", row=1)]
        assert rules_of(replay(stream)) == ["command-bus"]


class TestSpacingRules:
    def test_trcd(self):
        stream = [cmd(0, "ACTIVATE", row=7), cmd(TRCD - 1, "READ", row=7)]
        violations = replay(stream)
        assert rules_of(violations) == ["tRCD"]
        assert violations[0].required_cycle == TRCD

    def test_tras(self):
        stream = [cmd(0, "ACTIVATE", row=7), cmd(TRAS - 1, "PRECHARGE")]
        assert "tRAS" in rules_of(replay(stream))

    def test_trp_and_trc(self):
        # With tRC = tRAS + tRP exactly (DDR3-1600 quantization), an ACT
        # one cycle inside the PRE -> ACT window trips both rules.
        stream = [
            cmd(0, "ACTIVATE", row=7),
            cmd(TRAS, "PRECHARGE"),
            cmd(TRAS + TRP - 1, "ACTIVATE", row=9),
        ]
        assert set(rules_of(replay(stream))) == {"tRP", "tRC"}
        assert TRC == TRAS + TRP

    def test_trp_alone_after_delayed_precharge(self):
        # A precharge delayed past tRAS makes tRP the only binding rule.
        pre_cycle = TRAS + 20
        stream = [
            cmd(0, "ACTIVATE", row=7),
            cmd(pre_cycle, "PRECHARGE"),
            cmd(pre_cycle + TRP - 1, "ACTIVATE", row=9),
        ]
        assert rules_of(replay(stream)) == ["tRP"]

    def test_trrd(self):
        stream = [
            cmd(0, "ACTIVATE", bank=0, row=7),
            cmd(DDR3_1600_CYCLES["tRRD"] - 1, "ACTIVATE", bank=1, row=7),
        ]
        assert rules_of(replay(stream)) == ["tRRD"]

    def test_tfaw(self):
        trrd = DDR3_1600_CYCLES["tRRD"]
        acts = [cmd(i * trrd, "ACTIVATE", bank=i, row=1) for i in range(4)]
        fifth = cmd(DDR3_1600_CYCLES["tFAW"] - 1, "ACTIVATE", bank=0, row=1)
        # Use a second rank's bank0? No — 5th ACT to a 5th bank.
        fifth = Cmd(
            cycle=DDR3_1600_CYCLES["tFAW"] - 1,
            kind=_Kind("ACTIVATE"),
            rank=0,
            bank=3,
            row=2,
        )
        stream = acts + [fifth]
        violations = replay(stream, banks_per_rank=8)
        # bank3 already open -> use a fresh bank index instead
        stream[-1] = cmd(DDR3_1600_CYCLES["tFAW"] - 1, "ACTIVATE", bank=4, row=2)
        violations = replay(stream, banks_per_rank=8)
        assert "tFAW" in rules_of(violations)

    def test_tccd(self):
        stream = [
            cmd(0, "ACTIVATE", row=7),
            cmd(TRCD, "READ", row=7),
            cmd(TRCD + DDR3_1600_CYCLES["tCCD"] - 1, "READ", row=7),
        ]
        assert "tCCD" in rules_of(replay(stream))

    def test_twtr(self):
        t = DDR3_1600_CYCLES
        write_cycle = TRCD
        turnaround = write_cycle + t["tCWD"] + t["tBURST"] + t["tWTR"]
        stream = [
            cmd(0, "ACTIVATE", row=7),
            cmd(write_cycle, "WRITE", row=7),
            cmd(turnaround - 1, "READ", row=7),
        ]
        assert "tWTR" in rules_of(replay(stream))

    def test_twr(self):
        t = DDR3_1600_CYCLES
        write_cycle = TRCD
        recovery = write_cycle + t["tCWD"] + t["tBURST"] + t["tWR"]
        stream = [
            cmd(0, "ACTIVATE", row=7),
            cmd(write_cycle, "WRITE", row=7),
            cmd(recovery - 1, "PRECHARGE"),
        ]
        assert "tWR" in rules_of(replay(stream))

    def test_trtp(self):
        stream = [
            cmd(0, "ACTIVATE", row=7),
            cmd(TRAS, "READ", row=7),  # late read: tRAS satisfied
            cmd(TRAS + DDR3_1600_CYCLES["tRTP"] - 1, "PRECHARGE"),
        ]
        assert "tRTP" in rules_of(replay(stream))

    def test_command_bus(self):
        stream = [cmd(5, "ACTIVATE", bank=0, row=1), cmd(5, "ACTIVATE", bank=1, row=1)]
        assert "command-bus" in rules_of(replay(stream))

    def test_trfc_blocks_everything(self):
        stream = [
            cmd(0, "REFRESH", bank=-1, row=TRFC_1GB),
            cmd(TRFC_1GB - 1, "ACTIVATE", row=1),
        ]
        assert rules_of(replay(stream)) == ["tRFC"]

    def test_data_bus_rank_switch(self):
        t = DDR3_1600_CYCLES
        stream = [
            cmd(0, "ACTIVATE", rank=0, row=7),
            cmd(1, "ACTIVATE", rank=1, bank=1, row=7),
            cmd(TRCD + 1, "READ", rank=0, row=7),
            # Second read on the other rank: needs tRTRS after data end.
            cmd(TRCD + 1 + t["tBURST"], "READ", rank=1, bank=1, row=7),
        ]
        violations = replay(stream, ranks_per_channel=2)
        assert "data-bus" in rules_of(violations)


class TestRowClasses:
    def test_mcr_row_needs_only_mcr_trcd(self):
        """An MCR row is legal at the MCR tRCD; a normal row is not."""
        config = plain_config(k=4, m=4, region_fraction=0.5)
        mcr_trcd = oracle_timings(config).trcd[RowKind.MCR]
        assert mcr_trcd < TRCD
        mcr_row, normal_row = 0x1FF, 5
        assert row_kind_of(config, mcr_row) is RowKind.MCR
        assert row_kind_of(config, normal_row) is RowKind.NORMAL

        def stream(row):
            return [
                (0, cmd(0, "ACTIVATE", row=row)),
                (0, cmd(mcr_trcd, "READ", row=row)),
            ]

        assert replay_commands(stream(mcr_row), config, refresh_enabled=False) == []
        assert rules_of(
            replay_commands(stream(normal_row), config, refresh_enabled=False)
        ) == ["tRCD"]


class TestGatePrecedence:
    """On a tie, the first rule in SPACING_RULES order names the gate."""

    def test_tccd_beats_data_bus(self):
        t = DDR3_1600_CYCLES
        # Same rank, same direction: the second read's data transfer may
        # start right at the first one's end, which is exactly tCCD later.
        assert t["tCAS"] + t["tBURST"] - t["tCAS"] == t["tCCD"]
        oracle = ProtocolOracle(plain_config(), refresh_enabled=False)
        oracle.check(0, cmd(0, "ACTIVATE", row=7))
        oracle.check(0, cmd(TRCD, "READ", row=7))
        assert oracle.bounds(0, cmd(TRCD + t["tCCD"], "READ", row=7))[-2:] == [
            ("tCCD", TRCD + t["tCCD"]),
            ("data-bus", TRCD + t["tCCD"]),
        ]
        assert oracle.check(0, cmd(TRCD + t["tCCD"], "READ", row=7)) == "tCCD"
        assert oracle.clean

    def test_trc_beats_trp(self):
        # A PRE at exactly tRAS makes the next ACT's tRP bound equal tRC.
        oracle = ProtocolOracle(plain_config(), refresh_enabled=False)
        oracle.check(0, cmd(0, "ACTIVATE", row=7))
        assert oracle.check(0, cmd(TRAS, "PRECHARGE")) == "tRAS"
        assert oracle.check(0, cmd(TRAS + TRP, "ACTIVATE", row=9)) == "tRC"
        assert oracle.clean

    def test_late_command_is_queue_and_first_is_ready(self):
        oracle = ProtocolOracle(plain_config(), refresh_enabled=False)
        assert oracle.check(0, cmd(0, "ACTIVATE", row=7)) == "ready"
        assert oracle.check(0, cmd(TRCD + 3, "READ", row=7)) == "queue"

    def test_observe_folds_without_checking(self):
        oracle = ProtocolOracle(plain_config(), refresh_enabled=False)
        oracle.observe(0, cmd(0, "ACTIVATE", row=7))
        assert oracle.commands == 0 and oracle.clean
        assert ("tRCD", TRCD) in oracle.bounds(0, cmd(1, "READ", row=7))


class TestStructuralRules:
    def test_act_to_open_bank(self):
        stream = [cmd(0, "ACTIVATE", row=7), cmd(100, "ACTIVATE", row=9)]
        assert "ACT-to-open-bank" in rules_of(replay(stream))

    def test_column_to_closed_bank(self):
        assert rules_of(replay([cmd(0, "READ", row=7)])) == ["column-to-closed-bank"]

    def test_column_row_mismatch(self):
        stream = [cmd(0, "ACTIVATE", row=7), cmd(TRCD, "READ", row=8)]
        assert "column-row-mismatch" in rules_of(replay(stream))

    def test_pre_to_closed_bank(self):
        assert rules_of(replay([cmd(0, "PRECHARGE")])) == ["PRE-to-closed-bank"]

    def test_ref_with_open_bank(self):
        stream = [
            cmd(0, "ACTIVATE", row=7),
            cmd(200, "REFRESH", bank=-1, row=TRFC_1GB),
        ]
        assert "REF-with-open-bank" in rules_of(replay(stream))

    def test_trfc_class_off_table(self):
        stream = [cmd(0, "REFRESH", bank=-1, row=TRFC_1GB - 3)]
        assert rules_of(replay(stream)) == ["tRFC-class"]

    def test_trfc_class_accepts_mode_value(self):
        config = plain_config(k=2, m=2, region_fraction=0.5)
        timings = oracle_timings(config)
        fast = timings.trfc[RowKind.MCR]
        stream = [(0, cmd(0, "REFRESH", bank=-1, row=fast))]
        assert replay_commands(stream, config, refresh_enabled=False) == []


class TestRefreshInterval:
    def test_overrun_flagged(self):
        trefi = DDR3_1600_CYCLES["tREFI"]
        stream = [
            cmd(i * (TRFC_1GB + 1), "REFRESH", bank=-1, row=TRFC_1GB)
            for i in range(8)
        ]
        assert all(c.cycle < trefi for c in stream)  # all in slot 0
        violations = replay(stream, refresh_enabled=True)
        assert "tREFI-overrun" in rules_of(violations)

    def test_starvation_flagged_on_finalize(self):
        trefi = DDR3_1600_CYCLES["tREFI"]
        oracle = ProtocolOracle(plain_config(), channels=1, refresh_enabled=True)
        # A long run with no REFRESH at all: 40 slots accrued.
        oracle.check(0, cmd(40 * trefi, "ACTIVATE", row=1))
        oracle.finalize()
        assert "refresh-starvation" in rules_of(oracle.violations)

    def test_disabled_refresh_not_audited(self):
        trefi = DDR3_1600_CYCLES["tREFI"]
        oracle = ProtocolOracle(plain_config(), channels=1, refresh_enabled=False)
        oracle.check(0, cmd(40 * trefi, "ACTIVATE", row=1))
        oracle.finalize()
        assert oracle.violations == []

    def test_properly_paced_stream_clean(self):
        trefi = DDR3_1600_CYCLES["tREFI"]
        stream = [
            cmd(i * trefi + trefi // 2, "REFRESH", bank=-1, row=TRFC_1GB)
            for i in range(12)
        ]
        assert replay(stream, refresh_enabled=True) == []


class TestEngineIntegration:
    def test_clean_engine_run_passes(self):
        from repro.verify.generator import VerifyCase
        from repro.verify.oracle import run_case_with_oracle

        case = VerifyCase(seed=5, k=2, m=1, region_pct=50.0, n_requests=80)
        result, violations, commands = run_case_with_oracle(case)
        assert violations == []
        assert commands > 0
        assert result.reads + result.writes > 0

    def test_injected_bugs_caught(self):
        from repro.verify.bugs import BUG_NAMES, bug_case
        from repro.verify.oracle import run_case_with_oracle

        for bug, expected_rule in BUG_NAMES.items():
            _, violations, _ = run_case_with_oracle(bug_case(bug), bug=bug)
            assert expected_rule in rules_of(violations), bug

    def test_violation_str_is_informative(self):
        stream = [cmd(0, "ACTIVATE", row=7), cmd(2, "READ", row=7)]
        violation = replay(stream)[0]
        text = str(violation)
        assert "tRCD" in text and "READ" in text and "@2" in text
