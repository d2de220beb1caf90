"""Post-hoc audit of recorded simulator command logs.

A ``ChannelState.command_log`` holds the simulator's own
:class:`~repro.dram.commands.Command` objects; replaying one through
:func:`repro.verify.oracle.replay_commands`, with the oracle's view of
the same MCR configuration from :func:`repro.verify.rules.oracle_config`,
must catch deliberately corrupted streams — otherwise a clean replay of
the simulator means nothing.
"""

import pytest

from repro.dram.commands import Command, CommandType
from repro.dram.config import single_core_geometry
from repro.dram.mcr import MCRModeConfig
from repro.verify.oracle import ProtocolOracle, replay_commands
from repro.verify.rules import oracle_config


@pytest.fixture(scope="module")
def config():
    mode = MCRModeConfig(k=4, m=4, region_fraction=0.5)
    return oracle_config(single_core_geometry(), mode)


def cmd(cycle, kind, rank=0, bank=0, row=0):
    return Command(cycle, kind, 0, rank=rank, bank=bank, row=row)


def audit(log, config):
    return replay_commands([(0, c) for c in log], config)


ACT = CommandType.ACTIVATE
RD = CommandType.READ
WR = CommandType.WRITE
PRE = CommandType.PRECHARGE
REF = CommandType.REFRESH


class TestCleanSequences:
    def test_legal_open_read_close(self, config):
        log = [
            cmd(0, ACT, row=5),
            cmd(11, RD, row=5),
            cmd(28, PRE),
            cmd(39, ACT, row=6),
        ]
        assert audit(log, config) == []

    def test_legal_mcr_sequence(self, config):
        # Row 0x1FF is in the 50% MCR region: tRCD 6, tRAS 16.
        log = [cmd(0, ACT, row=0x1FF), cmd(6, RD, row=0x1FF), cmd(16, PRE)]
        assert audit(log, config) == []


class TestViolationDetection:
    def check_violation(self, config, log, rule):
        violations = audit(log, config)
        assert rule in [v.rule for v in violations], [str(v) for v in violations]

    def test_trcd_violation(self, config):
        self.check_violation(
            config, [cmd(0, ACT, row=5), cmd(10, RD, row=5)], "tRCD"
        )

    def test_mcr_row_needs_only_mcr_trcd(self, config):
        # RD at 6 is legal for an MCR row but would violate for normal.
        log = [cmd(0, ACT, row=0x1FF), cmd(6, RD, row=0x1FF)]
        assert audit(log, config) == []
        log = [cmd(0, ACT, row=5), cmd(6, RD, row=5)]
        assert audit(log, config) != []

    def test_tras_violation(self, config):
        self.check_violation(config, [cmd(0, ACT, row=5), cmd(20, PRE)], "tRAS")

    def test_trp_violation(self, config):
        self.check_violation(
            config,
            [cmd(0, ACT, row=5), cmd(28, PRE), cmd(30, ACT, row=6)],
            "tRP",
        )

    def test_trrd_violation(self, config):
        self.check_violation(
            config,
            [cmd(0, ACT, row=5, bank=0), cmd(2, ACT, row=5, bank=1)],
            "tRRD",
        )

    def test_tfaw_violation(self, config):
        log = [cmd(i * 5, ACT, row=5, bank=i) for i in range(4)]
        log.append(cmd(20, ACT, row=5, bank=4))
        self.check_violation(config, log, "tFAW")

    def test_tccd_violation(self, config):
        log = [
            cmd(0, ACT, row=5, bank=0),
            cmd(5, ACT, row=5, bank=1),
            cmd(16, RD, bank=0, row=5),
            cmd(18, RD, bank=1, row=5),
        ]
        self.check_violation(config, log, "tCCD")

    def test_twtr_violation(self, config):
        log = [
            cmd(0, ACT, row=5, bank=0),
            cmd(5, ACT, row=5, bank=1),
            cmd(16, WR, bank=0, row=5),
            cmd(24, RD, bank=1, row=5),
        ]
        self.check_violation(config, log, "tWTR")

    def test_write_recovery_violation(self, config):
        log = [cmd(0, ACT, row=5), cmd(11, WR, row=5), cmd(28, PRE)]
        self.check_violation(config, log, "tWR")

    def test_column_to_closed_bank(self, config):
        self.check_violation(config, [cmd(0, RD)], "column-to-closed-bank")

    def test_act_to_open_bank(self, config):
        self.check_violation(
            config,
            [cmd(0, ACT, row=5), cmd(50, ACT, row=6)],
            "ACT-to-open-bank",
        )

    def test_command_bus_conflict(self, config):
        self.check_violation(
            config,
            [cmd(0, ACT, row=5, bank=0), cmd(0, ACT, row=5, bank=1, rank=1)],
            "command-bus",
        )

    def test_refresh_with_open_bank(self, config):
        self.check_violation(
            config, [cmd(0, ACT, row=5), cmd(40, REF, row=208)], "REF-with-open-bank"
        )

    def test_trfc_violation(self, config):
        log = [cmd(0, REF, row=208), cmd(100, ACT, row=5)]
        self.check_violation(config, log, "tRFC")

    def test_bogus_trfc_class_flagged(self, config):
        # A REFRESH recorded with a tRFC that is neither the normal nor
        # the fast value is itself suspicious.
        self.check_violation(config, [cmd(0, REF, row=99)], "tRFC-class")

    def test_data_bus_conflict(self, config):
        log = [
            cmd(0, ACT, row=5, bank=0, rank=0),
            cmd(5, ACT, row=5, bank=0, rank=1),
            cmd(16, RD, bank=0, rank=0, row=5),
            # Rank switch: data would start at 20+11=31 < 16+11+4+2=33.
            cmd(20, RD, bank=0, rank=1, row=5),
        ]
        self.check_violation(config, log, "data-bus")


class TestReport:
    def test_violation_str(self, config):
        violations = audit([cmd(0, ACT, row=5), cmd(5, RD, row=5)], config)
        assert "tRCD" in str(violations[0])

    def test_counts_commands(self, config):
        oracle = ProtocolOracle(config)
        oracle.finalize()
        assert oracle.commands == 0
        assert oracle.clean
