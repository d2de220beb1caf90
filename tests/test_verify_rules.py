"""Tests for the independent rule tables (repro.verify.rules).

Two kinds of evidence here:

- **independence** — importing ``repro.verify`` must not load the
  timing implementation it exists to cross-check (asserted in a fresh
  interpreter, so this test cannot be fooled by import order);
- **differential agreement** — the oracle's from-paper table and the
  simulator's derived :class:`TimingDomain` must produce identical
  constraint tables for every sampled configuration. The two tables
  share no code, so agreement here is the cross-validation itself.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.verify.rules import (
    COMMAND_KINDS,
    DDR3_1600_CYCLES,
    PAPER_TRAS_NS,
    PAPER_TRCD_NS,
    SLOTS_PER_WINDOW,
    SPACING_RULES,
    STRUCTURAL_RULES,
    OracleConfig,
    RowKind,
    cycles,
    issued_refresh_fraction,
    legal_trfc_values,
    oracle_config,
    oracle_timings,
    refresh_slot_mix,
    row_kind_of,
)

VERIFY_SRC = Path(__file__).resolve().parents[1] / "src" / "repro" / "verify"


class TestIndependence:
    def test_import_loads_no_simulator_module(self):
        """`import repro.verify` in a fresh interpreter must not load
        repro.dram.timing or any simulator package at all (repro.dram's
        init pulls the timing model in, so the only safe posture is
        loading none of them)."""
        code = (
            "import sys, repro.verify; "
            "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        forbidden = [
            m
            for m in loaded
            if not (m == "repro" or m.startswith("repro.verify"))
        ]
        assert not forbidden, f"repro.verify pulled in {forbidden}"
        assert "repro.dram.timing" not in loaded

    def test_no_static_simulator_imports_in_oracle_half(self):
        """The oracle half (rules + oracle) must not even mention
        simulator imports: lazy imports are allowed only in the
        run-integration modules (generator, bugs, oracle's run helper)."""
        for name in ("rules.py",):
            text = (VERIFY_SRC / name).read_text()
            assert "from repro." not in text.replace(
                "from repro.verify", ""
            ), f"{name} imports outside repro.verify"


class TestDifferentialTables:
    """The heart of the differential checker: table vs table."""

    def test_sampled_configs_agree_with_timing_domain(self):
        from repro.dram.timing import TimingDomain
        from repro.mechanisms import resolve
        from repro.verify.generator import sample_case

        rng = random.Random(2015)
        for _ in range(100):
            case = sample_case(rng)
            ours = oracle_timings(case.oracle_config()).constraint_table()
            # Build the device domain the way the engine does: resolve
            # the mechanism plugin (MCR resolves to the reference
            # plugin) and program its timing overrides.
            plugin = resolve(
                case.geometry(), case.mode().config, case.mechanism_spec()
            )
            theirs = TimingDomain(
                case.geometry(),
                plugin.device_mode(),
                row_timing_overrides=plugin.row_timing_overrides(),
                trfc_overrides=plugin.trfc_overrides(),
            ).constraint_table()
            assert ours == theirs, f"tables disagree for {case}"

    @pytest.mark.parametrize("density", ["1Gb", "2Gb", "4Gb", "8Gb"])
    @pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)])
    def test_published_km_pairs_agree(self, k, m, density):
        from repro.core.mcr_mode import MCRMode
        from repro.dram.config import DRAMGeometry
        from repro.dram.timing import TimingDomain

        geometry = DRAMGeometry(
            channels=1,
            ranks_per_channel=1,
            banks_per_rank=8,
            rows_per_bank=2048,
            columns_per_row=32,
            rows_per_subarray=512,
            density=density,
        )
        label = "off" if k == 1 else f"{m}/{k}x/100%reg"
        mode = MCRMode.parse(label)
        config = OracleConfig(
            rows_per_bank=2048,
            rows_per_subarray=512,
            banks_per_rank=8,
            ranks_per_channel=1,
            density=density,
            k=k,
            m=m,
            region_fraction=0.0 if k == 1 else 1.0,
        )
        ours = oracle_timings(config).constraint_table()
        theirs = TimingDomain(geometry, mode.config).constraint_table()
        assert ours == theirs

    def test_mcr_timings_strictly_faster(self):
        """Paper Table 3's point: K>1 cuts tRCD and (for M>1) tRAS."""
        base = OracleConfig(
            rows_per_bank=2048,
            rows_per_subarray=512,
            banks_per_rank=8,
            ranks_per_channel=1,
            density="1Gb",
            k=4,
            m=4,
            region_fraction=1.0,
        )
        timings = oracle_timings(base)
        assert timings.trcd[RowKind.MCR] < timings.trcd[RowKind.NORMAL]
        assert timings.tras[RowKind.MCR] < timings.tras[RowKind.NORMAL]
        assert timings.trfc[RowKind.MCR] < timings.trfc[RowKind.NORMAL]

    def test_mechanism_gates(self):
        """Each mechanism flag individually restores the 1x value."""
        common = dict(
            rows_per_bank=2048,
            rows_per_subarray=512,
            banks_per_rank=8,
            ranks_per_channel=1,
            density="1Gb",
            k=2,
            m=1,
            region_fraction=1.0,
        )
        full = oracle_timings(OracleConfig(**common))
        no_ea = oracle_timings(OracleConfig(**common, early_access=False))
        no_ep = oracle_timings(OracleConfig(**common, early_precharge=False))
        no_fr = oracle_timings(OracleConfig(**common, fast_refresh=False))
        no_skip = oracle_timings(OracleConfig(**common, refresh_skipping=False))
        assert no_ea.trcd[RowKind.MCR] == full.trcd[RowKind.NORMAL]
        assert no_ep.tras[RowKind.MCR] == full.tras[RowKind.NORMAL]
        assert no_fr.trfc[RowKind.MCR] == full.trfc[RowKind.NORMAL]
        # Skipping off means every clone is rewritten: restore at M=K.
        assert no_skip.tras[RowKind.MCR] == cycles(PAPER_TRAS_NS[(2, 2)])

    def test_quantization(self):
        assert cycles(13.75) == 11  # exact multiple of 1.25
        assert cycles(13.76) == 12  # anything above rounds up
        assert cycles(0.0) == 0
        assert cycles(1.25) == 1


class TestOracleConfig:
    """``oracle_config`` restates a simulated configuration, plugins
    included, without reading the plugin back."""

    @pytest.mark.parametrize("name", ["clr", "chargecache"])
    def test_default_plugin_params_agree_with_the_plugin(self, name):
        from repro.dram.config import single_core_geometry
        from repro.dram.mcr import MCRModeConfig
        from repro.dram.timing import TimingDomain
        from repro.mechanisms import MechanismSpec, resolve

        geometry, mode = single_core_geometry(), MCRModeConfig.off()
        spec = MechanismSpec(name=name)  # every parameter at its default
        plugin = resolve(geometry, mode, spec)
        config = oracle_config(geometry, mode, spec)
        assert config.mechanism == name
        theirs = TimingDomain(
            geometry,
            plugin.device_mode(),
            row_timing_overrides=plugin.row_timing_overrides(),
            trfc_overrides=plugin.trfc_overrides(),
        ).constraint_table()
        assert oracle_timings(config).constraint_table() == theirs
        if name == "clr":
            assert config.region_fraction == plugin.device_mode().region_fraction
        else:
            assert config.cc_capacity == plugin.capacity
            assert config.cc_window_ns == plugin.window_ns

    def test_disabled_plugins_are_conventional_dram(self):
        from repro.dram.config import single_core_geometry
        from repro.dram.mcr import MCRModeConfig
        from repro.mechanisms import MechanismSpec

        geometry, mode = single_core_geometry(), MCRModeConfig.off()
        plain = oracle_config(geometry, mode)
        for spec in (
            MechanismSpec.make("clr", fraction_pct=0),
            MechanismSpec.make("chargecache", capacity=0),
        ):
            assert oracle_config(geometry, mode, spec) == plain

    def test_unstated_configurations_are_rejected(self):
        from types import SimpleNamespace

        from repro.dram.config import single_core_geometry
        from repro.dram.mcr import MCRModeConfig
        from repro.dram.refresh import WiringMethod

        geometry, mode = single_core_geometry(), MCRModeConfig.off()
        unknown = SimpleNamespace(name="hira", get=lambda key, default=None: default)
        with pytest.raises(ValueError, match="hira"):
            oracle_config(geometry, mode, unknown)
        with pytest.raises(ValueError, match="WiringMethod.K_TO_K"):
            oracle_config(geometry, mode, wiring=WiringMethod.K_TO_K)
        assert oracle_config(
            geometry, mode, wiring=WiringMethod.K_TO_N_MINUS_1_K
        ) == oracle_config(geometry, mode)


class TestRowKind:
    def test_matches_simulator_comparator(self):
        """row_kind_of must agree with the device's MCRGenerator for
        every row, including in a combined two-region configuration."""
        from repro.dram.mcr import MCRGenerator, RowClass
        from repro.verify.generator import VerifyCase

        case = VerifyCase(
            k=4, m=2, region_pct=25.0, alt_k=2, alt_m=1, alt_region_pct=25.0
        )
        generator = MCRGenerator(case.geometry(), case.mode().config)
        config = case.oracle_config()
        mapping = {
            RowClass.NORMAL: RowKind.NORMAL,
            RowClass.MCR: RowKind.MCR,
            RowClass.MCR_ALT: RowKind.MCR_ALT,
        }
        for row in range(case.rows_per_bank):
            assert row_kind_of(config, row) is mapping[generator.row_class(row)]

    def test_disabled_mode_is_all_normal(self):
        config = OracleConfig(
            rows_per_bank=1024,
            rows_per_subarray=512,
            banks_per_rank=4,
            ranks_per_channel=1,
            density="1Gb",
        )
        assert all(
            row_kind_of(config, row) is RowKind.NORMAL for row in range(1024)
        )


class TestRefreshMix:
    def _config(self, **kwargs):
        return OracleConfig(
            rows_per_bank=2048,
            rows_per_subarray=512,
            banks_per_rank=4,
            ranks_per_channel=1,
            density="1Gb",
            **kwargs,
        )

    def test_slots_conserved(self):
        for k, m, region in [(2, 1, 0.5), (4, 2, 1.0), (4, 1, 0.25)]:
            mix = refresh_slot_mix(self._config(k=k, m=m, region_fraction=region))
            assert sum(mix.values()) == SLOTS_PER_WINDOW

    def test_skipping_off_skips_nothing(self):
        mix = refresh_slot_mix(
            self._config(k=4, m=1, region_fraction=1.0, refresh_skipping=False)
        )
        assert mix["skipped"] == 0
        assert issued_refresh_fraction(
            self._config(k=4, m=1, region_fraction=1.0, refresh_skipping=False)
        ) == 1.0

    def test_full_region_4_1_skips_three_quarters(self):
        config = self._config(k=4, m=1, region_fraction=1.0)
        assert issued_refresh_fraction(config) == pytest.approx(0.25)

    def test_legal_trfc_covers_active_kinds_only(self):
        config = self._config(k=2, m=2, region_fraction=1.0)
        timings = oracle_timings(config)
        legal = legal_trfc_values(config, timings)
        # A 100% region with Fast-Refresh leaves no normal-cost slots.
        assert legal == {timings.trfc[RowKind.MCR]}


class TestRuleTables:
    def test_rules_cover_command_vocabulary(self):
        spacing_kinds = set().union(*(r.applies_to for r in SPACING_RULES))
        structural_kinds = set().union(*(r.applies_to for r in STRUCTURAL_RULES))
        assert spacing_kinds <= set(COMMAND_KINDS)
        assert structural_kinds <= set(COMMAND_KINDS)
        # Every non-MRS command kind is checked by at least one rule.
        assert spacing_kinds == set(COMMAND_KINDS) - {"MRS"}

    def test_rule_names_unique(self):
        names = [r.name for r in SPACING_RULES] + [r.name for r in STRUCTURAL_RULES]
        assert len(names) == len(set(names))

    def test_base_table_is_ddr3_1600(self):
        assert DDR3_1600_CYCLES["tRP"] == 11
        assert DDR3_1600_CYCLES["tREFI"] == 6250
        assert PAPER_TRCD_NS[4] < PAPER_TRCD_NS[2] < PAPER_TRCD_NS[1]
