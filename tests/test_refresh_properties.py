"""Property tests on refresh plans and the spread schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.config import REFRESH_SLOTS_PER_WINDOW, single_core_geometry
from repro.dram.mcr import MCRModeConfig, MechanismSet
from repro.dram.refresh import RefreshPlan, RefreshSlotKind, SpreadSchedule
from tests.reference_refresh import reference_spread_schedule


@st.composite
def arbitrary_modes(draw):
    k = draw(st.sampled_from([1, 2, 4]))
    if k == 1:
        return MCRModeConfig.off()
    m = draw(st.sampled_from([d for d in (1, 2, 4) if d <= k and k % d == 0]))
    region = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    mech = MechanismSet(
        fast_refresh=draw(st.booleans()),
        refresh_skipping=draw(st.booleans()),
    )
    if draw(st.booleans()) and region <= 0.5 and k == 4:
        # Sometimes a combined mode with a 2x secondary band.
        return MCRModeConfig(
            k=k, m=m, region_fraction=region, mechanisms=mech,
            alt_k=2, alt_m=draw(st.sampled_from([1, 2])),
            alt_region_fraction=draw(st.sampled_from([0.25, 0.5])),
        )
    return MCRModeConfig(k=k, m=m, region_fraction=region, mechanisms=mech)


class TestPlanInvariants:
    @given(arbitrary_modes())
    @settings(max_examples=40, deadline=None)
    def test_window_counts_complete(self, mode):
        plan = RefreshPlan(single_core_geometry(), mode)
        counts = plan.window_counts()
        assert sum(counts.values()) == plan.slots_per_window
        assert all(v >= 0 for v in counts.values())

    @given(arbitrary_modes())
    @settings(max_examples=25, deadline=None)
    def test_spread_matches_counts(self, mode):
        plan = RefreshPlan(single_core_geometry(), mode)
        observed = {kind: 0 for kind in RefreshSlotKind}
        for slot in range(plan.slots_per_window):
            observed[plan.spread_kind(slot)] += 1
        assert observed == plan.window_counts()

    @given(arbitrary_modes())
    @settings(max_examples=15, deadline=None)
    def test_exact_matches_counts(self, mode):
        plan = RefreshPlan(single_core_geometry(), mode)
        observed = {kind: 0 for kind in RefreshSlotKind}
        for slot in range(plan.slots_per_window):
            observed[plan.exact_slot(slot).kind] += 1
        assert observed == plan.window_counts()

    @given(arbitrary_modes())
    @settings(max_examples=40, deadline=None)
    def test_no_skips_without_mechanism(self, mode):
        if mode.mechanisms.refresh_skipping:
            return
        plan = RefreshPlan(single_core_geometry(), mode)
        assert plan.window_counts()[RefreshSlotKind.SKIPPED] == 0
        assert plan.issued_fraction() == 1.0

    @given(arbitrary_modes())
    @settings(max_examples=40, deadline=None)
    def test_no_fast_without_mechanism(self, mode):
        if mode.mechanisms.fast_refresh:
            return
        counts = RefreshPlan(single_core_geometry(), mode).window_counts()
        assert counts[RefreshSlotKind.FAST] == 0
        assert counts[RefreshSlotKind.FAST_ALT] == 0

    @given(arbitrary_modes())
    @settings(max_examples=40, deadline=None)
    def test_issued_fraction_formula(self, mode):
        """Issued fraction = 1 - sum over regions of L_r * (1 - M_r/K_r)."""
        plan = RefreshPlan(single_core_geometry(), mode)
        if not mode.enabled or not mode.mechanisms.refresh_skipping:
            assert plan.issued_fraction() == 1.0
            return
        expected = 1.0 - mode.region_fraction * (mode.k - mode.m) / mode.k
        if mode.has_alt_region:
            expected -= (
                mode.alt_region_fraction * (mode.alt_k - mode.alt_m) / mode.alt_k
            )
        assert plan.issued_fraction() == pytest.approx(expected, abs=2e-4)


@st.composite
def slot_count_mixes(draw):
    """Any four non-negative slot counts that fill one window."""
    cuts = sorted(
        draw(st.lists(st.integers(0, REFRESH_SLOTS_PER_WINDOW), min_size=3, max_size=3))
    )
    bounds = [0, *cuts, REFRESH_SLOTS_PER_WINDOW]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


class TestSpreadScheduleReference:
    """The lazy schedule reads the eager reference's slots in any order."""

    @given(
        slot_count_mixes(),
        st.sampled_from(("last-first", "shuffled", "wrapped", "sparse")),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_read_order_matches_reference(self, counts, order, rng):
        window = REFRESH_SLOTS_PER_WINDOW
        expected = reference_spread_schedule(counts)
        if order == "last-first":
            indices = [window - 1, *range(window - 1)]
        elif order == "sparse":
            indices = [rng.randrange(4 * window) for _ in range(64)]
        else:
            indices = list(range(window))
            rng.shuffle(indices)
            if order == "wrapped":
                indices = [i + window * rng.randint(1, 3) for i in indices]
        schedule = SpreadSchedule(counts)
        assert [schedule.kind(i) for i in indices] == [
            expected[i % window] for i in indices
        ]
