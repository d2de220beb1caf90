"""Tests for the OS page-allocation remappers."""

import pytest

from repro.core.allocation import (
    CollisionFreeAllocator,
    ProfileAllocator,
    _alt_region_base_rows,
    _normal_rows,
    _region_base_rows,
)
from repro.dram.config import multi_core_geometry, single_core_geometry
from repro.dram.mcr import SUPPORTED_K, MCRGenerator, MCRModeConfig, RowClass
from repro.dram.mode_register import REGION_CODES
from repro.workloads import make_trace


@pytest.fixture(scope="module")
def geometry():
    return single_core_geometry()


@pytest.fixture(scope="module")
def trace():
    return make_trace("comm2", n_requests=3000, seed=11)


def mode_100(k=4):
    return MCRModeConfig(k=k, m=k, region_fraction=1.0)


def mode_50(k=4):
    return MCRModeConfig(k=k, m=k, region_fraction=0.5)


class TestCollisionFreeAllocator:
    def test_every_mapped_row_is_base_row(self, geometry, trace):
        mode = mode_100()
        allocator = CollisionFreeAllocator([trace], geometry, mode)
        gen = MCRGenerator(geometry, mode)
        for (rank, bank), mapping in allocator._maps.items():
            for src, dst in mapping.items():
                assert gen.is_mcr_row(dst)
                assert gen.clone_index(dst) == 0

    def test_no_two_rows_share_an_mcr(self, geometry, trace):
        mode = mode_100()
        allocator = CollisionFreeAllocator([trace], geometry, mode)
        gen = MCRGenerator(geometry, mode)
        for mapping in allocator._maps.values():
            mcrs = [gen.base_row(dst) for dst in mapping.values()]
            assert len(mcrs) == len(set(mcrs))

    def test_identity_when_disabled(self, geometry, trace):
        allocator = CollisionFreeAllocator([trace], geometry, MCRModeConfig.off())
        assert allocator(0, 0, 1234) == 1234
        assert allocator.mapped_count() == 0

    def test_unmapped_rows_pass_through(self, geometry, trace):
        allocator = CollisionFreeAllocator([trace], geometry, mode_100())
        # A row the trace never touches maps to itself.
        untouched = 31999
        if untouched not in allocator._maps.get((0, 0), {}):
            assert allocator(0, 0, untouched) == untouched

    def test_capacity_exceeded_raises(self, geometry):
        tiny = single_core_geometry()
        big_trace = make_trace("tigr", n_requests=2000, seed=1)
        small_mode = MCRModeConfig(k=4, m=4, region_fraction=0.25)
        # 25% region with K=4: capacity = rows/16 per bank = 2048 — ok.
        CollisionFreeAllocator([big_trace], tiny, small_mode)


class TestProfileAllocator:
    def test_hot_rows_in_region_cold_outside(self, geometry, trace):
        mode = mode_50()
        allocator = ProfileAllocator([trace], geometry, mode, allocation_ratio=0.2)
        gen = MCRGenerator(geometry, mode)
        in_region = 0
        outside = 0
        for mapping in allocator._maps.values():
            for dst in mapping.values():
                if gen.is_mcr_row(dst):
                    in_region += 1
                else:
                    outside += 1
        assert in_region > 0
        assert outside > 0

    def test_ratio_zero_is_identity(self, geometry, trace):
        allocator = ProfileAllocator([trace], geometry, mode_50(), 0.0)
        assert allocator.mapped_count() == 0
        assert allocator.hot_rows_placed == 0

    def test_identity_when_disabled(self, geometry, trace):
        allocator = ProfileAllocator([trace], geometry, MCRModeConfig.off(), 0.5)
        assert allocator.mapped_count() == 0
        assert allocator.hot_rows_placed == 0

    def test_hot_count_tracks_ratio(self, geometry, trace):
        mode = mode_50()
        a10 = ProfileAllocator([trace], geometry, mode, 0.1)
        a30 = ProfileAllocator([trace], geometry, mode, 0.3)
        assert a30.hot_rows_placed > a10.hot_rows_placed

    def test_hottest_rows_chosen(self, geometry, trace):
        """The hot mass fraction in MCRs must exceed the allocation ratio
        for a skewed workload — the paper's 88.34% @ 10% for comm2."""
        mode = mode_50()
        allocator = ProfileAllocator([trace], geometry, mode, 0.1)
        gen = MCRGenerator(geometry, mode)
        g = geometry
        hits_in_mcr = 0
        total = 0
        for page, count in trace.row_access_counts.items():
            value = page
            value >>= g.channel_bits
            bank = value & (g.banks_per_rank - 1)
            value >>= g.bank_bits
            rank = value & (g.ranks_per_channel - 1)
            row = value >> g.rank_bits
            mapped = allocator(rank, bank, row)
            total += count
            if gen.is_mcr_row(mapped):
                hits_in_mcr += count
        assert hits_in_mcr / total > 0.45  # far above the 10% row ratio

    def test_mapping_is_injective(self, geometry, trace):
        allocator = ProfileAllocator([trace], geometry, mode_50(), 0.25)
        for mapping in allocator._maps.values():
            assert len(set(mapping.values())) == len(mapping)

    def test_validates_ratio(self, geometry, trace):
        with pytest.raises(ValueError):
            ProfileAllocator([trace], geometry, mode_50(), 1.5)


def every_mode():
    """Every supported [M/Kx/L%reg] mode, the off mode and the combined one."""
    modes = [MCRModeConfig.off(), MCRModeConfig.combined()]
    for k in SUPPORTED_K:
        for m in range(1, k + 1):
            if k > 1 and k % m == 0:
                modes.extend(
                    MCRModeConfig(k=k, m=m, region_fraction=region)
                    for region in REGION_CODES
                )
    return modes


@pytest.mark.parametrize(
    "make_geometry", [single_core_geometry, multi_core_geometry]
)
def test_allocator_rows_match_classifier(make_geometry):
    """The arithmetic row lists equal the MCR classifier's, row by row."""
    geometry = make_geometry()
    rows = range(geometry.rows_per_bank)
    for mode in every_mode():
        gen = MCRGenerator(geometry, mode)
        assert _normal_rows(geometry, mode) == [
            r for r in rows if not gen.is_mcr_row(r)
        ], mode.label()
        base_rows = {RowClass.MCR: [], RowClass.MCR_ALT: []}
        for r in rows:
            cls = gen.row_class(r)
            if cls is not RowClass.NORMAL and gen.clone_index(r) == 0:
                base_rows[cls].append(r)
        assert _region_base_rows(geometry, mode) == base_rows[RowClass.MCR]
        assert _alt_region_base_rows(geometry, mode) == base_rows[RowClass.MCR_ALT]
