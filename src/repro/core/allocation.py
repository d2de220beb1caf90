"""OS page-allocation models: collision avoidance and profile placement.

Two remappers implement the paper's Sec. 4.4:

- :class:`CollisionFreeAllocator` — every accessed row is placed on a
  distinct MCR *base* row (clone LSBs zero), modelling an OS that only
  hands out the first row of each MCR (so no two pages ever share an MCR
  — the "prevention of data collision" rule). Used for mode-[100%reg]
  runs where all pages live in MCRs.
- :class:`ProfileAllocator` — the pseudo profile-based allocation: the
  hottest fraction of each workload's rows land on MCR base rows, all
  other rows land on normal rows *outside* the MCR region, and every
  placement stays within the row's original bank (the paper keeps
  channel/rank/bank/column unchanged to preserve bank-level parallelism
  and row-buffer locality).

Both are deterministic bijections per (rank, bank) and expose a
``(rank, bank, row) -> row`` callable for the simulator.
"""

from __future__ import annotations

from repro.cpu.trace import Trace
from repro.dram.config import DRAMGeometry
from repro.dram.mcr import MCRModeConfig


def _accessed_rows_per_bank(
    traces: list[Trace], geometry: DRAMGeometry
) -> dict[tuple[int, int], list[int]]:
    """Rows each (rank, bank) touches, hottest first, from trace profiles.

    Trace profiles key pages as the physical page id (see the generator):
    LSB-first ``channel | bank | rank | row`` — decode accordingly.
    """
    g = geometry
    counts: dict[tuple[int, int], dict[int, int]] = {}
    for trace in traces:
        for page, n in trace.row_access_counts.items():
            value = page
            value >>= g.channel_bits
            bank = value & (g.banks_per_rank - 1)
            value >>= g.bank_bits
            rank = value & (g.ranks_per_channel - 1)
            value >>= g.rank_bits
            row = value
            per_bank = counts.setdefault((rank, bank), {})
            per_bank[row] = per_bank.get(row, 0) + n
    return {
        key: [row for row, _ in sorted(rows.items(), key=lambda kv: (-kv[1], kv[0]))]
        for key, rows in counts.items()
    }


class _BaseRemapper:
    """Shared plumbing: per-bank row->row dictionaries."""

    def __init__(self) -> None:
        self._maps: dict[tuple[int, int], dict[int, int]] = {}

    def __call__(self, rank: int, bank: int, row: int) -> int:
        return self._maps.get((rank, bank), {}).get(row, row)

    def mapped_count(self) -> int:
        return sum(len(m) for m in self._maps.values())


class CollisionFreeAllocator(_BaseRemapper):
    """Place every accessed row on a distinct MCR base row.

    Rows are assigned in profile (hotness) order to base rows walking the
    MCR region from the sense amplifiers upward, one sub-array after
    another. Raises if the footprint exceeds the mode's page capacity —
    the paper assumes capacity is sufficient for these runs.
    """

    def __init__(
        self,
        traces: list[Trace],
        geometry: DRAMGeometry,
        mode: MCRModeConfig,
    ) -> None:
        super().__init__()
        if not mode.enabled:
            return
        base_rows = _region_base_rows(geometry, mode)
        for key, rows in _accessed_rows_per_bank(traces, geometry).items():
            if len(rows) > len(base_rows):
                raise ValueError(
                    f"footprint ({len(rows)} rows) exceeds MCR page capacity "
                    f"({len(base_rows)} base rows) for bank {key}"
                )
            self._maps[key] = dict(zip(rows, base_rows))


class ProfileAllocator(_BaseRemapper):
    """Pseudo profile-based page allocation (paper Sec. 4.4).

    Args:
        traces: Traces whose profiles drive hotness ranking.
        geometry: DRAM organization.
        mode: MCR mode (supplies K and the region).
        allocation_ratio: Fraction of each bank's accessed rows (hottest
            first) placed into MCRs — the x-axis of the paper's Fig. 12.
    """

    def __init__(
        self,
        traces: list[Trace],
        geometry: DRAMGeometry,
        mode: MCRModeConfig,
        allocation_ratio: float,
    ) -> None:
        super().__init__()
        if not 0.0 <= allocation_ratio <= 1.0:
            raise ValueError("allocation_ratio must be within [0, 1]")
        self.hot_rows_placed = 0
        if not mode.enabled or allocation_ratio == 0.0:
            return
        base_rows = _region_base_rows(geometry, mode)
        normal_rows = _normal_rows(geometry, mode)
        for key, rows in _accessed_rows_per_bank(traces, geometry).items():
            hot_count = min(round(len(rows) * allocation_ratio), len(base_rows))
            mapping: dict[int, int] = {}
            mapping.update(zip(rows[:hot_count], base_rows))
            self.hot_rows_placed += hot_count
            cold = rows[hot_count:]
            if len(cold) > len(normal_rows):
                raise ValueError(
                    f"cold footprint ({len(cold)}) exceeds normal rows "
                    f"({len(normal_rows)}) for bank {key}"
                )
            mapping.update(zip(cold, normal_rows))
            self._maps[key] = mapping


def _subarray_rows(
    geometry: DRAMGeometry, start: int, stop: int, step: int = 1
) -> list[int]:
    """Local rows ``range(start, stop, step)`` of every sub-array, in order."""
    rows: list[int] = []
    for origin in range(0, geometry.rows_per_bank, geometry.rows_per_subarray):
        rows.extend(range(origin + start, origin + stop, step))
    return rows


def _region_base_rows(geometry: DRAMGeometry, mode: MCRModeConfig) -> list[int]:
    """MCR base rows (clone LSBs zero) walking sub-arrays in order."""
    sub = geometry.rows_per_subarray
    start = round(sub * (1.0 - mode.region_fraction))
    return _subarray_rows(geometry, start, sub, mode.k)


def _alt_region_base_rows(geometry: DRAMGeometry, mode: MCRModeConfig) -> list[int]:
    """Base rows of the secondary (combined-mode) MCR region."""
    if not mode.has_alt_region:
        return []
    sub = geometry.rows_per_subarray
    primary_start = round(sub * (1.0 - mode.region_fraction))
    alt_start = round(sub * (1.0 - mode.region_fraction - mode.alt_region_fraction))
    return _subarray_rows(geometry, alt_start, primary_start, mode.alt_k)


def _normal_rows(geometry: DRAMGeometry, mode: MCRModeConfig) -> list[int]:
    """Rows outside every MCR region, walking sub-arrays in order.

    MCR regions fill each sub-array's top local rows, so the normal rows
    are the local rows below the secondary region's start, which is the
    primary region's start when there is no secondary region (the region
    starts :class:`repro.dram.mcr.MCRGenerator` compares against).
    """
    sub = geometry.rows_per_subarray
    end = round(sub * (1.0 - mode.region_fraction - mode.alt_region_fraction))
    return _subarray_rows(geometry, 0, end)


class CombinedProfileAllocator(_BaseRemapper):
    """Hot pages to the primary (e.g. 4x) MCRs, warm to the secondary
    (e.g. 2x), cold to normal rows — the paper's combined configuration.

    Args:
        traces: Traces whose profiles drive hotness ranking.
        geometry: DRAM organization.
        mode: A combined MCR mode (``MCRModeConfig.combined``).
        hot_ratio: Fraction of each bank's accessed rows (hottest first)
            placed into primary MCRs.
        warm_ratio: Fraction placed into secondary MCRs, right behind the
            hot set in the ranking.
    """

    def __init__(
        self,
        traces: list[Trace],
        geometry: DRAMGeometry,
        mode: MCRModeConfig,
        hot_ratio: float,
        warm_ratio: float,
    ) -> None:
        super().__init__()
        if not mode.has_alt_region:
            raise ValueError("CombinedProfileAllocator needs a combined mode")
        if hot_ratio < 0 or warm_ratio < 0 or hot_ratio + warm_ratio > 1.0:
            raise ValueError("require hot_ratio, warm_ratio >= 0 summing to <= 1")
        primary_rows = _region_base_rows(geometry, mode)
        alt_rows = _alt_region_base_rows(geometry, mode)
        normal_rows = _normal_rows(geometry, mode)
        for key, rows in _accessed_rows_per_bank(traces, geometry).items():
            hot_count = min(round(len(rows) * hot_ratio), len(primary_rows))
            warm_count = min(round(len(rows) * warm_ratio), len(alt_rows))
            mapping: dict[int, int] = {}
            mapping.update(zip(rows[:hot_count], primary_rows))
            mapping.update(zip(rows[hot_count : hot_count + warm_count], alt_rows))
            cold = rows[hot_count + warm_count :]
            if len(cold) > len(normal_rows):
                raise ValueError(
                    f"cold footprint ({len(cold)}) exceeds normal rows for {key}"
                )
            mapping.update(zip(cold, normal_rows))
            self._maps[key] = mapping
