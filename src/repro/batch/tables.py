"""The batched kernel's entry into the scalar engine's refresh schedule.

Both engines read one implementation of the refresh spread schedule,
:class:`repro.dram.refresh.SpreadSchedule`, which generates slots on
first read. :func:`spread_schedule` is the kernel's only call into it,
so a traced run can count the schedules the kernel builds.
"""

from __future__ import annotations

from repro.dram.refresh import SpreadSchedule


def spread_schedule(counts: tuple[int, int, int, int]) -> SpreadSchedule:
    """The spread schedule of one slot-count mix (see
    :func:`repro.dram.refresh.window_counts`)."""
    return SpreadSchedule(counts)
