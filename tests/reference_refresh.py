"""The eager refresh spread-schedule builder (reference model).

Used only by tests. It is the simulator's original construction of the
spread schedule: all 8192 slots built up front, with dict credits and a
generic ``max()`` over ``list(RefreshSlotKind)``.
:class:`repro.dram.refresh.SpreadSchedule` builds the same sequence
lazily from flat per-kind state; the tests pin it to this reference slot
for slot, so the lazy form cannot drift from the interleave every golden
result was produced with.
"""

from __future__ import annotations

from repro.dram.config import REFRESH_SLOTS_PER_WINDOW
from repro.dram.refresh import RefreshSlotKind


def reference_spread_schedule(counts) -> list[RefreshSlotKind]:
    """Largest-remainder interleave of one window's slot mix.

    ``counts`` holds the slots of each kind per window in
    :class:`RefreshSlotKind` order, as ``window_counts`` returns them.
    """
    total = REFRESH_SLOTS_PER_WINDOW
    kinds = list(RefreshSlotKind)
    counts = dict(zip(kinds, counts))
    quotas = {kind: counts[kind] / total for kind in kinds}
    credit = {kind: 0.0 for kind in kinds}
    emitted = {kind: 0 for kind in kinds}
    schedule: list[RefreshSlotKind] = []
    for _ in range(total):
        for kind in kinds:
            credit[kind] += quotas[kind]
        # Pick the kind furthest ahead of its emissions, respecting caps.
        best = max(
            (k for k in kinds if emitted[k] < counts[k]),
            key=lambda k: credit[k] - emitted[k],
        )
        emitted[best] += 1
        schedule.append(best)
    return schedule
