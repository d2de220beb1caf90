"""Mechanism attribution: where did an MCR-mode run's cycles go?

The paper's Fig. 17 ablates the four latency mechanisms (Early-Access,
Early-Precharge, Fast-Refresh, Refresh-Skipping) by re-running workloads
with each disabled. This module reconstructs that decomposition from a
**single** observed run, at per-command evidence level, by counterfactual
replay:

1. Take the recorded command stream (the tracer's events, in issue
   order).
2. Re-derive each command's earliest legal issue cycle under a
   *mechanism-disabled* :class:`~repro.verify.rules.OracleConfig`, using
   :meth:`~repro.verify.oracle.ProtocolOracle.bounds` — the same rule
   tables that checked the run and labelled the trace.
3. Replay the stream twice, bracketing the truth:

   - **slack-absorbing** (lower bound): a command issues at
     ``max(original cycle, counterfactual bounds)`` — scheduler-chosen
     gaps stay at their original cycles and absorb delay, so arrival
     feedback (cores stalling longer, requests arriving later) is
     ignored;
   - **shift-propagating** (upper bound): every delay also shifts all
     later commands on the channel (``max(original + accumulated
     shift, bounds)``) — full serialization, as if no slack existed.

   The reported per-mechanism estimate is the midpoint; the bounds are
   exposed alongside it. Empirically the midpoint tracks real ablation
   re-runs to within ~1% on the repository's workloads where either
   bound alone is 2-3% off.
4. Disabling mechanisms cumulatively (none -> EA -> EA+EP -> EA+EP+FR)
   splits the total into per-mechanism buckets that sum exactly to the
   full ladder's delta.

Refresh-Skipping cannot be replayed this way — skipped REFRESH commands
are absent from the trace — so its bucket is the occupancy upper bound
``skipped slots x tRFC``, reported separately with its basis.

The replay under the run's *own* configuration is a built-in
self-check: the online oracle has checked every recorded cycle against
its bounds, so that replay must reproduce the stream exactly (delta 0).
A non-zero self-check means the trace and the rule tables disagree —
attribution output would be untrustworthy and the snapshot says so.

The oracle is imported inside the functions below: loading
:mod:`repro.obs` must not load :mod:`repro.verify`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.dram.commands import Command, CommandType
from repro.obs.tracer import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.rules import OracleConfig, OracleTimings

#: Attribution snapshot schema version.
ATTRIBUTION_SCHEMA_VERSION = 1

#: Mechanism bucket names, in ladder order (replayed), then the estimate.
MECHANISMS: tuple[str, ...] = (
    "early_access",
    "early_precharge",
    "fast_refresh",
    "refresh_skipping",
)


def _refresh_kind(timings: "OracleTimings", recorded: int):
    """Row kind of a REFRESH that charged ``recorded`` cycles, looked up
    in ``timings``; NORMAL wins ties, then MCR over MCR_ALT over
    CHARGED, and an off-table value counts as NORMAL."""
    from repro.verify.rules import RowKind

    by_trfc = {timings.trfc[kind]: kind for kind in reversed(RowKind)}
    return by_trfc.get(recorded, RowKind.NORMAL)


def _command_end(
    kind: str, cycle: int, timings: "OracleTimings", trfc: int
) -> int:
    """Completion cycle of a command (data end / tRFC end / issue)."""
    base = timings.base
    if kind == "READ":
        return cycle + base["tCAS"] + base["tBURST"]
    if kind == "WRITE":
        return cycle + base["tCWD"] + base["tBURST"]
    if kind == "REFRESH":
        return cycle + trfc
    return cycle


def replay_events(
    events: Sequence[TraceEvent],
    replay_config: "OracleConfig",
    actual_timings: "OracleTimings",
    propagate_shift: bool = False,
) -> tuple[int, dict[tuple[int, int, int, int], int]]:
    """Replay one channel's recorded stream under ``replay_config``.

    ``actual_timings`` is the run's own table, which says which row kind
    each recorded REFRESH served. With ``propagate_shift`` False a
    command's floor is its original cycle (slack-absorbing lower bound);
    True adds the accumulated delay of every earlier command on the
    channel (shift-propagating upper bound). Returns ``(makespan,
    delays)`` where ``delays`` maps each column command's identity
    ``(channel, original cycle, rank, bank)`` to its counterfactual
    issue delay in cycles (zero entries omitted).
    """
    from repro.verify.oracle import ProtocolOracle

    if not events:
        return 0, {}
    channel = events[0].channel
    oracle = ProtocolOracle(replay_config, refresh_enabled=False)
    replay_trfc = oracle.timings.trfc
    makespan = 0
    shift = 0
    delays: dict[tuple[int, int, int, int], int] = {}
    for event in events:
        kind = CommandType[event.kind]
        row = event.row
        trfc = 0
        if kind is CommandType.REFRESH:
            # event.row records the slot's *actual* tRFC; translate it to
            # the replay table's tRFC for the same row kind.
            trfc = replay_trfc[_refresh_kind(actual_timings, event.row)]
            row = trfc
        cmd = Command(
            event.cycle,
            kind,
            channel,
            rank=event.rank,
            bank=event.bank,
            row=row,
        )
        floor = event.cycle + (shift if propagate_shift else 0)
        new_cycle = max([floor] + [bound for _, bound in oracle.bounds(0, cmd)])
        if propagate_shift:
            shift = new_cycle - event.cycle
        if new_cycle != event.cycle:
            cmd = replace(cmd, cycle=new_cycle)
        oracle.observe(0, cmd)
        if kind in (CommandType.READ, CommandType.WRITE) and new_cycle > event.cycle:
            key = (channel, event.cycle, event.rank, event.bank)
            delays[key] = new_cycle - event.cycle
        end = _command_end(event.kind, new_cycle, oracle.timings, trfc)
        if end > makespan:
            makespan = end
    return makespan, delays


def _actual_makespan(
    by_channel: Mapping[int, list[TraceEvent]], timings: "OracleTimings"
) -> int:
    """Latest completion cycle of the recorded stream."""
    makespan = 0
    for events in by_channel.values():
        for event in events:
            trfc = (
                timings.trfc[_refresh_kind(timings, event.row)]
                if event.kind == "REFRESH"
                else 0
            )
            makespan = max(
                makespan, _command_end(event.kind, event.cycle, timings, trfc)
            )
    return makespan


def _replay_ladder(
    by_channel: Mapping[int, list[TraceEvent]],
    ladder: Sequence[tuple[str, "OracleConfig"]],
    actual_timings: "OracleTimings",
) -> tuple[dict[str, dict[str, int]], dict[str, dict]]:
    """Both replay regimes at every ladder step: per-step ``{"lower",
    "upper"}`` makespans and the slack-absorbing column delays."""
    makespans: dict[str, dict[str, int]] = {}
    step_delays: dict[str, dict] = {}
    for name, step_config in ladder:
        bound_makespans = {}
        delays: dict[tuple[int, int, int, int], int] = {}
        for bound, propagate in (("lower", False), ("upper", True)):
            makespan = 0
            for events in by_channel.values():
                channel_makespan, channel_delays = replay_events(
                    events, step_config, actual_timings, propagate_shift=propagate
                )
                makespan = max(makespan, channel_makespan)
                if not propagate:
                    delays.update(channel_delays)
            bound_makespans[bound] = makespan
        makespans[name] = bound_makespans
        step_delays[name] = delays
    return makespans, step_delays


def _traced(hub) -> dict[int, list[TraceEvent]]:
    """The hub's trace, split by channel in issue order."""
    if hub.tracer is None:
        raise ValueError("mechanism attribution requires a command trace")
    by_channel: dict[int, list[TraceEvent]] = {}
    for event in hub.tracer.events:
        by_channel.setdefault(event.channel, []).append(event)
    return by_channel


def _self_check(makespans: dict[str, dict[str, int]], actual: int) -> int:
    """Largest makespan drift of the replays under the run's own table."""
    return max(
        makespans["self_check"]["lower"] - actual,
        makespans["self_check"]["upper"] - actual,
        key=abs,
    )


def attribute_mechanisms(
    hub, refresh_counts: Mapping[str, int] | None = None
) -> dict:
    """Split an observed MCR run's saved cycles across the mechanisms.

    ``hub`` is a finished :class:`~repro.obs.hub.ObservabilityHub` whose
    config included ``trace``. ``refresh_counts`` (the aggregate of the
    controllers' ``refresh.issued_counts()``) feeds the Refresh-Skipping
    estimate; when omitted it is read from the metrics registry if one
    was collected, else the RS bucket reports unknown slots.
    """
    from repro.verify.rules import RowKind

    by_channel = _traced(hub)
    mode = hub.mode
    config = hub.checker.config
    actual = hub.checker.timings

    # Cumulative ladder: each step disables one more mechanism, so
    # consecutive makespan deltas are per-mechanism buckets that sum to
    # the full ladder's total by construction.
    ladder = [
        ("self_check", config),
        ("early_access", replace(config, early_access=False)),
        (
            "early_precharge",
            replace(config, early_access=False, early_precharge=False),
        ),
        (
            "fast_refresh",
            replace(
                config,
                early_access=False,
                early_precharge=False,
                fast_refresh=False,
            ),
        ),
    ]
    actual_makespan = _actual_makespan(by_channel, actual)
    makespans, step_delays = _replay_ladder(by_channel, ladder, actual)

    buckets: dict[str, float] = {name: 0.0 for name in MECHANISMS}
    bucket_bounds: dict[str, dict[str, int]] = {}
    evidence: dict[str, dict] = {}
    previous = "self_check"
    for name in ("early_access", "early_precharge", "fast_refresh"):
        slack = makespans[name]["lower"] - makespans[previous]["lower"]
        shifted = makespans[name]["upper"] - makespans[previous]["upper"]
        # Per-step deltas from the two replay regimes are not ordered
        # (only the final totals are), so normalise to min/max.
        bucket_bounds[name] = {
            "lower": min(slack, shifted),
            "upper": max(slack, shifted),
        }
        buckets[name] = (slack + shifted) / 2.0
        prior = step_delays[previous]
        moved = {
            key: delay - prior.get(key, 0)
            for key, delay in step_delays[name].items()
            if delay > prior.get(key, 0)
        }
        evidence[name] = {
            "columns_delayed": len(moved),
            "column_delay_cycles": sum(moved.values()),
        }
        previous = name

    if refresh_counts is None and hub.registry is not None:
        skipped = sum(
            hub.registry.counter(
                "sim.refresh_slots", channel=channel, kind="skipped"
            ).value
            for channel in range(hub.geometry.channels)
        )
    elif refresh_counts is not None:
        skipped = int(refresh_counts.get("skipped", 0))
    else:
        skipped = 0
    # A skipped slot would have cost its kind's tRFC of rank occupancy —
    # an upper bound on wall-clock impact (slots can overlap idle time).
    skipped_trfc = actual.trfc[
        RowKind.MCR if config.fast_refresh else RowKind.NORMAL
    ]
    buckets["refresh_skipping"] = float(skipped * skipped_trfc)
    bucket_bounds["refresh_skipping"] = {
        "lower": 0,
        "upper": skipped * skipped_trfc,
    }
    evidence["refresh_skipping"] = {
        "skipped_slots": skipped,
        "trfc_cycles_per_slot": skipped_trfc,
        "basis": "occupancy upper bound (skipped slots are not in the trace)",
    }

    final = makespans["fast_refresh"]
    improvement = {}
    for bound in ("lower", "upper"):
        counterfactual = final[bound] + (
            bucket_bounds["refresh_skipping"][bound] if bound == "upper" else 0
        )
        saved = counterfactual - actual_makespan
        improvement[bound] = 100.0 * saved / counterfactual if counterfactual else 0.0
    improvement["estimate"] = (improvement["lower"] + improvement["upper"]) / 2.0

    final_delays = step_delays["fast_refresh"]
    per_column = {
        f"{ch}:{cycle}:{rank}:{bank}": delay
        for (ch, cycle, rank, bank), delay in sorted(final_delays.items())
        if delay
    }
    self_check_delta = _self_check(makespans, actual_makespan)
    return {
        "schema": ATTRIBUTION_SCHEMA_VERSION,
        "mode": mode.label() if hasattr(mode, "label") else str(mode),
        "mcr_enabled": bool(getattr(mode, "enabled", False)),
        "execution": {
            "actual_makespan": actual_makespan,
            "counterfactual_makespan": dict(final),
        },
        "buckets": buckets,
        "bucket_bounds": bucket_bounds,
        "total_saved_cycles": sum(buckets.values()),
        "improvement_pct": improvement,
        "self_check": {
            "makespan_delta": self_check_delta,
            "clean": self_check_delta == 0 and not step_delays["self_check"],
        },
        "evidence": evidence,
        "column_delays": per_column,
    }


def attribute_plugin(hub) -> dict:
    """Decompose a latency-mechanism plugin's contribution from one run.

    The counterfactual is the *mechanism-removed* device: conventional
    DRAM (an :class:`~repro.verify.rules.OracleConfig` with K=1 and no
    plugin tables). The observed stream is replayed under it with the
    same slack-absorbing / shift-propagating bracket as
    :func:`attribute_mechanisms`, and the single ``"mechanism"`` bucket
    is the midpoint. For the reference MCR plugin prefer
    :func:`attribute_mechanisms`, which splits the same delta into the
    paper's four per-mechanism buckets.

    The self-check replays under the run's own configuration (the
    oracle's restatement of the plugin's tables) and must reproduce the
    stream exactly.
    """
    from repro.verify.rules import OracleConfig

    by_channel = _traced(hub)
    mode = hub.mode
    config = hub.checker.config
    actual = hub.checker.timings
    baseline = OracleConfig(
        rows_per_bank=config.rows_per_bank,
        rows_per_subarray=config.rows_per_subarray,
        banks_per_rank=config.banks_per_rank,
        ranks_per_channel=config.ranks_per_channel,
        density=config.density,
    )
    actual_makespan = _actual_makespan(by_channel, actual)
    makespans, step_delays = _replay_ladder(
        by_channel, [("self_check", config), ("mechanism_off", baseline)], actual
    )

    self_check_delta = _self_check(makespans, actual_makespan)
    slack = makespans["mechanism_off"]["lower"] - makespans["self_check"]["lower"]
    shifted = makespans["mechanism_off"]["upper"] - makespans["self_check"]["upper"]
    bounds = {"lower": min(slack, shifted), "upper": max(slack, shifted)}
    estimate = (slack + shifted) / 2.0
    return {
        "schema": ATTRIBUTION_SCHEMA_VERSION,
        "mode": mode.label() if hasattr(mode, "label") else str(mode),
        "execution": {
            "actual_makespan": actual_makespan,
            "counterfactual_makespan": dict(makespans["mechanism_off"]),
        },
        "buckets": {"mechanism": estimate},
        "bucket_bounds": {"mechanism": bounds},
        "total_saved_cycles": estimate,
        "self_check": {
            "makespan_delta": self_check_delta,
            "clean": self_check_delta == 0 and not step_delays["self_check"],
        },
        "evidence": {
            "mechanism": {
                "columns_delayed": len(step_delays["mechanism_off"]),
                "column_delay_cycles": sum(
                    step_delays["mechanism_off"].values()
                ),
            }
        },
    }


def format_attribution(snapshot: dict) -> str:
    """Human-readable rendering of an attribution snapshot."""
    execution = snapshot["execution"]
    buckets = snapshot["buckets"]
    bounds = snapshot.get("bucket_bounds", {})
    total = snapshot["total_saved_cycles"]
    improvement = snapshot.get("improvement_pct", {})
    counterfactual = execution["counterfactual_makespan"]
    lines = [
        f"mode: {snapshot['mode']}",
        f"actual makespan: {execution['actual_makespan']} cycles; "
        f"all-mechanisms-off replay: {counterfactual['lower']}"
        f"..{counterfactual['upper']} cycles",
        f"estimated improvement: {improvement.get('estimate', 0.0):.2f}% "
        f"(bounds {improvement.get('lower', 0.0):.2f}%"
        f"..{improvement.get('upper', 0.0):.2f}%)",
        f"self-check: {'clean' if snapshot['self_check']['clean'] else 'FAILED'}",
        "",
        f"{'mechanism':<18} {'saved cycles':>12} {'share':>7}  bounds",
        "-" * 54,
    ]
    for name in MECHANISMS:
        value = buckets.get(name, 0.0)
        share = 100.0 * value / total if total else 0.0
        bound = bounds.get(name, {})
        lines.append(
            f"{name:<18} {value:>12.1f} {share:>6.1f}%  "
            f"[{bound.get('lower', 0)}, {bound.get('upper', 0)}]"
        )
    lines.append("-" * 54)
    lines.append(f"{'total':<18} {total:>12.1f}")
    rs = snapshot["evidence"].get("refresh_skipping", {})
    if rs.get("skipped_slots"):
        lines.append(
            f"(refresh_skipping: {rs['skipped_slots']} skipped slots x "
            f"{rs['trfc_cycles_per_slot']} cycles, {rs['basis']})"
        )
    return "\n".join(lines)


__all__ = [
    "ATTRIBUTION_SCHEMA_VERSION",
    "MECHANISMS",
    "attribute_mechanisms",
    "attribute_plugin",
    "format_attribution",
    "replay_events",
]
