"""Metamorphic identities: full-run equalities the system must satisfy.

Each identity builds *two* runs from one random draw whose results must
be exactly equal — not approximately, exactly, down to every cycle count
and energy figure. These catch whole classes of bug no spacing rule can
see (a mechanism leaking into a disabled configuration, observability
perturbing the simulation, scheduling depending on don't-care address
bits).

The identities:

- ``mcr-region-empty``: a K>1 mode with an *empty* MCR region is
  conventional DRAM — equal to K=1 in every measured quantity;
- ``skip-noop``: with M=K there is nothing to skip, so Refresh-Skipping
  on and off are the same machine;
- ``obs-transparent``: full observability (tracer + metrics + checker +
  profiler) must not change the simulated outcome — equal RunResult once
  the observation payloads themselves are stripped — and the profile
  must conserve latency (its component totals sum exactly to the total);
- ``column-permutation``: XOR-ing a constant onto every address's column
  bits permutes cache lines within rows and nothing else, so every
  aggregate statistic is unchanged;
- ``batch-duplicates``: a batched-kernel run of N copies of one case is
  N copies of the scalar single-run result — lanes neither leak into
  each other nor depend on batch size;
- ``batch-permutation``: permuting the lane order of a heterogeneous
  batch permutes the results and changes nothing else;
- ``clr-uncoupled``: the CLR-DRAM plugin with a 0% coupled fraction is
  conventional DRAM — equal to no plugin at all (modulo the mode
  label), proving the mechanism cannot leak timing into rows it does
  not govern;
- ``chargecache-empty``: the ChargeCache plugin with a zero-entry table
  can never grant a highly-charged activation, so it equals the plain
  baseline exactly (modulo the mode label) on any trace.

Each check returns ``None`` when the identity holds, or a human-readable
mismatch description.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable

from repro.verify.generator import (
    VerifyCase,
    build_spec,
    build_traces,
    explicit_entries,
    sample_case,
)


def run_case(case: VerifyCase, observability=None):
    """One plain engine run for a case (lazy import of the engine)."""
    from repro.core.api import run_system

    return run_system(
        build_traces(case),
        case.mode(),
        spec=build_spec(case),
        max_cycles=case.max_cycles,
        observability=observability,
    )


def _diff(label: str, a, b) -> str | None:
    """First differing RunResult field, or None when equal."""
    for name in (
        "workloads",
        "mode_label",
        "execution_cycles",
        "per_core_cycles",
        "avg_read_latency_cycles",
        "instructions",
        "reads",
        "writes",
        "energy",
        "edp",
        "read_latency_percentiles",
        "controller_stats",
        "metrics",
        "profile",
    ):
        left, right = getattr(a, name), getattr(b, name)
        if left != right:
            return f"{label}: {name} differs ({left!r} != {right!r})"
    return None


def _strip(result, *, stats: bool = False):
    """Drop observation payloads (and optionally per-channel stats)."""
    fields = {"metrics": None, "profile": None}
    if stats:
        fields["controller_stats"] = ()
    return replace(result, **fields)


def _strip_label(result):
    """Blank the mode label (identities across *differently named* but
    behaviourally identical configurations)."""
    return replace(result, mode_label="")


def _plain_baseline(case: VerifyCase) -> VerifyCase:
    """The same stimulus with every latency mechanism switched off."""
    return replace(
        case,
        mechanism="mcr",
        clr_fraction_pct=0.0,
        cc_capacity=0,
        cc_window_ns=0.0,
        k=1,
        m=1,
        region_pct=0.0,
        alt_k=1,
        alt_m=1,
        alt_region_pct=0.0,
    )


# ----------------------------------------------------------------------
# The identities
# ----------------------------------------------------------------------


def _mcr_region_empty(rng: random.Random) -> str | None:
    # A sampled plugin case would ignore the K/M fields entirely (its
    # mode is MCR-off), so pin the mechanism to the reference device.
    base = _plain_baseline(sample_case(rng))
    k = rng.choice((2, 4))
    with_mcr_machinery = replace(
        base, k=k, m=k, region_pct=0.0, alt_k=1, alt_m=1, alt_region_pct=0.0
    )
    plain = replace(
        base, k=1, m=1, region_pct=0.0, alt_k=1, alt_m=1, alt_region_pct=0.0
    )
    return _diff(
        f"K={k} with empty region != baseline (seed={base.seed})",
        run_case(with_mcr_machinery),
        run_case(plain),
    )


def _skip_noop(rng: random.Random) -> str | None:
    sampled = sample_case(rng)
    base = (
        sampled if sampled.mechanism == "mcr" else _plain_baseline(sampled)
    )
    k = rng.choice((2, 4))
    regions = (25.0, 50.0) if base.alt_region_pct > 0.0 else (25.0, 50.0, 100.0)
    common = replace(
        base,
        k=k,
        m=k,  # nothing to skip
        region_pct=rng.choice(regions),
        alt_m=base.alt_k,  # same for the secondary region, if any
    )
    return _diff(
        f"M=K skip-on != skip-off (k={k}, seed={base.seed})",
        run_case(replace(common, refresh_skipping=True)),
        run_case(replace(common, refresh_skipping=False)),
    )


def _obs_transparent(rng: random.Random) -> str | None:
    from repro.obs.hub import ObservabilityConfig

    case = sample_case(rng)
    observed = run_case(
        case,
        observability=ObservabilityConfig(
            trace=True, metrics=True, invariants=True, profile=True
        ),
    )
    if not observed.profile["conserved"]:
        return f"profile components do not sum to latency (seed={case.seed})"
    bare = run_case(case)
    return _diff(
        f"observability changed the run (seed={case.seed})",
        _strip(observed),
        bare,
    )


def _column_permutation(rng: random.Random) -> str | None:
    from repro.controller.address_mapping import AddressMapper, MappingScheme

    case = sample_case(rng)
    mapper = AddressMapper(case.geometry(), MappingScheme[case.mapping])
    mask = rng.randrange(1, case.columns_per_row)

    def permute(address: int) -> int:
        coords = mapper.decode(address)
        return mapper.encode(replace(coords, column=coords.column ^ mask))

    original = explicit_entries(case)
    permuted = tuple(
        tuple((gap, is_write, permute(address)) for gap, is_write, address in trace)
        for trace in original
    )
    return _diff(
        f"column-bit XOR {mask:#x} changed aggregates (seed={case.seed})",
        _strip(run_case(case.with_entries(original)), stats=True),
        _strip(run_case(case.with_entries(permuted)), stats=True),
    )


def _batch_duplicates(rng: random.Random) -> str | None:
    from repro.batch import from_verify_case, run_batch

    case = sample_case(rng)
    if case.mechanism != "mcr":
        case = _plain_baseline(case)  # plugin lanes are scalar-only
    n = rng.randint(2, 4)
    single = run_case(case)
    for lane, got in enumerate(run_batch([from_verify_case(case)] * n)):
        mismatch = _diff(
            f"batch of {n} duplicates: lane {lane} != single scalar run "
            f"(seed={case.seed})",
            got,
            single,
        )
        if mismatch is not None:
            return mismatch
    return None


def _batch_permutation(rng: random.Random) -> str | None:
    from repro.batch import from_verify_case, run_batch

    cases = [
        case if case.mechanism == "mcr" else _plain_baseline(case)
        for case in (sample_case(rng) for _ in range(rng.randint(2, 4)))
    ]
    instances = [from_verify_case(case) for case in cases]
    baseline = run_batch(instances)
    order = list(range(len(instances)))
    rng.shuffle(order)
    permuted = run_batch(instances[i] for i in order)
    for position, i in enumerate(order):
        mismatch = _diff(
            f"lane order changed a result (position {position}, "
            f"case seed={cases[i].seed})",
            permuted[position],
            baseline[i],
        )
        if mismatch is not None:
            return mismatch
    return None


def _clr_uncoupled(rng: random.Random) -> str | None:
    plain = _plain_baseline(sample_case(rng))
    clr = replace(plain, mechanism="clr", clr_fraction_pct=0.0)
    return _diff(
        f"CLR with 0% coupled rows != baseline (seed={plain.seed})",
        _strip_label(run_case(clr)),
        _strip_label(run_case(plain)),
    )


def _chargecache_empty(rng: random.Random) -> str | None:
    plain = _plain_baseline(sample_case(rng))
    cache = replace(
        plain,
        mechanism="chargecache",
        cc_capacity=0,
        cc_window_ns=rng.choice((50_000.0, 1_000_000.0)),
    )
    return _diff(
        f"zero-entry ChargeCache != baseline (seed={plain.seed})",
        _strip_label(run_case(cache)),
        _strip_label(run_case(plain)),
    )


IDENTITIES: dict[str, Callable[[random.Random], str | None]] = {
    "mcr-region-empty": _mcr_region_empty,
    "skip-noop": _skip_noop,
    "obs-transparent": _obs_transparent,
    "column-permutation": _column_permutation,
    "batch-duplicates": _batch_duplicates,
    "batch-permutation": _batch_permutation,
    "clr-uncoupled": _clr_uncoupled,
    "chargecache-empty": _chargecache_empty,
}


def check_identity(name: str, rng: random.Random) -> str | None:
    """Run one identity check on a fresh draw; None means it held."""
    return IDENTITIES[name](rng)


__all__ = ["IDENTITIES", "check_identity", "run_case"]
