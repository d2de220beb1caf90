"""The differential-verification fuzz driver (CI's ``verify-fuzz`` step).

Runs three phases under a seeded RNG and a wall-clock budget:

1. **self-check** — each synthetic bug from :mod:`repro.verify.bugs` is
   injected and must be caught by its expected oracle rule (proves the
   oracle isn't vacuously agreeing with the engine);
2. **metamorphic identities** — a fixed number of rounds over the
   full-run equalities in :mod:`repro.verify.metamorphic`;
3. **differential fuzz** — random configuration tuples run through the
   real engine with the oracle attached via the command tap; any
   violation is shrunk with ddmin and written out as a replayable JSON
   artifact (attach it to a bug report, or move it into
   ``tests/corpus/`` once triaged). Each scalar oracle iteration is
   interleaved with a **batched round** (:mod:`repro.verify.batched`):
   a kernel chunk of metamorphic pairs plus a scalar spot-check lane,
   multiplying the seeded case draws covered per second.
   ``--min-cases`` turns the throughput win into a CI floor.

Usage::

    python -m repro.verify --seconds 60 --seed 0

Exit code 0 when every phase behaved, 1 otherwise.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from repro.verify.bugs import BUG_NAMES
from repro.verify.metamorphic import IDENTITIES, check_identity
from repro.verify.generator import sample_case
from repro.verify.oracle import run_case_with_oracle
from repro.verify.shrinker import shrink_case
from repro.verify.corpus import write_artifact


def run_self_check() -> list[str]:
    """Inject every synthetic bug; the oracle must catch each one."""
    from repro.verify.bugs import bug_case

    failures = []
    for bug, expected_rule in BUG_NAMES.items():
        _, violations, _ = run_case_with_oracle(bug_case(bug), bug=bug)
        rules = {v.rule for v in violations}
        if expected_rule not in rules:
            failures.append(
                f"self-check: injected {bug} not caught by {expected_rule} "
                f"(flagged: {sorted(rules) or 'nothing'})"
            )
    return failures


def run_identities(rng: random.Random, rounds: int) -> list[str]:
    """``rounds`` passes over all metamorphic identities."""
    failures = []
    for _ in range(rounds):
        for name in IDENTITIES:
            mismatch = check_identity(name, rng)
            if mismatch is not None:
                failures.append(f"identity {name}: {mismatch}")
    return failures


def run_fuzz_iteration(
    rng: random.Random, artifact_dir: Path, iteration: int
) -> list[str]:
    """One differential run; shrink + persist on failure."""
    case = sample_case(rng)
    try:
        _, violations, _ = run_case_with_oracle(case)
    except Exception as exc:  # engine crash on a sampled config is a finding
        return [f"engine crashed on seed={case.seed}: {exc!r}"]
    if not violations:
        return []
    result = shrink_case(case)
    path = write_artifact(
        artifact_dir / f"fuzz-{iteration:04d}-seed{case.seed}.json",
        result,
        bug=None,
        description="natural failure found by python -m repro.verify",
    )
    return [
        f"oracle violation (seed={case.seed}), shrunk to "
        f"{result.entries} entries / {result.commands} commands "
        f"({', '.join(result.rules)}) -> {path}"
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="fuzz time budget (default 10)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="stop the fuzz phase after N iterations even with budget left",
    )
    parser.add_argument(
        "--identities",
        type=int,
        default=3,
        help="metamorphic rounds (each runs all identities; default 3)",
    )
    parser.add_argument(
        "--skip-self-check",
        action="store_true",
        help="skip the injected-bug self-check phase",
    )
    parser.add_argument(
        "--artifact-dir",
        type=Path,
        default=Path("verify-failures"),
        help="where shrunken failure artifacts go (default ./verify-failures)",
    )
    parser.add_argument(
        "--min-cases",
        type=int,
        default=None,
        help="fail unless the fuzz phase covered at least N seeded case draws",
    )
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    failures: list[str] = []

    if not args.skip_self_check:
        failures.extend(run_self_check())
        print(f"self-check: {len(BUG_NAMES)} injected bugs, "
              f"{len(failures)} undetected")

    identity_failures = run_identities(rng, args.identities)
    failures.extend(identity_failures)
    print(
        f"identities: {args.identities} rounds x {len(IDENTITIES)} identities, "
        f"{len(identity_failures)} mismatches"
    )

    deadline = time.monotonic() + args.seconds
    iterations = 0
    rounds = 0
    lanes = 0
    fuzz_failures: list[str] = []
    # Always run at least one fuzz iteration, however small the budget.
    # Each scalar oracle iteration is interleaved with one kernel round
    # of metamorphic pairs, so one pass of the loop covers
    # 1 + 2*pairs seeded case draws.
    while iterations == 0 or (
        time.monotonic() < deadline
        and (args.max_iterations is None or iterations < args.max_iterations)
    ):
        fuzz_failures.extend(run_fuzz_iteration(rng, args.artifact_dir, iterations))
        iterations += 1
        if iterations == 1 or time.monotonic() < deadline:
            from repro.verify.batched import run_batched_round

            round_lanes, round_failures = run_batched_round(rng)
            rounds += 1
            lanes += round_lanes
            fuzz_failures.extend(round_failures)
    failures.extend(fuzz_failures)
    cases = iterations + lanes
    print(
        f"fuzz: {iterations} oracle iterations + {lanes} batched lanes "
        f"({rounds} kernel rounds) = {cases} cases, "
        f"{len(fuzz_failures)} failures"
    )
    if args.min_cases is not None and cases < args.min_cases:
        failures.append(
            f"fuzz covered {cases} cases, below the --min-cases floor "
            f"of {args.min_cases}"
        )

    for failure in failures[:20]:
        print(f"  FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
