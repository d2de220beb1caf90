"""Perf-history ring file + geomean-window regression verdicts.

Every ``BENCH_*.json`` emission (``benchmarks/_emit.py``) is appended to
a schema-versioned JSONL ring file, ``BENCH_history.jsonl``, capped per
benchmark name. :func:`verdict` compares the geometric mean of the most
recent window against the prior window for that benchmark's tracked
metric and classifies the trajectory — turning the repo's one-shot perf
gates into a trend the CI can fail on::

    python -m repro.obs.history check --name engine_hotpath_speedup

exits non-zero on ``regression``. Geomeans need strictly positive
values, so metrics that can cross zero (overhead percentages) are
tracked with an additive ``shift`` into positive territory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HISTORY_SCHEMA_VERSION = 1
DEFAULT_HISTORY_FILE = "BENCH_history.jsonl"

#: Entries kept per benchmark name (oldest dropped first).
RING_CAP = 200
#: Samples in the "recent" geomean window.
RECENT_WINDOW = 3
#: Samples in the "prior" baseline window (immediately before recent).
PRIOR_WINDOW = 5


@dataclass(frozen=True)
class Tracked:
    """How one benchmark name is judged."""

    metric: str  # dotted path into the entry, e.g. "detail.min_speedup"
    higher_is_better: bool
    threshold: float  # relative geomean change that counts as a verdict
    shift: float = 0.0  # added before the geomean to keep values positive


#: Per-benchmark tracking policy; unknown names fall back to wall time
#: with a deliberately loose threshold (runner noise dominates).
TRACKED: dict[str, Tracked] = {
    "engine_hotpath_speedup": Tracked("detail.min_speedup", True, 0.15),
    "batch_kernel_speedup": Tracked("detail.speedup", True, 0.25),
    "harness_speedup": Tracked("detail.speedup", True, 0.30),
    "service_load": Tracked("detail.throughput_jobs_s", True, 0.40),
}
FALLBACK = Tracked("wall_s", False, 0.50)


def tracked_for(name: str) -> Tracked:
    return TRACKED.get(name, FALLBACK)


def metric_value(entry: dict, metric: str) -> float | None:
    """Resolve a dotted path (``detail.min_speedup``) into ``entry``."""
    node = entry
    for part in metric.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


# ----------------------------------------------------------------------
# Ring file
# ----------------------------------------------------------------------


def load(path: str | Path = DEFAULT_HISTORY_FILE) -> list[dict]:
    """All well-formed entries, oldest first. Corrupt lines are skipped."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and entry.get("name"):
            entries.append(entry)
    return entries


def _prune(entries: list[dict]) -> list[dict]:
    kept: list[dict] = []
    budget: dict[str, int] = {}
    for entry in reversed(entries):
        name = entry["name"]
        budget[name] = budget.get(name, 0) + 1
        if budget[name] <= RING_CAP:
            kept.append(entry)
    kept.reverse()
    return kept


def append(
    report: dict,
    path: str | Path = DEFAULT_HISTORY_FILE,
    ts: float | None = None,
) -> dict:
    """Append one ``BENCH_*.json`` report to the ring; returns the entry.

    Only JSON scalars from the report are kept (``detail`` is filtered
    to numeric leaves) so the history file stays small and diffable.
    """
    detail = report.get("detail") or {}
    entry = {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "ts": round(ts if ts is not None else time.time(), 3),
        "name": report["name"],
        "wall_s": report.get("wall_s"),
        "overhead_pct": report.get("overhead_pct"),
        "commit": report.get("commit"),
        "detail": {
            key: value
            for key, value in detail.items()
            if isinstance(value, (int, float, str, bool))
        },
    }
    path = Path(path)
    entries = _prune(load(path) + [entry])
    _atomic_write(path, "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))
    return entry


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Trend classification for one benchmark name."""

    name: str
    status: str  # "regression" | "improvement" | "stable" | "insufficient-data"
    metric: str
    recent_geomean: float | None = None
    prior_geomean: float | None = None
    change: float | None = None  # signed relative change, recent vs prior
    samples: int = 0

    def summary(self) -> str:
        if self.status == "insufficient-data":
            return f"{self.name}: insufficient data ({self.samples} samples)"
        return (
            f"{self.name}: {self.status} — {self.metric} geomean "
            f"{self.recent_geomean:.4g} vs prior {self.prior_geomean:.4g} "
            f"({self.change:+.1%})"
        )


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def verdict(
    name: str,
    entries: list[dict] | None = None,
    path: str | Path = DEFAULT_HISTORY_FILE,
    tracked: Tracked | None = None,
) -> Verdict:
    """Classify ``name``'s trajectory from the history entries."""
    tracked = tracked or tracked_for(name)
    if entries is None:
        entries = load(path)
    values = []
    for entry in entries:
        if entry.get("name") != name:
            continue
        value = metric_value(entry, tracked.metric)
        if value is None:
            continue
        shifted = value + tracked.shift
        if shifted > 0:
            values.append(shifted)
    if len(values) < 2:
        return Verdict(name, "insufficient-data", tracked.metric, samples=len(values))
    recent = values[-min(RECENT_WINDOW, len(values) - 1):]
    prior = values[-(len(recent) + PRIOR_WINDOW): -len(recent)]
    recent_gm, prior_gm = _geomean(recent), _geomean(prior)
    change = recent_gm / prior_gm - 1.0
    regressed = change < -tracked.threshold if tracked.higher_is_better else change > tracked.threshold
    improved = change > tracked.threshold if tracked.higher_is_better else change < -tracked.threshold
    status = "regression" if regressed else "improvement" if improved else "stable"
    return Verdict(
        name,
        status,
        tracked.metric,
        recent_geomean=recent_gm,
        prior_geomean=prior_gm,
        change=change,
        samples=len(values),
    )


def check(
    path: str | Path = DEFAULT_HISTORY_FILE, names: list[str] | None = None
) -> list[Verdict]:
    """Verdicts for ``names`` (default: every name in the file)."""
    entries = load(path)
    if names is None:
        seen: list[str] = []
        for entry in entries:
            if entry["name"] not in seen:
                seen.append(entry["name"])
        names = seen
    return [verdict(name, entries) for name in names]


# ----------------------------------------------------------------------
# CLI: python -m repro.obs.history check [--file F] [--name N ...]
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description="Perf-history trend checks over BENCH_history.jsonl.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("check", "show"):
        cmd = sub.add_parser(command)
        cmd.add_argument("--file", default=DEFAULT_HISTORY_FILE)
        cmd.add_argument("--name", action="append", default=None)
    opts = parser.parse_args(argv)
    if opts.command == "show":
        for entry in load(opts.file):
            if opts.name and entry["name"] not in opts.name:
                continue
            print(json.dumps(entry, sort_keys=True))
        return 0
    verdicts = check(opts.file, opts.name)
    failed = False
    for item in verdicts:
        print(item.summary())
        if item.status == "regression":
            failed = True
    if not verdicts:
        print("history: no entries to check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "DEFAULT_HISTORY_FILE",
    "HISTORY_SCHEMA_VERSION",
    "RING_CAP",
    "Tracked",
    "Verdict",
    "append",
    "check",
    "load",
    "metric_value",
    "tracked_for",
    "verdict",
]
