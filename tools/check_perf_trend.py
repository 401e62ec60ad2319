#!/usr/bin/env python
"""Perf-trend guard: fail CI when the fabric benchmark regresses.

Compares a freshly-measured ``bench_fabric.py`` result against the recorded
``BENCH_fabric.json`` baseline committed at the repository root and exits
non-zero when the hot path regressed by more than ``--max-regression``
(default 25%).

Two metrics are compared:

* ``optimized.ops_per_wall_s`` -- the headline simulated-ops-per-wall-second
  number, compared only when the fresh run used the **same benchmark
  configuration** (record/operation/thread counts and seed) as the recorded
  baseline; comparing across run sizes would be meaningless;
* ``speedup_vs_legacy_fabric`` -- the optimized-vs-legacy-fabric ratio
  measured within one process on one machine.  Both configurations run the
  identical workload, so the ratio cancels out machine speed: a CI runner
  half as fast as the laptop that recorded the baseline still reproduces
  the ratio, and a change that slows the optimized path shrinks it.

At least one metric must be comparable, otherwise the guard fails loudly
(a guard that silently compares nothing guards nothing).

Usage::

    python tools/check_perf_trend.py --fresh BENCH_fabric_fresh.json \
        [--baseline BENCH_fabric.json] [--max-regression 0.25]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_fabric.json")

#: The SCALE_100 hot path carries its own tighter floor: foreground
#: messages must keep the bandwidth-model fast path, so the headline
#: ops/wall-s number may not regress more than 5% even when the general
#: ``--max-regression`` budget is looser.
SCALE_100_MAX_REGRESSION = 0.05


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _ratio_metric(report: Dict[str, object]) -> Optional[float]:
    value = report.get("speedup_vs_legacy_fabric")
    return float(value) if value is not None else None


def _ops_metric(report: Dict[str, object]) -> Optional[float]:
    optimized = report.get("optimized")
    if not isinstance(optimized, dict):
        return None
    value = optimized.get("ops_per_wall_s")
    return float(value) if value is not None else None


def compare(
    fresh: Dict[str, object], baseline: Dict[str, object], max_regression: float
) -> Tuple[List[str], List[str]]:
    """Returns (report lines, failure lines)."""
    lines: List[str] = []
    failures: List[str] = []

    def check(
        name: str,
        fresh_value: Optional[float],
        base_value: Optional[float],
        allowed: Optional[float] = None,
    ) -> bool:
        budget = max_regression if allowed is None else allowed
        if fresh_value is None or base_value is None or base_value <= 0:
            return False
        change = fresh_value / base_value - 1.0
        lines.append(
            f"{name}: fresh={fresh_value:.3f} baseline={base_value:.3f} "
            f"({change:+.1%})"
        )
        if change < -budget:
            failures.append(
                f"{name} regressed {-change:.1%} (> {budget:.0%} allowed)"
            )
        return True

    compared = False
    same_scenario = fresh.get("scenario") == baseline.get("scenario")
    if same_scenario and fresh.get("config") == baseline.get("config"):
        # The SCALE_100 hot path gets the tighter bandwidth-model floor.
        allowed = (
            min(max_regression, SCALE_100_MAX_REGRESSION)
            if fresh.get("scenario") == "scale_100"
            else None
        )
        compared |= check(
            "optimized ops_per_wall_s",
            _ops_metric(fresh),
            _ops_metric(baseline),
            allowed=allowed,
        )
    else:
        lines.append(
            "configs differ -- skipping the ops/s comparison "
            f"(fresh={fresh.get('config')} baseline={baseline.get('config')})"
        )
    if same_scenario:
        compared |= check(
            "speedup_vs_legacy_fabric", _ratio_metric(fresh), _ratio_metric(baseline)
        )
    else:
        lines.append(
            "scenarios differ -- skipping the speedup-ratio comparison "
            f"(fresh={fresh.get('scenario')} baseline={baseline.get('scenario')})"
        )
    if not compared:
        failures.append("no comparable metric between fresh and baseline reports")
    return lines, failures


def _steady_state_bytes(report: Dict[str, object]) -> Optional[float]:
    """Per-session steady-state repair bytes of one BENCH_repair report."""
    steady = report.get("steady_state")
    if not isinstance(steady, dict):
        return None
    value = steady.get("incremental", {}).get("bytes_per_session")
    return float(value) if value is not None else None


def _steady_state_reduction(report: Dict[str, object]) -> Optional[float]:
    steady = report.get("steady_state")
    if not isinstance(steady, dict):
        return None
    value = steady.get("full_vs_incremental_bytes_ratio")
    return float(value) if value is not None else None


def compare_repair(
    fresh: Dict[str, object], baseline: Dict[str, object], max_regression: float
) -> Tuple[List[str], List[str]]:
    """Guard the repair benchmark's steady-state session bytes.

    Both metrics are byte counts over deterministic sessions, so they are
    machine-independent: a fresh run on any hardware must reproduce the
    committed steady-state economics.  ``bytes_per_session`` may not grow
    more than ``max_regression`` over the baseline, and the full-keyspace
    vs incremental reduction ratio may not shrink below 5x (the recorded
    acceptance floor) or ``max_regression`` under the baseline's ratio.

    The fresh report must also carry the ``bandwidth_contention`` section
    with every claim holding: bandwidth-on shows measurable contention
    (foreground read p99 inflated over the bandwidth-off arm during the
    repair storm) and the ``wan_budget_bytes_per_s`` throttle bounds that
    inflation while recovery still completes in every arm.  These are
    virtual-time measurements of a deterministic simulation, so any
    hardware reproduces them.
    """
    lines: List[str] = []
    failures: List[str] = []
    contention = fresh.get("bandwidth_contention")
    if not isinstance(contention, dict):
        failures.append("bandwidth_contention section missing from the fresh repair report")
    else:
        claims = contention.get("claims", {})
        summary = " ".join(f"{name}={bool(value)}" for name, value in sorted(claims.items()))
        lines.append(f"bandwidth contention claims: {summary or '(none)'}")
        if not claims:
            failures.append("bandwidth_contention.claims missing from the fresh repair report")
        for name, value in sorted(claims.items()):
            if value is not True:
                failures.append(f"bandwidth contention claim failed: {name}")
    fresh_bytes = _steady_state_bytes(fresh)
    base_bytes = _steady_state_bytes(baseline)
    if fresh_bytes is None or base_bytes is None:
        failures.append("steady_state.incremental.bytes_per_session missing from a report")
        return lines, failures
    growth = fresh_bytes / base_bytes - 1.0 if base_bytes > 0 else 0.0
    lines.append(
        f"steady-state repair bytes/session: fresh={fresh_bytes:.0f} "
        f"baseline={base_bytes:.0f} ({growth:+.1%})"
    )
    if growth > max_regression:
        failures.append(
            f"steady-state repair bytes/session grew {growth:.1%} "
            f"(> {max_regression:.0%} allowed)"
        )
    fresh_ratio = _steady_state_reduction(fresh)
    base_ratio = _steady_state_reduction(baseline)
    if fresh_ratio is not None and base_ratio is not None:
        lines.append(
            f"full-vs-incremental byte reduction: fresh={fresh_ratio:.1f}x "
            f"baseline={base_ratio:.1f}x"
        )
        if fresh_ratio < 5.0:
            failures.append(
                f"full-vs-incremental reduction {fresh_ratio:.1f}x fell under the 5x floor"
            )
        elif fresh_ratio < base_ratio * (1.0 - max_regression):
            failures.append(
                f"full-vs-incremental reduction shrank to {fresh_ratio:.1f}x "
                f"(baseline {base_ratio:.1f}x)"
            )
    return lines, failures


def compare_staleness(
    fresh: Dict[str, object], baseline: Dict[str, object], max_regression: float
) -> Tuple[List[str], List[str]]:
    """Guard the staleness benchmark's machine-independent invariants.

    The staleness bench records claims that hold on any hardware (the
    simulation is deterministic, so a fresh run reproduces the physics, not
    the wall-clock): quorum reads measure exactly zero staleness,
    t-visibility is monotone, the write-aware estimator upper-bounds every
    measurement, and same-seed runs are byte-identical.  A fresh report
    must re-establish all of them.  When the fresh run used the same
    configuration as the baseline, the estimator's worst-case relative
    error additionally may not grow by more than ``max_regression`` --
    catching silent drift in the closed-form model or the auditor.
    """
    lines: List[str] = []
    failures: List[str] = []
    if "claims_hold" not in fresh or "deterministic" not in fresh:
        failures.append("staleness report is missing claims_hold/deterministic")
        return lines, failures
    lines.append(
        f"staleness claims_hold={fresh['claims_hold']} "
        f"deterministic={fresh['deterministic']}"
    )
    if not fresh["deterministic"]:
        failures.append("staleness bench: same-seed runs diverged")
    if not fresh["claims_hold"]:
        failures.append(
            "staleness bench: a machine-independent claim failed "
            "(quorum overlap, t-visibility monotonicity, write-quorum "
            "direction, or estimator conservativeness)"
        )
    fresh_error = fresh.get("eventual_max_relative_error")
    base_error = baseline.get("eventual_max_relative_error")
    if fresh.get("config") == baseline.get("config"):
        if fresh_error is not None and base_error is not None:
            growth = float(fresh_error) - float(base_error)
            lines.append(
                f"estimator max relative error: fresh={float(fresh_error):.4f} "
                f"baseline={float(base_error):.4f} ({growth:+.4f})"
            )
            if growth > max_regression:
                failures.append(
                    f"estimator max relative error grew {growth:.4f} "
                    f"(> {max_regression:.2f} allowed)"
                )
    else:
        lines.append(
            "staleness configs differ -- skipping the estimator-error comparison"
        )
    return lines, failures


def compare_elasticity(
    fresh: Dict[str, object], baseline: Dict[str, object], max_regression: float
) -> Tuple[List[str], List[str]]:
    """Guard the elasticity benchmark's machine-independent claims.

    Every headline quantity in ``BENCH_elasticity.json`` is virtual-time or
    a deterministic count, so a fresh run on any hardware must reproduce
    the economics exactly:

    * ``adaptive_beats_all_static`` -- the demand-driven arm's cost x p99
      score beats every static ring size it can reach;
    * ``deterministic`` -- two same-seed adaptive runs were byte-identical
      (decisions, transitions and scores included);
    * ``zero_pending_read_violations`` -- no read ever contacted a
      pending-range node mid-bootstrap/decommission.

    When fresh and baseline share a configuration, the adaptive score
    (lower is better) additionally may not grow by more than
    ``max_regression`` over the recorded baseline.
    """
    lines: List[str] = []
    failures: List[str] = []
    for claim in ("adaptive_beats_all_static", "deterministic", "zero_pending_read_violations"):
        value = fresh.get(claim)
        lines.append(f"elasticity {claim}={value}")
        if value is not True:
            failures.append(f"elasticity bench: {claim} does not hold in the fresh run")
    fresh_score = fresh.get("adaptive", {}).get("score")
    base_score = baseline.get("adaptive", {}).get("score")
    if fresh.get("config") == baseline.get("config"):
        if fresh_score is not None and base_score is not None and float(base_score) > 0:
            growth = float(fresh_score) / float(base_score) - 1.0
            lines.append(
                f"elasticity adaptive score: fresh={float(fresh_score):.4f} "
                f"baseline={float(base_score):.4f} ({growth:+.1%})"
            )
            if growth > max_regression:
                failures.append(
                    f"elasticity adaptive score grew {growth:.1%} "
                    f"(> {max_regression:.0%} allowed; lower is better)"
                )
        else:
            failures.append("elasticity report is missing adaptive.score")
    else:
        lines.append("elasticity configs differ -- skipping the score comparison")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, help="freshly measured BENCH JSON")
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, help="recorded baseline BENCH JSON"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="maximum tolerated fractional regression (default 0.25)",
    )
    parser.add_argument(
        "--repair-fresh",
        default=None,
        help="freshly measured BENCH_repair JSON (adds the machine-independent "
        "steady-state repair-bytes guard)",
    )
    parser.add_argument(
        "--repair-baseline",
        default=os.path.join(REPO_ROOT, "BENCH_repair.json"),
        help="recorded BENCH_repair baseline (used with --repair-fresh)",
    )
    parser.add_argument(
        "--staleness-fresh",
        default=None,
        help="freshly measured BENCH_staleness JSON (adds the machine-"
        "independent staleness-claims and estimator-error guard)",
    )
    parser.add_argument(
        "--staleness-baseline",
        default=os.path.join(REPO_ROOT, "BENCH_staleness.json"),
        help="recorded BENCH_staleness baseline (used with --staleness-fresh)",
    )
    parser.add_argument(
        "--elasticity-fresh",
        default=None,
        help="freshly measured BENCH_elasticity JSON (adds the machine-"
        "independent adaptive-beats-static and determinism guard)",
    )
    parser.add_argument(
        "--elasticity-baseline",
        default=os.path.join(REPO_ROOT, "BENCH_elasticity.json"),
        help="recorded BENCH_elasticity baseline (used with --elasticity-fresh)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.max_regression < 1:
        parser.error("--max-regression must be in (0, 1)")

    fresh = _load(args.fresh)
    baseline = _load(args.baseline)
    lines, failures = compare(fresh, baseline, args.max_regression)
    if args.repair_fresh is not None:
        repair_lines, repair_failures = compare_repair(
            _load(args.repair_fresh), _load(args.repair_baseline), args.max_regression
        )
        lines.extend(repair_lines)
        failures.extend(repair_failures)
    if args.staleness_fresh is not None:
        staleness_lines, staleness_failures = compare_staleness(
            _load(args.staleness_fresh),
            _load(args.staleness_baseline),
            args.max_regression,
        )
        lines.extend(staleness_lines)
        failures.extend(staleness_failures)
    if args.elasticity_fresh is not None:
        elasticity_lines, elasticity_failures = compare_elasticity(
            _load(args.elasticity_fresh),
            _load(args.elasticity_baseline),
            args.max_regression,
        )
        lines.extend(elasticity_lines)
        failures.extend(elasticity_failures)
    for line in lines:
        print(line)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf trend OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
