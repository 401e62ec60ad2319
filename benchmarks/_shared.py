"""Shared infrastructure for the figure benchmarks.

Every bench in this directory regenerates one figure (or claim table) of the
paper.  The heavy lifting lives in :mod:`repro.experiments.figures`; this
module provides:

* ``FIGURE_DEFAULTS`` -- the run sizes used by the benches (larger than the
  unit-test sizes, small enough that the whole harness finishes in minutes);
* a per-session cache so figure panels that share a parameter sweep
  (e.g. Fig. 5(a) latency and Fig. 5(c) throughput on Grid'5000) run the
  sweep once;
* ``emit_report`` -- prints the regenerated rows/series and also writes them
  to ``benchmarks/results/<name>.txt`` so they survive pytest's output
  capture;
* ``write_benchmark_json`` -- the one way benches persist ``BENCH_*.json``
  result files: it refuses placeholder values, so a half-finished benchmark
  can never masquerade as a recorded result again (a ``PLACEHOLDER``
  baseline label once survived a whole PR in ``BENCH_fabric.json``), and it
  stamps every file with the ``provenance`` of the machine and commit that
  produced the numbers.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from typing import Callable, Dict, List, Optional

import numpy

from repro.experiments.figures import FigureDefaults
from repro.metrics.report import MetricsReport

#: Run sizes for the benches.  The paper runs 3-10 million operations on
#: 84/20-node clusters; these defaults keep the shapes while finishing each
#: figure in about a minute on a laptop.  Scale up for higher fidelity.
FIGURE_DEFAULTS = FigureDefaults(
    record_count=1500,
    operation_count=6000,
    thread_steps=(1, 15, 40, 70, 90),
    n_nodes=10,
    seed=11,
    monitoring_interval=0.05,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_cache: Dict[str, MetricsReport] = {}


def cached_report(key: str, builder: Callable[[], MetricsReport]) -> MetricsReport:
    """Build (or reuse) a report shared by several benches in one session."""
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


#: Substrings that mark a value as "not actually measured".  Matching is
#: case-sensitive on purpose: these appear as deliberate ALL-CAPS markers.
PLACEHOLDER_TOKENS = ("PLACEHOLDER", "TBD", "FIXME", "CHANGEME")


class PlaceholderValueError(ValueError):
    """A benchmark result contained a placeholder instead of a measurement."""


def assert_no_placeholders(value: object, path: str = "$") -> None:
    """Recursively reject placeholder strings and non-finite numbers.

    Benchmark JSON is the repo's performance memory; a placeholder that
    lands there silently becomes "the recorded baseline" for every later
    comparison.  Raises :class:`PlaceholderValueError` naming the offending
    path.
    """
    if isinstance(value, str):
        for token in PLACEHOLDER_TOKENS:
            if token in value:
                raise PlaceholderValueError(
                    f"placeholder marker {token!r} at {path}: {value!r}"
                )
    elif isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise PlaceholderValueError(f"non-finite number at {path}: {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_no_placeholders(key, f"{path}.{key}")
            assert_no_placeholders(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            assert_no_placeholders(item, f"{path}[{index}]")


class RepetitionMismatchError(ValueError):
    """A benchmark's ``repetitions`` field disagrees with its per-rep lists."""


def assert_repetitions_consistent(report: Dict[str, object], path: str = "$") -> None:
    """Check that ``repetitions`` matches the length of every ``*all_reps*`` list.

    ``BENCH_fabric.json`` once claimed ``"repetitions": 3`` while recording
    four entries in ``optimized_all_reps_ops_per_wall_s`` -- metadata that
    lies about its own sample count poisons every later comparison.  The
    check recurses into nested dicts *and* lists of dicts, so a per-run
    section kept inside a list is checked too.  Plain value lists that are
    not ``*all_reps*`` samples (e.g. a list of scenario names) are left
    alone.
    """
    if not isinstance(report, dict):
        return
    repetitions = report.get("repetitions")
    for key, value in report.items():
        if isinstance(value, dict):
            assert_repetitions_consistent(value, f"{path}.{key}")
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                if isinstance(item, dict):
                    assert_repetitions_consistent(item, f"{path}.{key}[{index}]")
            if (
                isinstance(key, str)
                and "all_reps" in key
                and isinstance(repetitions, int)
                and len(value) != repetitions
            ):
                raise RepetitionMismatchError(
                    f"{path}.{key} has {len(value)} entries but {path}.repetitions "
                    f"says {repetitions}"
                )


def _git(args: List[str]) -> Optional[str]:
    """Output of one git command run in the repository, or ``None`` when git
    is missing or the checkout is not a git work tree (e.g. an exported
    archive)."""
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(RESULTS_DIR),
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip()


def provenance() -> Dict[str, object]:
    """Where a benchmark number came from: cores, platform, interpreter,
    numpy and the git commit (``dirty`` when tracked files differ from it).

    Git fields are ``None`` when git cannot answer, never a made-up value.
    """
    sha = _git(["rev-parse", "HEAD"])
    status = _git(["status", "--porcelain", "--untracked-files=no"]) if sha else None
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def write_benchmark_json(path: str, report: Dict[str, object]) -> None:
    """Validate and persist one ``BENCH_*.json`` result file.

    Adds (or refreshes) the report's ``provenance`` block in place, so the
    caller's copy and the file carry the same record.
    """
    report["provenance"] = provenance()
    assert_no_placeholders(report)
    assert_repetitions_consistent(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=str)
        handle.write("\n")


def emit_report(name: str, report: MetricsReport) -> str:
    """Print the report and persist it under ``benchmarks/results``."""
    text = report.render()
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return text
