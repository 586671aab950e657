"""Shared machinery for the paper-reproduction benchmarks.

``bench_exhibits.py`` holds one test per exhibit; :func:`run_and_check` is
the run-render-assert step behind each: run the experiment under
pytest-benchmark, print the rows/series and the paper-shape claim
checklist, assert every claim, write ``benchmarks/results/<id>.txt`` —
deterministic, so the committed files are the fidelity gate (CI: both
engine lanes, then ``git diff --exit-code benchmarks/results``).
``REPRO_PAPER_SCALE=1`` runs the published sweeps (minutes; not what is
committed), ``REPRO_BENCH_JOBS=N`` fans sweeps out, byte-identically.
"""

from __future__ import annotations

import pathlib

from repro.bench.figures import run_experiment
from repro.observe import lane_report

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_and_check(benchmark, exp_id: str) -> None:
    """Run one experiment under the benchmark fixture and verify claims."""
    result = benchmark.pedantic(run_experiment, args=(exp_id,),
                                rounds=1, iterations=1)
    rendered = result.render()
    print()
    print(lane_report())  # stdout only: the result file is lane-independent
    print(rendered)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(rendered)
    failed = result.failed_claims()
    assert not failed, (
        f"{exp_id}: paper-shape claims failed:\n"
        + "\n".join(f"  - {c.text} ({c.detail})" for c in failed)
    )
