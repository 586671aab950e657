"""Shared machinery for the paper-reproduction benchmarks.

Every ``bench_*.py`` regenerates one paper exhibit; the per-file content
is exactly (docstring, experiment id), so each module is two lines::

    from _harness import exhibit_test

    test_fig9a = exhibit_test("fig9a", "Fig. 9(a) - five-way latency")

:func:`exhibit_test` manufactures the pytest-benchmark test function the
old copies spelled out by hand; :func:`run_and_check` is the underlying
run-render-assert step, still importable directly for ad-hoc use.

Running::

    pytest benchmarks/ --benchmark-only

executes every experiment under pytest-benchmark, prints the regenerated
rows/series plus the paper-shape claim checklist, asserts that every
claim holds, and writes the rendered output to
``benchmarks/results/<id>.txt``.  Set ``REPRO_PAPER_SCALE=1`` for the
full published sweeps (minutes) and ``REPRO_BENCH_JOBS=N`` to fan the
figure sweeps out across worker processes (results are byte-identical
at any job count).
"""

from __future__ import annotations

import pathlib

from repro.bench.figures import run_experiment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_and_check(benchmark, exp_id: str) -> None:
    """Run one experiment under the benchmark fixture and verify claims."""
    result = benchmark.pedantic(run_experiment, args=(exp_id,),
                                rounds=1, iterations=1)
    rendered = result.render()
    print()
    print(rendered)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(rendered)
    failed = result.failed_claims()
    assert not failed, (
        f"{exp_id}: paper-shape claims failed:\n"
        + "\n".join(f"  - {c.text} ({c.detail})" for c in failed)
    )


def exhibit_test(exp_id: str, doc: str = ""):
    """Build the ``test_<exp_id>`` function for one exhibit module."""

    def test(benchmark):
        run_and_check(benchmark, exp_id)

    test.__name__ = f"test_{exp_id}"
    test.__doc__ = doc or f"Regenerate {exp_id} and assert the paper's claims."
    return test
