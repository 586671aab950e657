"""Every paper exhibit, one test per id of ``repro.bench.figures.EXPERIMENTS``
(``-k fig9a`` selects one; ``-k "[fig1]"`` where an id prefixes another):
regenerated, its paper-shape claims asserted, its rendering rewritten."""

import pytest
from _harness import run_and_check

from repro.bench.figures import EXPERIMENTS


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_exhibit(benchmark, exp_id):
    run_and_check(benchmark, exp_id)
