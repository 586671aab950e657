"""``app_msgs`` is defined apart from the program; here the two must meet."""

import pytest

import workloads as W

TINY = 10  # the --quick divisor


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_definition_matches_program_at_tiny_size(name):
    workload = W.WORKLOADS[name]
    out = workload.run(workload.inputs(0), 0, TINY)
    checks = W.generic_checks(workload, out, TINY)
    assert all(checks.values()), checks
    assert out.machines, "Machine no longer offers itself to bind_machine"
    assert out.msgs == workload.app_msgs(TINY) + workload.bootstrap_msgs(TINY)


def test_kneighbor_formula():
    # 64 cores x 2k=8 neighbours x (message + ping-back) x (80 + 3 warm-up)
    assert W.WORKLOADS["knb_small"].app_msgs(1) == 64 * 8 * 2 * 83
    assert W.WORKLOADS["knb_10k"].app_msgs(1) == 10240 * 2 * 2 * 1
    assert W.WORKLOADS["knb_10k"].bootstrap_msgs(1) == 10239


def test_scaling_keeps_the_shape():
    small = W.Knb(256, iters=80).scaled(5)
    assert (small.iters, small.n_cores) == (16, 64)
    wide = W.Knb(32, iters=1, n_cores=10240, k=1, warmup=0).scaled(5)
    assert (wide.iters, wide.n_cores) == (1, 2048)


def test_seed_reaches_the_inputs():
    nq = W.WORKLOADS["nqueens_dyn"]
    tree = nq.inputs(0)
    a = W.sim_checksum(nq.run(tree, 1, TINY).sim)
    b = W.sim_checksum(nq.run(tree, 2, TINY).sim)
    assert a != b and a == W.sim_checksum(nq.run(tree, 1, TINY).sim)


def test_every_workload_records_why():
    assert len(W.WORKLOADS) == 7
    for workload in W.WORKLOADS.values():
        assert 20 < len(workload.why) <= 200
