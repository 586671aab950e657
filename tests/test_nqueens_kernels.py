"""The C core's N-Queens kernels against their Python bodies.

``solver.subtree_sizes`` and ``solver.estimate_leaves`` run
``nqueens_subtree_sizes`` and ``nqueens_probe`` of the C core when it is
loaded; the numpy count and the Python Knuth walk are their contract.
Here both lanes run on the same start states and must agree bit for bit:
the ``nodes`` array and the solution count, the ``leaf_work`` bytes, and
the random stream each leaves behind.
"""

import numpy as np
import pytest

from repro._env import env_flag
from repro.apps.nqueens import KNOWN_SOLUTIONS, build_task_tree, count_solutions
from repro.apps.nqueens import solver
from repro.apps.nqueens.workmodel import NODE_COST
from repro.sim import _speed

pytestmark = pytest.mark.skipif(
    env_flag("REPRO_PURE_ENGINE"),
    reason="REPRO_PURE_ENGINE=1 asks for the Python bodies alone: there is "
           "no C kernel to compare them with")


def _row(n, depth):
    """The start states ``depth`` rows down: ``(cols, ld, rd)``."""
    cols = ld = rd = np.zeros(1, np.int64)
    for _ in range(depth):
        _, cols, ld, rd = solver.expand_level(n, cols, ld, rd)
    return cols, ld, rd


def _exact_cases():
    cases = [(n, d) for n in range(1, 13) for d in range(n + 1)]
    return cases + [(13, 5), (14, 3)]


class TestExactCounts:
    @pytest.mark.parametrize("n,depth", _exact_cases(),
                             ids=lambda v: str(v))
    def test_c_equals_numpy(self, n, depth):
        cols, ld, rd = _row(n, depth)
        nodes, solutions = solver.subtree_sizes(n, depth, cols, ld, rd)
        want_nodes, want_solutions = solver._subtree_sizes_py(
            n, depth, cols, ld, rd)
        assert nodes.dtype == np.int64
        assert nodes.tobytes() == want_nodes.tobytes()
        assert type(solutions) is int and solutions == want_solutions

    def test_published_counts_through_c(self, monkeypatch):
        def no_numpy(*args):
            raise AssertionError("the numpy body ran with the C core bound")

        monkeypatch.setattr(solver, "_subtree_sizes_py", no_numpy)
        for n in range(1, 14):
            assert count_solutions(n) == KNOWN_SOLUTIONS[n]


def _probe_cases():
    cases = [(n, d, seed, probes) for n in range(8, 15) for d in (1, 2)
             for seed in (0, 5, 1234) for probes in (1, 4)]
    return cases + [(14, 3, 1234, 4)]


class TestProbes:
    @pytest.mark.parametrize("n,depth,seed,probes", _probe_cases(),
                             ids=lambda v: str(v))
    def test_c_equals_python_byte_for_byte(self, n, depth, seed, probes):
        tree = build_task_tree(n, depth, mode="estimate", seed=seed,
                               probes=probes)
        rng = np.random.default_rng(seed)
        want = solver._estimate_leaves_py(n, depth, *_row(n, depth), rng,
                                          probes) * NODE_COST
        assert tree.leaf_work.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 5, 1234])
    def test_the_stream_continues_alike(self, seed):
        states = _row(11, 3)
        c_rng, py_rng = (np.random.default_rng(seed) for _ in range(2))
        solver.estimate_leaves(11, 3, *states, c_rng, 4)
        solver._estimate_leaves_py(11, 3, *states, py_rng, 4)
        assert c_rng.bit_generator.state == py_rng.bit_generator.state
        assert c_rng.integers(1 << 40) == py_rng.integers(1 << 40)


class TestRejected:
    def test_wider_than_the_columns(self):
        states = [np.zeros(1, np.int64)] * 3
        with pytest.raises(ValueError, match="at most 61, got 62"):
            _speed.core.nqueens_subtree_sizes(62, *states,
                                              np.empty(1, np.int64))
        bitgen = np.random.default_rng(0).bit_generator
        with pytest.raises(ValueError, match="at most 61, got 62"):
            _speed.core.nqueens_probe(62, 0, *states, bitgen.capsule, 4,
                                      np.empty(1))

    def test_lengths_must_agree(self):
        cols, ld, rd = _row(8, 2)
        with pytest.raises(ValueError, match="same length"):
            _speed.core.nqueens_subtree_sizes(8, cols, ld, rd[:-1],
                                              np.empty(len(cols), np.int64))
        with pytest.raises(ValueError, match="same length"):
            _speed.core.nqueens_subtree_sizes(8, cols, ld, rd,
                                              np.empty(1, np.int64))
        bitgen = np.random.default_rng(0).bit_generator
        with pytest.raises(ValueError, match="same length"):
            _speed.core.nqueens_probe(8, 2, cols, ld, rd, bitgen.capsule, 4,
                                      np.empty(len(cols) + 1))

    def test_probes_below_one_before_any_draw(self):
        cols, ld, rd = _row(8, 2)
        bitgen = np.random.default_rng(0).bit_generator
        before = bitgen.state
        with pytest.raises(ValueError, match="probes must be at least 1"):
            _speed.core.nqueens_probe(8, 2, cols, ld, rd, bitgen.capsule, 0,
                                      np.empty(len(cols)))
        assert bitgen.state == before
