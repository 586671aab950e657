"""Tests for the N-Queens solver, work model, and Charm application."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.apps.nqueens import (
    KNOWN_SOLUTIONS,
    build_task_tree,
    count_solutions,
    estimate_subtree_nodes,
    run_nqueens,
    solve_subtree,
)
from repro.apps.nqueens.solver import (ROOT, estimate_leaves, expand_level,
                                      subtree_sizes)
from repro.apps.nqueens.workmodel import paper_threshold_to_depth
from repro.hardware.config import tiny as tiny_config
from repro.sim import _speed
from tests import _reference_nqueens as ref


def _prefixes(n, depth):
    """Valid placements of the first ``depth`` queens, by the oracle."""
    level = [ref.ROOT]
    for _ in range(depth):
        level = [kid for state in level for kid in ref.expand(n, state)]
    return level


class TestSolver:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_exact_counts_match_published(self, n):
        assert count_solutions(n) == KNOWN_SOLUTIONS[n]

    def test_twelve_queens(self):
        assert count_solutions(12) == 14200

    def test_expand_respects_constraints(self):
        """Brute-force check: expansions never attack each other."""
        n = 6
        cols = ld = rd = np.zeros(1, np.int64)
        # placements[i] is the column chosen in each row so far
        placements = np.zeros((1, 0), np.int64)
        for _ in range(n):
            counts, kids, ld, rd = expand_level(n, cols, ld, rd)
            new_col = np.bitwise_count((kids ^ np.repeat(cols, counts)) - 1)
            placements = np.column_stack(
                [np.repeat(placements, counts, axis=0), new_col])
            cols = kids

        assert len(placements) == KNOWN_SOLUTIONS[n]
        for p in placements.tolist():
            assert len(set(p)) == n  # distinct columns
            for i in range(n):
                for j in range(i + 1, n):
                    assert abs(p[i] - p[j]) != j - i  # no diagonal attacks

    def test_subtree_nodes_positive_and_consistent(self):
        nodes, sols = solve_subtree(8, ROOT)
        assert sols == 92
        assert nodes > sols  # internal nodes exist

    def test_valid_prefix_counts(self):
        # depth 1 always has n prefixes
        assert len(_prefixes(9, 1)) == 9
        # depth n prefixes are exactly the solutions
        assert len(_prefixes(7, 7)) == KNOWN_SOLUTIONS[7]

    def test_prefixes_shrink_ratio(self):
        deep = len(_prefixes(10, 5))
        shallow = len(_prefixes(10, 2))
        assert deep > shallow

    def test_estimator_unbiasedness(self):
        """Knuth estimator averaged over many probes ≈ exact node count."""
        n = 9
        exact_nodes, _ = solve_subtree(n, ROOT)
        rng = np.random.default_rng(7)
        est = estimate_subtree_nodes(n, ROOT, rng, probes=3000)
        assert est == pytest.approx(exact_nodes, rel=0.15)

    def test_estimator_deterministic_given_rng(self):
        a = estimate_subtree_nodes(10, ROOT, np.random.default_rng(3), probes=8)
        b = estimate_subtree_nodes(10, ROOT, np.random.default_rng(3), probes=8)
        assert a == b


class TestColumnsMatchTupleOracle:
    """The ``int64`` columns against the frozen one-tuple-per-node search."""

    @pytest.mark.parametrize("n", range(1, 12))
    def test_every_state_at_every_depth(self, n):
        cols = ld = rd = np.zeros(1, np.int64)
        states = [ref.ROOT]
        for row in range(n + 1):
            assert list(zip(cols.tolist(), ld.tolist(), rd.tolist())) == [
                s[:3] for s in states]
            nodes, solutions = subtree_sizes(n, row, cols, ld, rd)
            expect = [ref.solve_subtree(n, s) for s in states]
            assert nodes.dtype == np.int64
            assert nodes.tolist() == [nd for nd, _ in expect]
            assert solutions == sum(sol for _, sol in expect)
            if row == n or not states:
                break
            kids = [list(ref.expand(n, s)) for s in states]
            counts, cols, ld, rd = expand_level(n, cols, ld, rd)
            assert counts.tolist() == [len(k) for k in kids]
            states = [c for k in kids for c in k]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_state_at_a_time(self, n):
        states = [ref.ROOT]
        while states:
            for s in states:
                assert solve_subtree(n, s) == ref.solve_subtree(n, s)
            states = [c for s in states for c in ref.expand(n, s)]


def _digest(arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


#: (mode, n, spawn depth): leaf_work sha256, children sha256,
#: expansion_counts, solutions -- built by the tuple search, seed 5
_TREE_PINS = {
    ("exact", 8, 3): (
        "3cf76551a3a6556eefd06bd7a0e01c564b31c9adfca14be2d7b74516dc292923",
        "d55691f2cb682f1fd537e479e1354a3ca5aad615fe1f2f1501dd4881b55ec6a5",
        [1, 8, 42], 92),
    ("exact", 12, 3): (
        "392a78d7f930026d3f1f0418b656ee37366da86aaafe1085ea66912a811d620f",
        "ae0011ae1a962da2d0b2216bdda7faa2badc4af7de26188edf0ea8adc93be910",
        [1, 12, 110], 14200),
    ("exact", 13, 5): (
        "86c273ed1df56a36f2de04756f57368dc8e4857963f19eb39a33d251227f1681",
        "a0547001acce157703366801b1bcd4a177185b1f0a149e58621324dfcede2210",
        [1, 13, 132, 1030, 6404], 73712),
    ("estimate", 11, 3): (
        "3e7cc6b4f6f96a89fb2a4f8812c09906dd1ea6d4ca376e3b279ef78d9128b50c",
        "63069d7ae3f3181b17532b963801d8627842bf1ae97fddb5905c61f0b6510b30",
        [1, 11, 90], None),
    ("estimate", 12, 4): (
        "2c9e8c0c21d44364b3067fde6d432a677c6fabb054925f90b64dfeb0d8d550c5",
        "e2145259e7e2658b22fb3b1b10b9233e02bc3b0b3eadc171efa273a95ceb42f6",
        [1, 12, 110, 756], None),
}


class TestTreePins:
    @pytest.mark.parametrize("key", sorted(_TREE_PINS),
                             ids=lambda k: "-".join(map(str, k)))
    def test_tree_is_bit_identical(self, key):
        mode, n, depth = key
        tree = build_task_tree(n, depth, mode=mode, seed=5)
        assert tree.leaf_work.dtype == np.float64
        assert all(k.dtype == np.int64 for k in tree.children)
        assert (_digest([tree.leaf_work]), _digest(tree.children),
                tree.expansion_counts, tree.solutions) == _TREE_PINS[key]

    def test_solutions_is_a_python_int(self):
        # a numpy scalar would change the exhibits' reprs
        assert type(build_task_tree(8, 3, mode="exact").solutions) is int
        assert type(count_solutions(8)) is int
        assert type(solve_subtree(8, ROOT)[0]) is int

    def test_board_wider_than_the_columns_rejected(self):
        with pytest.raises(ValueError, match="at most 61"):
            build_task_tree(62, 3, mode="exact")

    def test_build_memory_bounded(self):
        """The chunk bounds the widest row: the 13-Queens tree a perf
        workload builds stays within 4 MB of traced allocations."""
        tracemalloc.start()
        try:
            build_task_tree(13, 5, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestWorkModel:
    def test_exact_tree_totals(self):
        tree = build_task_tree(8, 3, mode="exact")
        assert tree.solutions == 92
        # leaf tasks = valid prefixes at threshold depth
        assert tree.n_leaf_tasks == len(_prefixes(8, 3))
        # expansion tasks = prefixes above the threshold
        assert tree.expansion_counts == [1, 8, len(_prefixes(8, 2))]

    def test_task_count_grows_with_threshold(self):
        t5 = build_task_tree(10, 5, mode="exact")
        t3 = build_task_tree(10, 3, mode="exact")
        assert t5.n_tasks > t3.n_tasks
        # and the mean grain shrinks
        assert t5.mean_leaf_grain() < t3.mean_leaf_grain()

    def test_estimate_mode_close_to_exact_total(self):
        exact = build_task_tree(11, 4, mode="exact")
        est = build_task_tree(11, 4, mode="estimate", probes=32, seed=5)
        assert est.total_leaf_work == pytest.approx(exact.total_leaf_work,
                                                    rel=0.25)
        assert est.solutions is None

    def test_serial_time_includes_expansions(self):
        tree = build_task_tree(8, 3, mode="exact")
        assert tree.serial_time > tree.total_leaf_work

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_task_tree(8, 0)
        with pytest.raises(ValueError):
            build_task_tree(8, 8)

    def test_bad_depth_message_names_the_spawn_depth(self):
        with pytest.raises(ValueError,
                           match=r"spawn depth must be in \[1, 5\], got 7"):
            build_task_tree(6, 7)
        with pytest.raises(
                ValueError,
                match=r"threshold 9 maps to spawn depth 7, "
                      r"which must be in \[1, 5\]"):
            run_nqueens(6, 9, 4)

    @pytest.mark.parametrize("lane", ["c_core", "python"])
    @pytest.mark.parametrize("probes", [0, -1])
    def test_probes_below_one_rejected_before_any_draw(
            self, lane, probes, monkeypatch):
        if lane == "python":
            monkeypatch.setattr(_speed, "core", None)
        elif _speed.core is None:
            pytest.skip("the C core is not loaded (REPRO_PURE_ENGINE=1)")
        with pytest.raises(ValueError,
                           match=f"probes must be at least 1, got {probes}"):
            build_task_tree(8, 2, mode="estimate", probes=probes)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        cols = ld = rd = np.zeros(1, np.int64)
        with pytest.raises(ValueError, match="probes must be at least 1"):
            estimate_leaves(8, 0, cols, ld, rd, rng, probes)
        assert rng.bit_generator.state == before

    def test_unknown_mode_rejected(self):
        match = "'exact' \\| 'estimate' \\| 'auto'.*'exakt'"
        with pytest.raises(ValueError, match=match):
            build_task_tree(8, 3, mode="exakt")


class TestApp:
    def _run(self, layer="ugni", n_pes=8, n=8, threshold=3, **kw):
        return run_nqueens(n, threshold, n_pes, layer=layer,
                           config=tiny_config(), **kw)

    def test_all_tasks_execute_exactly_once(self):
        res = self._run()
        # run_nqueens maps the nominal threshold to a spawn depth
        tree = build_task_tree(8, paper_threshold_to_depth(3),
                               mode="exact", seed=1)
        assert res.n_tasks == tree.n_tasks
        # the run itself already asserts conservation internally
        assert res.messages_sent >= res.n_tasks - 1

    @pytest.mark.parametrize("n,threshold", [(10, 7), (10, 4), (8, 5)])
    def test_a_tree_for_another_search_rejected(self, n, threshold):
        tree = build_task_tree(8, paper_threshold_to_depth(4), mode="exact")
        with pytest.raises(ValueError, match="8-Queens search to spawn "
                                             "depth 2"):
            run_nqueens(n, threshold, 16, tree=tree)

    def test_speedup_with_more_pes(self):
        t4 = self._run(n_pes=4, n=10, threshold=4).total_time
        t16 = self._run(n_pes=16, n=10, threshold=4).total_time
        assert t16 < t4

    def test_ugni_faster_than_mpi_at_scale(self):
        """The Fig 11 direction: fine-grain tasks favour the uGNI layer."""
        r_ugni = self._run(layer="ugni", n_pes=16, n=10, threshold=5)
        r_mpi = self._run(layer="mpi", n_pes=16, n=10, threshold=5)
        assert r_ugni.total_time < r_mpi.total_time

    def test_overhead_fraction_higher_on_mpi(self):
        r_ugni = self._run(layer="ugni", n_pes=16, n=10, threshold=5)
        r_mpi = self._run(layer="mpi", n_pes=16, n=10, threshold=5)
        assert r_mpi.utilization["overhead"] > r_ugni.utilization["overhead"]

    def test_deterministic_given_seed(self):
        a = self._run(seed=3)
        b = self._run(seed=3)
        assert a.total_time == b.total_time
        assert a.messages_sent == b.messages_sent

    def test_different_seed_different_placement(self):
        a = self._run(seed=3)
        b = self._run(seed=4)
        assert a.total_time != b.total_time

    def test_profile_collection(self):
        res = self._run(trace_bin=1e-4)
        assert res.profile is not None
        s = res.profile.summary()
        assert s["useful"] > 0
        assert abs(sum(s.values()) - 1.0) < 0.25

    def test_speedup_property(self):
        res = self._run(n_pes=8, n=10, threshold=4)
        assert 1.0 < res.speedup <= 8.5
