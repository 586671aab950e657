"""Tests for the Charm++ programming layer."""

import pytest

from repro.charm import Chare, Charm
from repro.errors import CharmError
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.units import us


def charm_runtime(n_pes=8, cores_per_node=4, layer="ugni", **kw):
    conv, lrts = make_runtime(n_pes=n_pes, layer=layer,
                              config=tiny_config(cores_per_node=cores_per_node),
                              **kw)
    return Charm(conv), conv, lrts


class Counter(Chare):
    def __init__(self):
        self.count = 0
        self.got = []

    def bump(self, v=1, sender=None):
        self.count += v
        self.got.append(sender)


class TestArrays:
    def test_block_map_distributes_elements(self):
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(Counter, 8)
        coll = charm.collections[arr.aid]
        sizes = [len(coll.local[r]) for r in range(4)]
        assert sizes == [2, 2, 2, 2]

    def test_per_pe_tables_are_built_on_first_touch(self):
        charm, conv, _ = charm_runtime(n_pes=8)
        # 2 elements on 8 PEs: block map puts them on PEs 0 and 4
        arr = charm.create_array(Counter, 2)
        coll = charm.collections[arr.aid]
        assert sorted(coll.local) == [0, 4] and not coll.red
        assert coll.hosts(0) and not coll.hosts(7)
        assert sorted(coll.local) == [0, 4]  # the runtime's reads use .get
        assert coll.local[7] == {}  # indexing a PE that hosts nothing
        assert [r for r, _ in coll.by_pe()] == [0, 4, 7]
        assert coll.red_parent(0) is None and coll.red_parent(4) == 0
        assert coll.missing_elements() == []
        assert [i for _, elems in coll.by_pe() for i in elems] == [0, 1]

    def test_placement_outside_the_job_is_rejected(self):
        charm, conv, _ = charm_runtime(n_pes=4)
        with pytest.raises(CharmError, match="outside the job"):
            charm.create_array(Counter, 2, map=lambda idx, n: {0: 0, 1: -1})

    def test_round_robin_map(self):
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(Counter, 8, map="round_robin")
        coll = charm.collections[arr.aid]
        assert coll.home_of(0) == 0 and coll.home_of(1) == 1
        assert coll.home_of(4) == 0

    def test_point_to_point_invocation(self):
        charm, conv, _ = charm_runtime()
        arr = charm.create_array(Counter, 8)
        charm.start(lambda pe: arr[5].bump(3, sender="main"))
        charm.run()
        coll = charm.collections[arr.aid]
        elem = coll.local[coll.home_of(5)][5]
        assert elem.count == 3
        assert elem.got == ["main"]

    def test_chained_invocations_ring(self):
        class Ring(Chare):
            def __init__(self, n):
                self.n = n

            def pass_token(self, hops):
                self.charge(1 * us)
                if hops > 0:
                    self.thisProxy[(self.thisIndex + 1) % self.n].pass_token(hops - 1)
                else:
                    done.append(self.now())

        done = []
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(Ring, 8, args=(8,))
        charm.start(lambda pe: arr[0].pass_token(16))
        charm.run()
        assert len(done) == 1
        assert done[0] > 17 * us  # 17 executions × 1us work + transit

    def test_broadcast_reaches_all_elements(self):
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(Counter, 10)
        charm.start(lambda pe: arr.bump(7))
        charm.run()
        coll = charm.collections[arr.aid]
        counts = [e.count for pe in range(4) for e in coll.local[pe].values()]
        assert counts == [7] * 10

    def test_group_one_element_per_pe(self):
        charm, conv, _ = charm_runtime(n_pes=6)
        grp = charm.create_group(Counter)
        coll = charm.collections[grp.aid]
        assert all(len(coll.local[r]) == 1 for r in range(6))
        charm.start(lambda pe: grp[3].bump())
        charm.run()
        assert coll.local[3][3].count == 1

    def test_unknown_entry_method_raises(self):
        charm, conv, _ = charm_runtime()
        arr = charm.create_array(Counter, 2)
        charm.start(lambda pe: arr[0].no_such_method())
        with pytest.raises(CharmError):
            charm.run()

    def test_proxy_call_outside_handler_rejected(self):
        charm, conv, _ = charm_runtime()
        arr = charm.create_array(Counter, 2)
        with pytest.raises(CharmError):
            arr[0].bump()

    def test_non_chare_class_rejected(self):
        charm, conv, _ = charm_runtime()
        with pytest.raises(CharmError):
            charm.create_array(object, 4)  # type: ignore[arg-type]

    def test_message_size_estimation_scales(self):
        from repro.charm.chare import estimate_size
        import numpy as np

        small = estimate_size((1, 2.0), {})
        big = estimate_size((np.zeros(10000),), {})
        assert big > small
        assert big >= 80000


class TestReductions:
    class Worker(Chare):
        def __init__(self):
            self.result = None

        def work(self):
            self.contribute(self.thisIndex + 1, "sum", self.thisProxy[0].report)

        def work_max(self):
            self.contribute(self.thisIndex, "max", self.thisProxy[0].report)

        def report(self, value):
            results.append((value, self.now()))


    def test_sum_reduction(self):
        global results
        results = []
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(self.Worker, 10)
        charm.start(lambda pe: arr.work())
        charm.run()
        assert len(results) == 1
        assert results[0][0] == sum(range(1, 11))

    def test_max_reduction(self):
        global results
        results = []
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(self.Worker, 7)
        charm.start(lambda pe: arr.work_max())
        charm.run()
        assert results[0][0] == 6

    def test_consecutive_reduction_rounds(self):
        global results
        results = []
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(self.Worker, 8)

        def go(pe):
            arr.work()

        charm.start(go)
        charm.run()
        # second round after the first completes
        charm.start(go, at=conv.engine.now)
        charm.run()
        assert [r[0] for r in results] == [36, 36]

    def test_reduction_with_single_element(self):
        global results
        results = []
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(self.Worker, 1)
        charm.start(lambda pe: arr.work())
        charm.run()
        assert results[0][0] == 1

    def test_unknown_op_rejected(self):
        charm, conv, _ = charm_runtime()

        class Bad(Chare):
            def go(self):
                self.contribute(1, "median", self.thisProxy[0].go)

        arr = charm.create_array(Bad, 2)
        charm.start(lambda pe: arr[0].go())
        with pytest.raises(CharmError):
            charm.run()


class TestMigration:
    class Mover(Chare):
        def __init__(self):
            self.inbox = []

        def hop(self, dst):
            self.migrate_to(dst, state_bytes=2048)

        def ping(self, v):
            self.inbox.append(v)

    def test_migration_moves_element(self):
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(self.Mover, 4)
        coll = charm.collections[arr.aid]
        src_pe = coll.home_of(0)
        charm.start(lambda pe: arr[0].hop(3), pe=src_pe)
        charm.run()
        assert coll.home_of(0) == 3
        assert 0 in coll.local[3]
        assert 0 not in coll.local[src_pe]

    def test_messages_after_migration_arrive(self):
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(self.Mover, 4)
        coll = charm.collections[arr.aid]

        def script(pe):
            arr[0].hop(3)
            arr[0].ping("after")  # location already updated -> straight to 3

        charm.start(script, pe=coll.home_of(0))
        charm.run()
        elem = coll.local[3][0]
        assert elem.inbox == ["after"]

    def test_in_flight_messages_forwarded(self):
        """A message racing a migration must still be delivered exactly once."""
        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(self.Mover, 4)
        coll = charm.collections[arr.aid]
        home = coll.home_of(0)

        def sender(pe):
            arr[0].ping("racer")

        def mover(pe):
            arr[0].hop(3)

        # the ping is sent from PE 2 while the element migrates away
        charm.start(mover, pe=home)
        charm.start(sender, pe=2)
        charm.run()
        elem = coll.local[coll.home_of(0)][0]
        assert elem.inbox == ["racer"]

    def test_group_elements_cannot_migrate(self):
        charm, conv, _ = charm_runtime(n_pes=4)
        grp = charm.create_group(self.Mover)
        charm.start(lambda pe: grp[0].hop(2))
        with pytest.raises(CharmError):
            charm.run()

    def test_lb_load_accumulates(self):
        class Busy(Chare):
            def spin(self):
                self.charge(5 * us)

        charm, conv, _ = charm_runtime(n_pes=2)
        arr = charm.create_array(Busy, 2)
        charm.start(lambda pe: (arr[0].spin(), arr[0].spin()))
        charm.run()
        coll = charm.collections[arr.aid]
        elem = coll.local[coll.home_of(0)][0]
        assert elem._lb_load == pytest.approx(10 * us)


class TestQuiescence:
    def test_quiescence_fires_after_task_tree_completes(self):
        class Task(Chare):
            def run_task(self, depth):
                self.charge(2 * us)
                if depth > 0:
                    for c in range(2):
                        self.thisProxy[(self.thisIndex * 2 + c + 1)
                                       % 16].run_task(depth - 1)

        charm, conv, _ = charm_runtime(n_pes=4)
        arr = charm.create_array(Task, 16)
        q_time = []

        def go(pe):
            arr[0].run_task(4)
            charm.start_quiescence(q_time.append)

        charm.start(go)
        charm.run(max_events=10**6)
        assert len(q_time) == 1
        # quiescence must not fire before all 31 tasks ran
        assert charm.app_executes == 31
        assert q_time[0] > 0

    def test_quiescence_waits_for_a_broadcast_in_flight(self):
        # a 100,000 B broadcast rooted at the last PE is still on its way
        # down the tree when detection starts; counted only by its
        # point-to-point sends it was invisible and quiescence fired early
        ran = []

        class Leaf(Chare):
            def hit(self):
                ran.append(self.now())

        charm, conv, _ = charm_runtime(n_pes=96, cores_per_node=24)
        arr = charm.create_group(Leaf)
        fired = []
        charm.start(lambda pe: arr.hit(_size=100_000), pe=95)
        charm.start(lambda pe: charm.start_quiescence(fired.append),
                    at=30 * us)
        charm.run(max_events=10**6)
        assert len(ran) == 96 and len(fired) == 1
        assert fired[0] >= max(ran)
        assert charm.app_sends == charm.app_executes == 96

    def test_quiescence_on_both_layers(self):
        for layer in ("ugni", "mpi"):
            class Task(Chare):
                def go(self, n):
                    if n:
                        self.thisProxy[(self.thisIndex + 1) % 8].go(n - 1)

            charm, conv, _ = charm_runtime(n_pes=4, layer=layer)
            arr = charm.create_array(Task, 8)
            fired = []

            def boot(pe):
                arr[0].go(20)
                charm.start_quiescence(fired.append)

            charm.start(boot)
            charm.run(max_events=10**6)
            assert len(fired) == 1


class TestLayerTransparency:
    """Same Charm program, both machine layers (the paper's methodology)."""

    def test_identical_results_different_timing(self):
        class Accum(Chare):
            def __init__(self):
                self.total = 0

            def add(self, v):
                self.total += v
                if v > 1:
                    self.thisProxy[(self.thisIndex + 1) % 6].add(v - 1)

        outcomes = {}
        for layer in ("ugni", "mpi"):
            charm, conv, _ = charm_runtime(n_pes=6, cores_per_node=2,
                                           layer=layer)
            arr = charm.create_array(Accum, 6)
            charm.start(lambda pe: arr[0].add(12))
            end = charm.run(max_events=10**6)
            coll = charm.collections[arr.aid]
            total = sum(e.total for pe in range(6) for e in coll.local[pe].values())
            outcomes[layer] = (total, end)
        assert outcomes["ugni"][0] == outcomes["mpi"][0]  # same answer
        assert outcomes["ugni"][1] < outcomes["mpi"][1]  # uGNI faster
