"""Tests for checkpoint/restart fault tolerance and the protocol timers."""

import pytest

from repro.charm import Chare, Charm
from repro.charm.checkpoint import restore_into, take_checkpoint
from repro.converse.scheduler import Message
from repro.errors import CharmError
from repro.faults import FaultConfig
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.units import KB, us


def fresh_charm(n_pes=8, layer="ugni"):
    conv, _ = make_runtime(n_pes=n_pes, layer=layer, config=tiny_config())
    return Charm(conv), conv


class Accumulator(Chare):
    def __init__(self):
        self.total = 0
        self.history = []

    def add(self, v):
        self.charge(1 * us)
        self.total += v
        self.history.append(v)
        if v > 1:
            self.thisProxy[(self.thisIndex + 1) % 8].add(v - 1)


class MergeableCounter(Chare):
    def __init__(self):
        self.count = 0

    def merge_restored_state(self, state):
        self.count += state["count"]


class TestCheckpoint:
    def _run_phase(self, charm, arr, start_value):
        charm.start(lambda pe: arr[0].add(start_value))
        charm.run()

    def test_checkpoint_restart_matches_uninterrupted(self):
        # uninterrupted run: two phases back to back
        charm, conv = fresh_charm()
        arr = charm.create_array(Accumulator, 8, name="acc")
        self._run_phase(charm, arr, 10)
        self._run_phase(charm, arr, 6)
        reference = sorted(
            (e.thisIndex, e.total)
            for pe in range(8)
            for e in charm.collections[arr.aid].local[pe].values())

        # checkpointed run: phase 1, checkpoint, "crash", restore, phase 2
        charm1, conv1 = fresh_charm()
        arr1 = charm1.create_array(Accumulator, 8, name="acc")
        self._run_phase(charm1, arr1, 10)
        ckpt = take_checkpoint(charm1)
        del charm1, conv1  # the crash

        charm2, conv2 = fresh_charm()
        proxies = restore_into(charm2, ckpt)
        arr2 = proxies["acc"]
        self._run_phase(charm2, arr2, 6)
        restored = sorted(
            (e.thisIndex, e.total)
            for pe in range(8)
            for e in charm2.collections[arr2.aid].local[pe].values())
        assert restored == reference

    def test_restart_on_different_pe_count(self):
        charm1, _ = fresh_charm(n_pes=8)
        arr1 = charm1.create_array(Accumulator, 8, name="acc")
        self._run_phase(charm1, arr1, 8)
        ckpt = take_checkpoint(charm1)

        charm2, _ = fresh_charm(n_pes=4)  # "restart on half the machine"
        proxies = restore_into(charm2, ckpt)
        arr2 = proxies["acc"]
        coll = charm2.collections[arr2.aid]
        assert coll.n_elements() == 8
        assert all(0 <= coll.home_of(i) < 4 for i in range(8))
        # continue computing on the smaller machine
        self._run_phase(charm2, arr2, 3)
        totals = sum(e.total for pe in range(4)
                     for e in coll.local[pe].values())
        assert totals == sum(range(1, 9)) + sum(range(1, 4))

    def test_checkpoint_requires_quiescence(self):
        charm, conv = fresh_charm()
        arr = charm.create_array(Accumulator, 8, name="acc")
        charm.start(lambda pe: arr[0].add(20))
        conv.run(until=1 * us)  # messages still in flight
        with pytest.raises(CharmError):
            take_checkpoint(charm)

    def test_restore_needs_fresh_runtime(self):
        charm, _ = fresh_charm()
        charm.create_array(Accumulator, 4, name="acc")
        ckpt = take_checkpoint(charm)
        with pytest.raises(CharmError):
            restore_into(charm, ckpt)

    def test_group_restore_same_size_is_exact(self):
        charm1, _ = fresh_charm(n_pes=8)
        charm1.create_group(Accumulator, name="grp")
        ckpt = take_checkpoint(charm1)
        charm2, _ = fresh_charm(n_pes=8)
        proxies = restore_into(charm2, ckpt)
        coll = charm2.collections[proxies["grp"].aid]
        assert coll.n_elements() == 8
        assert all(len(coll.local[r]) == 1 for r in range(8))

    def test_group_restore_shrink_merges_with_hook(self):
        charm1, _ = fresh_charm(n_pes=8)
        grp = charm1.create_group(MergeableCounter, name="grp")
        coll1 = charm1.collections[grp.aid]
        for rank in range(8):
            coll1.local[rank][rank].count = rank + 1
        ckpt = take_checkpoint(charm1)

        charm2, _ = fresh_charm(n_pes=4)
        proxies = restore_into(charm2, ckpt)
        coll = charm2.collections[proxies["grp"].aid]
        assert coll.n_elements() == 4
        # survivor r absorbs checkpointed ranks r and r+4: no state lost
        counts = {idx: coll.local[idx][idx].count for idx in range(4)}
        assert counts == {0: 1 + 5, 1: 2 + 6, 2: 3 + 7, 3: 4 + 8}
        total = sum(counts.values())
        assert total == sum(range(1, 9))

    def test_group_restore_shrink_merge_needs_hook(self):
        # A group checkpointed on 8 PEs cannot silently drop elements on a
        # 4-PE restart: a class that cannot fold its state refuses.
        charm1, _ = fresh_charm(n_pes=8)
        charm1.create_group(Accumulator, name="grp")  # no merge hook
        ckpt = take_checkpoint(charm1)
        charm2, _ = fresh_charm(n_pes=4)
        with pytest.raises(CharmError, match="merge_restored_state"):
            restore_into(charm2, ckpt)

    def test_group_restore_cannot_grow(self):
        charm1, _ = fresh_charm(n_pes=4)
        charm1.create_group(Accumulator, name="grp")
        ckpt = take_checkpoint(charm1)
        charm2, _ = fresh_charm(n_pes=8)
        with pytest.raises(CharmError):
            restore_into(charm2, ckpt)

    def test_checkpoint_metadata(self):
        charm, _ = fresh_charm()
        arr = charm.create_array(Accumulator, 6, name="acc")
        self._run_phase(charm, arr, 4)
        ckpt = take_checkpoint(charm)
        assert ckpt.n_pes == 8
        assert ckpt.n_elements == 6
        assert ckpt.collections[0].state_bytes() > 0

    def test_restore_preserves_sim_time(self):
        # The restored engine used to restart at t=0, wrecking every
        # post-restart timeline and time-to-recover measurement.
        charm1, _ = fresh_charm()
        arr1 = charm1.create_array(Accumulator, 8, name="acc")
        self._run_phase(charm1, arr1, 10)
        ckpt = take_checkpoint(charm1)
        assert ckpt.sim_time > 0

        charm2, _ = fresh_charm()
        restore_into(charm2, ckpt)
        assert charm2.engine.now == ckpt.sim_time

    def test_restore_routes_placement_through_mapper(self):
        # The old code defined a mapper closure and never called it; a
        # custom mapper must now actually decide placement, and the
        # location manager must agree with the per-PE element tables.
        charm1, _ = fresh_charm(n_pes=8)
        arr1 = charm1.create_array(Accumulator, 8, name="acc")
        self._run_phase(charm1, arr1, 6)
        ckpt = take_checkpoint(charm1)

        def everything_on_pe1(cc, indices, n_pes):
            return {i: 1 for i in indices}

        charm2, _ = fresh_charm(n_pes=4)
        proxies = restore_into(charm2, ckpt, map=everything_on_pe1)
        coll = charm2.collections[proxies["acc"].aid]
        assert all(coll.home_of(i) == 1 for i in range(8))
        assert len(coll.local[1]) == 8
        assert all(not coll.local[r] for r in (0, 2, 3))

    def test_restore_rebalance_map_balances_by_measured_load(self):
        from repro.charm.loadbalancer import restore_rebalance_map

        charm1, _ = fresh_charm(n_pes=8)
        arr1 = charm1.create_array(Accumulator, 8, name="acc")
        coll1 = charm1.collections[arr1.aid]
        # skew the measured loads: element 0 is as heavy as all the rest
        for idx in range(8):
            coll1.local[coll1.home_of(idx)][idx]._lb_load = \
                7.0 if idx == 0 else 1.0
        ckpt = take_checkpoint(charm1)

        charm2, _ = fresh_charm(n_pes=2)
        proxies = restore_into(charm2, ckpt, map=restore_rebalance_map)
        coll = charm2.collections[proxies["acc"].aid]
        loads = [sum(e._lb_load for e in coll.local[r].values())
                 for r in range(2)]
        assert loads == [7.0, 7.0]  # greedy: heavy one alone, rest together

    def test_restore_rejects_invalid_mapper(self):
        charm1, _ = fresh_charm(n_pes=4)
        charm1.create_array(Accumulator, 4, name="acc")
        ckpt = take_checkpoint(charm1)
        charm2, _ = fresh_charm(n_pes=2)
        with pytest.raises(CharmError, match="restore map"):
            restore_into(charm2, ckpt, map=lambda cc, idxs, n: {i: 99 for i in idxs})

    def test_checkpoint_at_quiescence_tolerates_armed_timers(self):
        # With a fault schedule armed the event heap is never empty; the
        # checkpoint audits application quiescence, not an empty heap.
        from repro.faults import NodeCrash

        conv, _ = make_runtime(n_pes=8, layer="ugni", config=tiny_config(),
                               fault_schedule=[NodeCrash(at=1.0, node_id=1)])
        charm = Charm(conv)
        charm.create_array(Accumulator, 8, name="acc")
        ckpt = take_checkpoint(charm)
        assert ckpt.n_elements == 8

    def test_checkpoint_captures_rng_and_restore_replays_it(self):
        charm1, conv1 = fresh_charm()
        charm1.create_array(Accumulator, 4, name="acc")
        stream = conv1.machine.rng.stream("app")
        before = [stream.random() for _ in range(3)]
        ckpt = take_checkpoint(charm1)
        tail1 = [stream.random() for _ in range(5)]

        charm2, conv2 = fresh_charm()
        restore_into(charm2, ckpt)
        tail2 = [conv2.machine.rng.stream("app").random() for _ in range(5)]
        assert tail2 == tail1  # continues exactly where the checkpoint left off
        assert before  # (draws before the checkpoint are not replayed)

    def test_deep_copy_isolation(self):
        """Mutating live elements after a checkpoint must not change it."""
        charm, _ = fresh_charm()
        arr = charm.create_array(Accumulator, 4, name="acc")
        self._run_phase(charm, arr, 3)
        ckpt = take_checkpoint(charm)
        coll = charm.collections[arr.aid]
        elem = coll.local[coll.home_of(0)][0]
        elem.history.append("tampered")
        cc = ckpt.collections[0]
        assert "tampered" not in cc.states[0]["history"]


class TestTimers:
    """A retransmit or re-post is an engine event that queues a protocol
    step on the PE that owns it (``ProtocolCore._self_step``)."""

    def reliable(self, nbytes, fails):
        """One ``nbytes`` send from PE 0 to PE 2 (node 1) with reliability
        on; ``fails(kind)`` decides each inter-node SMSG delivery
        (``"smsg"``) and one-sided post (``"rdma"``).  Returns (runtime,
        layer, [(step, rank, vtime)] of every timer step that ran,
        delivered messages)."""
        conv, layer = make_runtime(
            n_pes=4, layer="ugni", config=tiny_config(cores_per_node=2),
            layer_config=UgniLayerConfig(reliability=True),
            faults=FaultConfig())
        faults = conv.machine.faults
        faults.smsg_delivery_fails = lambda src, dst: fails("smsg")
        faults.rdma_fails = lambda init, peer: fails("rdma")
        ran = []
        for step in ("rel_retry", "repost"):
            body = layer._steps[step]
            layer._steps[step] = (
                lambda pe, state, step=step, body=body:
                (ran.append((step, pe.rank, pe.vtime)), body(pe, state)))
        got = []
        h = conv.register_handler(lambda pe, msg: got.append(msg))
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, nbytes)))
        conv.send_from_outside(0, Message(sender, 0, 0, 0))
        conv.run()
        return conv, layer, ran, got

    def test_one_shot_fires_on_pe(self):
        """The first SMSG is lost: its retransmit runs once, on the
        sender's PE, after the first backoff."""
        lost = []

        def fails(kind):
            lost.append(kind)
            return len(lost) == 1

        conv, layer, ran, got = self.reliable(64, fails)
        ((step, rank, vtime),) = ran
        assert (step, rank) == ("rel_retry", 0)
        assert vtime >= UgniLayerConfig().retry_backoff_base
        assert len(got) == 1 and layer.rel_retransmits == 1
        assert layer._rel_tx == {}

    def test_cancel_before_fire(self):
        """A loss-free send: every ack cancels its retransmit timer, so no
        timer step runs and the engine drains."""
        conv, layer, ran, got = self.reliable(64, lambda kind: False)
        assert ran == [] and len(got) == 1
        assert layer.rel_acks > 0 and layer.rel_retransmits == 0
        assert layer._rel_tx == {}
        assert conv.engine.peek() == float("inf")

    def test_timer_callback_can_send_messages(self):
        """The receiver's GET fails once: the re-post step runs on the
        receiver's PE and posts again, and the message arrives."""
        posts = []

        def fails(kind):
            if kind == "rdma":
                posts.append(kind)
                return len(posts) == 1
            return False

        conv, layer, ran, got = self.reliable(64 * KB, fails)
        # (PE 0 is busy setting up its pool when the INIT's ack lands, so
        # that control's retransmit timer may fire too)
        assert [(step, rank) for step, rank, _ in ran
                if step == "repost"] == [("repost", 2)]
        assert len(got) == 1
        assert layer.post_retries == 1 and layer.post_failures == 0
