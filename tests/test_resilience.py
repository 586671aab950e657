"""End-to-end recovery: crash schedules in, bit-identical results out.

Three layers of assurance:

* a Hypothesis round-trip property — checkpoint/restore across arbitrary
  PE resizes (up and down) preserves element state, reduction progress,
  and sanitizer cleanliness;
* chaos recovery — the :class:`~repro.resilience.ResilienceManager`
  drives the reference app through injected :class:`NodeCrash` events on
  every LRTS layer, and the final digest must equal a crash-free run's;
* mechanism tests — spares, repeated crashes, the give-up path,
  post-completion crashes, pending-schedule re-arming, and the
  observability surface (flight dump on crash, recovery counters).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.charm import Chare, Charm
from repro.charm.checkpoint import restore_into, take_checkpoint
from repro.errors import SimulationError
from repro.faults import NodeCrash, install_faults
from repro.hardware.config import MachineConfig, tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.resilience import PhasedSum, RecoveryPolicy, ResilienceManager
from repro.units import us

_SETTINGS = dict(deadline=None, max_examples=10,
                 suppress_health_check=[HealthCheck.too_slow])


def _machine_config(layer: str, **kw) -> MachineConfig:
    base = tiny_config(cores_per_node=1)
    if layer == "rdma":
        kw.setdefault("topology", "dragonfly")
    return dataclasses.replace(base, **kw) if kw else base


def _run_phased(layer: str, schedule=(), *, n_nodes=4, seed=7,
                policy=None, config_kw=None) -> tuple:
    """One managed PhasedSum run; returns (report, manager)."""
    app = PhasedSum(n_elements=12, rounds=8)
    mgr = ResilienceManager(
        app, n_nodes=n_nodes, layer=layer,
        config=_machine_config(layer, **(config_kw or {})), seed=seed,
        policy=policy or RecoveryPolicy(checkpoint_interval=50 * us),
        crash_schedule=schedule)
    return mgr.run(), mgr


# --------------------------------------------------------------------- #
# Round-trip property: resize-anywhere checkpoint/restore
# --------------------------------------------------------------------- #
class RoundWorker(Chare):
    """Reduction-per-phase worker driven one round at a time."""

    def __init__(self):
        self.total = 0
        self.log = []  # root only

    def step(self, r):
        self.charge(1 * us)
        self.total = (self.total + (int(self.thisIndex) + 1) * (r + 1) * 31) % 1009
        self.contribute(self.total, "sum", self.thisProxy[0].collect)

    def collect(self, value):
        self.log.append(int(value))


def _drive_rounds(charm, proxy, start, n):
    for r in range(start, start + n):
        charm.start(lambda pe, r=r: proxy.step(r))
        charm.run()


def _array_state(charm, name):
    coll = charm.collection(name)
    return sorted(
        (str(idx), elem.total, elem._red_round)
        for _pe, elems in coll.local.items()
        for idx, elem in elems.items())


class TestRoundTripProperty:
    @given(n_before=st.integers(1, 6), n_after=st.integers(1, 6),
           n_elems=st.integers(1, 10), pre=st.integers(0, 3),
           post=st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_resize_round_trip(self, n_before, n_after, n_elems, pre, post):
        sanitize.clear_registry()
        try:
            cfg = dataclasses.replace(tiny_config(), sanitize=True)

            def build(n_pes):
                conv, _ = make_runtime(n_pes=n_pes, layer="ugni", config=cfg)
                return Charm(conv)

            # reference: every round uninterrupted on the original size
            ref = build(n_before)
            ref_arr = ref.create_array(RoundWorker, n_elems, name="w")
            _drive_rounds(ref, ref_arr, 0, pre + post)

            # round-trip: pre rounds, checkpoint, restore resized, post
            charm1 = build(n_before)
            arr1 = charm1.create_array(RoundWorker, n_elems, name="w")
            _drive_rounds(charm1, arr1, 0, pre)
            ckpt = take_checkpoint(charm1)

            charm2 = build(n_after)
            arr2 = restore_into(charm2, ckpt)["w"]
            # reduction progress survives the resize verbatim
            for _idx, elem in charm2.iter_elements("w"):
                assert elem._red_round == pre
            _drive_rounds(charm2, arr2, pre, post)

            # integer arithmetic: state identical regardless of placement
            assert _array_state(charm2, "w") == _array_state(ref, "w")
            root2 = dict(charm2.iter_elements("w"))[0]
            root_ref = dict(ref.iter_elements("w"))[0]
            assert root2.log == root_ref.log
            sanitize.assert_clean("resize round trip")
        finally:
            sanitize.clear_registry()


# --------------------------------------------------------------------- #
# Chaos recovery on every LRTS layer
# --------------------------------------------------------------------- #
class TestCrashRecovery:
    @pytest.mark.parametrize("layer", ["ugni", "mpi", "rdma"])
    def test_crash_recovery_matches_crash_free_run(self, layer):
        clean, _ = _run_phased(layer)
        crashed, mgr = _run_phased(
            layer, [NodeCrash(at=120 * us, node_id=2)])
        assert crashed.result["digest"] == clean.result["digest"]
        assert crashed.crashes == 1 and crashed.restarts == 1
        assert crashed.n_pes_final == 3  # shrank onto the survivors
        assert crashed.lost_work_s > 0
        # recovery costs simulated time, never saves it
        assert crashed.sim_time_s > clean.sim_time_s

    def test_unconfigured_manager_builds_the_whole_machine(self):
        # no config: the default MachineConfig's cores on every one of
        # the n_nodes nodes, so node 2 exists to crash
        def run(schedule=()):
            return ResilienceManager(PhasedSum(8, 4), n_nodes=4,
                                     crash_schedule=schedule).run()

        clean = run()
        crashed = run([NodeCrash(at=100 * us, node_id=2)])
        assert clean.n_pes_final == 4 * MachineConfig().cores_per_node
        assert crashed.restarts == 1
        assert crashed.result["digest"] == clean.result["digest"]

    def test_crash_of_a_missing_node_fails_at_install(self):
        conv, _ = make_runtime(n_nodes=2, config=tiny_config())
        with pytest.raises(SimulationError, match="node 5.*2 nodes"):
            install_faults(conv.machine, conv=conv,
                           schedule=[NodeCrash(at=1 * us, node_id=5)])

    @pytest.mark.parametrize("layer", ["ugni", "mpi", "rdma"])
    def test_recovery_is_deterministic(self, layer):
        schedule = [NodeCrash(at=120 * us, node_id=2)]
        a, _ = _run_phased(layer, schedule)
        b, _ = _run_phased(layer, schedule)
        assert a.result == b.result
        assert a.sim_time_s == b.sim_time_s
        assert a.crash_times == b.crash_times

    def test_recovery_survives_repeated_crashes(self):
        clean, _ = _run_phased("ugni")
        crashed, _ = _run_phased("ugni", [
            NodeCrash(at=120 * us, node_id=2),
            NodeCrash(at=300 * us, node_id=1),
        ])
        assert crashed.result["digest"] == clean.result["digest"]
        assert crashed.restarts == 2
        assert crashed.n_pes_final == 2

    def test_spare_nodes_keep_the_job_at_full_size(self):
        clean, _ = _run_phased("ugni")
        crashed, _ = _run_phased(
            "ugni", [NodeCrash(at=120 * us, node_id=2)],
            policy=RecoveryPolicy(checkpoint_interval=50 * us, spare_nodes=2))
        assert crashed.result["digest"] == clean.result["digest"]
        assert crashed.n_pes_final == 4

    def test_crash_in_restart_window_lands_after_resume(self):
        # two crashes closer together than the restart cost: the second
        # is clamped to the resume time, not dropped and not rewound
        clean, _ = _run_phased("ugni")
        crashed, _ = _run_phased("ugni", [
            NodeCrash(at=120 * us, node_id=2),
            NodeCrash(at=121 * us, node_id=1),
        ])
        assert crashed.result["digest"] == clean.result["digest"]
        assert crashed.restarts == 2
        assert crashed.crash_times[1] >= crashed.crash_times[0]

    def test_gives_up_when_crashes_outrun_recovery(self):
        schedule = [NodeCrash(at=(100 + i) * us, node_id=i % 3)
                    for i in range(6)]
        app = PhasedSum(n_elements=12, rounds=8)
        mgr = ResilienceManager(
            app, n_nodes=8, layer="ugni", config=_machine_config("ugni"),
            seed=7, policy=RecoveryPolicy(checkpoint_interval=50 * us,
                                          max_restarts=2),
            crash_schedule=schedule)
        with pytest.raises(SimulationError, match="restarts"):
            mgr.run()

    def test_post_completion_crash_is_ignored(self):
        clean, _ = _run_phased("ugni")
        late = clean.sim_time_s + 100 * us
        crashed, mgr = _run_phased(
            "ugni", [NodeCrash(at=late, node_id=1)])
        assert crashed.result["digest"] == clean.result["digest"]
        assert crashed.restarts == 0

    @given(seed=st.integers(0, 2**31 - 1),
           crash_t=st.integers(20, 400), node_id=st.integers(0, 3))
    @settings(deadline=None, max_examples=8,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_single_crash_recovers_bit_identically(self, seed, crash_t,
                                                       node_id):
        clean, _ = _run_phased("ugni", seed=seed)
        crashed, _ = _run_phased(
            "ugni", [NodeCrash(at=crash_t * us, node_id=node_id)], seed=seed)
        assert crashed.result["digest"] == clean.result["digest"]

    def test_recovery_is_sanitizer_clean_across_restarts(self):
        sanitize.clear_registry()
        try:
            rep, _ = _run_phased(
                "ugni", [NodeCrash(at=120 * us, node_id=2),
                         NodeCrash(at=300 * us, node_id=1)],
                config_kw={"sanitize": True})
            # both the dead incarnations and the survivor must be clean:
            # restart may not leak a registration, block, or credit
            assert len(sanitize.active_sanitizers()) == 3
            sanitize.assert_clean("recovery across restarts")
            assert rep.restarts == 2
        finally:
            sanitize.clear_registry()


# --------------------------------------------------------------------- #
# Schedule re-arming mechanics
# --------------------------------------------------------------------- #
class TestScheduleHandoff:
    def test_pending_events_snapshot_excludes_fired(self):
        sched = [NodeCrash(at=100 * us, node_id=1),
                 NodeCrash(at=500 * us, node_id=2)]
        conv, _ = make_runtime(n_pes=4, layer="ugni",
                               config=_machine_config("ugni"),
                               fault_schedule=sched)
        inj = conv.machine.faults
        assert len(inj.pending_events()) == 2
        conv.run(until=200 * us)
        assert [ev.node_id for ev in inj.pending_events()] == [2]
        inj.disarm()
        assert inj.pending_events() == ()

    def test_fault_report_folds_manager_counters(self):
        _rep, mgr = _run_phased("ugni", [NodeCrash(at=120 * us, node_id=2)])
        # the manager's counters outlive every incarnation's observer
        assert (mgr.crashes, mgr.restarts) == (1, 1)
        assert mgr.checkpoints >= 2  # checkpoint 0 and the post-restart one


# --------------------------------------------------------------------- #
# Observability surface
# --------------------------------------------------------------------- #
class TestRecoveryObservability:
    def test_crash_dumps_flight_and_counts_recovery_events(self):
        from repro import observe

        observe.clear_registry()
        try:
            rep, mgr = _run_phased(
                "ugni", [NodeCrash(at=120 * us, node_id=2)],
                config_kw={"observe": True})
            assert rep.restarts == 1
            # the machine that died: its observer holds the postmortem
            observers = observe.active_observers()
            assert len(observers) == 2
            dead_obs, live_obs = observers
            assert any(d.reason == "fault:node_crash"
                       for d in dead_obs.flight.dumps)
            snap = live_obs.metrics.snapshot()
            assert snap.get("counter/recovery/restart") == 1
            # post-restart checkpoints are counted on the new machine
            assert snap.get("counter/recovery/checkpoint", 0) >= 1
        finally:
            observe.clear_registry()
