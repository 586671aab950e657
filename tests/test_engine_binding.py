"""Per-instance C-core binding: subclass overrides are never bypassed.

The compiled slab core is bound method-by-method onto plain ``Engine``
instances only.  A subclass that overrides *any* forwarded method — even
just ``post_at`` — must run the pure-Python paths throughout, so its
override sees every call, including internal engine traffic.  A
class-level monkeypatch on ``Engine`` itself must disable binding the
same way.  ``REPRO_PURE_ENGINE`` selects the backend explicitly: ``=1``
forces pure Python, ``=0`` (and every other falsey spelling) keeps the
C core — the flag is parsed by ``env_flag``, not string truthiness.

The router's compiled lane (``TorusNetwork.transfer``) follows the same
switch, bound once on the class: the same subprocess asserts hold for it,
and a class-level or instance-level monkeypatch of ``transfer`` — or a
subclass override — wins over it, as for ``Engine``.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.hardware.config import MachineConfig
from repro.hardware.machine import Machine
from repro.hardware.router import TorusNetwork, TransferTiming
from repro.hardware.topology import Torus3D
from repro.observe import self_metrics
from repro.sim import _speed
from repro.sim.engine import Engine

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

needs_core = pytest.mark.skipif(
    _speed.core is None,
    reason=f"C core unavailable: {_speed.build_error}")


def run_workload(eng):
    """A small mixed workload; returns the observable firing log."""
    log = []

    def tick(tag):
        log.append((round(eng.now * 1e9), tag))

    eng.call_after(3e-9, tick, "a")
    eng.call_at(0.0, tick, "b")
    h = eng.call_after(5e-9, tick, "cancelled")
    eng.call_after(1e-9, h.cancel)
    eng.post_at(2e-9, tick, "c")
    eng.post_at(0.0, tick, "d")
    eng.run()
    return log


class TestSubclassBinding:
    def test_plain_engine_binds_core(self):
        eng = Engine()
        if _speed.core is not None:
            assert eng._core is not None
        else:
            assert eng._core is None

    def test_subclass_overriding_post_at_runs_pure(self):
        seen = []

        class CountingEngine(Engine):
            def post_at(self, time, fn, *args):
                seen.append(fn)
                return super().post_at(time, fn, *args)

        eng = CountingEngine()
        # the core must NOT be bound: binding it would route post_at
        # (and everything else) around the override
        assert eng._core is None
        log = run_workload(eng)
        assert seen, "the post_at override never saw the call"
        assert log == run_workload(Engine())

    def test_subclass_overriding_post_at_node_runs_pure(self):
        posted = []

        class NodeTap(Engine):
            def post_at_node(self, node_id, t, fn, *args):
                posted.append(node_id)
                return super().post_at_node(node_id, t, fn, *args)

        eng = NodeTap()
        assert eng._core is None
        fired = []
        eng.call_at_node(3, 1e-9, fired.append, "x")
        eng.run()
        assert fired == ["x"]

    def test_passthrough_subclass_runs_pure(self):
        class PureEngine(Engine):
            """No overrides at all — still a subclass, still pure."""

        assert PureEngine()._core is None

    @needs_core
    def test_class_monkeypatch_disables_binding(self, monkeypatch):
        calls = []
        orig = Engine.post_at

        def patched(self, time, fn, *args):
            calls.append(fn)
            return orig(self, time, fn, *args)

        monkeypatch.setattr(Engine, "post_at", patched)
        eng = Engine()
        assert eng._core is None
        eng.post_at(0.0, calls.append, "payload")
        eng.run()
        assert len(calls) == 2  # the patch saw the post, then the event ran

    def test_backends_agree(self):
        class PureEngine(Engine):
            pass

        assert run_workload(Engine()) == run_workload(PureEngine())


#: child: is the engine's core bound, does self_metrics call the router's
#: lane compiled, and did a transfer run a frame of the Python body?
_CHILD = """
import sys
from repro.hardware.machine import Machine
from repro.observe import self_metrics
from repro.sim.engine import Engine
m = Machine(n_nodes=8)
frames = []
sys.setprofile(lambda f, e, a: e == 'call' and frames.append(f.f_code.co_name))
m.network.transfer(0.0, (0, 0, 0), (1, 1, 0), 256, bandwidth_cap=1e9)
sys.setprofile(None)
print(Engine()._core is not None, self_metrics(m)['c_core']['router'],
      '_transfer_py' in frames)
"""


class TestRouterLaneBinding:
    """``TorusNetwork.transfer`` is bound on the class; anything nearer
    to the call than the class attribute is what runs."""

    ARGS = (0.0, (0, 0, 0), (1, 1, 0), 256)
    FAKE = TransferTiming(1.0, 2.0, 3.0, 4)

    def test_self_metrics_names_the_lane(self):
        machine = Machine(n_nodes=8)
        c_core = self_metrics(machine)["c_core"]
        assert c_core["router"] is (_speed.core is not None)
        assert c_core["router"] is c_core["bound"]

    def test_class_monkeypatch_wins(self, monkeypatch):
        seen = []

        def patched(self, *args, **kwargs):
            seen.append(args)
            return TorusNetwork._transfer_py(self, *args, **kwargs)

        monkeypatch.setattr(TorusNetwork, "transfer", patched)
        # a dragonfly reaches it through super()
        for config in (MachineConfig(), MachineConfig(topology="dragonfly")):
            machine = Machine(n_nodes=8, config=config)
            coords = [machine.topology.coord_of(i) for i in (0, 5)]
            assert machine.network.transfer(0.0, *coords, 256).hops >= 1
            assert not self_metrics(machine)["c_core"]["router"]
        assert len(seen) == 2

    def test_instance_monkeypatch_wins(self):
        machine = Machine(n_nodes=8)
        net = machine.network
        net.transfer = lambda *args, **kwargs: self.FAKE
        assert net.transfer(*self.ARGS) is self.FAKE
        assert not self_metrics(machine)["c_core"]["router"]
        assert net.messages_routed == 0
        del net.transfer
        assert net.transfer(*self.ARGS).hops == 2
        assert self_metrics(machine)["c_core"]["router"] is (
            _speed.core is not None)

    def test_subclass_override_wins(self):
        class Tapped(TorusNetwork):
            def transfer(self, *args, **kwargs):
                return TestRouterLaneBinding.FAKE

        net = Tapped(Torus3D((2, 2, 2)), MachineConfig())
        assert net.transfer(*self.ARGS) is self.FAKE
        assert net.messages_routed == 0


def _core_loaded_in_subprocess(flag_value):
    """Import the engine in a child with REPRO_PURE_ENGINE set; report
    whether a fresh Engine instance actually bound the C core.  The router
    must be on the same side: compiled lane and no Python-body frame with
    the core, the Python body without."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if flag_value is None:
        env.pop("REPRO_PURE_ENGINE", None)
    else:
        env["REPRO_PURE_ENGINE"] = flag_value
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                         capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    bound, router, python_frame = (word == "True"
                                   for word in out.stdout.split())
    assert router is bound and python_frame is not bound, out.stdout
    return bound


class TestPureEngineFlag:
    @needs_core
    def test_flag_unset_uses_core(self):
        assert _core_loaded_in_subprocess(None)

    @needs_core
    @pytest.mark.parametrize("value", ["0", "", "false", "no", "off"])
    def test_falsey_values_keep_core(self, value):
        # the original bug: any non-empty string (including "0")
        # silently disabled the C core
        assert _core_loaded_in_subprocess(value)

    @pytest.mark.parametrize("value", ["1", "true", "yes"])
    def test_truthy_values_force_pure(self, value):
        assert not _core_loaded_in_subprocess(value)


class TestNoSilentLane:
    """A core that cannot be loaded is reported, never silently replaced:
    ``repro.sim._speed`` warns unless ``REPRO_PURE_ENGINE`` asked for the
    pure lanes, and this suite and CI run with that warning as an error."""

    def test_a_poisoned_so_warns_unless_pure_lanes_were_asked_for(
            self, tmp_path):
        # a copy of src/ (the real .so is in use) whose cached .so is newer
        # than the C source and no shared object: no rebuild, the load fails
        src = tmp_path / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns(
            "*.so", "__pycache__"))
        pathlib.Path(_speed._so_path(str(src / "repro" / "sim"))).write_bytes(
            b"not an ELF object")

        def lanes(pure, *warning_filter):
            return subprocess.run(
                [sys.executable, "-W", *warning_filter, "-c",
                 "from repro.observe import lane_report; print(lane_report())"],
                env=dict(os.environ, PYTHONPATH=str(src),
                         REPRO_PURE_ENGINE=pure),
                capture_output=True, text=True, timeout=180)

        out = lanes("0", "always")
        assert out.returncode == 0, out.stderr
        assert out.stderr.count("RuntimeWarning") == 1
        assert "repro.sim._speedups unavailable" in out.stderr
        assert "ImportError" in out.stderr  # the build_error it carries
        assert out.stdout.startswith(
            "[lanes] engine=pure-python router=python-body "
            "build_error=ImportError")
        # what CI and tests/conftest.py do with it
        out = lanes("0", "error:repro.sim._speedups unavailable:RuntimeWarning")
        assert out.returncode != 0 and "RuntimeWarning" in out.stderr
        out = lanes("1", "error")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == (
            "[lanes] engine=pure-python router=python-body build_error=None")

    @pytest.mark.parametrize("missing", ["libnpyrandom.a", "distributions.h"])
    def test_a_numpy_without_its_static_random_library_is_named(
            self, monkeypatch, missing):
        # the whole core links numpy's libnpyrandom, so a numpy that strips
        # it (or its header) is a build error naming the file, not a raw
        # linker or compiler message
        exists = os.path.exists
        monkeypatch.setattr(os.path, "exists",
                            lambda p: not p.endswith(missing) and exists(p))
        with pytest.raises(RuntimeError, match=f"ships no .*{missing}"):
            _speed.build_command("_speedups.c", "_speedups.so")


class TestCoreCache:
    @needs_core
    def test_an_edited_source_rebuilds_whatever_the_mtimes(self, tmp_path):
        """The cached core is named by its source's content: after an edit
        of ``_speedups.c``, the old build touched newer than the source (a
        ``cp -r``, a cache restore) is neither loaded nor kept."""
        src = tmp_path / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns(
            "__pycache__"))
        sim = src / "repro" / "sim"
        probe = ("from repro.sim import _speed; "
                 "from repro.hardware.router import TorusNetwork; "
                 "print(_speed.core.__file__); "
                 "print(TorusNetwork.transfer.__doc__.splitlines()[0])")

        def load():
            out = subprocess.run(
                [sys.executable, "-c", probe],
                env=dict(os.environ, PYTHONPATH=str(src),
                         REPRO_PURE_ENGINE="0"),
                capture_output=True, text=True, timeout=180)
            assert out.returncode == 0, out.stderr
            return out.stdout.splitlines()

        old_so, old_doc = load()
        assert old_so == _speed._so_path(str(sim))
        assert old_doc.startswith("Route one message")
        c_path = sim / "_speedups.c"
        c_path.write_text(c_path.read_text().replace(
            '"Route one message and', '"Route one MESSAGE and'))
        later = c_path.stat().st_mtime + 60
        os.utime(old_so, (later, later))
        new_so, new_doc = load()
        assert new_so == _speed._so_path(str(sim)) != old_so
        assert new_doc.startswith("Route one MESSAGE")
        assert not os.path.exists(old_so)
        assert sorted(p.name for p in sim.glob("*.so")) == [
            os.path.basename(new_so)]
