"""The layer table: lookup, config validation, layering."""

import ast
import pathlib

import pytest

import repro.lrts

from repro.errors import LrtsError
from repro.hardware.config import MachineConfig
from repro.lrts.factory import LAYERS, make_layer, make_machine, make_runtime
from repro.lrts.rdma_layer import RdmaLayerConfig
from repro.lrts.ugni_layer import UgniLayerConfig


class TestLayering:
    def test_no_layer_package_imports_another(self):
        """One fabric may not depend on another: what two layers share
        lives in ``repro.lrts`` itself (protocols, intranode, messages)."""
        root = pathlib.Path(repro.lrts.__file__).parent
        layers = sorted(p.name for p in root.glob("*_layer") if p.is_dir())
        assert {"ugni_layer", "mpi_layer", "rdma_layer"} <= set(layers)
        crossings = []
        for layer in layers:
            for path in sorted((root / layer).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                    elif isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    else:
                        continue
                    crossings += [
                        f"{path.relative_to(root)} imports {name}"
                        for name in names for other in layers
                        if other != layer and f"lrts.{other}" in name]
        assert crossings == []


class TestRegistry:
    def test_shipped_layers_registered(self):
        assert sorted(LAYERS) == ["mpi", "rdma", "ugni"]

    def test_unknown_layer_lists_available(self):
        m = make_machine(n_nodes=2)
        with pytest.raises(LrtsError) as exc:
            make_layer(m, "verbs")
        msg = str(exc.value)
        assert "verbs" in msg
        for name in ("ugni", "mpi", "rdma"):
            assert name in msg

    def test_every_layer_builds_a_runtime(self):
        for name in ("ugni", "mpi", "rdma"):
            conv, lrts = make_runtime(n_nodes=2, layer=name)
            assert lrts.name == name
            assert conv.lrts is lrts

    def test_capability_flags(self):
        flags = {}
        for name in ("ugni", "mpi", "rdma"):
            _, lrts = make_runtime(n_nodes=2, layer=name)
            flags[name] = lrts.supports_persistent
        assert flags == {"ugni": True, "mpi": False, "rdma": True}


class TestConfigValidation:
    def test_rdma_rejects_ugni_config(self):
        m = make_machine(n_nodes=2)
        with pytest.raises(LrtsError):
            make_layer(m, "rdma", layer_config=UgniLayerConfig())

    def test_ugni_rejects_rdma_config(self):
        m = make_machine(n_nodes=2)
        with pytest.raises(LrtsError):
            make_layer(m, "ugni", layer_config=RdmaLayerConfig())

    def test_mpi_rejects_any_config(self):
        m = make_machine(n_nodes=2)
        with pytest.raises(LrtsError):
            make_layer(m, "mpi", layer_config=RdmaLayerConfig())

    def test_rdma_needs_dragonfly_or_torus_machine(self):
        """The layer runs on either geometry the machine can build."""
        for topo in ("torus3d", "dragonfly"):
            conv, lrts = make_runtime(
                n_nodes=2, layer="rdma", config=MachineConfig(topology=topo))
            assert lrts.name == "rdma"
