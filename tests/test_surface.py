"""The public surface of ``src/repro`` has a caller outside the tests.

An AST walk lists every public function, class and method defined in
``src/repro`` whose name nothing in ``src/``, ``benchmarks/``,
``examples/`` or ``perf/`` mentions — as a name, an attribute, an import
or an identifier string (entry methods are invoked by name).  That set
must equal :data:`KEEP`, where each survivor carries the reason it stays.
A new definition only the tests reach fails here: delete it, give it a
caller, or add it to the keep-list with a reason.

The walk matches names, not bindings, so a name used anywhere counts for
every definition of it: it under-reports, never over-reports.

The settable fields of the four option objects are pinned too: an option
no caller sets is a module constant, not a field.
"""

import ast
import dataclasses
from pathlib import Path

from repro.faults import FaultConfig
from repro.lrts.rdma_layer import RdmaLayerConfig
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.resilience.manager import RecoveryPolicy

ROOT = Path(__file__).resolve().parent.parent
#: where a caller may live
CALLERS = ("src", "benchmarks", "examples", "perf")

#: name -> why it stays although only tests (or docs) reach it
KEEP = {
    "all_coords": "topology enumeration in vertex order; the topology "
                  "tests check the numbering with it",
    "contains": "MemoryBlock.contains: the frozen mempool oracle "
                "(tests/_reference_mempool.py) calls it",
    "covers": "MemHandle.covers: the registration-bounds predicate the "
              "memory-layer test asserts on",
    "free_bytes": "NodeMemory.free_bytes: the frozen mempool oracle "
                  "calls it",
    "hop_distance": "the topology distance the topology and "
                    "router-equivalence tests check routes against",
    "hopper": "the paper's NERSC Hopper preset, named in README and "
              "EXPERIMENTS.md",
    "hosts": "Collection.hosts: the probe that looks without planting a "
             "PE's dict (DESIGN §16)",
    "hottest_link": "router diagnostic in DESIGN; the router-equivalence "
                    "test pins its tie order",
    "invalidate": "RegistrationCache.invalidate: perf/layers.py pins the "
                  "class until ROADMAP item 2 deletes it",
    "is_global_link": "Dragonfly.is_global_link: the frozen router oracle "
                      "(tests/_reference_router.py) calls it",
    "largest_free_range": "NodeMemory.largest_free_range: the frozen "
                          "mempool oracle calls it",
    "neighbors": "topology adjacency: the README example and the router "
                 "tests",
    "rdma_path_for": "the rdma layer's inline / eager / rendezvous ladder "
                     "as one function, documented in DESIGN for tests",
    "region_memory": "PxshmFabric.region_memory: the shared-memory "
                     "footprint the memory-layer test accounts",
    "route_mode": "the router's fault fallback state, read by the fault "
                  "and router-lane tests",
    "run_allgather": "the collectives app's allgather entry point, run by "
                     "the collectives test",
    "unexpected_depth": "MatchEngine.unexpected_depth: how the MPI tests "
                        "read a rank's unexpected queue",
}


def _public_definitions() -> dict[str, list[str]]:
    """Public module-level functions and classes, and public methods."""
    out: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        body = ast.parse(path.read_text()).body
        nodes = list(body)
        for node in body:
            if isinstance(node, ast.ClassDef):
                nodes.extend(node.body)
        for node in nodes:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                out.setdefault(node.name, []).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def _mentioned() -> set[str]:
    names: set[str] = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    defined = _public_definitions()
    unreached = set(defined) - _mentioned()
    new = {name: defined[name] for name in sorted(unreached - set(KEEP))}
    assert not new, f"public names with no caller outside the tests: {new}"
    gone = sorted(set(KEEP) - unreached)
    assert not gone, f"keep-list entries that now have a caller: {gone}"


def test_option_objects_hold_only_set_fields():
    counts = {cls.__name__: len(dataclasses.fields(cls))
              for cls in (UgniLayerConfig, RdmaLayerConfig, FaultConfig,
                          RecoveryPolicy)}
    assert counts == {"UgniLayerConfig": 9, "RdmaLayerConfig": 4,
                      "FaultConfig": 3, "RecoveryPolicy": 3}
