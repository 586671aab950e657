"""The public surface of ``src/repro`` has a caller outside the tests.

An AST walk lists every public function, class and method defined in
``src/repro`` whose name nothing in ``src/``, ``benchmarks/``,
``examples/`` or ``perf/`` mentions — as a name, an attribute, an import
or an identifier string (entry methods are invoked by name).  A package
``__init__``'s re-export (an import alias or an ``__all__`` string) is
not a mention.  That set must equal :data:`KEEP`, where each survivor
carries the reason it stays.  A new definition only the tests reach
fails here: delete it, give it a caller, or add it to the keep-list with
a reason.

The same callers must pass every defaulted parameter of a public
function, method or constructor — by keyword, by enough positional
arguments to reach it, or through a ``*``/``**`` splat.  The parameters
nothing passes must equal :data:`KEEP_PARAMS`: a parameter no caller
passes is the value it defaulted to, not a parameter.

Both walks match names, not bindings, so a name used anywhere counts for
every definition of it: they under-report, never over-report.

The settable fields of the four option objects are pinned too: an option
no caller sets is a module constant, not a field.  Every value of a
string-valued choice (:data:`MODES`) other than its default is passed, as
a constant, by some caller: a mode no caller selects is not a mode.  And
every :class:`MachineConfig` field is read, as an attribute, by some
caller, or is in :data:`KEEP_FIELDS` with a reason: a calibration value
nothing reads prices nothing.
"""

import ast
import dataclasses
from pathlib import Path

from repro.bench.figures import EXPERIMENTS
from repro.faults import FaultConfig
from repro.hardware.config import MachineConfig
from repro.lrts.rdma_layer import RdmaLayerConfig
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.resilience.manager import RecoveryPolicy

ROOT = Path(__file__).resolve().parent.parent
#: where a caller may live
CALLERS = ("src", "benchmarks", "examples", "perf")

#: name -> why it stays although only tests (or docs) reach it
KEEP = {
    "active_sanitizers": "the sanitizer registry the tests' conftest guard "
                         "reads after every test",
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
             "PE's dict (DESIGN §16, \"Cold state\")",
    "hottest_link": "router diagnostic in DESIGN; the router-equivalence "
                    "test pins its tie order",
    "invalidate": "RegistrationCache.invalidate: perf/layers.py pins the "
                  "class until ROADMAP item 7 deletes it",
    "is_global_link": "Dragonfly.is_global_link: the frozen router oracle "
                      "(tests/_reference_router.py) calls it",
    "largest_free_range": "NodeMemory.largest_free_range: the frozen "
                          "mempool oracle calls it",
    "neighbors": "topology adjacency: the README example and the router "
                 "tests",
    "region_memory": "PxshmFabric.region_memory: the shared-memory "
                     "footprint the memory-layer test accounts",
    "self_metrics": "the simulator's own counters, called by CI's scale "
                    "probe and the README",
    "unexpected_depth": "MatchEngine.unexpected_depth: how the MPI tests "
                        "read a rank's unexpected queue",
}

#: callable -> (parameters only the tests pass, why they stay)
KEEP_PARAMS = {
    "repro.apps.collectives_app.run_alltoallv": (
        ("seed", "faults"),
        "seeds and injected faults the collectives tests vary"),
    "repro.apps.gpu_apps.gpu_kneighbor": (
        ("config", "warmup"),
        "tier-1 run lengths, and the sanitized/observed machine"),
    "repro.apps.gpu_apps.gpu_pingpong": (
        ("config", "warmup"),
        "tier-1 run lengths, and the sanitized/observed machine"),
    "repro.apps.minimd.app.run_minimd": (
        ("lb", "patch_grid", "max_events"),
        "the mini-MD tests switch balancing, shrink the machine and grid"),
    "repro.apps.nqueens.app.run_nqueens": (
        ("max_events",), "tier-1 sizes: the tests bound the run"),
    "repro.apps.nqueens.workmodel.build_task_tree": (
        ("probes",),
        "the estimator test raises the probe count to compare with exact"),
    "repro.apps.onetoall.one_to_all": (
        ("iters", "warmup"), "tier-1 run lengths"),
    "repro.apps.pingpong.charm_pingpong": (
        ("warmup", "fault_schedule"),
        "tier-1 run lengths, and the crash-schedule tests"),
    "repro.apps.raw.pingpong_mpi.mpi_pingpong": (
        ("iters", "warmup"), "tier-1 run lengths"),
    "repro.apps.raw.pingpong_ugni.ugni_pingpong": (
        ("iters", "warmup"), "tier-1 run lengths"),
    "repro.bench.figures.main": (
        ("argv",), "the CLI reads sys.argv; the tests pass their own"),
    "repro.bench.figures.run_experiment": (
        ("config",), "the claims-can-fail table runs perturbed machines"),
    # run_experiment calls each exhibit through the EXPERIMENTS table, a
    # call by a name this walk cannot follow
    **{f"{fn.__module__}.{fn.__name__}": (
        ("config",), "run_experiment passes it") for fn in EXPERIMENTS.values()},
    "repro.observe.__main__.main": (
        ("argv",), "the CLI reads sys.argv; the tests pass their own"),
    "repro.charm.loadbalancer.greedy_plan": (
        ("background",), "the balancer tests add per-PE background load"),
    "repro.charm.loadbalancer.greedy_plan_comm": (
        ("tolerance",), "sizes: the balancer tests vary the slack"),
    "repro.converse.collectives.SpanningTree": (
        ("branching",), "sizes: the tree tests check other fan-outs"),
    "repro.hardware.gpu.CopyEngine.submit": (
        ("on_done",), "the device tests observe copy completion"),
    "repro.hardware.gpu.Gpu.launch_kernel": (
        ("on_done",), "the device tests observe kernel completion"),
    "repro.hardware.link.Link": (
        ("lanes",), "sizes: the link tests model multi-lane links"),
    "repro.hardware.memory.MemoryBlock.contains": (
        ("nbytes",), "the frozen mempool oracle asks for ranges"),
    "repro.lrts.rdma_layer.layer.RdmaMachineLayer": (
        ("layer_config",), "factory.make_layer builds it positionally"),
    "repro.lrts.ugni_layer.layer.UgniMachineLayer": (
        ("layer_config",), "factory.make_layer builds it positionally"),
    "repro.memory.mempool.MemoryPool": (
        ("initial_bytes", "expand_bytes"),
        "sizes: the pool tests force expansions"),
    "repro.mpish.udreg.UdregCache": (
        ("capacity",), "sizes: the udreg tests force evictions"),
    "repro.observe.core.metrics_digest": (
        ("exclude",), "the engine-parity tests mask engine counters"),
    "repro.observe.flight.FlightRecorder": (
        ("capacity",), "sizes: the flight tests force the ring to wrap"),
    "repro.observe.profile.TimeProfile.tail_idle_fraction": (
        ("tail",), "sizes: the profile tests vary the tail window"),
    "repro.observe.selfmetrics.self_metrics": (
        ("lrts",), "CI's scale probe and the README pass the layer"),
    "repro.parallel.sharded_engine.ShardedEngine": (
        ("lookahead", "min_lookahead"),
        "sizes: the window-audit tests vary the lookahead"),
    "repro.sim.engine.Engine.call_after_batch": (
        ("argss",), "the engine tests pass per-event arguments"),
}

#: MachineConfig field -> why it stays although no caller reads it
KEEP_FIELDS: dict[str, str] = {}

def _checked(path: str, name: str) -> tuple[str, ...]:
    """The string tuple ``path`` validates ``name`` (a name or an
    attribute) against with ``not in``."""
    for node in ast.walk(ast.parse((ROOT / path).read_text())):
        if (isinstance(node, ast.Compare)
                and isinstance(node.ops[0], ast.NotIn)
                and name in (getattr(node.left, "id", None),
                             getattr(node.left, "attr", None))
                and isinstance(node.comparators[0], ast.Tuple)):
            return tuple(elt.value for elt in node.comparators[0].elts)
    raise LookupError(f"{path} validates no {name!r} against a tuple")


_UGNI_CONFIG = "src/repro/lrts/ugni_layer/config.py"


def _machine(field: str) -> tuple[tuple[str, str], ...]:
    """How a caller sets a machine option: the constructor, the
    ``replace`` copy or the ``tiny`` preset."""
    return tuple((callee, field)
                 for callee in ("MachineConfig", "replace", "tiny"))


#: choice -> (values, default, the (called name, keyword) pairs that pass
#: it on): every value but the default is passed by some caller outside
#: the tests
MODES = {
    "UgniLayerConfig.rendezvous": (
        _checked(_UGNI_CONFIG, "rendezvous"), "get",
        (("UgniLayerConfig", "rendezvous"),)),
    "UgniLayerConfig.intranode": (
        _checked(_UGNI_CONFIG, "intranode"), "pxshm_single",
        (("UgniLayerConfig", "intranode"),)),
    "UgniLayerConfig.small_path": (
        _checked(_UGNI_CONFIG, "small_path"), "smsg",
        (("UgniLayerConfig", "small_path"),)),
    "MachineConfig.topology": (
        ("torus3d", "dragonfly"), "torus3d", _machine("topology")),
    "MachineConfig.gpu_transport": (
        ("auto", "staged", "direct"), "auto",
        (*_machine("gpu_transport"), ("gpu_pingpong", "transport"),
         ("gpu_kneighbor", "transport"))),
    "run_alltoallv.algorithm": (
        _checked("src/repro/converse/collectives.py", "algorithm"), "plain",
        (("run_alltoallv", "algorithm"), ("CollectiveEngine", "algorithm"))),
    "build_task_tree.mode": (
        _checked("src/repro/apps/nqueens/workmodel.py", "mode"), "auto",
        (("build_task_tree", "mode"),)),
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


def _reexports(tree: ast.Module) -> set[int]:
    """Ids of a package ``__init__``'s import aliases and ``__all__``
    strings: a re-export is not a use."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            out.add(id(node))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            out.update(id(elt) for elt in ast.walk(node.value))
    return out


def _mentioned() -> set[str]:
    names: set[str] = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            skip = (_reexports(tree)
                    if top == "src" and path.name == "__init__.py" else set())
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
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


def _defaulted_parameters() -> list[tuple[str, str, str, object]]:
    """``(callable key, called name, parameter, position)`` of every
    defaulted parameter of a public function, method or constructor;
    the position counts call arguments (``None``: keyword-only)."""
    out = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        body = ast.parse(path.read_text()).body
        defs = [(node.name, node.name, node, 0) for node in body
                if isinstance(node, ast.FunctionDef)]
        for cls in body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    defs.append((cls.name, cls.name, fn, 1))
                else:
                    defs.append((fn.name, f"{cls.name}.{fn.name}", fn,
                                 0 if static else 1))
        for called, qual, fn, bound in defs:
            if called.startswith("_"):
                continue
            args = fn.args
            positional = (args.posonlyargs + args.args)[bound:]
            first = len(positional) - len(args.defaults)
            for pos, arg in enumerate(positional[first:], first):
                out.append((f"{module}.{qual}", called, arg.arg, pos))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((f"{module}.{qual}", called, arg.arg, None))
    return out


def _calls() -> dict[str, tuple[set[str], int, bool]]:
    """Called name -> (keywords passed, most positional arguments, splat)."""
    seen: dict[str, tuple[set[str], int, bool]] = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name is None:
                    continue
                kws, npos, splat = seen.get(name, (set(), 0, False))
                kws |= {k.arg for k in node.keywords if k.arg}
                splat = (splat or any(k.arg is None for k in node.keywords)
                         or any(isinstance(a, ast.Starred) for a in node.args))
                seen[name] = (kws, max(npos, len(node.args)), splat)
    return seen


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
    assert counts == {"UgniLayerConfig": 9, "RdmaLayerConfig": 2,
                      "FaultConfig": 3, "RecoveryPolicy": 3}


def _attributes_read() -> set[str]:
    """Every attribute name a caller loads (``x.name``, not ``x.name =``)."""
    return {node.attr for top in CALLERS
            for path in sorted((ROOT / top).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_machine_field_is_read():
    fields = {f.name for f in dataclasses.fields(MachineConfig)}
    unread = fields - _attributes_read()
    new = sorted(unread - set(KEEP_FIELDS))
    assert not new, f"MachineConfig fields no caller reads: {new}"
    gone = sorted(set(KEEP_FIELDS) - unread)
    assert not gone, f"keep-list fields that are now read: {gone}"


def test_every_parameter_has_a_caller():
    calls = _calls()
    unpassed: dict[str, set[str]] = {}
    for key, called, param, pos in _defaulted_parameters():
        kws, npos, splat = calls.get(called, (set(), 0, False))
        if not (splat or param in kws or (pos is not None and npos > pos)):
            unpassed.setdefault(key, set()).add(param)
    keep = {key: set(params) for key, (params, _why) in KEEP_PARAMS.items()}
    new = {key: sorted(params - keep.get(key, set()))
           for key, params in sorted(unpassed.items())
           if params - keep.get(key, set())}
    assert not new, f"parameters no caller outside the tests passes: {new}"
    gone = {key: sorted(params - unpassed.get(key, set()))
            for key, params in sorted(keep.items())
            if params - unpassed.get(key, set())}
    assert not gone, f"keep-list parameters that now have a caller: {gone}"


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope`` outside any function or class nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _strings(node: ast.AST, bound: dict[str, set[str]]) -> set[str]:
    """String constants ``node`` can be: a constant, either branch of a
    conditional, an element of a literal tuple or list, or any constant
    its scope binds to a name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _strings(node.body, bound) | _strings(node.orelse, bound)
    if isinstance(node, (ast.Tuple, ast.List)):
        return set().union(*(_strings(elt, bound) for elt in node.elts))
    if isinstance(node, ast.Name):
        return bound.get(node.id, set())
    return set()


def _mode_values() -> set[tuple[str, str, str]]:
    """``(called name, keyword, constant)`` of every keyword argument a
    caller passes a string constant to — directly, or through a name its
    function binds by assignment or ``for`` over a literal tuple."""
    out = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for scope in [tree, *(node for node in ast.walk(tree)
                                  if isinstance(node, (ast.FunctionDef,
                                                       ast.AsyncFunctionDef,
                                                       ast.ClassDef)))]:
                nodes = list(_own_nodes(scope))
                bound: dict[str, set[str]] = {}
                for node in nodes:
                    if isinstance(node, ast.Assign):
                        targets, value = node.targets, node.value
                    elif isinstance(node, ast.For):
                        targets, value = [node.target], node.iter
                    else:
                        continue
                    for target in targets:
                        if isinstance(target, ast.Name):
                            bound.setdefault(target.id, set()).update(
                                _strings(value, {}))
                for node in nodes:
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = getattr(func, "id", None) or getattr(
                        func, "attr", None)
                    for kw in node.keywords:
                        if kw.arg:
                            out.update((name, kw.arg, value) for value
                                       in _strings(kw.value, bound))
    return out


def test_every_mode_value_has_a_caller():
    passed = _mode_values()
    unselected = {}
    for mode, (values, default, takers) in MODES.items():
        assert default in values, (mode, default)
        missing = [value for value in values if value != default
                   and not any((callee, keyword, value) in passed
                               for callee, keyword in takers)]
        if missing:
            unselected[mode] = missing
    assert not unselected, f"mode values no caller selects: {unselected}"
