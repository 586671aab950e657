"""Tracer arithmetic on a synthetic call tree, and the layer map."""

import os
import time

import trace as T

from conftest import ROOT


# A nested tree, apps -> charm -> converse -> sim and back.  Each function
# burns its time inline (a helper would be a layer of its own), so the
# expected self time of a layer is the sum of its functions' constants.
def leaf_sim():
    end = time.perf_counter() + 0.004
    while time.perf_counter() < end:
        pass


def mid_converse(deeper):
    end = time.perf_counter() + 0.003
    while time.perf_counter() < end:
        pass
    if deeper:
        leaf_sim()
    end = time.perf_counter() + 0.002
    while time.perf_counter() < end:
        pass


def top_charm():
    end = time.perf_counter() + 0.005
    while time.perf_counter() < end:
        pass
    mid_converse(True)
    mid_converse(False)
    helper_charm()


def helper_charm():
    end = time.perf_counter() + 0.001
    while time.perf_counter() < end:
        pass


def root_apps():
    top_charm()
    end = time.perf_counter() + 0.002
    while time.perf_counter() < end:
        pass


EXPECTED_S = {"sim": 0.004, "converse": 0.010, "charm": 0.006, "apps": 0.002}
LAYER_BY_PREFIX = {"leaf": "sim", "mid": "converse", "top": "charm",
                   "helper": "charm", "root": "apps"}


def by_name(frame):
    return LAYER_BY_PREFIX.get(frame.f_code.co_name.split("_")[0], "other")


def test_self_times_sum_to_the_root_span():
    tracer = T.Tracer(classify=by_name)
    tracer.run(root_apps)
    idx = {name: i for i, name in enumerate(T.LAYERS)}
    (root_n, root_s), = [v for (layer, parent), v in tracer.edges.items()
                         if layer == idx["apps"]]
    inside = sum(tracer.self_s[idx[n]] for n in EXPECTED_S)
    assert root_n == 1
    assert abs(inside - root_s) <= 0.01 * root_s
    assert abs(sum(tracer.self_s) - tracer.total_s) <= 1e-9
    for name, expected in EXPECTED_S.items():
        assert expected <= tracer.self_s[idx[name]] <= expected + 0.001, name


def test_counts_and_parents_are_exact():
    ticks = iter(range(10_000))
    tracer = T.Tracer(classify=by_name, clock=lambda: float(next(ticks)))
    tracer.run(root_apps)
    idx = {name: i for i, name in enumerate(T.LAYERS)}
    assert tracer.calls[idx["charm"]] == 2      # top_charm, helper_charm
    assert tracer.spans[idx["charm"]] == 1      # helper is charm -> charm
    assert tracer.calls[idx["converse"]] == 2
    assert tracer.spans[idx["converse"]] == 2
    assert tracer.spans[idx["sim"]] == 1
    assert tracer.edges[(idx["sim"], idx["converse"])][0] == 1
    assert tracer.edges[(idx["converse"], idx["charm"])][0] == 2
    # one clock read per boundary crossing, so with a unit clock the self
    # times are the crossing counts and still add up to the interval
    assert sum(tracer.self_s) == tracer.total_s
    by_id = {s[0]: s for s in tracer.raw}
    sim_span = next(s for s in tracer.raw if s[1] == idx["sim"])
    assert by_id[sim_span[5]][1] == idx["converse"]   # parent span's layer


def test_engine_events_number_the_roots():
    fired = []

    def run_sim(callbacks):     # stands for Engine.run
        for cb in callbacks:
            cb()

    def handler_converse():
        fired.append(1)

    def classify(frame):
        return {"run": "sim", "handler": "converse"}.get(
            frame.f_code.co_name.split("_")[0], "other")

    tracer = T.Tracer(classify=classify)
    tracer.run(run_sim, [handler_converse] * 3)
    roots = sorted(s[6] for s in tracer.raw if s[2] == "handler_converse")
    assert roots == [1, 2, 3]


def test_chrome_trace_is_loadable(tmp_path):
    import json

    tracer = T.Tracer(classify=by_name, keep=3)
    tracer.run(root_apps)
    path = tmp_path / "out" / "trace.json"
    tracer.write_chrome_trace(str(path), {"workload": "synthetic"})
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == 3           # `keep` caps raw spans
    assert {"name", "cat", "ph", "ts", "dur"} <= set(doc["traceEvents"][0])
    assert sum(e["spans"] for e in doc["edges"]) > 3   # aggregates do not


def test_layer_map_covers_every_module():
    src = os.path.join(ROOT, "src")
    unmapped = []
    for dirpath, _dirs, files in os.walk(os.path.join(src, "repro")):
        for fname in files:
            if not fname.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, fname), src)
            module = rel[:-3].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[:-len(".__init__")]
            if T.layer_of_module(module) is None:
                unmapped.append(module)
    assert not unmapped, (
        f"add these to PACKAGE_LAYERS in perf/trace.py: {unmapped}")
    assert {layer for _p, layer in T.PACKAGE_LAYERS} <= set(T.LAYERS)
