"""Tombstones: what a simplification removed stays removed.

Each row is one ``git grep -nE PATTERN -- PATHS`` over the tracked files
that must find nothing: the names, verbs and second copies a pull request
deleted, so that a later change cannot bring one back by accident.  The
rows run exactly as the repository's CI ran them as separate steps.

Every row also carries a line that reintroduces what it guards.
:func:`test_each_tombstone_catches_its_reintroduction` writes all of them
into a scratch repository, each under its row's first path, and requires
every row to report its own line, so a pattern that can no longer match
anything fails here instead of passing forever.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_DOCS = ("README.md", "DESIGN.md")

#: (pattern, paths, PR that removed it, why, a line the pattern catches)
TOMBSTONES = [
    (r"repro\.projections",
     ("src", "tests", "examples", "benchmarks", *_DOCS), 24,
     "one interval recorder: the projections package stays folded into "
     "repro.observe",
     # two literals, so this file holds no match of its own row
     "from repro" ".projections import timeline"),
    (r"repro\.sim\.process|\bProcess\(|call_soon|post_soon|post_after"
     r"|\.drain\(|mpish\.(comm|collectives)|call_at_batch",
     ("src", "benchmarks", "examples", *_DOCS), 25,
     "one programming model: callbacks, no generator processes and no "
     "engine verbs only they called",
     "engine.call_soon(wake)"),
    (r"SmsgConnection|\._connections\b",
     ("src", "benchmarks", "examples"), 26,
     "links and SMSG connections are columns, not an object per link or "
     "pair",
     "conn = SmsgConnection(src, dst)"),
    (r"_next_direction|careful|minus the call",
     ("src/repro/hardware",), 27,
     "one reserve and one walk in the router's Python body, no inlined "
     "second copy",
     "hop = _next_direction(here, dst)"),
    (r"lrts\.registry|register_layer|layer_kw|machine_kw|runtime_kw"
     r"|register_window|release_window|for_pes",
     ("src", "examples", "benchmarks", *_DOCS), 28,
     "one way to build a layer and to pin memory: no registry, no "
     "pass-through channels",
     "from repro.lrts.registry import register_layer"),
    (r"min_occupancy",
     ("src/repro/hardware/router.py", "src/repro/sim/_speedups.c"), 28,
     "no test-only router knob in either lane",
     "min_occupancy = 0.5"),
    (r"stack\.append|def expand\b",
     ("src/repro/apps/nqueens",), 31,
     "one N-Queens enumerator: the tuple DFS lives only in the test oracle",
     "stack.append(child)"),
    (r"at_quiescence|group_shrink|GROUP_SHRINK_MODES|seed_kw|spawn_seed"
     r"|def spawn\b|strict: bool|self\.strict|UgniCqOverrun|def fault_report"
     r"|def format_fault_report|def fma_bte_sweep|def sweep_map"
     r"|def valid_prefixes|self\.channel\b|exact_limit|_hist_width",
     ("src", "benchmarks", "examples", *_DOCS), 32,
     "one checkpoint path and no test-only modes",
     "def fma_bte_sweep(sizes):"),
    (r"valiant|Valiant|dragonfly_routing|run_allgather|def allgather"
     r"|_AgState|ag_ring|REMOTE_DATA|[^n]_remote_data|PostType\.AMO"
     r"|_post_amo|SMSG_TX|_evict_oldest|\.evicted"
     r'|"pxshm", "pxshm_single", "fabric"',
     ("src", "benchmarks", "examples", *_DOCS), 34,
     "every mode has traffic: modes no caller passed stay gone",
     "routing = dragonfly_routing"),
    (r"SMSG_ARRIVAL|_on_smsg_event|smsg\.rx_cq\(",
     ("src",), 35,
     "SMSG arrivals go straight to their consumer, through no completion "
     "queue",
     "kind = SMSG_ARRIVAL"),
    (r"CompletionQueue|CqEntry|_rx_cqs",
     ("src/repro/ugni/smsg.py",), 35,
     "the SMSG fabric holds no completion queue",
     "self._rx_cqs = {}"),
    (r"CompletionQueue|CqEntry|CqEventKind|src_cq|rx_cq|get_event|get_next"
     r"|_mailboxes|cq_poll_cpu|unnamed_cqs|on_cq_push|on_cq_pop|_post_cqs",
     ("src",), 39,
     "every uGNI arrival and completion goes straight to its fabric's one "
     "consumer: no completion queue, no poll, no mailbox default",
     "entry = cq.get_event()"),
    (r"BENCHMARK_LAYERS|select_benchmarks|run_all\.py --layers|chaos-layers",
     ("benchmarks", ".github", ".claude", *_DOCS), 41,
     "one CI leg per gate: no job re-runs a subset of another leg, and "
     "run_all.py runs every benchmark",
     "names = select_benchmarks(args.layers)"),
    (r"match_unexpected|match_posted|add_unexpected|probe_scan_cost"
     r"|_RndvInfo|_deliver_matched|begin_blocking|def _kick\b|_waiters",
     ("src",), 42,
     "the MPI path at one frame per protocol step: iprobe / irecv are the "
     "unexpected-queue scans, a request has one waiter",
     "arr, cpu = eng.match_unexpected(src, tag, pop=True)"),
    (r"post_best|STEP_TAGS|def _desc\b|def _validate\b",
     ("src", "benchmarks", "examples", *_DOCS), 45,
     "a post reaches the NIC in one engine frame: RdmaEngine.post picks the "
     "unit and validates, and the core builds its descriptors inline",
     "cpu = gni.rdma.post_best(node, desc)"),
    (r"_proto_handler|_proto_hid|_steps\[step\]\(",
     ("src/repro/lrts/protocols.py", "src/repro/lrts/ugni_layer",
      "src/repro/lrts/rdma_layer"), 45,
     "each protocol step is a Converse handler of its own: no shared "
     "protocol handler dispatching on a step name",
     "self._proto_hid = self.conv.register_handler(self._proto_handler)"),
    (r"class _Msg\b|_eng\.now|_stage_columns|_span_columns"
     r"|\._(code|where|detail)\.append",
     ("src/repro/sanitize", "src/repro/observe"), 46,
     "the observed path at one write per stage: a stage row is trace ID, "
     "time and key, and the sanitizer's SMSG shadow makes no object per "
     "message and reads the engine core's clock",
     "self._msgs[id(msg)] = _Msg(msg, self._eng.now)"),
    (r"\bBoundMethod\b",
     ("src", "tests", *_DOCS), 47,
     "a proxy's entry name is a function on the ref's class, found without "
     "a failed attribute lookup: no bound-entry object beside it",
     "bound = _new(Bound" "Method)"),
    (r"\bundeliver\b|_internal_hids|rdma_path_for",
     ("src", "benchmarks", "examples", *_DOCS), 48,
     "one outcome per application message, recorded where the scheduler "
     "takes or drops it: no take-back guessed from handler ids, and no "
     "test-only copy of the rdma ladder",
     "lrts.undeliver(pe.halt())"),
    (r"(delivered|dropped_dead) \+= 1",
     ("src/repro/lrts",), 48,
     "the layers record no outcome of their own: PE.enqueue counts it",
     "self.delivered += 1"),
    (r"\b_prio(q|_seq)?\b",
     ("src", "tests"), 50,
     "one FIFO run queue per PE: no message priority, no heap beside it, "
     "no priority keyword on the Charm call path",
     # split so that this file holds no match of its own row
     "self._pri" "oq = None"),
    (r"\brdma_kind_for\b",
     ("src", "tests", "benchmarks", "examples", *_DOCS), 50,
     "the NIC's best_kind holds the FMA/BTE size rule itself",
     "kind = cfg.rdma_kind" "_for(n)"),
    (r"\bfma_(put|get)_base\b|\bsmsg_mailbox_bytes\b",
     ("src", "tests", "benchmarks", "examples", *_DOCS), 50,
     "no MachineConfig field that nothing reads",
     "t = cfg.fma_put" "_base"),
    (r"\bLinkFlap\b|\b(fail|degrade|restore)_link\b|\bfaulted_links\b"
     r"|\broute_mode\b|\bdegraded_routes\b|\b_faulted\b|\bFAULT_LATENCY\b"
     r"|\bDOWN_BANDWIDTH_FACTOR\b|\bfaulted_transfers\b|\blink_events\b",
     ("src", "benchmarks", "examples", *_DOCS), 51,
     "links have no fault state: no link fault event, no degraded routing "
     "mode, and no hand-off from the compiled router lane while one is out",
     "net.fail" "_link(a, b)"),
]

_IDS = [f"pr{pr}-{n}" for n, (_, _, pr, _, _) in enumerate(TOMBSTONES)]


def git_grep(pattern: str, paths: tuple[str, ...], cwd: Path) -> list[str]:
    """``git grep -nE pattern -- paths`` in ``cwd``: the matching lines."""
    out = subprocess.run(["git", "grep", "-nE", pattern, "--", *paths],
                         cwd=cwd, capture_output=True, text=True)
    if out.returncode not in (0, 1):  # 1: nothing matched
        raise RuntimeError(f"git grep failed: {out.stderr.strip()}")
    return out.stdout.splitlines()


@pytest.mark.parametrize("pattern, paths, pr, why, seed", TOMBSTONES,
                         ids=_IDS)
def test_tombstone_stays_buried(pattern, paths, pr, why, seed):
    hits = git_grep(pattern, paths, ROOT)
    assert not hits, f"removed in PR {pr} ({why}), back in:\n" + "\n".join(
        hits)


def test_each_tombstone_catches_its_reintroduction(tmp_path):
    def seeded_file(path: str) -> Path:
        target = tmp_path / path
        if not target.suffix:  # a directory: seed a module inside it
            target = target / "reintroduced.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        return target

    for pattern, paths, pr, why, seed in TOMBSTONES:
        with seeded_file(paths[0]).open("a") as f:
            f.write(seed + "\n")
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "add", "-A"], cwd=tmp_path, check=True)
    missed = [name for name, (pattern, paths, _, _, seed)
              in zip(_IDS, TOMBSTONES)
              if not any(hit.endswith(":" + seed)
                         for hit in git_grep(pattern, paths, tmp_path))]
    assert not missed, f"rows that miss their own reintroduction: {missed}"
