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
