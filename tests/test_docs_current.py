"""The documents are held to the artifacts they describe.

1. EXPERIMENTS.md has one section per id of
   ``repro.bench.figures.EXPERIMENTS`` and none for anything else; each
   section quotes its ``benchmarks/results/<id>.txt`` in at least one
   fenced excerpt, and every excerpt line is a line of that file.
2. Every cell of README's workload table is the last
   ``benchmarks/TRAJECTORY.jsonl`` row of the PR the table names, at the
   table's precision.
3. Every DESIGN section reference outside the history files resolves to
   a ``## N.`` heading of DESIGN.md, and says which section it means:
   the quoted title that follows it occurs in that section, or the
   section names the file the reference sits in.
4. Every inline backticked identifier in DESIGN.md occurs in ``src/``,
   ``tests/``, ``benchmarks/`` or ``perf/``.
5. ``benchmarks/TRAJECTORY.jsonl`` has rows for the newest ``PR <n>:``
   commit in the history (or a later PR's uncommitted rows).

The CI fidelity step gates the results files, so an excerpt checked
here is exactly as current as they are.
"""

import importlib.util
import json
import re
import subprocess
from pathlib import Path

from repro.bench.figures import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
#: where a DESIGN reference may sit (CHANGES.md and ROADMAP.md are history)
REFERRING = ("src", "tests", "README.md", "EXPERIMENTS.md",
             ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")
#: where a DESIGN identifier must occur; the tombstone table and this
#: file's seeded edits name things that do not exist, on purpose
CODE = ("src", "tests", "benchmarks", "perf")
NOT_CODE = {ROOT / "tests" / "test_tombstones.py", Path(__file__).resolve()}
CODE_SUFFIXES = {".py", ".c", ".md", ".txt", ".json", ".jsonl", ".toml"}

FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
SECTION_ID = re.compile(r"^## .*\(`(\w+)`\)$")
REFERENCE = re.compile(
    r'DESIGN(?:\.md)?`?\s*§\s*(\d+)(?:,?\s*\\?"([^"\\]+))?')
IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*(?:\(\))?")
#: README table header -> the trajectory row's cell, as printed
COLUMNS = {
    "workload": lambda r: f"`{r['workload']}`",
    "msgs per host second": lambda r: f"{r['msgs_per_s']['median'] / 1e3:.1f}k",
    "`total.calls_per_msg`": lambda r: f"{r['total.calls_per_msg']:.1f}",
    "peak RSS (MB)": lambda r: f"{r['peak_rss_mb']['median']:.1f}",
}


def _squash(text: str) -> str:
    return " ".join(text.split()).lower()


def experiments_problems(text: str, results: Path) -> list[str]:
    problems, seen = [], []
    for part in re.split(r"^(?=## )", text, flags=re.M)[1:]:
        heading = part.splitlines()[0]
        found = SECTION_ID.match(heading)
        if found is None or found.group(1) not in EXPERIMENTS:
            problems.append(f"a section for no experiment id: {heading!r}")
            continue
        exp_id = found.group(1)
        seen.append(exp_id)
        lines = {line.rstrip() for line in
                 (results / f"{exp_id}.txt").read_text().splitlines()}
        excerpts = FENCE.findall(part)
        if not excerpts:
            problems.append(f"{exp_id}: no excerpt of its results file")
        for excerpt in excerpts:
            for line in excerpt.splitlines():
                if line.rstrip() not in lines:
                    problems.append(f"{exp_id}: not in {exp_id}.txt: {line!r}")
    for exp_id in EXPERIMENTS:
        if seen.count(exp_id) != 1:
            problems.append(f"{exp_id}: {seen.count(exp_id)} sections")
    return problems


def readme_problems(text: str, trajectory: list[dict]) -> list[str]:
    named = re.findall(r"the PR (\d+) rows of `benchmarks/TRAJECTORY.jsonl`",
                       text)
    if len(named) != 1:
        return [f"README names {len(named)} trajectory PRs for its table"]
    pr = int(named[0])
    last = {r["workload"]: r for r in trajectory if r["pr"] == pr}
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith("| workload |")), None)
    if start is None:
        return ["README has no workload table"]
    header = [c.strip() for c in lines[start].strip("|").split("|")]
    problems = [f"column {h!r} is not a trajectory field"
                for h in header if h not in COLUMNS]
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip() for c in line.strip("|").split("|")])
    names = [row[0].strip("`") for row in rows]
    if sorted(names) != sorted(last):
        problems.append(f"rows {names} are not PR {pr}'s {sorted(last)}")
    for name, row in zip(names, rows):
        for column, cell in zip(header, row):
            if column in COLUMNS and name in last:
                want = COLUMNS[column](last[name])
                if cell != want:
                    problems.append(f"{name} {column}: {cell!r}, the "
                                    f"trajectory says {want!r}")
    return problems


def reference_problems(design: str, texts: dict[str, str]) -> list[str]:
    headings = {}
    for part in re.split(r"^(?=## )", design, flags=re.M)[1:]:
        found = re.match(r"## (\d+)\. ", part)
        if found:
            headings[int(found.group(1))] = part
    problems = []
    for name, text in texts.items():
        for found in REFERENCE.finditer(text):
            n, title = int(found.group(1)), found.group(2)
            where = f"{name}: DESIGN §{n}"
            section = headings.get(n)
            if section is None:
                problems.append(f"{where}: no '## {n}.' heading")
            elif title is not None:
                if _squash(title) not in _squash(section):
                    problems.append(f"{where}: {title!r} is not in it")
            elif not any(f in section for f in _file_names(name)):
                problems.append(f"{where}: say which part of it is meant "
                                f"(a quoted title), or name {name} there")
    for n in re.findall(r"(?<!DESIGN )(?<!DESIGN\.md )§(\d+)", design):
        if int(n) not in headings:
            problems.append(f"DESIGN.md: §{n} has no heading")
    return problems


def _file_names(name: str) -> list[str]:
    """How DESIGN.md may name the file ``name``: its path, or its module."""
    path = Path(name)
    if name.startswith("tests/"):
        return [name]
    if name.startswith("src/repro/"):
        inner = path.relative_to("src/repro")
        module = ".".join(("repro",) + inner.with_suffix("").parts)
        return [str(inner), module.removesuffix(".__init__")]
    return []


def identifier_problems(design: str, code_words: set[str]) -> list[str]:
    inline = FENCE.sub("", design)
    names = {span for span in re.findall(r"`([^`\n]+)`", inline)
             if IDENTIFIER.fullmatch(span)}
    return sorted(f"`{name}` names nothing in {', '.join(CODE)}"
                  for name in names
                  if any(part not in code_words
                         for part in name.removesuffix("()").split(".")
                         if part))


def _code_words(root: Path = ROOT) -> set[str]:
    """Every word of the code files git tracks under ``CODE``: what a run
    leaves behind (traces, local reports) is not code."""
    tracked = subprocess.run(
        ["git", "ls-files", "--", *CODE], cwd=root, capture_output=True,
        text=True, check=True).stdout.splitlines()
    words: set[str] = set()
    for name in tracked:
        path = root / name
        if (path.suffix in CODE_SUFFIXES and path.is_file()
                and path not in NOT_CODE):
            words.update(re.findall(r"[A-Za-z_]\w*",
                                    path.read_text(errors="replace")))
    return words


def _referring_texts() -> dict[str, str]:
    texts = {}
    for top in REFERRING:
        path = ROOT / top
        files = (sorted(path.rglob("*.py")) + sorted(path.rglob("*.c"))
                 if path.is_dir() else [path] if path.exists() else [])
        for f in files:
            texts[str(f.relative_to(ROOT))] = f.read_text()
    return texts


def _trajectory() -> list[dict]:
    with open(ROOT / "benchmarks" / "TRAJECTORY.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _pr_of():
    """``benchmarks/trajectory.py``'s reading of a commit subject."""
    spec = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "benchmarks" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.pr_of


def trajectory_problems(subjects: list[str],
                        trajectory: list[dict]) -> list[str]:
    """The newest PR the commit subjects name has trajectory rows."""
    pr_of = _pr_of()
    newest = max(filter(None, map(pr_of, subjects)), default=None)
    measured = max((r["pr"] for r in trajectory), default=None)
    if newest is not None and (measured is None or measured < newest):
        return [f"PR {newest} is committed, but the newest trajectory rows "
                f"are PR {measured}'s: run benchmarks/trajectory.py"]
    return []


def test_experiments_quotes_every_results_file():
    problems = experiments_problems((ROOT / "EXPERIMENTS.md").read_text(),
                                    ROOT / "benchmarks" / "results")
    assert problems == [], "\n".join(problems)


def test_readme_table_is_the_trajectory():
    problems = readme_problems((ROOT / "README.md").read_text(),
                               _trajectory())
    assert problems == [], "\n".join(problems)


def test_the_trajectory_reaches_the_newest_pr():
    subjects = subprocess.run(
        ["git", "log", "--format=%s"], cwd=ROOT, capture_output=True,
        text=True, check=True).stdout.splitlines()
    problems = trajectory_problems(subjects, _trajectory())
    assert problems == [], "\n".join(problems)


def test_design_references_resolve():
    problems = reference_problems(DESIGN.read_text(), _referring_texts())
    assert problems == [], "\n".join(problems)


def test_design_identifiers_name_code():
    problems = identifier_problems(DESIGN.read_text(), _code_words())
    assert problems == [], "\n".join(problems)


def test_design_is_as_built():
    """At most 900 lines, and no history: a PR number only where it cites
    a trajectory row."""
    text = DESIGN.read_text()
    assert len(text.splitlines()) <= 900
    for line in text.splitlines():
        if re.search(r"\bPR \d+\b", line):
            assert "trajectory, PR" in line, line
        assert "used to" not in line, line


class TestSeededEdits:
    """Each check catches a one-character edit of what it guards."""

    def test_an_excerpt_line(self):
        """Every excerpt line, its first letter or digit changed."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        results = ROOT / "benchmarks" / "results"
        first = text.index("\n## ")
        for fence in FENCE.finditer(text, first):
            at = fence.start(1)
            for line in fence.group(1).splitlines(keepends=True):
                i = at + next(i for i, ch in enumerate(line) if ch.isalnum())
                new = (str((int(text[i]) + 1) % 10) if text[i].isdigit()
                       else "y" if text[i] == "x" else "x")
                edited = text[:i] + new + text[i + 1:]
                assert experiments_problems(edited, results), line
                at += len(line)
        missing = re.sub(r"(## Fig\. 4 .*?)```text\n.*?```\n", r"\1",
                         text, count=1, flags=re.S)
        assert any("fig4: no excerpt" in p
                   for p in experiments_problems(missing, results))

    def test_a_table_cell(self):
        """Every digit of the table."""
        text = (ROOT / "README.md").read_text()
        trajectory = _trajectory()
        start = text.index("| workload |")
        for i in range(start, text.index("\n\n", start)):
            if text[i].isdigit():
                edited = (text[:i] + str((int(text[i]) + 1) % 10)
                          + text[i + 1:])
                assert readme_problems(edited, trajectory), i

    def test_a_pr_without_rows(self):
        """The newest PR's rows, dropped."""
        trajectory = _trajectory()
        newest = max(r["pr"] for r in trajectory)
        older = [r for r in trajectory if r["pr"] < newest]
        subject = f"PR {newest}: a change"
        assert trajectory_problems([subject], trajectory) == []
        assert trajectory_problems([subject], older) == [
            f"PR {newest} is committed, but the newest trajectory rows are "
            f"PR {max(r['pr'] for r in older)}'s: run "
            f"benchmarks/trajectory.py"]
        assert trajectory_problems(["re-anchor @ PR 99: ROADMAP"],
                                   older) == []

    def test_a_section_reference(self):
        design = DESIGN.read_text()
        texts = _referring_texts()
        for name, text in texts.items():
            for found in REFERENCE.finditer(text):
                n = found.group(1)
                for other in ("1", str((int(n) % 16) + 1)):
                    if other == n:
                        continue
                    edited = (text[:found.start(1)] + other
                              + text[found.end(1):])
                    assert reference_problems(design, {name: edited}), (
                        name, n, other)

    def test_a_stale_identifier(self):
        design = DESIGN.read_text() + "\nThe `post_tx_cqh` queue.\n"
        assert identifier_problems(design, _code_words()) == [
            "`post_tx_cqh` names nothing in src, tests, benchmarks, perf"]

    def test_a_stale_identifier_in_an_ignored_file(self, tmp_path):
        """A name that only git-ignored run output holds (a trace under
        ``perf/out``, a local report) still names nothing."""
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "rdma.py").write_text("def post(): pass\n")
        (tmp_path / "perf" / "out").mkdir(parents=True)
        (tmp_path / "perf" / "out" / "trace_knb_large.json").write_text(
            '{"post_tx_cqh": 1}\n')
        (tmp_path / ".gitignore").write_text("perf/out/\n")
        for cmd in (["git", "init", "-q"], ["git", "add", "-A"]):
            subprocess.run(cmd, cwd=tmp_path, check=True)
        words = _code_words(tmp_path)
        assert "post" in words
        assert identifier_problems("The `post_tx_cqh` queue.\n", words) == [
            "`post_tx_cqh` names nothing in src, tests, benchmarks, perf"]
