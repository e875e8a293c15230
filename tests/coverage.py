"""Statement coverage of src/ over the tier-1 suite, with the standard library alone.

    python tests/coverage.py

It installs a line tracer before concealab is imported, runs tier-1 in
this process through pytest.main (from the repo root, as tier-1 runs) and
records the line events in files under src/. A forked child (WorkerPool's)
leaves through os._exit, which this tool wraps so that the child writes
its own hits to a file first; those files are merged into the parent's.

A statement is any ast.stmt but a docstring. It has run if a line event
fell on one of its own lines (a compound statement's own lines are its
header) or on a statement nested in it. Each statement that has not run is
printed as `file:line: source`. The tool fails on an unrun statement that
tests/coverage_allow.txt does not list and on a list entry that matches no
unrun statement. Each entry reads `<reason> | <file>: <source>` and allows
one statement: it is matched by file and source text, not by line number,
so edits elsewhere do not churn the list. Line events differ between Python
versions; the list is kept for the version CI runs this tool on (3.11).

pytest does not collect this file (it is not named test_*.py).
Exit status: pytest's own if tier-1 fails, else 1 if the check fails, else 0.
"""
from __future__ import annotations

import ast
import collections
import json
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOW = Path(__file__).with_name("coverage_allow.txt")
PREFIX = str(SRC) + os.sep

hits: dict[str, set[int]] = collections.defaultdict(set)


def _line(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(PREFIX) else None


def _child_exit(hits_dir: str):
    """os._exit that first writes this process's hits to a new file in
    hits_dir. A forked child leaves through os._exit, which runs no exit
    handler, so this is the one place to catch its hits."""
    real_exit = os._exit

    def _exit(status):
        try:
            sys.settrace(None)
            fd, path = tempfile.mkstemp(dir=hits_dir, suffix=".json")
            with os.fdopen(fd, "w") as f:
                json.dump({name: sorted(lines) for name, lines in hits.items()}, f)
        finally:
            real_exit(status)
    return _exit


def _merge(hits_dir: str) -> int:
    """Add the hits of every child's file to this process's; the file count."""
    files = sorted(Path(hits_dir).iterdir())
    for path in files:
        for name, lines in json.loads(path.read_text()).items():
            hits[name].update(lines)
    return len(files)


def run_tier1() -> int:
    hits_dir = tempfile.mkdtemp(prefix="concealab-coverage-")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import pytest

    real_exit = os._exit
    os._exit = _child_exit(hits_dir)
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = real_exit
        children = _merge(hits_dir)
        shutil.rmtree(hits_dir)
    print(f"coverage: merged the hits of {children} forked children")
    return int(code)


def _docstrings(tree: ast.Module) -> set[int]:
    return {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, ast.Module | ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef)
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def unrun(path: Path, lines_run: set[int]) -> tuple[int, list[tuple[int, str]]]:
    """The statement count of the file at path, and (line, source) of each
    statement none of whose own lines, nor any nested statement's, is in
    lines_run. The source is the statement's own lines, stripped and joined
    by one space."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    skip = _docstrings(tree)
    owner: dict[int, ast.stmt] = {}
    parent: dict[int, ast.stmt | None] = {}
    stmts: list[ast.stmt] = []
    # breadth first, so a statement owns its lines before those nested in it take theirs
    queue = collections.deque([(tree, None)])
    while queue:
        node, enclosing = queue.popleft()
        if isinstance(node, ast.stmt) and id(node) not in skip:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            owner.update(dict.fromkeys(range(start, node.end_lineno + 1), node))
            parent[id(node)] = enclosing
            stmts.append(node)
            enclosing = node
        queue.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    ran: set[int] = set()
    for line in lines_run:
        node = owner.get(line)
        while node is not None and id(node) not in ran:
            ran.add(id(node))
            node = parent[id(node)]
    missed = []
    for node in stmts:
        if id(node) in ran:
            continue
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        missed.append((node.lineno, " ".join(s.strip() for s in lines[node.lineno - 1:end])))
    return len(stmts), sorted(missed)


def read_allow(path: Path) -> collections.Counter:
    """(file, source) -> the number of entries that allow it; a line that is
    blank or starts with '#' is skipped, and each other needs a reason."""
    allowed: collections.Counter = collections.Counter()
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        reason, sep, entry = line.partition(" | ")
        file, colon, source = entry.partition(": ")
        if not (sep and reason.strip() and colon and source):
            raise SystemExit(f"{path.name}:{number}: not `<reason> | <file>: <source>`: {line}")
        allowed[file, source] += 1
    return allowed


def report(allowed: collections.Counter) -> bool:
    """Print each unrun statement, then what the allow-list misses and each
    stale entry; True if there is neither."""
    total = 0
    missed: collections.Counter = collections.Counter()
    for path in sorted(SRC.rglob("*.py")):
        count, found = unrun(path, hits.get(str(path), set()))
        total += count
        name = path.relative_to(ROOT).as_posix()
        for line, source in found:
            print(f"{name}:{line}: {source}")
            missed[name, source] += 1
    unlisted = missed - allowed
    stale = allowed - missed
    print(f"coverage: {total} statements under src/, {sum(missed.values())} unrun, "
          f"{sum(unlisted.values())} of them not on {ALLOW.name}, "
          f"{sum(stale.values())} stale entries")
    for (name, source), n in sorted(unlisted.items()):
        print(f"unrun and not allowed ({n}x): {name}: {source}")
    for (name, source), n in sorted(stale.items()):
        print(f"stale entry, matches no unrun statement ({n}x): {name}: {source}")
    return not unlisted and not stale


def main() -> int:
    code = run_tier1()
    ok = report(read_allow(ALLOW))
    return code or (0 if ok else 1)


if __name__ == "__main__":
    sys.exit(main())
