"""Which functions of ``src/repro`` does the test suite ever call?

A pytest plugin plus a report.  While the suite runs, a profile hook
(``sys.setprofile`` on the main thread, ``threading.setprofile`` on every
thread started afterwards -- the checkpoint writers of the live runtime run
on executor threads) records every code object that gets a ``call`` event.
At the end, every ``def`` / ``async def`` under ``src/repro`` is looked up
by ``(file, first line, name)``; the ones never called are written to a
Markdown table, each with a one-line reason.

Reasons carry over: the tool reads the table it is about to overwrite and
keeps the reason of every function still listed, so a rerun after a change
shows only what is new (``no reason yet``); hand-written notes after the
table, from its first ``## `` heading on, are kept too.  Bodies that are
just ``raise NotImplementedError`` and ``__repr__`` methods get their
reason automatically.

Calls made in child interpreters (tier-1 runs ``examples/`` as
subprocesses) are not seen.  Run the tier-1 suite under it from the
repository root (no coverage tool needed; expect the suite to take a few
times longer than usual)::

    PYTHONPATH=src python -m pytest -q -p tools.reach --reach-out docs/REACH.md
"""

from __future__ import annotations

import ast
import re
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def _called_keys(codes) -> set[tuple[str, int, str]]:
    prefix = str(PACKAGE) + "/"
    return {
        (c.co_filename[len(str(SRC)) + 1 :], c.co_firstlineno, c.co_name)
        for c in codes
        if c.co_filename.startswith(prefix)
    }


def _defs(node, prefix: str):
    """``(def, qualname)`` of the functions directly inside ``node``,
    i.e. not inside another function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, prefix + child.name
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, prefix + child.name + ".")
        else:
            yield from _defs(child, prefix)


def _span(fn) -> tuple[int, int]:
    """First line (decorators count, as in ``co_firstlineno``) and length."""
    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
    return first, fn.end_lineno - first + 1


def _functions(path: Path) -> list[tuple[str, int, str, int, bool]]:
    """Every function in one file, in line order: ``(qualname, first line,
    name, own lines, body is a stub)``; own lines leave out nested defs,
    which get rows of their own."""
    found = []
    todo = list(_defs(ast.parse(path.read_text(), str(path)), ""))
    while todo:
        fn, qual = todo.pop()
        inner = list(_defs(fn, qual + ".<locals>."))
        first, span = _span(fn)
        own = span - sum(_span(f)[1] for f, _ in inner)
        found.append((qual, first, fn.name, own, _is_stub(fn)))
        todo.extend(inner)
    return sorted(found, key=lambda row: row[1])


def _is_stub(fn) -> bool:
    body = fn.body
    if ast.get_docstring(fn) is not None:
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


_ROW = re.compile(r"^\| `([^`]+)` \| \d+ \| (.*) \|$")


def _previous(out: Path) -> tuple[dict[str, str], list[str]]:
    """The reasons of the table being replaced, and its hand-written notes
    (everything from the first ``## `` heading on)."""
    if not out.exists():
        return {}, []
    lines = out.read_text().splitlines()
    reasons = {m.group(1): m.group(2) for m in map(_ROW.match, lines) if m}
    notes = next((i for i, line in enumerate(lines) if line.startswith("## ")), None)
    return reasons, [] if notes is None else lines[notes:] + [""]


def report(codes, out: Path, command: str) -> tuple[int, int]:
    """Write the unreached-function table to ``out``; returns
    ``(unreached, functions)``."""
    called = _called_keys(codes)
    reasons, notes = _previous(out)
    rows, total, total_lines, unreached_lines = [], 0, 0, 0
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for qual, first, name, lines, stub in _functions(path):
            total += 1
            total_lines += lines
            if (rel, first, name) in called:
                continue
            unreached_lines += lines
            key = f"{rel}:{qual}"
            if stub:
                why = "abstract base stub"
            elif name == "__repr__":
                why = "`__repr__`, for humans"
            else:
                why = reasons.get(key, "**no reason yet**")
            rows.append(f"| `{key}` | {lines} | {why} |")
    text = [
        "# Reach: functions in `src/` that no test calls",
        "",
        f"Generated by `tools/reach.py`: `{command}`.",
        "A function is *reached* when the suite calls it at least once;",
        "module-level code, lambdas and comprehensions are not counted.",
        "Every unreached function below carries the reason it stays.",
        "Regenerate after a change and diff this file.",
        "",
        f"- functions in `src/repro`: {total} ({total_lines} lines)",
        f"- reached: {total - len(rows)}",
        f"- unreached: {len(rows)} ({unreached_lines} lines)",
        "",
        "| function | lines | why it stays |",
        "|---|---|---|",
        *rows,
        "",
        *notes,
    ]
    out.write_text("\n".join(text))
    return len(rows), total


# -- pytest plugin -----------------------------------------------------------


class Recorder:
    """Collects the code objects that receive a ``call`` profile event."""

    def __init__(self, out: Path, command: str):
        self.out = out
        self.command = command
        self.called: set = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.called.add(frame.f_code)

    def start(self) -> None:
        sys.setprofile(self._hook)
        threading.setprofile(self._hook)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.setprofile(None)
        threading.setprofile(None)
        unreached, total = report(self.called, self.out, self.command)
        print(f"\nreach: {unreached} of {total} functions never called -> {self.out}")


def pytest_addoption(parser):
    parser.addoption(
        "--reach-out",
        default=None,
        metavar="PATH",
        help="record which src/repro functions the run calls; write the "
        "unreached ones to PATH (Markdown)",
    )


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftests import the package: calls made while its
    # modules import (codec registrations, field singletons) count too
    out = early_config.known_args_namespace.reach_out
    if out:
        argv = " ".join(early_config.invocation_params.args)
        recorder = Recorder(Path(out), f"PYTHONPATH=src python -m pytest {argv}")
        recorder.start()
        early_config.pluginmanager.register(recorder, "reach-recorder")
