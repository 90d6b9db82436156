"""Coverage map of ``src/qcolour`` under the tier-1 suite, from the standard library alone.

    python3 mutbench/coverage.py [--out mutbench/COVERAGE.md] [pytest arguments ...]

It runs ``python -m pytest`` (by default on ``tests``) with a fresh directory first on
``PYTHONPATH``. That directory holds a ``sitecustomize.py`` which installs a ``sys.settrace``
line tracer in every interpreter that starts with it: the pytest process itself, and the
``python -m qcolour`` children that the CLI tests start through ``run_cli``. One tracer serves
both, so a line counts as run whichever interpreter ran it. Each interpreter writes the lines
of ``src/qcolour`` it ran when it exits.

The report lists each executable line that no interpreter ran, grouped into runs of
consecutive lines within one function, each with one reason: an ``InternalInvariantError``
guard, or an entry of ``REASONS``. A run with neither is reported as unexplained, and the
script exits 1. Tests that fail under tracing are listed too. Tracing slows qcolour's own code
several times over, so a test with a wall-time bound can fail here only; such failures are
tracing artifacts, and the bounds stay as they are.
"""

from __future__ import annotations

import argparse
import ast
import dis
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcolour"

SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_PREFIX = {prefix!r}
_lines = {{}}


def _line(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_PREFIX):
        return None
    _lines.setdefault(code.co_filename, set()).add(code.co_firstlineno)
    return _line


def _dump():
    sys.settrace(None)
    path = os.path.join({out!r}, "lines-%d.json" % os.getpid())
    with open(path, "w") as fh:
        json.dump({{name: sorted(lines) for name, lines in _lines.items()}}, fh)


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''

GUARD = "invariant guard: a self-check raising InternalInvariantError; no test trips it"
#: Reasons for never-run code that is not an invariant guard, by file, scope and first line.
REASONS: dict[tuple[str, str, str], str] = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "the `__main__` guard of `cli.py`: the CLI runs as `python -m qcolour` (`__main__.py`) "
        "or as the `qcolour` console script, never as `python -m qcolour.cli`",
}


def executable_lines(path: Path) -> set[int]:
    """The lines that start bytecode in the module or in any code object nested in it."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: a module's RESUME
        codes.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def _scopes(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every function and class."""
    out = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                out.append((child.lineno, child.end_lineno, name))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def _scope(scopes, line: int) -> str:
    """The innermost function or class holding ``line``, or ``<module>``."""
    inside = [s for s in scopes if s[0] <= line <= s[1]]
    return max(inside, key=lambda s: s[0])[2] if inside else "<module>"


def _guards(tree: ast.Module) -> set[int]:
    """Lines of ``raise InternalInvariantError(...)`` statements."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and getattr(node.exc.func, "id", None) == "InternalInvariantError":
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


def never_run(ran: dict[str, set[int]]) -> list[dict]:
    """Each run of consecutive never-run lines within one scope, with its reason."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        scopes, guards = _scopes(tree), _guards(tree)
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        runs: list[list[int]] = []
        for line in missed:
            scope = _scope(scopes, line)
            if runs and line == runs[-1][-1] + 1 and scope == _scope(scopes, runs[-1][0]):
                runs[-1].append(line)
            else:
                runs.append([line])
        text = source.splitlines()
        for lines in runs:
            scope, code = _scope(scopes, lines[0]), text[lines[0] - 1].strip()
            reason = GUARD if set(lines) <= guards else REASONS.get((path.name, scope, code))
            out.append({"file": path.name, "lines": (lines[0], lines[-1]), "scope": scope,
                        "code": code, "reason": reason})
    return out


def _pytest(args: list[str], pythonpath: list[str]) -> tuple[str, dict[str, str]]:
    """Run pytest from the repository root: its summary line, and each failed test's message."""
    env = dict(os.environ, COLUMNS="240")
    env["PYTHONPATH"] = os.pathsep.join(pythonpath + [str(ROOT / "src")] + list(
        filter(None, [os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *args],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    summary = re.sub(r"=+", "", lines[-1]).strip() if lines else f"exit {proc.returncode}"
    failed = dict(line.removeprefix("FAILED ").partition(" - ")[::2]
                  for line in lines if line.startswith("FAILED "))
    return summary, failed


def run_traced(pytest_args: list[str], out_dir: str) -> tuple[str, dict[str, str]]:
    """Run pytest with the tracer's ``sitecustomize.py`` first on ``PYTHONPATH``."""
    site = Path(out_dir) / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(prefix=str(PACKAGE) + os.sep, out=out_dir), encoding="utf-8")
    return _pytest(pytest_args, [str(site)])


def collect(out_dir: str) -> tuple[dict[str, set[int]], int]:
    """The lines each traced interpreter ran, merged, and how many interpreters wrote any."""
    ran: dict[str, set[int]] = {}
    files = list(Path(out_dir).glob("lines-*.json"))
    for f in files:
        for name, lines in json.loads(f.read_text(encoding="utf-8")).items():
            ran.setdefault(name, set()).update(lines)
    return ran, len(files)


def report(runs: list[dict], summary: str, failed: dict[str, str], real: set[str],
           interpreters: int, pytest_args: list[str]) -> str:
    total = sum(len(executable_lines(p)) for p in PACKAGE.glob("*.py"))
    missed = sum(r["lines"][1] - r["lines"][0] + 1 for r in runs)
    out = [
        "# Coverage map of `src/qcolour`",
        "",
        "Written by `python3 mutbench/coverage.py`, which runs "
        f"`python -m pytest {' '.join(pytest_args)}` under a `sys.settrace` line tracer in the "
        "pytest process and in every `python -m qcolour` child it starts. "
        f"Python {sys.version.split()[0]}.",
        "",
        f"- pytest, traced: {summary}",
        f"- traced interpreters: {interpreters}",
        f"- executable lines: {total}; never run: {missed}, in {len(runs)} runs",
        "",
        "## Tests that failed under tracing",
        "",
        "Each was run again without the tracer. One that passes then is a tracing artifact, "
        "such as a wall-time bound that the tracer's slowdown breaks; its bound stays.",
        "",
    ]
    out += [f"- `{test}`: {'FAILS UNTRACED TOO' if test in real else 'passes untraced, an artifact'}"
            f" (traced: {why.strip()})" for test, why in failed.items()] or ["None."]
    out += ["", "## Never-run lines", "", "| file | lines | scope | first line | reason |",
            "| ---- | ----- | ----- | ---------- | ------ |"]
    for r in runs:
        first, last = r["lines"]
        span = str(first) if first == last else f"{first}–{last}"
        code = r["code"].replace("|", "\\|")
        out.append(f"| {r['file']} | {span} | `{r['scope']}` | `{code}` | "
                   f"{r['reason'] or 'UNEXPLAINED'} |")
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent / "COVERAGE.md"))
    args, pytest_args = parser.parse_known_args(argv)
    pytest_args = pytest_args or ["tests"]
    with tempfile.TemporaryDirectory(prefix="qcolour-coverage-") as out_dir:
        summary, failed = run_traced(pytest_args, out_dir)
        ran, interpreters = collect(out_dir)
    real = set(_pytest(list(failed), [])[1]) if failed else set()
    runs = never_run(ran)
    Path(args.out).write_text(report(runs, summary, failed, real, interpreters, pytest_args),
                              encoding="utf-8")
    unexplained = [r for r in runs if r["reason"] is None]
    print(f"{summary}; {len(failed) - len(real)} tracing artifacts, {len(real)} real failures; "
          f"{len(runs)} never-run runs, {len(unexplained)} unexplained -> {args.out}")
    return 1 if unexplained or real else 0


if __name__ == "__main__":
    sys.exit(main())
