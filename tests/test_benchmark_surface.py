"""The program surface the benchmark uses, read from ``perfbench/*.py`` as source.

Nothing is imported from ``perfbench/``: each file is parsed with ``ast``. Every qcolour name it
imports or reaches must exist, every call it makes to one must bind to that callee's
parameters, and every ``--flag`` it passes must be an option of a ``qcolour`` subcommand. So a
deletion the benchmark still depends on fails here, and a name the benchmark stops using is
no longer required.
"""
from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

from qcolour import cli
from qcolour.core import Record

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FLAG = re.compile(r"--[a-z][a-z0-9-]*")
UNRESOLVED = object()


class _Blank(dict):
    """Fills each ``str.format`` field of a code template with None."""

    def __missing__(self, key):
        return None


def _trees() -> list[tuple[str, ast.Module]]:
    """Each benchmark file, and each Python template inside one that imports qcolour
    (the set-up snippet run in a child interpreter), as (label, tree)."""
    files = sorted(PERFBENCH.glob("*.py"))
    assert files, f"no benchmark sources under {PERFBENCH}"
    out = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        out.append((path.name, tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.search(r"^\s*(from|import) qcolour\b", node.value, re.M):
                code = node.value.format_map(_Blank())
                out.append((f"{path.name}:{node.lineno} template", ast.parse(code)))
    return out


def _import(module: str, name: str):
    """``from module import name``: an attribute, else a submodule, else UNRESOLVED."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return UNRESOLVED


class _Surface:
    """The qcolour objects one tree names, and what it asks of them."""

    def __init__(self, label: str, tree: ast.Module):
        self.label, self.tree = label, tree
        self.env: dict[str, object] = {}
        self.missing: list[str] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top != "qcolour":
                        continue
                    try:
                        module = importlib.import_module(alias.name)
                    except ImportError:
                        self.missing.append(f"{label}:{node.lineno}: import {alias.name}")
                        continue
                    # ``import qcolour.cli`` binds ``qcolour``; ``import qcolour.cli as c`` binds c
                    self.env[alias.asname or top] = module if alias.asname else sys.modules[top]
            elif isinstance(node, ast.ImportFrom) and not node.level \
                    and (node.module or "").split(".")[0] == "qcolour":
                for alias in node.names:
                    obj = _import(node.module, alias.name)
                    if obj is UNRESOLVED:
                        where = f"{label}:{node.lineno}"
                        self.missing.append(f"{where}: from {node.module} import {alias.name}")
                    else:
                        self.env[alias.asname or alias.name] = obj
        for node in ast.walk(tree):  # aliases such as ``real = qcolour.verify.colouring_fn``
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                obj = self.resolve(node.value)
                if obj is not UNRESOLVED:
                    self.env[node.targets[0].id] = obj

    def resolve(self, node: ast.AST):
        """The qcolour object an expression names, or UNRESOLVED. A missing attribute of a
        qcolour module or class is recorded."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id, UNRESOLVED)
        if not isinstance(node, ast.Attribute):
            return UNRESOLVED
        base = self.resolve(node.value)
        if not isinstance(base, (types.ModuleType, type)):
            return UNRESOLVED
        if hasattr(base, node.attr):
            return getattr(base, node.attr)
        if isinstance(base, type) and issubclass(base, Record) and node.attr in base._fields:
            return UNRESOLVED  # a field without a default is an instance attribute
        self.missing.append(f"{self.label}:{node.lineno}: {ast.unparse(node)}")
        return UNRESOLVED

    def attribute_problems(self) -> list[str]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Attribute):
                self.resolve(node)
            # tracer.patch(module, "attr", ...) and tracer.replace(module, "attr", ...)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("patch", "replace") and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant):
                module = self.resolve(node.args[0])
                if isinstance(module, types.ModuleType) and not hasattr(module, node.args[1].value):
                    self.missing.append(
                        f"{self.label}:{node.lineno}: {module.__name__}.{node.args[1].value}")
        return sorted(set(self.missing))

    def call_problems(self) -> list[str]:
        problems = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                continue  # *args or **kwargs: not plain
            callee = self.resolve(node.func)
            if callee is UNRESOLVED or not callable(callee):
                continue
            try:
                _signature(callee).bind(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                problems.append(f"{self.label}:{node.lineno}: {ast.unparse(node)}: {exc}")
        return problems


def _signature(callee) -> inspect.Signature:
    """The callee's signature; a record built by ``Record``'s generated constructor takes its
    ``_fields``, positionally or by keyword, the ones with a class-level value optional."""
    if isinstance(callee, type) and issubclass(callee, Record):
        sig = inspect.signature(callee)
        if any(p.kind is p.VAR_POSITIONAL for p in sig.parameters.values()):
            kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
            return inspect.Signature([
                inspect.Parameter(name, kind, default=getattr(callee, name, empty))
                for name in callee._fields])
        return sig
    return inspect.signature(callee)


SURFACES = [_Surface(label, tree) for label, tree in _trees()]


def test_every_qcolour_name_the_benchmark_reaches_exists():
    assert [p for s in SURFACES for p in s.attribute_problems()] == []


def test_every_plain_call_binds_to_its_callee():
    assert [p for s in SURFACES for p in s.call_problems()] == []


def test_every_flag_is_a_subcommand_option():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for p in sub.choices.values() for flag in p._option_string_actions}
    own, flags = set(), {}
    for surface in SURFACES:
        for node in ast.walk(surface.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "add_argument":  # the benchmark's own options
                own |= {a.value for a in node.args if isinstance(a, ast.Constant)}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and FLAG.fullmatch(node.value):
                flags.setdefault(node.value, node.lineno)
    assert flags.keys() - own, "no qcolour flag found in the benchmark sources"
    assert sorted(flags.keys() - own - options) == []


@pytest.mark.parametrize("source, problem", [
    ("from qcolour.verify import search\nsearch('nu', u, m, target_size=2, budget=1, workers=1)",
     "got an unexpected keyword argument 'workers'"),
    ("from qcolour.verify import UniverseSpec\nUniverseSpec(1, 2, 3, 4, 5)", "too many positional"),
    ("import qcolour.core\nqcolour.core.no_such_name", "qcolour.core.no_such_name"),
    ("from qcolour import core\nt.patch(core, 'no_such_name', 'x')", "qcolour.core.no_such_name"),
    ("from qcolour.core import no_such_name", "import no_such_name"),
], ids=["keyword", "record-fields", "attribute", "patch", "import"])
def test_the_checks_catch_a_missing_name(source, problem):
    surface = _Surface("snippet", ast.parse(source))
    found = surface.attribute_problems() + surface.call_problems()
    assert any(problem in p for p in found), found
