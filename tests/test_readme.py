"""README's library tour and CLI block, run as written: each result is the one its comment gives."""
from __future__ import annotations

import ast
import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

from qcolour import cli
from qcolour.verify import Clash, Monochromatic

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    """The one ```python block of README."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def _run(source: str) -> tuple[dict, list[tuple[object, str]]]:
    """Run ``source`` in a fresh namespace, one statement at a time. Returns the namespace and,
    for each expression statement, its value and the comment that ends its line."""
    namespace, shown = {}, []
    lines = source.splitlines()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            shown.append((value, lines[stmt.end_lineno - 1].partition("#")[2].strip()))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return namespace, shown


def test_each_result_is_the_one_its_comment_gives():
    source = _tour()
    namespace, shown = _run(source)
    assert len(shown) == 5
    printed = shown[:4]
    assert [value for value, _ in printed] == [
        "nu:t:0,1,2,1,1",
        {0: 5, 2: 4, -3: 2, -4: 1, -5: 3},
        Clash(first=0, second=1),
        1,
    ]
    for value, comment in printed:  # each comment starts with the value as Python prints it
        assert comment.startswith(repr(value)), (value, comment)
    assert namespace["two"].terms == (Fraction(1, 3), Fraction(1, 2069271737))
    assert "# terms (1/3, 1/2069271737)" in source
    assert isinstance(shown[4][0], Monochromatic)


def test_tour_imports_the_package_top_level_names():
    # so the tour, run against an installed package, checks what ``qcolour`` itself exports
    assert re.search(r"^from qcolour import \(", _tour(), re.M)


def _cli_block() -> list[tuple[str, str]]:
    """Each command of README's ```sh block of ``qcolour`` lines, with the comment below it,
    its continuation lines joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    [block] = [b for b in blocks if "qcolour " in b]
    commands: list[tuple[str, str]] = []
    for line in block.splitlines():
        if line.startswith("#"):
            command, comment = commands[-1]
            commands[-1] = command, comment + line[1:].strip()
        elif line.strip():
            commands.append((line, ""))
    return commands


def _run_cli(command: str, monkeypatch, capsys) -> tuple[int, str]:
    """Run one ``[printf FORMAT |] qcolour ARGS`` line in process: exit code and stdout."""
    feed, _, line = command.rpartition("|")
    words = shlex.split(line)
    assert words[0] == "qcolour", command
    if feed:
        printf, text = shlex.split(feed)
        assert printf == "printf", command
        monkeypatch.setattr("sys.stdin", io.StringIO(text.replace("\\n", "\n")))
    code = cli.main(words[1:])
    return code, capsys.readouterr().out


def test_each_cli_output_is_the_one_its_comment_gives(monkeypatch, capsys):
    commands = _cli_block()
    assert len(commands) == 7 and all(comment for _, comment in commands)
    for command, comment in commands:
        code, out = _run_cli(command, monkeypatch, capsys)
        assert code == 0, command
        if comment.startswith("{"):  # the output, with ... for any text
            pattern = ".*".join(map(re.escape, comment.split("...")))
            assert re.fullmatch(pattern, out.removesuffix("\n"), re.S), (command, comment, out)
