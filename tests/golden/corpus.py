"""Byte-stability corpus of the ``qcolour`` CLI, from the standard library alone.

    PYTHONPATH=src python tests/golden/corpus.py          # run every row; exit 1 on a mismatch
    PYTHONPATH=src python tests/golden/corpus.py --write  # record what each row gives now

``cli.json`` holds one row per command: its argv, the text it reads on stdin (null for
none), its exit code and the sha256 of its stdout and of its stderr as UTF-8 bytes. Each
row runs in-process through ``qcolour.cli.main``, all of them in one interpreter, so no
cache one row fills may change another's bytes. Rows whose bytes come from argparse (help
text, usage errors) are left out: that text differs across the supported Pythons.

A row is added by appending its argv and stdin to the table and running ``--write``, which
keeps every row's argv and stdin and records its exit code and digests anew. A change that
moves a digest on purpose names the row and the reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from qcolour import cli

TABLE = Path(__file__).with_name("cli.json")
RECORDED = ("exit", "stdout_sha256", "stderr_sha256")


def load() -> list[dict]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def run(row: dict) -> dict:
    """The exit code and the digests of stdout and stderr of one row, run through ``cli.main``."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(row["stdin"] or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(row["argv"]))
    except SystemExit as exc:  # argparse's own text: no row of the corpus reaches it
        raise AssertionError(f"{row['argv']} exited from argparse ({exc.code}): {err.getvalue()!r}") from None
    finally:
        sys.stdin = stdin
    return {"exit": code, "stdout_sha256": _sha256(out.getvalue()), "stderr_sha256": _sha256(err.getvalue())}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected(row: dict) -> dict:
    return {key: row.get(key) for key in RECORDED}


def write(rows: list[dict]) -> None:
    rows = [{"argv": row["argv"], "stdin": row["stdin"], **run(row)} for row in rows]
    TABLE.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    rows = load()
    if argv == ["--write"]:
        write(rows)
        print(f"wrote {len(rows)} rows to {TABLE}")
        return 0
    if argv:
        print("usage: corpus.py [--write]", file=sys.stderr)
        return 2
    failed = 0
    for row in rows:
        got = run(row)
        if got != expected(row):
            failed += 1
            print(f"MISMATCH {' '.join(row['argv'])}: got {got}, expected {expected(row)}")
    print(f"{len(rows) - failed} of {len(rows)} rows byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
