"""Byte-stability corpus of the ``qcolour`` CLI, from the standard library alone.

    PYTHONPATH=src python tests/golden/corpus.py          # run every row; exit 1 on a mismatch
    PYTHONPATH=src python tests/golden/corpus.py --write  # record what each row gives now

``cli.json`` holds one row per command: its argv, the text it reads on stdin (null for
none), its exit code and the sha256 of its stdout and of its stderr as UTF-8 bytes. Each
row runs in-process through ``qcolour.cli.main``, all of them in one interpreter, so no
cache one row fills may change another's bytes. A row fails if a certificate it prints
does not validate from its JSON alone. Rows whose bytes come from argparse (help text, usage
errors) are left out: that text differs across the supported Pythons.

A row is added by appending its argv and stdin to the table and running ``--write``, which
records every row's exit code and digests anew and names each row whose record changed; it
writes nothing while a row fails. A change that moves a digest on purpose names the row and
the reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from qcolour import cli
from qcolour.verify import Certificate, validate

TABLE = Path(__file__).with_name("cli.json")
RECORDED = ("exit", "stdout_sha256", "stderr_sha256")
CERTIFICATES = {  # the certificates in each certifying command's document
    "check": lambda obj: [obj],
    "search": lambda obj: obj["certificates"],
    "construct": lambda obj: [obj["certificate"]] if "certificate" in obj else [],  # none past its budget
}


def load() -> list[dict]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def invoke(row: dict) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one row, run through ``cli.main``."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(row["stdin"] or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(row["argv"]))
    except SystemExit as exc:  # argparse's own text: no row of the corpus reaches it
        raise AssertionError(f"{row['argv']} exited from argparse ({exc.code}): {err.getvalue()!r}") from None
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def run(row: dict) -> dict:
    """The exit code and the digests of stdout and stderr of one row, its certificates validated."""
    code, out, err = invoke(row)
    if code in (0, 3) and row["argv"][0] in CERTIFICATES:
        assert_certificates_validate(row["argv"][0], out)
    return {"exit": code, "stdout_sha256": _sha256(out), "stderr_sha256": _sha256(err)}


def assert_certificates_validate(command: str, out: str) -> None:
    """Every certificate in ``command``'s document ``out`` validates from its JSON alone and
    reads back to the same JSON object; AssertionError names the first that does not."""
    for obj in CERTIFICATES[command](json.loads(out)):
        cert, reasons = Certificate.from_obj(obj), []
        if not validate(cert, reasons) or cert.to_obj() != obj:
            raise AssertionError(f"a printed {command} certificate fails: {reasons or 'to_obj differs'}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected(row: dict) -> dict:
    return {key: row.get(key) for key in RECORDED}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: corpus.py [--write]", file=sys.stderr)
        return 2
    rows, recorded, failed, changed = load(), [], 0, 0
    for row in rows:
        try:
            got = run(row)
        except AssertionError as exc:
            failed += 1
            print(f"FAILED {' '.join(row['argv'])}: {exc}")
            continue
        if got != expected(row):
            changed += 1
            print(f"{'CHANGED' if argv else 'MISMATCH'} {' '.join(row['argv'])}: got {got}, expected {expected(row)}")
        recorded.append({"argv": row["argv"], "stdin": row["stdin"], **got})
    if argv and not failed:
        TABLE.write_text("[\n" + ",\n".join(map(json.dumps, recorded)) + "\n]\n", encoding="utf-8")
        print(f"wrote {len(rows)} rows to {TABLE}, {changed} changed")
        return 0
    print(f"{len(rows) - failed - changed} of {len(rows)} rows byte-identical, {failed} failed")
    return 1 if failed or changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
