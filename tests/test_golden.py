"""The byte-stability corpus: every row of ``tests/golden/cli.json`` gives its recorded bytes, and
every certificate it prints validates."""
from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("corpus", Path(__file__).with_name("golden") / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

ROWS = corpus.load()


def _ids(rows: list[dict]) -> list[str]:
    """Each row's argv; a row whose argv an earlier row has also shows the start of its stdin."""
    ids: list[str] = []
    for row in rows:
        name = " ".join(row["argv"])
        if name in ids:
            terms = " ".join(row["stdin"].split())
            name += " < " + (terms if len(terms) <= 40 else terms[:37] + "...")
        ids.append(name)
    return ids


@pytest.mark.parametrize("row", ROWS, ids=_ids(ROWS))
def test_row_is_byte_identical(row):
    assert corpus.run(row) == corpus.expected(row)


def test_ids_are_unique():
    assert len(set(_ids(ROWS))) == len(ROWS)


def _tamper_key(combination: dict) -> None:
    key = combination["colour"]
    combination["colour"] = key[:-1] + ("1" if key[-1] == "0" else "0")


def _tamper_value(combination: dict) -> None:
    combination["value"] = str(Fraction(combination["value"]) + 1)


@pytest.mark.parametrize("argv", [
    ["check", "--colouring", "mu", "--mode", "pairwise"],
    ["search", "--colouring", "nu", "--numerator-bound", "8", "--denominator-bound", "4", "--prime-index", "2",
     "--target", "2", "--budget", "60"],
], ids=["check", "search"])
@pytest.mark.parametrize("tamper", [_tamper_key, _tamper_value], ids=["key", "value"])
def test_tampered_certificate_fails(argv, tamper):
    # one colour key or one combination value changed, in each combination in turn
    (row,) = [row for row in ROWS if row["argv"] == argv]
    code, out, _ = corpus.invoke(row)
    assert code == 0
    corpus.assert_certificates_validate(argv[0], out)
    count = len(corpus.CERTIFICATES[argv[0]](json.loads(out))[0]["combinations"])
    assert count
    for j in range(count):
        obj = json.loads(out)
        tamper(corpus.CERTIFICATES[argv[0]](obj)[0]["combinations"][j])
        with pytest.raises(AssertionError, match=f"printed {argv[0]} certificate fails"):
            corpus.assert_certificates_validate(argv[0], json.dumps(obj))


def _table_of(tmp_path, monkeypatch, rows: list[dict]) -> Path:
    table = tmp_path / "cli.json"
    table.write_text(json.dumps(rows), encoding="utf-8")
    monkeypatch.setattr(corpus, "TABLE", table)
    return table


def test_write_names_the_one_changed_row(tmp_path, monkeypatch, capsys):
    rows = [row for row in ROWS if row["argv"][0] in ("colour", "expand")]
    stale = [dict(row) for row in rows]
    stale[3]["stdout_sha256"] = "0" * 64
    table = _table_of(tmp_path, monkeypatch, stale)
    assert corpus.main(["--write"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:-1]] == ["CHANGED " + " ".join(rows[3]["argv"])]
    assert out[-1] == f"wrote {len(rows)} rows to {table}, 1 changed"
    assert json.loads(table.read_text(encoding="utf-8")) == rows
    assert corpus.main([]) == 0


def test_write_records_nothing_while_a_certificate_fails(tmp_path, monkeypatch, capsys):
    rows = [row for row in ROWS if row["argv"][0] == "check"][:2]
    stale = [{**row, "stdout_sha256": "0" * 64} for row in rows]
    table = _table_of(tmp_path, monkeypatch, stale)

    def refuse(cert, reasons):
        reasons.append("refused")
        return False

    monkeypatch.setattr(corpus, "validate", refuse)
    assert corpus.main(["--write"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"FAILED {' '.join(rows[0]['argv'])}: a printed check certificate fails: ['refused']")
    assert out[-1] == "0 of 2 rows byte-identical, 2 failed"
    assert json.loads(table.read_text(encoding="utf-8")) == stale
