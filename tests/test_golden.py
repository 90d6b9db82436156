"""The byte-stability corpus: every row of ``tests/golden/cli.json`` gives its recorded bytes."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("corpus", Path(__file__).with_name("golden") / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

ROWS = corpus.load()


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"]) for row in ROWS])
def test_row_is_byte_identical(row):
    assert corpus.run(row) == corpus.expected(row)
