"""Correctness gate: every op's output is checked, outside any timed region.

Each check returns ``None`` when the output is right, or a one-line reason.
``qcolour.oracles`` is used here only, and is never timed.
"""

from __future__ import annotations

import functools
import json
import random

from qcolour import oracles
from qcolour.colourings import Bit, colour_key
from qcolour.core import PrimeTable, parse_rational
from qcolour.errors import DomainError
from qcolour.verify import (
    Certificate,
    CombinationMode,
    Monochromatic,
    UniverseSpec,
    naive_search,
    validate,
)

ORACLE_SAMPLES = 3

ORACLES = {
    "nu": oracles.nu_oracle,
    "mu": oracles.mu_oracle,
    "alpha": oracles.alpha_oracle,
    "theta": lambda x: oracles.theta_oracle(x.numerator),
    "phi": lambda x: Bit(oracles.phi_oracle(x.numerator)),
}


def _reasoned(check):
    """Turn an output the check cannot even parse into a failure reason."""

    @functools.wraps(check)
    def wrapper(*args):
        try:
            return check(*args)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    return wrapper


def _validates(cert: Certificate, table: PrimeTable | None = None) -> str | None:
    reasons: list[str] = []
    if not validate(cert, reasons, table):
        return "validate rejected: " + "; ".join(reasons)
    return None


@_reasoned
def check_op(op, colouring: str, terms: list[str], rng: random.Random) -> str | None:
    """A finite-mode certificate: round-trips, validates, matches the oracles."""
    if op.rc != 0:
        return f"exit {op.rc}: {op.error}"
    try:
        cert = Certificate.from_json(op.stdout)
    except DomainError as exc:
        return f"does not round-trip: {exc}"
    if cert.colouring_id != colouring or cert.mode is not CombinationMode.FINITE_FSFP:
        return "wrong colouring or mode"
    if [str(x) for x in cert.sequence] != [str(parse_rational(t)) for t in terms]:
        return "sequence differs from the input terms"
    if len(cert.combinations) != 2 * (2 ** len(terms) - 1):
        return f"{len(cert.combinations)} combinations for {len(terms)} terms"
    why = _validates(cert)
    if why:
        return why
    for entry in rng.sample(cert.combinations, ORACLE_SAMPLES):
        expected = colour_key(ORACLES[colouring](entry.value))
        if entry.colour != expected:
            return f"{entry.tag}={entry.value}: key {entry.colour}, oracle {expected}"
    return None


@_reasoned
def properties_op(op) -> str | None:
    if op.rc != 0:
        return f"exit {op.rc}: {op.error}"
    report = json.loads(op.stdout)
    return None if report["all_passed"] else "properties: a law failed"


@_reasoned
def search_pair(w1, w2) -> str | None:
    """The workers=1 and workers=2 outputs agree byte for byte and validate."""
    for op in (w1, w2):
        if op.rc != 0:
            return f"exit {op.rc}: {op.error}"
    if w1.stdout != w2.stdout:
        return "workers=1 and workers=2 outputs differ"
    result = json.loads(w1.stdout)
    if result["exhausted"] is not True:
        return "search not exhausted"
    for obj in result["certificates"]:
        cert = Certificate.from_obj(obj)
        if not isinstance(cert.verdict, Monochromatic):
            return f"search certificate is not monochromatic: {obj['sequence']}"
        why = _validates(cert)
        if why:
            return why
    return None


@_reasoned
def search_vs_naive(colouring: str, universe: UniverseSpec, target: int, op) -> str | None:
    """One small universe's CLI search output against ``naive_search``."""
    if op.rc != 0:
        return f"exit {op.rc}: {op.error}"
    naive = naive_search(colouring, universe, CombinationMode.PAIRWISE, target)
    result = json.loads(op.stdout)
    if result["certificates"] != [c.to_obj() for c in naive.certificates]:
        return "search certificates differ from naive_search"
    if result["max_size"] != naive.max_size:
        return "search max_size differs from naive_search"
    return None


def sized_table(result: dict) -> PrimeTable:
    """A prime table covering every base term of a construct result."""
    return PrimeTable(max(64, max(result["system"]["base_indices"])))


@_reasoned
def construct_op(op, m: int) -> str | None:
    """An m-term construction: a monochromatic mu certificate that validates.

    The table is sized from ``system.base_indices``: the default 64-prime
    table rejects these certificates (a known defect, see the README).
    """
    if op.rc != 0:
        return f"exit {op.rc}: {op.error}"
    result = json.loads(op.stdout)
    cert = Certificate.from_obj(result["certificate"])
    if len(cert.sequence) != m or [str(y) for y in cert.sequence] != result["terms"]:
        return f"certificate does not hold the {m} constructed terms"
    if cert.colouring_id != "mu" or cert.mode is not CombinationMode.FINITE_FSFP:
        return "wrong colouring or mode"
    if not isinstance(cert.verdict, Monochromatic):
        return "construct certificate is not monochromatic"
    return _validates(cert, sized_table(result))


def default_table_rejects(result: dict) -> bool:
    """True when the default table cannot validate a construct certificate."""
    return not validate(Certificate.from_obj(result["certificate"]))


def budget_op(op, m: int) -> tuple[str | None, int, bool]:
    """A fixed-budget construct: (reason, best depth, certified).

    Exit 3 with ``budget_exhausted`` is an answer, not a failure.
    """
    if op.rc == 3:
        try:
            depth = int(json.loads(op.stdout)["budget_exhausted"]["best_depth"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}", 0, False
        return (None if 1 <= depth < m else f"best_depth {depth} for m={m}"), depth, False
    why = construct_op(op, m)
    return why, (m if why is None else 0), why is None
