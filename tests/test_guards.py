"""Domain guards that no other in-process test reaches, each with its exact message."""
from __future__ import annotations

from fractions import Fraction

import pytest

from qcolour.colourings import alpha, big_phi, psi_prime
from qcolour.core import a_exponent
from qcolour.digits import b_exponent, c_exponent, e_int, end2, expand, start2
from qcolour.errors import DomainError
from qcolour.verify import SAMPLE_CAP, property_suite


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: big_phi(-1, 3), DomainError, "pair components must be non-negative: (-1, 3)"),
        (lambda: psi_prime(0, 1), DomainError, "first component must be >= 1, got 0"),
        (lambda: alpha(Fraction(-1, 2)), DomainError, "expected a positive rational, got -1/2"),
        (lambda: end2(0), DomainError, "need a natural number, got 0"),
        (lambda: start2(0), DomainError, "need a natural number, got 0"),
        (lambda: b_exponent(Fraction(4)), DomainError, "b-exponent undefined on powers of two: 4"),
        (lambda: c_exponent(Fraction(1, 2)), DomainError, "c-exponent undefined on powers of two: 1/2"),
        (lambda: e_int(0, 1), DomainError, "need a natural number, got 0"),
        # positivity is checked before the expansion is known to terminate
        (lambda: expand(Fraction(-1, 3), 1), DomainError, "expected a positive rational, got -1/3"),
        (lambda: property_suite(1, SAMPLE_CAP + 1), DomainError, "sample count must be <= 10000, got 10001"),
        # core._require_positive, which also guards the dyadic predicates and the base index
        (lambda: a_exponent(Fraction(-1, 2)), DomainError, "expected a positive rational, got -1/2"),
    ],
    ids=[
        "big_phi", "psi_prime", "alpha", "end2", "start2", "b_exponent", "c_exponent", "e_int",
        "expand", "property_suite", "a_exponent",
    ],
)
def test_guard_refuses_with_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
