"""The naive oracles against hand-derived values.

The structured implementations are compared to the oracles elsewhere; these
checks pin the oracles themselves to values worked out by hand, so a shared
bug cannot hide in the comparison.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from qcolour.colourings import colour_key, mu
from qcolour.errors import DomainError
from qcolour.oracles import (
    big_phi_oracle,
    mu_oracle,
    nu_oracle,
    phi_oracle,
    psi_oracle,
    psi_prime_oracle,
    theta_oracle,
)


def test_phi_zone_structure():
    # ones on the positive side: {1, 3} then [2^(2t+2)+2, 2^(2t+3)+1];
    # the next band starts at 66, so scan below it
    ones = {k for k in range(1, 66) if phi_oracle(k) == 1}
    assert ones == {1, 3} | set(range(6, 10)) | set(range(18, 34))
    # ones on the negative side: |k| in [2^(2t+1)-1, 2^(2t+2)-2], next band at 127
    neg_ones = {k for k in range(1, 127) if phi_oracle(-k) == 1}
    assert neg_ones == {1, 2} | set(range(7, 15)) | set(range(31, 63))
    assert phi_oracle(0) == 0


def test_pair_oracle_values():
    # a=1 (digits "1"), b=3 ("11"): ends 0/0, next digits 0/1, supports overlap
    assert colour_key(big_phi_oracle(1, 3)) == "phi:t:0,0,0,1,1"
    assert colour_key(big_phi_oracle(0, 5)) == "phi:z"
    assert colour_key(big_phi_oracle(7, 7)) == "phi:z"
    assert psi_oracle(2, 5) == big_phi_oracle(2, 6)
    assert psi_prime_oracle(1, 12) == big_phi_oracle(1, 2)
    assert psi_prime_oracle(4, 6) == big_phi_oracle(3, 6)


def test_theta_oracle_values():
    # 6 = "110": end 1, start 2, gap 1
    assert colour_key(theta_oracle(6)) == "theta:0,1,1,01000,00011,1,0"
    # 8 = "1000": power of two, so gap/tail pinned to 0
    assert colour_key(theta_oracle(8)) == "theta:1,1,0,z,00100,1,0"


@pytest.mark.parametrize(
    "x, key",
    [
        (Fraction(8), "nu:s:C1"),          # power of two
        (Fraction(6), "nu:s:C4mC1"),       # 8-2, a run of ones
        (Fraction(5), "nu:s:C3mC4"),       # 4+1, two digits, not a run
        (Fraction(11, 4), "nu:t:0,1,2,1,1"),
        (Fraction(5, 6), "nu:t:1,1,1,2,2"),
    ],
)
def test_nu_oracle_values(x, key):
    assert colour_key(nu_oracle(x)) == key


def test_mu_oracle_values():
    assert colour_key(mu_oracle(Fraction(3))) == "mu:w:nu:s:C4mC1"
    # 1/3 = 0.2 in base 6: leading and trailing digit both at position -1
    assert colour_key(mu_oracle(Fraction(1, 3))) == "mu:f:nu:t:0,1,2,1,1|phi:z|phi:t:0,1,0,0,0"


@pytest.mark.parametrize("x, message", [
    # 180,533 is the 16,386th prime; the scan tries the first 16,384
    (Fraction(1, 180533), "denominator of 1/180533 not supported by the oracle"),
    # the expansion would reach position -10,001, past the oracle's scan limit
    (Fraction(1, 2**10001), "does not terminate in base 2"),
], ids=["prime-past-the-scan", "expansion-past-the-scan"])
def test_mu_oracle_refuses_past_its_scans(x, message):
    with pytest.raises(DomainError, match=message):
        mu_oracle(x)


def test_mu_oracle_and_mu_share_the_prime_cap():
    # 180,503 is the 16,384th prime, the last the package reads; 180,511 is the next
    assert colour_key(mu_oracle(Fraction(1, 180503))) == colour_key(mu(Fraction(1, 180503)))
    for fn in (mu_oracle, mu):
        with pytest.raises(DomainError, match="^denominator of 1/180511 "):
            fn(Fraction(1, 180511))


def test_mu_oracle_expands_to_its_scan_limit():
    # 1/2^10,000 has its one binary digit at position -10,000, the last the scan reaches
    key = "mu:f:nu:s:C1|phi:z|phi:t:0,0,1,0,1"
    assert colour_key(mu_oracle(Fraction(1, 2**10000))) == key == colour_key(mu(Fraction(1, 2**10000)))
    with pytest.raises(DomainError, match="does not terminate in base 2"):
        mu_oracle(Fraction(1, 2**10001))
