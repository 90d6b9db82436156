"""Block systems, openness radii, and the sum/product sequence constructor."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcolour.colourings import colour_key, nu
from qcolour.construct import (
    BlockSystem,
    OpennessRadius,
    extend_sum_closed,
    find_product_subsystem,
    minimal_digit_fact,
    openness_radius,
    reciprocal_prime_indices,
)
from qcolour.core import PRIME_CAP, nth_prime
from qcolour.errors import BudgetExhaustedError, DomainError, TableExhaustedError
from qcolour.verify import CombinationMode, Monochromatic, combinations, validate

MU_KEY = "mu:f:nu:t:0,1,2,1,1|phi:z|phi:t:0,1,0,0,0"
Y2 = Fraction(1, 2069271737)  # 1/(13*257*661*937)


class TestReciprocalPrimeIndices:
    def test_frozen_prefix(self):
        assert reciprocal_prime_indices(2) == [2, 6]
        assert reciprocal_prime_indices(10) == [2, 6, 12, 21, 31, 42, 55, 68, 84, 100]

    def test_prefix_stable_and_increasing(self):
        long = reciprocal_prime_indices(24)
        for count in range(1, 24):
            assert reciprocal_prime_indices(count) == long[:count]
        assert all(a < b for a, b in zip(long, long[1:]))

    def test_reciprocal_sum_stays_below_half(self):
        total = sum(
            (Fraction(1, nth_prime(r)) for r in reciprocal_prime_indices(40)), Fraction(0)
        )
        assert total < Fraction(1, 2)

    def test_exhaustion(self):
        # term 174 needs a prime of at least 6·174·173 = 180,612, past the cap
        assert reciprocal_prime_indices(173)[-1] <= PRIME_CAP
        with pytest.raises(TableExhaustedError):
            reciprocal_prime_indices(174)
        with pytest.raises(DomainError):
            reciprocal_prime_indices(0)


class TestBlockSystem:
    def test_terms(self):
        system = BlockSystem(base_indices=(2, 6, 12), blocks=((1,), (2, 3)))
        assert system.base_terms() == [Fraction(1, 3), Fraction(1, 13), Fraction(1, 37)]
        assert system.terms() == [Fraction(1, 3), Fraction(1, 481)]

    def test_validation(self):
        with pytest.raises(DomainError):
            BlockSystem(base_indices=(2, 6), blocks=((1,), ()))
        with pytest.raises(DomainError):
            BlockSystem(base_indices=(2, 6), blocks=((1, 3),))
        with pytest.raises(DomainError):
            BlockSystem(base_indices=(2, 6), blocks=((2,), (1,)))  # not ordered


class TestOpennessRadius:
    @pytest.mark.parametrize(
        "x, radius",
        [
            (Fraction(1, 3), Fraction(1, 144)),
            (Fraction(11, 4), Fraction(7, 256)),
            (Fraction(5, 6), Fraction(1, 72)),
        ],
    )
    def test_frozen_radii(self, x, radius):
        got = openness_radius(x)
        assert got == OpennessRadius(center=x, radius=radius, key=colour_key(nu(x)))

    @pytest.mark.parametrize("x", [Fraction(8), Fraction(3), Fraction(5), Fraction(1, 2)])
    def test_special_classes_rejected(self, x):
        with pytest.raises(DomainError):
            openness_radius(x)

    def test_colour_constant_on_sampled_interval(self):
        rng = random.Random(11)
        seen = 0
        while seen < 60:
            x = Fraction(rng.randint(1, 400), rng.randint(1, 120))
            try:
                got = openness_radius(x)
            except DomainError:
                continue
            seen += 1
            assert got.radius > 0
            for k in range(1, 11):
                probe = x + got.radius * Fraction(k, 11)
                assert colour_key(nu(probe)) == got.key, f"x={x} probe={probe}"


class TestMinimalDigitFact:
    def test_last_digit_position(self):
        assert minimal_digit_fact(Fraction(1, 3))
        assert minimal_digit_fact(Fraction(5, 6))
        assert minimal_digit_fact(Fraction(1, 2))
        assert not minimal_digit_fact(Fraction(1, 4))
        assert not minimal_digit_fact(Fraction(5, 8))

    def test_domain(self):
        for bad in (Fraction(3, 2), Fraction(1), Fraction(0)):
            with pytest.raises(DomainError):
                minimal_digit_fact(bad)


class TestProductSubsystem:
    def test_single_term(self):
        ps = find_product_subsystem(1, search_budget=1000)
        assert ps.system.blocks == ((1,),)
        assert ps.terms == (Fraction(1, 3),)
        assert ps.key == "nu:t:0,1,2,1,1"

    def test_two_terms_frozen(self):
        ps = find_product_subsystem(2, search_budget=250_000)
        assert ps.system.blocks == ((1,), (2, 7, 11, 13))
        assert ps.system.base_indices[:6] == (2, 6, 12, 21, 31, 42)
        assert ps.terms == (Fraction(1, 3), Y2)
        # every product over nonempty subsets carries the target colour
        assert [e.tag for e in ps.products] == ["p:1", "p:2", "p:1,2"]
        assert {e.colour for e in ps.products} == {"nu:t:0,1,2,1,1"}

    def test_deterministic(self):
        a = find_product_subsystem(2, search_budget=250_000).to_obj()
        b = find_product_subsystem(2, search_budget=250_000).to_obj()
        assert a == b


class TestSumClosedExtension:
    def test_two_terms(self):
        res = extend_sum_closed(2, search_budget=250_000)
        assert res.terms == (Fraction(1, 3), Y2)
        cert = res.certificate
        assert cert.mode is CombinationMode.FINITE_FSFP
        assert cert.verdict == Monochromatic(key=MU_KEY)
        assert len(cert.combinations) == 6
        assert validate(cert)
        for _, value in combinations(list(res.terms), CombinationMode.FINITE_FSFP):
            assert minimal_digit_fact(value)

    def test_budget_failure_reports_depth(self):
        with pytest.raises(BudgetExhaustedError) as info:
            extend_sum_closed(3, search_budget=3)
        assert info.value.best_depth >= 1
