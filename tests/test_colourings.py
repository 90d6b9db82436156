"""Colouring families: structured implementations, keys, oracle agreement."""
from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcolour import core, digits, oracles, verify
from qcolour.colourings import (
    _ALPHA_BIGS,
    _ALPHA_NATS,
    _MU_FRACS,
    _MU_WHOLES,
    _NU_TUPLES,
    _PHI_TUPLES,
    _THETAS,
    ALPHA_NEG_POW2,
    ALPHA_SMALL,
    BITS,
    CONST,
    NU_C1,
    NU_C3mC4,
    NU_C4mC1,
    PHI_ZERO,
    HEADED,
    SHADOWS,
    AlphaBig,
    AlphaNat,
    AlphaNegPow2,
    AlphaSmall,
    Bit,
    ConstColour,
    MuFrac,
    MuWhole,
    NuClass,
    NuSpecial,
    NuTuple,
    PhiTuple,
    PhiZero,
    ThetaTuple,
    alpha,
    big_phi,
    colour_key,
    colouring_fn,
    mu,
    nu,
    phi,
    psi,
    psi_prime,
    theta,
)
from qcolour.errors import DomainError


class TestPhi:
    def test_base_values(self):
        assert [phi(k) for k in (0, 1, 2, 3)] == [0, 1, 0, 1]

    def test_frozen_window(self):
        assert tuple(phi(k) for k in range(1, 17)) == (1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
        assert tuple(phi(-k) for k in range(1, 9)) == (1, 1, 0, 0, 0, 0, 1, 1)

    def test_negative_zone_boundaries(self):
        # ones exactly on |k| in [1,2], [7,14], [31,62], ...
        for k in (-1, -2, -7, -14, -31, -62, -127):
            assert phi(k) == 1
        for k in (-3, -6, -15, -30, -63):
            assert phi(k) == 0

    def test_recurrence(self):
        for k in range(-200, 201):
            if k in (0, 1):
                continue
            assert phi(k + 1) != phi(2 * k)
            assert phi(k + 1) != phi(2 * k + 1)

    @given(st.integers(-10**4, 10**4))
    @settings(deadline=None)
    def test_matches_zone_oracle(self, k):
        assert phi(k) == oracles.phi_oracle(k)

    def test_matches_oracle_on_seeded_62_bit_sample(self):
        rng = random.Random("phi:62-bit")
        ks = list(range(-5000, 5001))
        ks += [rng.randint(-(2**62) + 1, 2**62 - 1) for _ in range(20_000)]
        # phi colours every integer, past 2^62 and up to the CLI's 4,300-digit cap
        ks += [s * (2**62 + e) for s in (1, -1) for e in (-3, 3)]
        rng = random.Random("phi:250-digit")
        ks += [rng.randint(-(10**250), 10**250) for _ in range(2_000)]
        ks += [10**4299 - 1, -(10**4299 - 1)]
        assert [phi(k) for k in ks] == [oracles.phi_oracle(k) for k in ks]


class TestPairColourings:
    def test_zero_class(self):
        for a, b in [(0, 5), (5, 0), (3, 3), (7, 2)]:
            assert isinstance(big_phi(a, b), PhiZero)
        assert colour_key(big_phi(3, 3)) == "phi:z"

    @pytest.mark.parametrize(
        "a, b, key",
        [
            (1, 3, "phi:t:0,0,0,1,1"),
            (4, 6, "phi:t:0,1,0,1,1"),
            (3, 6, "phi:t:0,1,1,1,1"),
            (2, 5, "phi:t:1,0,0,0,1"),
            (2, 6, "phi:t:1,1,0,1,1"),
        ],
    )
    def test_frozen_tuples(self, a, b, key):
        assert colour_key(big_phi(a, b)) == key

    def test_psi_is_shifted(self):
        for a in range(1, 40):
            for b in range(a + 1, 41):
                assert psi(a, b) == big_phi(a, b + 1)

    def test_psi_prime_cases(self):
        ref = big_phi(1, 2)
        assert colour_key(ref) == "phi:t:0,1,0,0,0"
        for y in (2, 9, 500):
            assert psi_prime(1, y) == ref
        for x in range(2, 40):
            assert psi_prime(x, x + 3) == big_phi(x - 1, x + 3)
        assert colour_key(psi_prime(4, 6)) == "phi:t:0,1,1,1,1"

    @given(st.integers(0, 10**4), st.integers(0, 10**4))
    @settings(deadline=None)
    def test_matches_string_oracle(self, a, b):
        assert big_phi(a, b) == oracles.big_phi_oracle(a, b)

    @pytest.mark.parametrize(
        "fn, a, b", [(psi, 3, -1), (psi, 3, -2), (psi, -1, 4), (psi_prime, 1, -5), (psi_prime, 3, -2)]
    )
    def test_shifted_colourings_refuse_negative_components(self, fn, a, b):
        # checked before the shift, so the error names the pair as given
        with pytest.raises(DomainError, match=re.escape(f"must be non-negative: ({a}, {b})")):
            fn(a, b)

    def test_psi_prime_checks_its_first_component_first(self):
        with pytest.raises(DomainError, match="first component must be >= 1, got 0"):
            psi_prime(0, -1)

    @pytest.mark.parametrize("fn, oracle", [
        (big_phi, oracles.big_phi_oracle), (psi, oracles.psi_oracle), (psi_prime, oracles.psi_prime_oracle),
    ])
    def test_oracles_share_the_domain(self, fn, oracle):
        # both routes colour a pair alike or both refuse it, negative components included
        def outcome(f, a, b):
            try:
                return f(a, b)
            except DomainError:
                return DomainError

        for a, b in itertools.product(range(-3, 9), repeat=2):
            assert outcome(fn, a, b) == outcome(oracle, a, b), (a, b)


class TestTheta:
    @pytest.mark.parametrize(
        "m, key",
        [
            (1, "theta:1,0,0,z,z,0,0"),
            (6, "theta:0,1,1,01000,00011,1,0"),
            (8, "theta:1,1,0,z,00100,1,0"),
            (12, "theta:0,0,1,10011,10000,0,0"),
            (96, "theta:0,1,1,01011,00011,0,0"),
        ],
    )
    def test_frozen_keys(self, m, key):
        assert colour_key(theta(m)) == key

    def test_power_convention(self):
        for e in range(0, 12):
            t = theta(2**e)
            assert t.power == 1 and t.gap_parity == 0 and t.tail == 0

    @given(st.integers(1, 10**6))
    @settings(deadline=None)
    def test_matches_string_oracle(self, m):
        assert theta(m) == oracles.theta_oracle(m)


# rationals with moderate numerators/denominators, never zero
def _grid():
    out = []
    for num in range(1, 48):
        for den in (1, 2, 3, 4, 6, 8, 12, 96):
            out.append(Fraction(num, den))
    return sorted(set(out))


GRID = _grid()


class TestNu:
    @pytest.mark.parametrize(
        "x, key",
        [
            (Fraction(8), "nu:s:C1"),
            (Fraction(1, 4), "nu:s:C1"),
            (Fraction(6), "nu:s:C4mC1"),
            (Fraction(3), "nu:s:C4mC1"),
            (Fraction(7, 2), "nu:s:C4mC1"),
            (Fraction(5), "nu:s:C3mC4"),
            (Fraction(11, 4), "nu:t:0,1,2,1,1"),
            (Fraction(1, 3), "nu:t:0,1,2,1,1"),
            (Fraction(5, 6), "nu:t:1,1,1,2,2"),
        ],
    )
    def test_frozen_keys(self, x, key):
        assert colour_key(nu(x)) == key

    def test_special_classes_match_set_definitions(self):
        for x in GRID:
            v = nu(x)
            if isinstance(v, NuSpecial):
                assert oracles.nu_oracle(x) == v
            else:
                assert isinstance(v, NuTuple)
                for w in (v.w1, v.w2):
                    assert w in (0, 1)
                for w in (v.w3, v.w4, v.w5):
                    assert w in (0, 1, 2)

    def test_matches_scan_oracle_on_grid(self):
        for x in GRID:
            assert nu(x) == oracles.nu_oracle(x)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            nu(Fraction(0))


class TestMu:
    def test_whole_part_reuses_nu(self):
        v = mu(Fraction(3))
        assert isinstance(v, MuWhole) and v.nu == nu(Fraction(3))
        assert colour_key(v) == "mu:w:nu:s:C4mC1"

    @pytest.mark.parametrize(
        "x, key",
        [
            (Fraction(1, 2), "mu:f:nu:s:C1|phi:z|phi:t:0,1,0,0,0"),
            (Fraction(5, 6), "mu:f:nu:t:1,1,1,2,2|phi:z|phi:t:0,1,0,0,0"),
            (Fraction(1, 3), "mu:f:nu:t:0,1,2,1,1|phi:z|phi:t:0,1,0,0,0"),
        ],
    )
    def test_frozen_fractional_keys(self, x, key):
        assert colour_key(mu(x)) == key

    def test_fractional_positions_feed_pair_colours(self):
        x = Fraction(5, 8)  # 0.101 in the minimal (binary) base: s=-1, e=-3
        v = mu(x)
        assert isinstance(v, MuFrac)
        assert v.phi == big_phi(1, 3) and v.psi_prime == psi_prime(1, 3)

    def test_matches_oracle_on_grid(self):
        for x in GRID:
            assert mu(x) == oracles.mu_oracle(x)

    def test_walks_the_primes_once_per_value_below_one(self, monkeypatch):
        walks = []
        real = core.iter_primes

        def counting():
            walks.append(None)
            return real()

        monkeypatch.setattr(core, "iter_primes", counting)
        for x in GRID + [Fraction(1, 313), Fraction(7, 2 * 3**5 * 180_503)]:
            walks.clear()
            mu(x)
            assert len(walks) == (1 if x < 1 else 0), x


class TestAlpha:
    def test_case_split(self):
        assert isinstance(alpha(Fraction(7)), AlphaNat)
        assert isinstance(alpha(Fraction(1, 4)), AlphaNegPow2)
        assert isinstance(alpha(Fraction(2, 3)), AlphaSmall)
        assert isinstance(alpha(Fraction(3, 2)), AlphaSmall)
        assert isinstance(alpha(Fraction(5, 2)), AlphaBig)

    @pytest.mark.parametrize(
        "x, key",
        [
            (Fraction(7), "alpha:n:theta:0,0,1,z,z,0,0"),
            (Fraction(1, 4), "alpha:negpow2"),
            (Fraction(2, 3), "alpha:small"),
            (Fraction(5, 2), "alpha:b:1,1,1,1,1,0,0,1,0,0,0,1,0"),
        ],
    )
    def test_frozen_keys(self, x, key):
        assert colour_key(alpha(x)) == key

    def test_big_tuple_has_13_components(self):
        v = alpha(Fraction(11, 4))
        assert isinstance(v, AlphaBig) and len(v.components) == 13

    def test_matches_oracle_on_grid(self):
        for x in GRID:
            assert alpha(x) == oracles.alpha_oracle(x)


def _seeded_values(count: int) -> list[Fraction]:
    """Positive rationals of 8- to 80-bit numerators over small-prime denominators,
    integers and values below 1 included."""
    rng = random.Random("colourings:kernel")
    out = []
    for _ in range(count):
        den = 2 ** rng.randint(0, 24) * 3 ** rng.randint(0, 3) * rng.choice([1, 1, 5, 7, 11])
        out.append(Fraction(rng.randint(1, 2 ** rng.choice([8, 24, 80])), den))
    return out


SEEDED = _seeded_values(5000)


def _seeded_naturals(count: int) -> list[int]:
    """Naturals below 2^200: dense ones, one to three 1s (powers of two and two-digit
    numbers included) and single runs of 1s, at every bit length."""
    rng = random.Random("colourings:naturals")
    out = []
    for _ in range(count):
        bits = rng.randint(1, 200)
        shape = rng.randrange(3)
        if shape == 0:
            out.append(rng.randrange(1 << (bits - 1), 1 << bits))
        elif shape == 1:
            out.append(sum(1 << p for p in rng.sample(range(bits), min(bits, rng.randint(1, 3)))))
        else:
            out.append((1 << bits) - (1 << rng.randrange(bits)))
    return out


NATURALS = _seeded_naturals(2000)


class TestIntegerKernelDifferential:
    def test_nu_mu_alpha_match_oracles_on_seeded_values(self):
        for x in SEEDED:
            assert nu(x) == oracles.nu_oracle(x), x
            assert mu(x) == oracles.mu_oracle(x), x
            assert alpha(x) == oracles.alpha_oracle(x), x

    def test_exact_gaps_and_far_exponents(self):
        two = Fraction(2)
        xs = [m + 1 - two**j for m in (2, 3, 5, 12) for j in range(-30, 0)]  # 1 - frac = 2^j
        xs += [Fraction(2**41 + 2 * k + 1, 3**k) * two**e for k in (1, 5) for e in (-1000, 998)]
        for x in xs:
            assert (nu(x), mu(x), alpha(x)) == (
                oracles.nu_oracle(x), oracles.mu_oracle(x), oracles.alpha_oracle(x)
            ), x

    def test_colour_path_does_no_fraction_arithmetic(self, monkeypatch):
        xs = SEEDED[:2000]
        expected = [(nu(x), mu(x), alpha(x)) for x in xs]

        def refuse(*args):
            raise AssertionError("Fraction arithmetic on the colour path")

        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
                   "__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Fraction, op, refuse)
        assert [(nu(x), mu(x), alpha(x)) for x in xs] == expected


    def test_theta_and_pair_colourings_match_oracles_below_2_200(self):
        for m in NATURALS:
            assert theta(m) == oracles.theta_oracle(m), m
        for a, b in zip(NATURALS, NATURALS[1:]):
            # as drawn, ordered, and with b's support moved left of a's
            for p, q in ((a, b), (min(a, b), max(a, b)), (a, b << a.bit_length())):
                assert big_phi(p, q) == oracles.big_phi_oracle(p, q), (p, q)
                assert psi_prime(p, q) == oracles.psi_prime_oracle(p, q), (p, q)

    def test_wrapper_predicates_agree_with_the_kernel(self):
        for x in SEEDED + GRID:
            v = nu(x)
            c1, c3, c4 = core.is_power_of_two(x), core.in_C3(x), core.in_C4(x)
            assert (c3 or c4) <= core.is_dyadic(x), x
            special = {NuClass.C1: c1, NuClass.C3mC4: c3 and not c4, NuClass.C4mC1: c4 and not c1}
            if isinstance(v, NuSpecial):
                assert special[v.cls], x
                continue
            assert not (c1 or c3 or c4), x
            a, b, c = digits.abc_exponents(x.numerator, x.denominator)
            assert v.w1 == (core.cmp_pow2_half(x, a) is core.Ordering.ABOVE), x
            below = core.cmp_c5_boundary(x, a, c) is core.Ordering.BELOW
            assert v.w5 == (v.w4 if below else (v.w4 - 1) % 3), x
        for m in NATURALS + [x.numerator for x in SEEDED]:
            p, t = digits.binary_profile(m), theta(m)
            assert t.power == p.power_of_two == (p.gap is None), m
            assert (t.end_parity, t.gap_parity) == (p.end % 2, (p.gap or 0) % 2), m
            assert t.phi_inner == big_phi(p.end, p.start), m
        for a, b in zip(NATURALS, NATURALS[1:]):
            for p, q in ((min(a, b), max(a, b)), (a, b << a.bit_length())):
                if p < q:
                    assert digits.right_left_disjoint(p, q) == big_phi(p, q).c5, (p, q)


class TestKeys:
    def test_distinct_values_have_distinct_keys(self):
        # Values are built from their components, so a key that drops or merges
        # any component collides; one dict spans every colouring.
        phis = [PHI_ZERO] + [PhiTuple(*bits) for bits in itertools.product((0, 1), repeat=5)]
        few_phis = [PHI_ZERO, PhiTuple(0, 0, 0, 0, 0)]
        few_phis += [PhiTuple(*(int(i == j) for j in range(5))) for i in range(5)]
        nus = [NuSpecial(cls) for cls in NuClass]
        nus += [NuTuple(*w) for w in itertools.product((0, 1), (0, 1), *[range(3)] * 3)]
        thetas = [
            ThetaTuple(power, end, gap, inner, shift, phi_end, tail)
            for power, end, gap, phi_end, tail in itertools.product((0, 1), repeat=5)
            for inner, shift in itertools.product(few_phis, repeat=2)
        ]
        bigs = {tuple(v if j == i else 0 for j in range(13)) for i in range(13) for v in range(3)}
        values = phis + nus + thetas
        values += [MuWhole(v) for v in nus]
        values += [MuFrac(v, a, b) for v in nus for a, b in itertools.product(few_phis, repeat=2)]
        values += [AlphaNat(t) for t in thetas]
        values += [AlphaBig(c) for c in sorted(bigs)]
        values += [Bit(0), Bit(1), ConstColour(), AlphaNegPow2(), AlphaSmall()]
        assert len(phis) == 33 and len(nus) == 5 + 108 and len(bigs) == 27
        assert len(set(values)) == len(values)
        seen = {}
        for v in values:
            other = seen.setdefault(colour_key(v), v)
            assert other == v, (colour_key(v), other, v)


    def test_interned_values_keep_their_keys(self):
        # each interned value builds its key once, equal to the string formatted from its fields
        for v in _PHI_TUPLES.values():
            assert colour_key(v) == f"phi:t:{v.c1},{v.c2},{v.c3},{v.c4},{v.c5}"
        for v in _NU_TUPLES.values():
            assert colour_key(v) == f"nu:t:{v.w1},{v.w2},{v.w3},{v.w4},{v.w5}"
        for v in (NU_C1, NU_C3mC4, NU_C4mC1, *(NuSpecial(cls) for cls in NuClass)):
            assert colour_key(v) == f"nu:s:{v.cls.value}"
        # the key is not a field: a value built directly is the interned one in all but identity
        for direct, interned in ((NuTuple(0, 1, 2, 1, 1), _NU_TUPLES[0, 1, 2, 1, 1]),
                                 (PhiTuple(0, 1, 1, 0, 1), _PHI_TUPLES[0, 1, 1, 0, 1]),
                                 (NuSpecial(NuClass.C1), NU_C1)):
            assert direct == interned and direct is not interned
            assert hash(direct) == hash(interned)
            assert repr(direct) == repr(interned)
        assert repr(_NU_TUPLES[0, 1, 2, 1, 1]) == "NuTuple(w1=0, w2=1, w3=2, w4=1, w5=1)"

    def test_theta_key_matches_its_formula(self):
        # theta's key joins its components, and each pair colour's five bits ("z" when degenerate)
        def compact(p):
            return "z" if isinstance(p, PhiZero) else f"{p.c1}{p.c2}{p.c3}{p.c4}{p.c5}"

        for m in range(1, 4097):
            t = theta(m)
            want = (f"theta:{t.power},{t.end_parity},{t.gap_parity},{compact(t.phi_inner)},"
                    f"{compact(t.phi_inner_shift)},{t.phi_of_end},{t.tail}")
            assert colour_key(t) == want, m
            assert colour_key(alpha(Fraction(m))) == "alpha:n:" + want, m


def _certify_term(rng: random.Random) -> Fraction:
    """A term of the colour-certify shape: over 2, 3, 5, 7, numerator at most 40, a third dyadic."""
    kind = rng.random()
    if kind < 0.1:
        return Fraction(2) ** rng.randint(-4, 4)
    if kind < 0.35:
        return Fraction(rng.randint(1, 40), 2 ** rng.randint(0, 4))
    den = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 1) * 7 ** rng.randint(0, 1)
    return Fraction(rng.randint(1, 40), den)


# each table of interned values, by case, and the bound its comment in colourings states
TABLES = {
    "theta": (_THETAS, 34_848), "alpha:n": (_ALPHA_NATS, 34_848), "alpha:b": (_ALPHA_BIGS, 12_288),
    "mu:w": (_MU_WHOLES, 111), "mu:f": (_MU_FRACS, 120_879),
}


class TestInterning:
    def test_one_key_one_object(self):
        cases = {
            "theta": (ThetaTuple, [theta(m) for m in range(1, 2049)]),
            "alpha:n": (AlphaNat, [alpha(Fraction(m)) for m in range(1, 2049)]),
            "alpha:b": (AlphaBig, [alpha(x) for x in SEEDED + GRID if x.denominator > 1 and x > 2]),
            "mu:w": (MuWhole, [mu(x) for x in SEEDED + GRID if x >= 1]),
            "mu:f": (MuFrac, [mu(x) for x in SEEDED + GRID if x < 1]),
        }
        for case, (cls, values) in cases.items():
            by_key = {}
            for v in values:
                assert isinstance(v, cls) and by_key.setdefault(colour_key(v), v) is v, (case, v)
            assert len(by_key) < len(values), case  # some key is met twice
        phi_fn, const_fn = colouring_fn("phi"), colouring_fn("const")
        assert all(phi_fn(Fraction(k)) is BITS[phi(k)] for k in range(-64, 65))
        assert all(alpha(Fraction(1, 2**e)) is ALPHA_NEG_POW2 for e in range(1, 9))
        assert all(alpha(Fraction(n, 7)) is ALPHA_SMALL for n in range(1, 14) if n != 7)
        assert all(const_fn(x) is CONST for x in GRID)

    def test_fresh_values_match_interned_ones(self):
        # built the way oracles builds them: equal, with equal hash, repr and key, but not shared
        xs = [Fraction(7), Fraction(5, 2), Fraction(1, 4), Fraction(2, 3), Fraction(3), Fraction(5, 8)]
        pairs = [(oracles.theta_oracle(m), theta(m)) for m in (1, 6, 96, 1000)]
        pairs += [(oracles.alpha_oracle(x), alpha(x)) for x in xs]
        pairs += [(oracles.mu_oracle(x), mu(x)) for x in xs]
        pairs += [(Bit(0), BITS[0]), (Bit(1), BITS[1]), (ConstColour(), CONST)]
        for fresh, interned in pairs:
            assert fresh == interned and hash(fresh) == hash(interned), fresh
            assert repr(fresh) == repr(interned) and colour_key(fresh) == colour_key(interned), fresh
            assert fresh is not interned, fresh
        assert {type(v) for _, v in pairs} == {
            ThetaTuple, AlphaNat, AlphaBig, AlphaNegPow2, AlphaSmall, MuWhole, MuFrac, Bit, ConstColour}

    def test_tables_stay_within_their_bounds(self):
        # finite checks of 8 to 11 terms of the colour-certify shapes fill the tables
        rng = random.Random("colourings:interning")
        for _ in range(4):
            k = rng.randint(8, 11)
            terms: dict[Fraction, None] = {}
            while len(terms) < k:
                terms[_certify_term(rng)] = None
            for cid in ("mu", "alpha"):
                verify.check(cid, list(terms), verify.CombinationMode.FINITE_FSFP)
            naturals = [Fraction(m) for m in rng.sample(range(1, 41), k)]
            verify.check("theta", naturals, verify.CombinationMode.FINITE_FSFP)
        for case, (table, bound) in TABLES.items():
            assert 0 < len(table) <= bound, case

        # each value sits under its own components
        def components(t):
            return (t.power, t.end_parity, t.gap_parity, colour_key(t.phi_inner),
                    colour_key(t.phi_inner_shift), t.phi_of_end, t.tail)

        assert all(k == components(t) for k, t in _THETAS.items())
        assert all(k == colour_key(v.theta) and _THETAS[components(v.theta)] is v.theta
                   for k, v in _ALPHA_NATS.items())
        assert all(k == v.components for k, v in _ALPHA_BIGS.items())
        assert all(k == colour_key(v.nu) for k, v in _MU_WHOLES.items())
        assert all(k == (colour_key(v.nu), colour_key(v.phi), colour_key(v.psi_prime))
                   for k, v in _MU_FRACS.items())


# the perfbench search universes as (colouring, numerator bound, denominator bound, primes)
BENCH_UNIVERSES = [
    ("nu", 18, 8, 3), ("mu", 18, 8, 3), ("nu", 16, 10, 3), ("mu", 16, 10, 3),
    ("alpha", 16, 8, 2), ("alpha", 20, 6, 2), ("theta", 150, 1, 1),
]


class TestShadows:
    def _pair_values(self, bounds):
        xs = verify.UniverseSpec(*bounds).elements()
        return {v for x, y in itertools.combinations(xs, 2) for v in (x + y, x * y)}

    def test_shadow_is_a_function_of_the_key(self):
        dyadic = [Fraction(n, 2**e) for n in range(1, 70) for e in range(8)]
        seeded = SEEDED + [Fraction(m) for m in NATURALS] + GRID + dyadic
        bench = set().union(*(self._pair_values(bounds) for _, *bounds in BENCH_UNIVERSES))
        assert len(bench) > 8_000
        assert set(SHADOWS) == {"nu", "mu", "alpha"}
        for cid, shadow in SHADOWS.items():
            fn = colouring_fn(cid)
            by_key: dict[str, set] = {}
            for x in itertools.chain(seeded, bench):
                by_key.setdefault(colour_key(fn(x)), set()).add(shadow(x.numerator, x.denominator))
            assert all(len(s) == 1 for s in by_key.values()), cid
            shadows = set().union(*by_key.values())
            assert 1 < len(shadows) < len(by_key), cid  # the shadow separates some keys, not all

    def test_alpha_shadow_is_one_token_on_the_naturals(self):
        # the search shadows only pairs that are not two integers, and no such pair has a
        # natural sum and a natural product, so one token for every natural drops no edge
        assert {SHADOWS["alpha"](n, 1) for n in range(1, 513)} == {"natural"}
        assert "natural" not in {SHADOWS["alpha"](x.numerator, x.denominator) for x in GRID
                                 if x.denominator != 1}
        xs = sorted({Fraction(n, d) for n in range(1, 41) for d in range(1, 13)})
        for x, y in itertools.combinations(xs, 2):
            if (x + y).denominator == 1 == (x * y).denominator:
                assert x.denominator == 1 == y.denominator, (x, y)

    def test_phi_and_const_have_no_shadow(self):
        assert "phi" not in SHADOWS and "const" not in SHADOWS

    @pytest.mark.parametrize("cid", HEADED)
    def test_head_follows_from_v2(self, cid):
        # the search drops an integer pair on (v2 parity, phi(v2)) of its sum and its product,
        # built from v2(x + y) and v2(x) + v2(y): theta's end_parity and phi_of_end of each
        def head(m):
            t = colouring_fn(cid)(Fraction(m))
            t = t.theta if cid == "alpha" else t
            return t.end_parity, t.phi_of_end

        for n in range(1, 2_049):
            e = digits.end2(n)
            assert head(n) == (e % 2, phi(e)), n
        for x, y in itertools.combinations_with_replacement(range(1, 257), 2):
            e = digits.end2(x) + digits.end2(y)
            assert head(x * y) == (e % 2, phi(e)), (x, y)

    def test_nu_and_its_shadow_share_the_half_power_boundary(self):
        # the shadow is nu's first stage: nu's special class itself, else its tuple's (w1, w2),
        # on both sides of each 2^(a+1/2) boundary, on dyadic values and on the bench pairs
        def head(v):
            return (v.w1, v.w2) if isinstance(v, NuTuple) else v

        boundary = [Fraction(n, d) for d in (1, 3, 5, 7, 12, 45) for n in range(1, 200)]
        dyadic = [Fraction(n, 2**e) for n in range(1, 300) for e in range(9)]
        bench = set().union(*(self._pair_values(bounds) for _, *bounds in BENCH_UNIVERSES))
        specials = 0
        for x in itertools.chain(boundary, dyadic, bench):
            v, shadow = nu(x), SHADOWS["nu"](x.numerator, x.denominator)
            if isinstance(v, NuSpecial):
                assert shadow is v, x
                specials += 1
            assert shadow == head(v), x
        assert specials > 100

    def test_alpha_and_its_shadow_share_the_one_key_classes(self):
        # the shadow is alpha's first stage: on every one-key value (d > 1, n <= 2d) it is the
        # value alpha returns, the interned 2^k (k < 0) or small colour, not a token beside it
        seen = set()
        for d in range(2, 130):
            for x in {Fraction(n, d) for n in range(1, 2 * d + 1)}:
                if x.denominator > 1:
                    v = alpha(x)
                    assert SHADOWS["alpha"](x.numerator, x.denominator) is v, x
                    seen.add(v)
        assert seen == {ALPHA_NEG_POW2, ALPHA_SMALL}


class TestBinaryProfile:
    """Under theta and alpha a natural's key is a function of its binary profile, so
    ``verify.ColourTable`` colours one natural per profile."""

    def test_equal_profiles_give_equal_theta_oracle_keys(self):
        by_profile: dict[tuple, str] = {}
        for m in range(1, 2**16 + 1):
            key = colour_key(oracles.theta_oracle(m))
            assert by_profile.setdefault(digits.binary_positions(m), key) == key, m
        assert len(by_profile) == 697
        assert len(set(by_profile.values())) > 1  # the profiles do not all share one key

    def test_alpha_keys_a_natural_by_its_theta_key(self):
        for m in range(1, 2**16 + 1):
            assert colour_key(alpha(Fraction(m))) == "alpha:n:" + colour_key(theta(m)), m


class TestRegistry:
    def test_ids_dispatch(self):
        assert colouring_fn("nu")(Fraction(11, 4)) == nu(Fraction(11, 4))
        assert colouring_fn("mu")(Fraction(5, 6)) == mu(Fraction(5, 6))
        assert colouring_fn("const")(Fraction(9, 7)) == ConstColour()

    def test_integer_colourings_reject_fractions(self):
        for cid in ("phi", "theta"):
            fn = colouring_fn(cid)
            assert fn(Fraction(6)) is not None
            with pytest.raises(DomainError):
                fn(Fraction(3, 2))

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            colouring_fn("nope")
