"""Exact rational primitives: parsing, dyadic helpers, prime table."""
from __future__ import annotations

import itertools
import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcolour import core, digits, oracles
from qcolour.core import (
    MAX_DIGITS,
    PRIME_CAP,
    Ordering,
    PrimeTable,
    a_exponent,
    cmp_c5_boundary,
    cmp_pow2_half,
    default_table,
    divide_out_primes,
    in_C3,
    in_C4,
    is_power_of_two,
    iter_primes,
    log2_floor,
    minimal_base_index,
    nth_prime,
    parse_rational,
    prime_walk,
    primorial,
)
from qcolour.errors import DomainError, InternalInvariantError, TableExhaustedError, UnsupportedPrimeError

def _pow2(e: int) -> Fraction:
    return Fraction(2) ** e


positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)


class TestParsing:
    @pytest.mark.parametrize(
        "text, num, den",
        [("3", 3, 1), ("11/4", 11, 4), ("6/4", 3, 2), ("0014/7", 2, 1)],
    )
    def test_parse(self, text, num, den):
        x = parse_rational(text)
        assert (x.numerator, x.denominator) == (num, den)

    @pytest.mark.parametrize("text", ["0", "0/1", "-3", "3/0", "a", "1/2/3", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(DomainError):
            parse_rational(text)

    def test_parse_rational_positive_only(self):
        assert parse_rational("6/4") == Fraction(3, 2)
        for text, shown in [("0", "0/1"), ("0/5", "0/5"), ("5/0", "5/0")]:
            with pytest.raises(DomainError) as info:
                parse_rational(text)
            assert str(info.value) == f"rational must be positive: got {shown}"

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    @settings(deadline=None)
    def test_make_parse_round_trip(self, num, den):
        x = Fraction(num, den)
        assert parse_rational(str(x)) == x


class TestDyadicHelpers:
    @pytest.mark.parametrize(
        "x, a",
        [
            (Fraction(1), 0),
            (Fraction(8), 3),
            (Fraction(11, 4), 1),
            (Fraction(5, 6), -1),
            (Fraction(1, 3), -2),
        ],
    )
    def test_a_exponent_values(self, x, a):
        assert a_exponent(x) == a

    @given(positive_rationals)
    @settings(deadline=None)
    def test_a_exponent_brackets(self, x):
        a = a_exponent(x)
        assert _pow2(a) <= x < _pow2(a + 1)

    def test_log2_floor_on_unreduced_pairs(self):
        rng = random.Random("core:log2_floor")
        for _ in range(3000):
            n, d = rng.randint(1, 2 ** rng.randint(1, 90)), rng.randint(1, 2 ** rng.randint(1, 90))
            m = rng.choice([1, 2, 6, 2**40, 3**30])
            k = log2_floor(m * n, m * d)
            assert 2**k * d <= n < 2 ** (k + 1) * d if k >= 0 else d <= n * 2**-k < 2 * d

    def test_is_power_of_two(self):
        assert is_power_of_two(Fraction(16))
        assert is_power_of_two(Fraction(1, 8))
        assert not is_power_of_two(Fraction(6))
        assert not is_power_of_two(Fraction(3, 2))

    def test_membership_sets(self):
        # two binary digits vs a contiguous run of ones
        assert [m for m in range(1, 21) if in_C3(Fraction(m))] == [3, 5, 6, 9, 10, 12, 17, 18, 20]
        assert [m for m in range(1, 21) if in_C4(Fraction(m))] == [1, 2, 3, 4, 6, 7, 8, 12, 14, 15, 16]
        assert in_C3(Fraction(5, 4)) and in_C4(Fraction(3, 4))
        assert not in_C3(Fraction(5, 6)) and not in_C4(Fraction(5, 6))

    def test_cmp_pow2_half(self):
        assert cmp_pow2_half(Fraction(3, 2), 0) is Ordering.ABOVE
        assert cmp_pow2_half(Fraction(7, 5), 0) is Ordering.BELOW
        assert cmp_pow2_half(Fraction(181, 128), 0) is Ordering.BELOW
        assert cmp_pow2_half(Fraction(3), 1) is Ordering.ABOVE

    @given(positive_rationals, st.integers(-10, 10))
    @settings(deadline=None)
    def test_cmp_pow2_half_matches_square(self, x, k):
        expected = (x * x).__gt__(_pow2(2 * k + 1))
        got = cmp_pow2_half(x, k)
        if x * x == _pow2(2 * k + 1):  # unreachable for rationals: 2^(2k+1) is no square
            pytest.fail("rational hit an irrational boundary")
        assert (got is Ordering.ABOVE) == expected

    def test_cmp_c5_boundary(self):
        assert cmp_c5_boundary(Fraction(7, 2), 2, 0) is Ordering.BELOW
        with pytest.raises(DomainError):
            cmp_c5_boundary(Fraction(7, 2), 2, 2)

    def test_surd_comparisons_match_exact_squares(self):
        # exponents near x's own, up to 3,000 away, and c around -L, where L =
        # d.bit_length() + max(0, -a - 1) is the bound below which c settles x unshifted
        rng = random.Random("core:surd-grid")
        xs = [Fraction(rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40)))
              for _ in range(400)]
        xs += [_pow2(e) for e in range(-20, 21)] + [Fraction(3, 2), Fraction(7, 4), Fraction(255, 128)]
        # 2^e - 1/(d·2^k), k = max(0, -e), of denominator d: d ≡ 1 mod 2^k makes the gap to
        # 2^e the least it can be, 2^(-L), where the bound on c is tight
        for e in range(-20, 21):
            k = max(0, -e)
            xs.append(_pow2(e) - Fraction(1, ((rng.randint(2, 10**20) << k) + 1) << k))
        steps = (0, 1, 2, 3, 5, 17, 64, 300, 3000)
        for x in xs:
            own = log2_floor(x.numerator, x.denominator)
            square = x * x
            for k in {own + t for s in steps for t in (s, -s)}:
                below = square < _pow2(2 * k + 1)
                assert (cmp_pow2_half(x, k) is Ordering.BELOW) == below, (x, k)
            for a in {own + t for s in (0, 1, 2, 3000) for t in (s, -s)}:
                floor = -(x.denominator.bit_length() + max(0, -a - 1))
                cs = {a - 1 - s for s in steps} | {floor + t for t in range(-2, 3) if floor + t < a}
                for c in cs:
                    below = square < _pow2(2 * a + 2) * (1 - _pow2(c - a))
                    assert (cmp_c5_boundary(x, a, c) is Ordering.BELOW) == below, (x, a, c)

    def test_surd_comparisons_far_exponents_bounded(self):
        # a shift by 2^61 bits cannot be allocated, so a call that took one fails at once
        e = 2**61
        for x in (Fraction(1, 3), Fraction(7, 5), Fraction(2**100 + 1, 3)):
            own = log2_floor(x.numerator, x.denominator)
            calls = [
                (cmp_pow2_half, (x, e), Ordering.BELOW),
                (cmp_pow2_half, (x, -e), Ordering.ABOVE),
                (cmp_c5_boundary, (x, e, -e), Ordering.BELOW),
                (cmp_c5_boundary, (x, -e, -e - 1), Ordering.ABOVE),
                (cmp_c5_boundary, (x, own, -e), Ordering.BELOW),
            ]
            tracemalloc.start()
            try:
                for call, args, want in calls:
                    tracemalloc.reset_peak()
                    t0 = time.perf_counter()
                    assert call(*args) is want, args
                    assert time.perf_counter() - t0 < 0.01, args
                    assert tracemalloc.get_traced_memory()[1] < 2**20, args
            finally:
                tracemalloc.stop()


class TestPrimeTable:
    def test_first_primes(self):
        assert [nth_prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]
        assert nth_prime(64) == 311

    def test_primorials(self):
        assert [primorial(n) for n in range(1, 5)] == [2, 6, 30, 210]
        with pytest.raises(DomainError):
            primorial(0)

    def test_exhaustion(self):
        # the list holds the first PRIME_CAP primes and no more
        assert nth_prime(PRIME_CAP) == 180_503
        with pytest.raises(TableExhaustedError, match=f"cap of {PRIME_CAP} primes"):
            nth_prime(PRIME_CAP + 1)
        with pytest.raises(TableExhaustedError):
            primorial(PRIME_CAP + 1)

    def test_list_against_trial_division(self):
        primes = list(iter_primes())
        assert primes[:2000] == list(itertools.islice(oracles._prime_gen(), 2000))
        assert len(primes) == PRIME_CAP and primes[-1] == 180_503
        assert all(p < q for p, q in itertools.pairwise(primes))
        for p in primes:
            assert all(p % q for q in itertools.takewhile(lambda q: q * q <= p, primes)), p

    def test_perfbench_shims(self):
        table = PrimeTable(64)
        assert table.count == 64 and table.primes == list(iter_primes())[:64]
        assert default_table().count == PRIME_CAP
        with pytest.raises(TableExhaustedError):
            PrimeTable(PRIME_CAP + 1)

    def test_sieve_checks_its_count(self, monkeypatch):
        monkeypatch.setattr(core, "_PRIME_LIMIT", 180_502)
        with pytest.raises(InternalInvariantError, match=f"found {PRIME_CAP - 1} primes"):
            core._primes.__wrapped__()

    @pytest.mark.parametrize(
        "x, n",
        [
            (Fraction(7), 1),
            (Fraction(3, 8), 1),
            (Fraction(14305, 96), 2),
            (Fraction(1, 3), 2),
            (Fraction(1, 10), 3),
            (Fraction(9, 77), 5),
        ],
    )
    def test_minimal_base_index(self, x, n):
        assert minimal_base_index(x) == n

    def test_minimal_base_unsupported_prime(self):
        # 313 is the 65th prime and 180,503 the last one under the cap
        assert minimal_base_index(Fraction(1, 313)) == 65
        assert minimal_base_index(Fraction(1, 180_503)) == PRIME_CAP
        for den in (180_511, 2 * 180_511):  # the first prime past the cap
            with pytest.raises(UnsupportedPrimeError, match=f"first {PRIME_CAP} primes"):
                minimal_base_index(Fraction(1, den))

    @given(
        num=st.integers(1, 500),
        i=st.integers(0, 5),
        j=st.integers(0, 3),
        k=st.integers(0, 2),
    )
    @settings(deadline=None)
    def test_minimal_base_strips_exactly(self, num, i, j, k):
        # denominator built from the first three primes: index is the largest used
        den = 2**i * 3**j * 5**k
        x = Fraction(num * den + num, den)  # keep it reduced-ish but arbitrary
        n = minimal_base_index(x)
        d = x.denominator
        for p in [2, 3, 5, 7, 11][:n]:
            while d % p == 0:
                d //= p
        assert d == 1
        if n > 1:
            assert x.denominator % nth_prime(n) == 0


def _brute_walk(d: int, count: int) -> tuple[int, int, int]:
    """Factor d by trial division by every integer; split off the first ``count`` primes."""
    residue, index, exponent = 1, 0, 0
    q = 2
    while d > 1:
        e = 0
        while d % q == 0:
            d //= q
            e += 1
        if e:
            i = sum(1 for _ in itertools.takewhile(lambda p: p <= q, oracles._prime_gen()))
            if i <= count:
                index, exponent = max(index, i), max(exponent, e)
            else:
                residue *= q**e
        q += 1
    return residue, index, exponent


class TestPrimeWalk:
    def test_matches_scan_and_brute_force(self):
        rng = random.Random(11)
        primes = list(itertools.islice(oracles._prime_gen(), 200))
        for _ in range(300):
            d = math.prod(rng.choice(primes) ** rng.randint(1, 4) for _ in range(rng.randint(0, 4)))
            assert divide_out_primes(d) == _brute_walk(d, PRIME_CAP), d
            x = Fraction(rng.randint(1, d), d)
            assert minimal_base_index(x) == oracles._minimal_base_scan(x)
            # base P_n takes x iff no prime of its denominator is past p_n; u is then the walk's
            n = rng.choice([1, 3, 25, 200, PRIME_CAP])
            residue, _, u = _brute_walk(x.denominator, n)
            if residue == 1:
                assert digits._trailing_exponent(x, n) == u, (x, n)
            else:
                with pytest.raises(UnsupportedPrimeError, match=f"no terminating base-P_{n} expansion$"):
                    digits._trailing_exponent(x, n)

    def test_cap_edges(self):
        # 180,503 is the last prime under the cap and 180,511 the first past it
        assert divide_out_primes(180_503) == (1, PRIME_CAP, 1)
        assert divide_out_primes(2**5 * 3 * 180_503**2) == (1, PRIME_CAP, 5)
        assert divide_out_primes(9 * 180_511) == (180_511, 2, 2)
        assert divide_out_primes(180_511**2) == (180_511**2, 0, 0)
        assert divide_out_primes(1) == (1, 0, 0)
        assert divide_out_primes(12) == (1, 2, 2)

    def test_prime_walk(self):
        # an integer walks no prime, and its minimal base is still P_1
        assert prime_walk(Fraction(7), 1) == (0, 0)
        assert minimal_base_index(Fraction(7)) == 1
        assert prime_walk(Fraction(14305, 96), 96) == (2, 5)
        assert prime_walk(Fraction(1, 180_503), 180_503) == (PRIME_CAP, 1)
        with pytest.raises(UnsupportedPrimeError, match=r"primes \(residue 180511\)$"):
            prime_walk(Fraction(1, 4 * 180_511), 4 * 180_511)

    def test_support_route_matches_the_walk(self):
        # with one shared support, each denominator is divided by the primes met so far and only
        # what they leave is walked: the (k, u) and every refusal, residue included, are the walk's
        rng = random.Random(49)
        primes = [*itertools.islice(oracles._prime_gen(), 40), *map(nth_prime, range(PRIME_CAP - 7, PRIME_CAP + 1))]
        support: dict[int, int] = {}
        for _ in range(300):
            factors = [rng.choice(primes) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.1:
                factors.append(rng.choice([180_511, 180_511**2, 180_533]))  # primes past the cap
            d = math.prod(p ** rng.randint(1, 3) for p in factors)
            x = Fraction(1, d)
            try:
                expected = prime_walk(x, d)
            except UnsupportedPrimeError as exc:
                with pytest.raises(UnsupportedPrimeError, match=f"^{re.escape(str(exc))}$"):
                    prime_walk(x, d, support)
                continue
            assert prime_walk(x, d, support) == expected, d
        assert 0 < len(support) <= len(primes)
        assert support == {i: nth_prime(i) for i in support}


class TestDigitLimit:
    def test_parse_refuses_long_terms_before_converting(self):
        assert parse_rational("7" * MAX_DIGITS + "/" + "3" * MAX_DIGITS).denominator > 1
        for text in ("7" * (MAX_DIGITS + 1), "1/" + "3" * (MAX_DIGITS + 1)):
            with pytest.raises(DomainError, match=f"more than {MAX_DIGITS} decimal digits"):
                parse_rational(text)


def _records():
    """(class, its fields with sample values in order, its defaults) for each of the package's 27
    records; the colour values are built directly, not interned."""
    from qcolour import colourings as c, construct, digits, verify

    phi_t = c.PhiTuple(0, 1, 1, 0, 1)
    theta_t = c.ThetaTuple(1, 0, 1, phi_t, c.PhiZero(), 1, 0)
    nu_t = c.NuTuple(0, 1, 2, 1, 1)
    clash = verify.Clash(0, 1)
    cert = verify.Certificate("nu", verify.CombinationMode.PAIRWISE, (Fraction(2), Fraction(4)),
                              ("s:1,2", "p:1,2"), ((6, 1), (8, 1)), ("nu:s:C4mC1", "nu:s:C1"), clash)
    law = verify.LawResult("law", 10, True, None)
    system = construct.BlockSystem((2, 3), ((1,), (2,)))
    return [
        (c.Bit, {"value": 1}, {}),
        (c.PhiZero, {}, {}),
        (c.PhiTuple, dict(zip(["c1", "c2", "c3", "c4", "c5"], [0, 1, 1, 0, 1])), {}),
        (c.ThetaTuple, {"power": 1, "end_parity": 0, "gap_parity": 1, "phi_inner": phi_t,
                        "phi_inner_shift": c.PhiZero(), "phi_of_end": 1, "tail": 0}, {}),
        (c.NuSpecial, {"cls": c.NuClass.C1}, {}),
        (c.NuTuple, dict(zip(["w1", "w2", "w3", "w4", "w5"], [0, 1, 2, 1, 1])), {}),
        (c.MuWhole, {"nu": nu_t}, {}),
        (c.MuFrac, {"nu": c.NuSpecial(c.NuClass.C1), "phi": c.PhiZero(), "psi_prime": phi_t}, {}),
        (c.AlphaNat, {"theta": theta_t}, {}),
        (c.AlphaNegPow2, {}, {}),
        (c.AlphaSmall, {}, {}),
        (c.AlphaBig, {"components": tuple(range(13))}, {}),
        (c.ConstColour, {}, {}),
        (verify.Monochromatic, {"key": "nu:s:C1", "empty": False}, {"empty": False}),
        (verify.Clash, {"first": 0, "second": 1}, {}),
        (verify.CombinationEntry, {"tag": "s:1,2", "value": Fraction(6), "colour": "nu:s:C4mC1"}, {}),
        (verify.Certificate, {"colouring_id": "nu", "mode": cert.mode, "sequence": cert.sequence,
                              "tags": cert.tags, "values": cert.values, "keys": cert.keys,
                              "verdict": clash}, {}),
        (verify.UniverseSpec, {"numerator_bound": 10, "denominator_bound": 1, "prime_index_bound": 1,
                               "integers_only": False},
         {"denominator_bound": 1, "prime_index_bound": 1, "integers_only": False}),
        (verify.SearchResult, {"max_size": 2, "exhausted": True, "nodes": 3, "certificates": [cert]}, {}),
        (verify.LawResult, {"name": "law", "samples": 10, "passed": False, "counterexample": "x=1"},
         {"counterexample": None}),
        (verify.PropertyReport, {"seed": 1, "samples": 10, "laws": (law,)}, {}),
        (construct.OpennessRadius, {"center": Fraction(3), "radius": Fraction(1, 8), "key": "nu:s:C1"}, {}),
        (construct.BlockSystem, {"base_indices": (2, 3), "blocks": ((1,), (2,))}, {}),
        (construct.ConstructResult, {"system": system, "terms": (Fraction(1, 3), Fraction(1, 5)),
                                     "key": "mu:w:nu:s:C1", "certificate": cert}, {}),
        (construct._Level, {"block": (1,), "y": Fraction(1, 3), "n": 2, "j": 2}, {}),
        (digits.BinaryProfile, {"end": 1, "start": 7, "gap": 4, "power_of_two": False}, {}),
        (digits.DigitExpansion, {"base_index": 1, "digits": {0: 1}}, {}),
    ]


class TestRecord:
    @pytest.mark.parametrize("cls, values, defaults", [pytest.param(*r, id=r[0].__name__) for r in _records()])
    def test_record_contract(self, cls, values, defaults):
        # built positionally or by keyword, with its defaults
        rec = cls(*values.values())
        assert cls(**values) == rec and [getattr(rec, name) for name in values] == [*values.values()]
        required = {name: v for name, v in values.items() if name not in defaults}
        assert cls(*required.values()) == cls(**required) == cls(**required, **defaults)
        with pytest.raises(TypeError):
            cls(**values, not_a_field=0)
        with pytest.raises(TypeError):
            cls(*values.values(), 0)
        if required:
            with pytest.raises(TypeError):
                cls()
        # shown in the dataclass format
        assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"
        # equal and hash-equal to a fresh equal record, unequal to one of another class
        again = cls(*values.values())
        assert rec == again and not rec != again and rec is not again
        if cls.__name__ in ("DigitExpansion", "SearchResult"):  # a dict or list field
            with pytest.raises(TypeError, match="unhashable"):
                hash(rec)
        else:
            assert hash(rec) == hash(again)
        other = type("Other", (cls,), {})(*values.values())
        assert rec != other and other != rec and rec != tuple(values.values())
        # frozen
        name = next(iter(values), "extra")
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        if values:
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert rec == again

    def test_records_of_different_classes_differ(self):
        from qcolour import colourings as c, construct

        singletons = [c.PHI_ZERO, c.ALPHA_NEG_POW2, c.ALPHA_SMALL, c.CONST]
        for a, b in itertools.permutations(singletons, 2):
            assert a != b and not a == b
        assert c.NuTuple(0, 0, 0, 0, 0) != c.PhiTuple(0, 0, 0, 0, 0)
        assert repr(c.Bit(1)) == "Bit(value=1)" and c.BITS[1] == c.Bit(1) != c.Bit(0)
        # __post_init__ runs once the fields are set, by position or by keyword
        assert c.colour_key(c.NuTuple(w1=0, w2=1, w3=2, w4=1, w5=1)) == "nu:t:0,1,2,1,1"
        with pytest.raises(DomainError, match="blocks must be nonempty"):
            construct.BlockSystem(base_indices=(2,), blocks=((),))

    # The certificate of _records() and the JSON object of each record that the CLI prints
    # without a to_obj of its own, as (key, value) pairs in output order.
    CERT_OBJ = {"colouring": "nu", "mode": "pairwise", "sequence": ["2", "4"],
                "combinations": [{"tag": "s:1,2", "value": "6", "colour": "nu:s:C4mC1"},
                                 {"tag": "p:1,2", "value": "8", "colour": "nu:s:C1"}],
                "verdict": {"clash": [0, 1]}}
    SYSTEM_OBJ = [("base_indices", [2, 3]), ("blocks", [[1], [2]])]
    PRINTED = {
        "LawResult": [("name", "law"), ("samples", 10), ("passed", False), ("counterexample", "x=1")],
        "PropertyReport": [("seed", 1), ("samples", 10), ("laws", [
            {"name": "law", "samples": 10, "passed": True, "counterexample": None}]), ("all_passed", True)],
        "SearchResult": [("max_size", 2), ("exhausted", True), ("nodes", 3), ("certificates", [CERT_OBJ])],
        "BlockSystem": SYSTEM_OBJ,
        "ConstructResult": [("system", dict(SYSTEM_OBJ)), ("terms", ["1/3", "1/5"]), ("key", "mu:w:nu:s:C1"),
                            ("certificate", CERT_OBJ)],
    }

    @pytest.mark.parametrize("cls, values", [pytest.param(*r[:2], id=r[0].__name__) for r in _records()])
    def test_json_object(self, cls, values):
        # every record's object is JSON; a printed one has exactly its fixed keys, values and order
        obj = cls(**values).to_obj()
        text = json.dumps(obj)
        if cls.__name__ in self.PRINTED:
            assert list(obj.items()) == self.PRINTED[cls.__name__]
            assert text == json.dumps(dict(self.PRINTED[cls.__name__]))
