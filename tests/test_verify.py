"""Certificates, checking, search (pruned vs naive), and the law suite."""
from __future__ import annotations

import collections
import functools
import gc
import itertools
import json
import math
import operator
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcolour import construct, core, oracles, verify
from qcolour.colourings import (
    SHADOWS, UNARY_COLOURINGS, WALKED, alpha, big_phi, colour_key, colouring_fn, theta,
)
from qcolour.core import PRIME_CAP, nth_prime
from qcolour.digits import DigitExpansion, end2, expand, start2
from qcolour.errors import DomainError, InternalInvariantError
from qcolour.verify import (
    C3_BY_K,
    C3_SCALED,
    Certificate,
    Clash,
    CombinationMode,
    Monochromatic,
    UniverseSpec,
    c3_gammas,
    c3_triple,
    check,
    combinations,
    naive_search,
    property_suite,
    search,
    validate,
)


def replace(cert: Certificate, **changes) -> Certificate:
    """``cert`` with ``changes`` to its fields, rebuilt through the constructor, which checks it."""
    fields = ("colouring_id", "mode", "sequence", "tags", "values", "keys", "verdict")
    return Certificate(**{**{name: getattr(cert, name) for name in fields}, **changes})


class TestCombinations:
    def test_pairwise(self):
        got = combinations([Fraction(2), Fraction(4)], CombinationMode.PAIRWISE)
        assert got == [("s:1,2", Fraction(6)), ("p:1,2", Fraction(8))]

    def test_finite_sums_and_products(self):
        got = combinations([Fraction(1), Fraction(2), Fraction(3)], CombinationMode.FINITE_FSFP)
        assert [tag for tag, _ in got] == [
            "s:1", "s:2", "s:3", "s:1,2", "s:1,3", "s:2,3", "s:1,2,3",
            "p:1", "p:2", "p:3", "p:1,2", "p:1,3", "p:2,3", "p:1,2,3",
        ]
        assert [v for _, v in got] == [1, 2, 3, 3, 4, 5, 6, 1, 2, 3, 2, 3, 6, 6]

    def test_sizes(self):
        xs = [Fraction(n) for n in (1, 2, 4, 8)]
        assert len(combinations(xs, CombinationMode.PAIRWISE)) == 2 * 6
        assert len(combinations(xs, CombinationMode.FINITE_FSFP)) == 2 * 15

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            combinations([Fraction(2), Fraction(2)], CombinationMode.PAIRWISE)

    def test_finite_term_cap(self):
        xs = [Fraction(n) for n in range(1, verify.FINITE_TERM_CAP + 2)]
        with pytest.raises(DomainError, match="at most 16 terms"):
            combinations(xs, CombinationMode.FINITE_FSFP)
        assert len(combinations(xs, CombinationMode.PAIRWISE)) == 2 * 17 * 16 // 2

    def test_pairwise_term_cap_before_any_step(self, monkeypatch):
        class Reached(Exception):
            pass

        def refuse(x, y):
            raise Reached(x, y)

        monkeypatch.setattr(verify, "_add", refuse)  # the first arithmetic a check does
        xs = [Fraction(n) for n in range(1, verify.UNIVERSE_CAP + 2)]
        with pytest.raises(DomainError, match="pairwise mode takes at most 512 terms, got 513"):
            combinations(xs, CombinationMode.PAIRWISE)
        with pytest.raises(Reached):  # the cap itself is admitted
            combinations(xs[:-1], CombinationMode.PAIRWISE)

    @pytest.mark.parametrize("naturals", [False, True])
    @pytest.mark.parametrize("mode", list(CombinationMode))
    def test_matches_from_scratch_reduction(self, mode, naturals):
        # each value is built from its prefix subset; the reference folds every subset anew
        rng = random.Random(f"combinations:{mode.value}:{naturals}")
        for k in range(13):
            pool = (
                range(1, 60) if naturals
                else {Fraction(rng.randint(1, 50), 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2)
                               * 5 ** rng.randint(0, 1)) for _ in range(80)}
            )
            xs = rng.sample(sorted(pool), k)
            if naturals:
                xs = [int(x) for x in xs]
            sizes = [2] if mode is CombinationMode.PAIRWISE else range(1, k + 1)
            subsets = [idx for size in sizes for idx in itertools.combinations(range(k), size)]
            expected = [
                (f"{block}:{','.join(str(i + 1) for i in idx)}",
                 functools.reduce(op, [xs[i] for i in idx], Fraction(unit)))
                for block, op, unit in (("s", operator.add, 0), ("p", operator.mul, 1))
                for idx in subsets
            ]
            got = combinations(xs, mode)
            assert got == expected
            assert all(type(value) is Fraction for _, value in got)

    def test_digit_limit_names_the_first_value_in_combination_order(self, monkeypatch):
        # products of three 1,451-digit or of two 2,200-digit terms pass the limit, so a table
        # grown a term at a time can meet a triple past it before the pair that combination
        # order names; 1/a brings a product back below the limit
        a, b, c = (10**1450 + k for k in (1, 3, 7))
        d, e = (10**2199 + k for k in (1, 3))
        unit = {"s": Fraction(0), "p": Fraction(1)}

        def first_too_long(xs):  # the from-scratch scan, in combination order
            for block, op in (("s", operator.add), ("p", operator.mul)):
                for size in range(1, len(xs) + 1):
                    for idx in itertools.combinations(range(len(xs)), size):
                        v = functools.reduce(op, [xs[i] for i in idx], unit[block])
                        if max(v.numerator, v.denominator) >= verify.DIGIT_LIMIT:
                            return f"{block}:{','.join(str(i + 1) for i in idx)}"

        real = verify._mul

        def guarded(x, y):
            assert max(*x, *y) < verify.DIGIT_LIMIT, "an operand past the limit"
            return real(x, y)

        monkeypatch.setattr(verify, "_mul", guarded)
        terms = [Fraction(a), Fraction(b), Fraction(c), Fraction(d), Fraction(e), Fraction(1, a)]
        rng = random.Random("combinations:digit-limit")
        tags = set()
        for _ in range(12):
            xs = rng.sample(terms, rng.randint(3, len(terms)))
            tag = first_too_long(xs)
            if tag is None:
                assert len(combinations(xs, CombinationMode.FINITE_FSFP)) == 2 * (2 ** len(xs) - 1)
                continue
            tags.add(tag)
            with pytest.raises(DomainError, match=f"^combination {tag} has more than 4300 decimal digits$"):
                combinations(xs, CombinationMode.FINITE_FSFP)
        assert len(tags) > 2

    @pytest.mark.parametrize("mode", list(CombinationMode))
    def test_the_digit_bound_at_its_edges(self, mode, monkeypatch):
        # Σ(bit length of a term's larger part + 1) just below, at and just past the limit's bit
        # length: below it no value is looked at, from it each one is; the values are the same
        real = verify._mul

        def guarded(x, y):
            assert max(*x, *y) < verify.DIGIT_LIMIT, "an operand past the limit"
            return real(x, y)

        monkeypatch.setattr(verify, "_mul", guarded)
        limit_bits = verify.DIGIT_LIMIT.bit_length()
        rng = random.Random(f"combinations:digit-bound:{mode.value}")
        for total in (limit_bits - 1, limit_bits, limit_bits + 1):
            k = 5
            cuts = sorted(rng.sample(range(1, total - k), k - 1))
            xs = []
            for b in (hi - lo for lo, hi in zip([0, *cuts], [*cuts, total - k])):  # bit lengths
                big = rng.randrange(2 ** (b - 1), 2**b) | 1  # odd, so over a power of 2 it stays
                xs.append(Fraction(big, 2 ** rng.randrange(b)))
            assert sum(max(x.numerator, x.denominator).bit_length() + 1 for x in xs) == total
            sizes = [2] if mode is CombinationMode.PAIRWISE else range(1, k + 1)
            subsets = [idx for size in sizes for idx in itertools.combinations(range(k), size)]
            expected = [
                (f"{block}:{','.join(str(i + 1) for i in idx)}",
                 functools.reduce(op, [xs[i] for i in idx], Fraction(unit)))
                for block, op, unit in (("s", operator.add, 0), ("p", operator.mul, 1))
                for idx in subsets
            ]
            tags, values = verify._pair_combinations(xs, mode)
            assert tags == [tag for tag, _ in expected]
            assert values == [(v.numerator, v.denominator) for _, v in expected]


class TestCheck:
    def test_clash_pair(self):
        cert = check("nu", [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE)
        assert cert.verdict == Clash(0, 1)
        assert [(e.tag, str(e.value), e.colour) for e in cert.combinations] == [
            ("s:1,2", "6", "nu:s:C4mC1"),
            ("p:1,2", "8", "nu:s:C1"),
        ]

    def test_singleton_is_monochromatic(self):
        cert = check("nu", [Fraction(1, 3)], CombinationMode.FINITE_FSFP)
        assert cert.verdict == Monochromatic(key="nu:t:0,1,2,1,1")

    def test_empty_sequence(self):
        cert = check("nu", [], CombinationMode.PAIRWISE)
        assert cert.verdict == Monochromatic(key=None, empty=True)
        assert cert.combinations == ()

    def test_constructed_pair_stays_monochromatic(self):
        ys = [Fraction(1, 3), Fraction(1, 2069271737)]
        cert = check("mu", ys, CombinationMode.FINITE_FSFP)
        assert cert.verdict == Monochromatic(key="mu:f:nu:t:0,1,2,1,1|phi:z|phi:t:0,1,0,0,0")
        assert len(cert.combinations) == 6

    def test_pair_colourings_not_usable(self):
        with pytest.raises(DomainError):
            check("bigphi", [Fraction(2)], CombinationMode.PAIRWISE)

    def test_each_distinct_value_coloured_once(self, monkeypatch):
        real = verify.colouring_fn
        seen = []

        def counting(colouring_id):
            fn = real(colouring_id)
            return lambda x, **given: seen.append(x) or fn(x, **given)

        monkeypatch.setattr(verify, "colouring_fn", counting)
        xs = [Fraction(n) for n in range(1, 17)]
        table = verify.ColourTable("nu")
        cert = check("nu", xs, CombinationMode.FINITE_FSFP, keys=table)
        assert len(cert.tags) == len(cert.values) == len(cert.keys) == 131_070
        assert len(seen) == len(set(seen)) == 4_297
        # the certificate's values are the table's pairs, in first-seen order
        assert list(table) == list(dict.fromkeys(cert.values))
        # ... and the kernel was handed exactly one Fraction per distinct value
        assert all(type(x) is Fraction for x in seen)
        assert [(x.numerator, x.denominator) for x in seen] == list(table)
        assert cert.keys == tuple(table[v] for v in cert.values)

    def test_a_table_of_another_colouring_is_refused(self):
        with pytest.raises(InternalInvariantError, match="^a nu check was given a mu colour table$"):
            check("nu", [2, 4], CombinationMode.PAIRWISE, keys=verify.ColourTable("mu"))

    def test_search_and_construct_give_check_their_own_colouring(self, monkeypatch):
        calls = []

        def spy(colouring_id, xs, mode, *, keys=None):
            calls.append((colouring_id, keys.colouring_id))
            return check(colouring_id, xs, mode, keys=keys)

        monkeypatch.setattr(verify, "check", spy)
        monkeypatch.setattr(construct, "check", spy)
        assert search("nu", NU_UNIVERSE, CombinationMode.PAIRWISE, 2, 10**6).certificates
        construct.extend_sum_closed(2)
        assert calls[-1] == ("mu", "mu") and set(calls) == {("nu", "nu"), ("mu", "mu")}

    def test_a_finite_check_builds_no_entry(self, monkeypatch):
        built = []

        class Counted(verify.CombinationEntry):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(verify, "CombinationEntry", Counted)
        xs = [Fraction(n, 6) for n in range(1, 12)]
        cert = check("nu", xs, CombinationMode.FINITE_FSFP)
        reasons: list[str] = []
        again = Certificate.from_json(cert.to_json())
        assert validate(again, reasons) and reasons == [] and again == cert
        assert built == []
        # the row view builds them, through the name counted here
        assert len(cert.combinations) == len(built) == 2 * (2**11 - 1)


class TestTableWalk:
    """Under μ and α a ``ColourTable`` finds each distinct denominator's (k, u) once, dividing
    it by the primes its values have shown and walking only what they leave."""

    TOP = [nth_prime(PRIME_CAP - i) for i in range(8)]  # the largest primes under the cap

    @pytest.mark.parametrize("colouring", ["mu", "alpha"])
    @pytest.mark.parametrize("mode", list(CombinationMode), ids=lambda mode: mode.value)
    def test_table_route_matches_the_walk(self, monkeypatch, colouring, mode):
        rng = random.Random(f"table-walk-{colouring}-{mode.value}")
        real, walked = core.divide_out_primes, []
        monkeypatch.setattr(core, "divide_out_primes", lambda d, primes=None, met=None: (
            walked.append(d) if primes is None else None) or real(d, primes, met))
        for _ in range(3):
            xs = set()
            while len(xs) < (5 if mode is CombinationMode.FINITE_FSFP else 9):
                d = math.prod(rng.choice([2, 3, 5, 7, *self.TOP]) ** rng.randint(1, 2)
                              for _ in range(rng.randint(1, 2)))
                xs.add(Fraction(rng.randint(1, 3 * d), d))
            xs, table, walked[:] = sorted(xs), verify.ColourTable(colouring), []
            cert = check(colouring, xs, mode, keys=table)
            # every walk over the primes met a new one, and each (k, u) is the walk's
            assert 0 < len(walked) <= len(table.support) and set(table.walked) <= {d for _, d in cert.values}
            for d, found in table.walked.items():
                assert found == core.prime_walk(Fraction(1, d), d), d
            fn = colouring_fn(colouring)  # the table's route gives the keys the walk gives
            assert cert.keys == tuple(colour_key(fn(Fraction(*v))) for v in cert.values)

    @pytest.mark.parametrize("colouring", list(UNARY_COLOURINGS))
    def test_a_miss_passes_no_keyword_but_the_tables_walk(self, monkeypatch, colouring):
        # each table's colouring function, called on a miss in a check or in the pair graph, gets
        # no keyword, or under μ and α only ``walk``, one object per table. The rational universe
        # holds values below 1, which μ walks, and values above 2, which α walks
        real, tables = verify.colouring_fn, []

        def recording(colouring_id, table=None):
            fn, calls = real(colouring_id, table), []
            tables.append(calls)
            return lambda x, **kw: calls.append((x, kw)) or fn(x, **kw)

        monkeypatch.setattr(verify, "colouring_fn", recording)
        if colouring in ("nu", "mu", "alpha"):
            xs, universe = [Fraction(1, 3), Fraction(7, 3), Fraction(5, 2)], UniverseSpec(24, 12, 3)
        else:
            xs, universe = [3, 5, 6], UniverseSpec(512, integers_only=True)
        check(colouring, xs, CombinationMode.FINITE_FSFP)
        # its certificates are keyed through ``check`` on the graph's table, which makes no other
        assert search(colouring, universe, CombinationMode.PAIRWISE, 3, 2_000).certificates
        assert len(tables) == 2
        for calls in tables:
            keywords = [kw for _, kw in calls if kw]
            if colouring not in WALKED:
                assert calls and keywords == []
                continue
            assert keywords and all(set(kw) == {"walk"} for kw in keywords)
            assert len({id(kw["walk"]) for kw in keywords}) == 1
            walked = [x for x, kw in calls if kw and x.denominator > 1]
            assert any(x < 1 if colouring == "mu" else x > 2 for x in walked)

    @pytest.mark.parametrize("colouring", list(UNARY_COLOURINGS))
    def test_a_used_table_is_freed_by_reference_counting(self, colouring):
        # the walk it hands μ and α holds its dicts, not the table, so no cycle keeps it alive; μ walks
        # the values below 1 and α those above 2, so under both some value here is walked
        xs = [3, 5, 11] if colouring in ("theta", "phi") else [Fraction(7, 3), Fraction(5, 7), Fraction(11, 13)]
        table = verify.ColourTable(colouring)
        check(colouring, xs, CombinationMode.FINITE_FSFP, keys=table)
        assert bool(table.walked) == (colouring in WALKED)
        ref = weakref.ref(table)
        gc.disable()
        try:
            del table
            assert ref() is None
        finally:
            gc.enable()


class TestCertificateSerialization:
    def test_json_round_trip(self):
        cert = check("nu", [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE)
        again = Certificate.from_json(cert.to_json())
        assert again == cert
        assert Certificate.from_json(cert.to_json(pretty=True)) == cert

    def test_wire_shape(self):
        cert = check("nu", [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE)
        obj = json.loads(cert.to_json())
        assert obj == {
            "colouring": "nu",
            "mode": "pairwise",
            "sequence": ["2", "4"],
            "combinations": [
                {"tag": "s:1,2", "value": "6", "colour": "nu:s:C4mC1"},
                {"tag": "p:1,2", "value": "8", "colour": "nu:s:C1"},
            ],
            "verdict": {"clash": [0, 1]},
        }

    def test_validate_accepts_genuine(self):
        for cert in (
            check("nu", [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE),
            check("mu", [Fraction(1, 3), Fraction(1, 2)], CombinationMode.FINITE_FSFP),
        ):
            reasons: list[str] = []
            assert validate(cert, reasons) and reasons == []

    def test_validate_rejects_tampering(self):
        cert = check("nu", [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE)
        expected = "CombinationEntry(tag='s:1,2', value=Fraction(6, 1), colour='nu:s:C4mC1')"

        tampered_colour = replace(cert, keys=("nu:s:C1", cert.keys[1]))
        tampered_value = replace(cert, values=((7, 1), cert.values[1]))
        dropped = replace(cert, tags=cert.tags[:1], values=cert.values[:1], keys=cert.keys[:1])
        wrong_verdict = replace(cert, verdict=Monochromatic(key="nu:s:C1"))
        for bad, why in (
            (tampered_colour, f"combination mismatch: expected {expected}, found "
                              "CombinationEntry(tag='s:1,2', value=Fraction(6, 1), colour='nu:s:C1')"),
            (tampered_value, f"combination mismatch: expected {expected}, found "
                             "CombinationEntry(tag='s:1,2', value=Fraction(7, 1), colour='nu:s:C4mC1')"),
            (dropped, "combination mismatch: expected CombinationEntry(tag='p:1,2', "
                      "value=Fraction(8, 1), colour='nu:s:C1'), found None"),
            (wrong_verdict, "verdict mismatch: "),
        ):
            reasons = []
            assert not validate(bad, reasons)
            assert len(reasons) == 1 and reasons[0].startswith(why), reasons

    def test_columns_of_unequal_length_are_refused(self):
        cert = check("nu", [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE)
        with pytest.raises(DomainError, match="one tag, value and colour per combination"):
            replace(cert, keys=cert.keys[:1])

    def test_from_json_refuses_text_that_is_not_json(self):
        with pytest.raises(DomainError, match="^certificate is not valid JSON: "):
            Certificate.from_json("{")

    def test_from_json_refuses_text_nested_too_deep_to_read(self):
        # the decoder recurses once per bracket, so this would raise RecursionError
        with pytest.raises(DomainError, match="^certificate is not valid JSON: "):
            Certificate.from_json("[" * 100_000)

    @pytest.mark.parametrize("mode", list(CombinationMode), ids=lambda mode: mode.value)
    def test_validate_reports_a_repeated_term(self, mode):
        # check refuses the sequence itself, so the certificate cannot be recomputed
        cert = replace(check("nu", [Fraction(2), Fraction(4)], mode), sequence=(Fraction(2), Fraction(2)))
        reasons: list[str] = []
        assert not validate(cert, reasons)
        assert len(reasons) == 1 and reasons[0].startswith("recomputation failed:"), reasons

    def test_from_obj_rejects_malformed(self):
        with pytest.raises(DomainError):
            Certificate.from_obj({"colouring": "nu"})
        # a term or a combination value given as a JSON number, not a string
        obj = check("nu", [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE).to_obj()
        numeric_term = {**obj, "sequence": [2, "4"]}
        numeric_value = {**obj, "combinations": [{**obj["combinations"][0], "value": 6}]}
        for bad in (numeric_term, numeric_value):
            with pytest.raises(DomainError, match="not a positive rational"):
                Certificate.from_obj(bad)
            with pytest.raises(DomainError, match="not a positive rational"):
                Certificate.from_json(json.dumps(bad))
        # a string is no list of terms ("24" would read as 2, 4) or of combinations, and a
        # colouring, tag or colour must be a JSON string
        wrong_types = [
            {**obj, "sequence": "24"},
            {**obj, "combinations": ""},
            {**obj, "colouring": ["nu"]},
            {**obj, "combinations": [{**obj["combinations"][0], "tag": 1}, *obj["combinations"][1:]]},
            {**obj, "combinations": [{**obj["combinations"][0], "colour": ["nu:s:C1"]},
                                     *obj["combinations"][1:]]},
        ]
        for bad in wrong_types:
            with pytest.raises(DomainError, match="malformed certificate object"):
                Certificate.from_obj(bad)
            with pytest.raises(DomainError, match="malformed certificate object"):
                Certificate.from_json(json.dumps(bad))

    @pytest.mark.parametrize("colouring, verdict", [
        ("nu", {"clash": [0, 1.9]}),
        ("nu", {"clash": ["0", True]}),
        ("nu", {"clash": [0, 1, 99]}),
        ("const", {"monochromatic": {"key": "const", "empty": 0}}),
        ("const", {"monochromatic": {"key": "const", "empty": []}}),
        ("const", {"monochromatic": {"key": ["const"], "empty": False}}),
        ("const", {"monochromatic": {"key": 7, "empty": False}}),
    ], ids=["float-index", "string-and-bool-index", "three-indices", "empty-0", "empty-list",
            "key-list", "key-int"])
    def test_from_obj_refuses_a_verdict_it_would_coerce(self, colouring, verdict):
        obj = check(colouring, [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE).to_obj()
        assert obj["verdict"].keys() == verdict.keys()  # only the one field is tampered
        bad = {**obj, "verdict": verdict}
        with pytest.raises(DomainError, match="malformed certificate object"):
            Certificate.from_obj(bad)
        with pytest.raises(DomainError, match="malformed certificate object"):
            Certificate.from_json(json.dumps(bad))

    @pytest.mark.parametrize("key", [["const"], 7, True, {"const": None}])
    def test_from_obj_names_a_key_that_is_no_string(self, key):
        obj = check("const", [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE).to_obj()
        bad = {**obj, "verdict": {"monochromatic": {"key": key, "empty": False}}}
        message = f"malformed certificate object: a key must be a JSON string or null, got {key!r}"
        with pytest.raises(DomainError) as info:
            Certificate.from_obj(bad)
        assert str(info.value) == message

    def test_from_obj_reads_the_null_key_of_an_empty_check(self):
        obj = check("nu", [], CombinationMode.PAIRWISE).to_obj()
        assert obj["verdict"] == {"monochromatic": {"key": None, "empty": True}}
        cert = Certificate.from_json(json.dumps(obj))
        assert cert.verdict == Monochromatic(key=None, empty=True)
        assert cert.to_obj() == obj

    @pytest.mark.parametrize("verdict", [
        {"clash": [0, 1], "monochromatic": {"key": "nu:t:0,1,2,1,1", "empty": False}},
        {},
        {"split": [0, 1]},
    ], ids=["two-kinds", "no-kind", "unknown-kind"])
    def test_from_obj_reads_exactly_one_verdict_kind(self, verdict):
        obj = check("nu", [Fraction(2), Fraction(4)], CombinationMode.PAIRWISE).to_obj()
        bad = {**obj, "verdict": verdict}
        shape = r'malformed certificate object: a verdict must be \{"clash": \[first, second\]\} or'
        with pytest.raises(DomainError, match=shape):
            Certificate.from_obj(bad)
        with pytest.raises(DomainError, match=shape):
            Certificate.from_json(json.dumps(bad))


#: each unary colouring's key through its oracle; phi and theta colour integers only
MODEL_KEYS = {
    "phi": lambda x: f"bit:{oracles.phi_oracle(x.numerator)}",
    "theta": lambda x: colour_key(oracles.theta_oracle(x.numerator)),
    "nu": lambda x: colour_key(oracles.nu_oracle(x)),
    "mu": lambda x: colour_key(oracles.mu_oracle(x)),
    "alpha": lambda x: colour_key(oracles.alpha_oracle(x)),
}


def _model_check(colouring, xs, mode):
    """``check(colouring, xs, mode).to_obj()`` from its docstrings alone: every subset of the
    mode in (size, positions) order, sums first, each value a ``Fraction`` sum or product,
    coloured by the oracle, and the lexicographically first pair of differing keys."""
    sizes = [2] if mode is CombinationMode.PAIRWISE else range(1, len(xs) + 1)
    subsets = [c for r in sizes for c in itertools.combinations(range(len(xs)), r)]
    rows = []
    for block, op in (("s", sum), ("p", math.prod)):
        for c in subsets:
            value = op(xs[i] for i in c)
            tag = f"{block}:" + ",".join(str(i + 1) for i in c)
            rows.append({"tag": tag, "value": str(value), "colour": MODEL_KEYS[colouring](value)})
    colours = [row["colour"] for row in rows]
    clash = next(([i, j] for i, j in itertools.combinations(range(len(rows)), 2)
                  if colours[i] != colours[j]), None)
    return {
        "colouring": colouring,
        "mode": mode.value,
        "sequence": [str(x) for x in xs],
        "combinations": rows,
        "verdict": {"clash": clash} if clash else
                   {"monochromatic": {"key": colours[0] if rows else None, "empty": not rows}},
    }


#: the colourings that key a natural by its binary profile
PROFILED = ("theta", "alpha")


def _profile(n):
    """The binary profile of the natural n from its digits: the trailing zeros, the digit
    count, and the index of the second 1 from the left (-1 for a power of two)."""
    b = bin(n)[2:]
    return len(b) - len(b.rstrip("0")), len(b), b.find("1", 1)


def _first_calls(colouring, values):
    """The ``Fraction`` values a colour table colours when ``values`` are looked up in order:
    each distinct value once, but under theta and alpha only the first natural of a profile."""
    firsts = {}
    for v in values:
        firsts.setdefault(_profile(v.numerator) if v.denominator == 1 and colouring in PROFILED else v, v)
    return list(firsts.values())


@st.composite
def _check_cases(draw):
    colouring = draw(st.sampled_from(sorted(MODEL_KEYS)))
    if colouring in ("phi", "theta"):
        term = st.integers(1, 64).map(Fraction)
    else:
        term = st.builds(Fraction, st.integers(1, 24), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
    xs = draw(st.lists(term, min_size=1, max_size=6, unique=True))
    return colouring, xs, draw(st.sampled_from(list(CombinationMode)))


def _tampered(cert):
    """(what, certificate with that one field changed, the reason validate gives)."""
    tags, values, keys = cert.tags, cert.values, cert.keys
    verdict = (Clash(0, 1) if isinstance(cert.verdict, Monochromatic)
               else Monochromatic(keys[0]))
    other = next(m for m in CombinationMode if m is not cert.mode)
    out = [
        ("mode", replace(cert, mode=other), "combination mismatch: "),
        ("sequence", replace(cert, sequence=cert.sequence + cert.sequence[:1]), "recomputation failed: "),
        ("verdict", replace(cert, verdict=verdict), "verdict mismatch: "),
    ]
    if keys:  # a one-term pairwise certificate has none
        n, d = values[-1]
        out += [
            ("colouring", replace(cert, colouring_id="const"), "combination mismatch: "),
            ("colour", replace(cert, keys=(keys[0] + "!", *keys[1:])), "combination mismatch: "),
            ("tag", replace(cert, tags=("s:9", *tags[1:])), "combination mismatch: "),
            ("value", replace(cert, values=(*values[:-1], (n + d, d))),  # the last value plus 1
             "combination mismatch: "),
            ("dropped", replace(cert, tags=tags[:-1], values=values[:-1], keys=keys[:-1]),
             "combination mismatch: "),
        ]
    return out


class TestCheckModel:
    """``check`` against a model that shares no code with ``verify`` (ROADMAP item 12)."""

    # 2 · 1/2 and 1/2 · 2 reduce to the term 1, whichever operand's gcd does it
    @example(("nu", [Fraction(1), Fraction(2), Fraction(1, 2)], CombinationMode.FINITE_FSFP))
    @example(("mu", [Fraction(1), Fraction(1, 2), Fraction(2)], CombinationMode.FINITE_FSFP))
    @given(_check_cases())
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    def test_check_matches_the_model(self, case):
        colouring, xs, mode = case
        real, seen = verify.colouring_fn, []

        def counting(colouring_id):
            fn = real(colouring_id)
            return lambda x, **given: seen.append(x) or fn(x, **given)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "colouring_fn", counting)
            cert = check(colouring, xs, mode)
        assert cert.to_obj() == _model_check(colouring, xs, mode)
        # each distinct value, or under theta and alpha each binary profile of a natural, is
        # coloured once, in first-seen order, handed to the colouring as exactly one Fraction
        assert all(type(x) is Fraction for x in seen)
        assert seen == _first_calls(colouring, [Fraction(*v) for v in cert.values])
        assert Certificate.from_json(cert.to_json()) == cert
        reasons: list[str] = []
        assert validate(cert, reasons) and reasons == []
        for what, bad, why in _tampered(cert):
            reasons = []
            assert not validate(bad, reasons), what
            assert len(reasons) == 1 and reasons[0].startswith(why), (what, reasons)

    @example(("nu", [Fraction(1), Fraction(2), Fraction(1, 2)], CombinationMode.FINITE_FSFP))
    @given(_check_cases())
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    def test_row_view_matches_the_public_combinations(self, case):
        colouring, xs, mode = case
        fn = colouring_fn(colouring)
        rows = tuple(verify.CombinationEntry(tag, v, colour_key(fn(v)))
                     for tag, v in combinations(xs, mode))
        view = check(colouring, xs, mode).combinations
        assert view == rows
        assert all(type(e.value) is Fraction for e in view)


class TestUniverse:
    def test_enumeration_order(self):
        spec = UniverseSpec(numerator_bound=4, denominator_bound=6, prime_index_bound=2)
        assert [str(x) for x in spec.elements()] == [
            "1", "2", "3", "4", "1/2", "3/2", "1/3", "2/3", "4/3", "1/4", "3/4", "1/6",
        ]

    def test_integers_only(self):
        spec = UniverseSpec(numerator_bound=5, denominator_bound=99, integers_only=True)
        assert spec.elements() == [Fraction(n) for n in range(1, 6)]

    def test_denominators_restricted_to_prime_window(self):
        spec = UniverseSpec(numerator_bound=2, denominator_bound=12, prime_index_bound=1)
        assert sorted({x.denominator for x in spec.elements()}) == [1, 2, 4, 8]

    def test_matches_trial_division_reference(self):
        def reference(n_bound, d_bound, k, integers_only):
            out = []
            for d in range(1, 2 if integers_only else d_bound + 1):
                left = d
                for p in (2, 3, 5, 7, 11)[:k]:
                    while left % p == 0:
                        left //= p
                if left == 1:
                    out += [Fraction(n, d) for n in range(1, n_bound + 1) if math.gcd(n, d) == 1]
            return out

        for args in itertools.product((1, 7, 20, 60), (1, 2, 12, 60, 97), range(1, 6), (False, True)):
            want = reference(*args)
            if len(want) > verify.UNIVERSE_CAP:
                with pytest.raises(DomainError, match="more than 512"):
                    UniverseSpec(*args).elements()
            else:
                assert UniverseSpec(*args).elements() == want, args

    def test_denominator_bound_below_one_rejected(self):
        for bound in (0, -1):
            with pytest.raises(DomainError, match=f"denominator bound must be >= 1, got {bound}"):
                UniverseSpec(numerator_bound=5, denominator_bound=bound).elements()

    @pytest.mark.parametrize("spec, message", [
        (UniverseSpec(0), "numerator bound must be >= 1, got 0"),
        (UniverseSpec(-4, 10**12, 6), "numerator bound must be >= 1, got -4"),
        (UniverseSpec(5, 4, 0), "prime index must be >= 1, got 0"),
        (UniverseSpec(5, integers_only=True, prime_index_bound=-1), "prime index must be >= 1, got -1"),
    ], ids=["numerator-0", "numerator-minus-4", "prime-index-0", "integers-prime-index-minus-1"])
    def test_numerator_bound_and_prime_index_below_one_rejected(self, spec, message):
        # refused before any denominator is listed, so the cap is not what stops (-4, 10**12, 6)
        with pytest.raises(DomainError, match=message):
            spec.elements()

    @pytest.mark.parametrize("integers_only", [False, True])
    def test_prime_index_past_the_cap_reads_every_prime(self, integers_only):
        # the walk stops at the PRIME_CAP-th prime, however large the index
        spec = UniverseSpec(3, 4, verify.PRIME_CAP, integers_only)
        for index in (verify.PRIME_CAP + 1, 10**23):
            assert UniverseSpec(3, 4, index, integers_only).elements() == spec.elements()

    def test_cap_bounds_the_cost(self):
        t0 = time.perf_counter()
        for spec in (UniverseSpec(100_000), UniverseSpec(1, 10**12, 6), UniverseSpec(30, 10**12)):
            with pytest.raises(DomainError, match="more than 512"):
                spec.elements()
        powers = UniverseSpec(1, 10**12).elements()
        assert powers == [Fraction(1, 2**e) for e in range(40)]
        assert len(UniverseSpec(512).elements()) == 512
        assert time.perf_counter() - t0 < 1.0


NU_UNIVERSE = UniverseSpec(numerator_bound=10, denominator_bound=4)


def _ends(v):
    """(v2, top bit) of the natural v."""
    return (v & -v).bit_length() - 1, v.bit_length() - 1


def _fixed(end, start):
    """The theta components a natural's (end, start) fixes, from the oracles: the power flag,
    the end parity, phi(end) and the pair colours of (end, start) and (end, start + 1)."""
    pair = colour_key(oracles.big_phi_oracle(end, start)), colour_key(oracles.big_phi_oracle(end, start + 1))
    return (end == start, end % 2, oracles.phi_oracle(end), *pair)


def assert_natural_graph_is_brute(colouring, top):
    """The pair graph of 1..top under theta or alpha has the edges and masks that keying every
    pair's sum and product straight from ``colourings`` gives. Tier-1 runs it at top = 1,000,
    and a step of ``.github/workflows/tests.yml`` at 4,096."""
    key = {"theta": lambda v: colour_key(theta(v)),
           "alpha": lambda v: colour_key(alpha(Fraction(v)))}[colouring]
    sums = {v: key(v) for v in range(3, 2 * top)}  # each sum once; every product is keyed anew
    adj, edges = {}, [0] * top
    for i, j in itertools.combinations(range(top), 2):
        k = sums[i + j + 2]
        if k == key((i + 1) * (j + 1)):
            adj[k, i] = adj.get((k, i), 0) | 1 << j
            edges[i] |= 1 << j
    graph = verify._PairGraph(colouring, [Fraction(n) for n in range(1, top + 1)], CombinationMode.PAIRWISE)
    assert (graph.adj, graph.edges) == (adj, edges)


def _head(v):
    """(v2 parity, phi(v2)) of the natural v, from its binary digits and the phi oracle."""
    end = _profile(v.numerator)[0]
    return end % 2, oracles.phi_oracle(end)


def _graph_lookups(colouring, elements, mode):
    """(met, stored): the values a search's pair graph looks up, in order, and the set of
    them its table stores. Finite mode's elements come first, then each pair's sum and
    product unless the pair is dropped. Under theta and alpha the pairs of integers come
    next: class pair by class pair as ``verify._class_pairs`` keeps them, the classes by
    (v2, top bit) in first-seen order, a pair of one class in ``combinations`` order and of
    two in ``product`` order. A pair is dropped when its sum and product differ in ``_head``,
    else both are looked up by profile and neither is stored. Then every other pair in
    canonical order, dropped when its two values' shadows differ."""
    shadow = SHADOWS.get(colouring)
    met = list(elements) if mode is CombinationMode.FINITE_FSFP else []
    stored = set(met)
    classes = {}
    for x in elements if colouring in PROFILED else ():
        if x.denominator == 1:
            end, digits, _ = _profile(x.numerator)
            classes.setdefault((end, digits - 1), []).append(x)
    groups = list(classes.values())
    for a, b in verify._class_pairs(list(classes)):
        pairs = itertools.combinations(groups[a], 2) if a == b else itertools.product(groups[a], groups[b])
        for x, y in pairs:
            s, p = x + y, x * y
            met += [s, p] if _head(s) == _head(p) else []
    for x, y in itertools.combinations(elements, 2):
        s, p = x + y, x * y
        if colouring in PROFILED and x.denominator == 1 == y.denominator:
            continue
        if shadow is None or shadow(s.numerator, s.denominator) == shadow(p.numerator, p.denominator):
            met += [s, p]
            stored |= {s, p}
    return met, stored


def _gated_values(colouring, elements, mode):
    """The values a search colours up front, in the order it colours them."""
    return _first_calls(colouring, _graph_lookups(colouring, elements, mode)[0])


def _ungated_graph(colouring, elements, mode):
    """(adj, edges, singles) from colouring every pair's sum and product."""
    fn = colouring_fn(colouring)
    adj, edges, singles = {}, [0] * len(elements), {}
    for (i, x), (j, y) in itertools.combinations(enumerate(elements), 2):
        k = colour_key(fn(x + y))
        if k == colour_key(fn(x * y)):
            adj[k, i] = adj.get((k, i), 0) | 1 << j
            edges[i] |= 1 << j
    for j, x in enumerate(elements if mode is CombinationMode.FINITE_FSFP else ()):
        singles[colour_key(fn(x))] = singles.get(colour_key(fn(x)), 0) | 1 << j
    return adj, edges, singles


class TestSearch:
    def test_pruned_matches_naive(self):
        pruned = search("nu", NU_UNIVERSE, CombinationMode.PAIRWISE, target_size=2,
                        budget=10**6)
        naive = naive_search("nu", NU_UNIVERSE, CombinationMode.PAIRWISE, target_size=2)
        assert pruned.exhausted
        assert pruned.max_size == naive.max_size == 2
        assert len(pruned.certificates) == len(naive.certificates) == 27
        assert [c.to_obj() for c in pruned.certificates] == [c.to_obj() for c in naive.certificates]

    def test_certificates_are_valid_and_ordered(self):
        res = search("nu", NU_UNIVERSE, CombinationMode.PAIRWISE, target_size=2,
                     budget=10**6)
        first = res.certificates[0]
        assert [str(x) for x in first.sequence] == ["1", "6"]
        assert first.verdict == Monochromatic(key="nu:s:C4mC1")
        for cert in res.certificates:
            assert validate(cert)

    def test_deeper_targets_on_trivial_colouring(self):
        universe = UniverseSpec(numerator_bound=4, integers_only=True)
        res = search("const", universe, CombinationMode.PAIRWISE, target_size=3,
                     budget=10**5)
        naive = naive_search("const", universe, CombinationMode.PAIRWISE, target_size=3)
        assert res.max_size == naive.max_size == 4
        assert [[str(x) for x in c.sequence] for c in res.certificates] == [
            ["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"],
        ]
        assert res.to_obj()["certificates"] == naive.to_obj()["certificates"]

    # nodes / max_size / exhausted / certificate sequences. The budget counts the nodes of
    # one preorder over every root, so a smaller budget keeps a prefix of the certificates,
    # and any budget from the 47 nodes up gives the whole search.
    SEQUENCES = [
        "1,6", "1,9", "1,3/4", "1,5/4", "2,3/2", "2,5/2", "2,7/4", "2,9/4", "3,4",
        "3,6", "3,1/2", "3,3/2", "4,5", "4,7/2", "4,9/2", "5,5/4", "6,8", "7,8",
        "7,1/2", "8,9", "8,10", "9,5/4", "1/2,9/2", "3/2,1/4", "3/2,3/4", "7/2,1/4",
        "1/4,9/4"]
    PINNED = {
        1: (1, 1, False, []),
        5: (5, 2, False, SEQUENCES[:4]),
        17: (17, 2, False, SEQUENCES[:13]),
        60: (47, 2, True, SEQUENCES),
        200: (47, 2, True, SEQUENCES),
    }

    @pytest.mark.parametrize("budget", sorted(PINNED))
    def test_pinned_output_at_budget(self, budget):
        res = search("nu", NU_UNIVERSE, CombinationMode.PAIRWISE, target_size=2,
                     budget=budget)
        sequences = [",".join(str(x) for x in c.sequence) for c in res.certificates]
        assert (res.nodes, res.max_size, res.exhausted, sequences) == self.PINNED[budget]

    @pytest.mark.parametrize("colouring, universe, mode, target", [
        ("nu", NU_UNIVERSE, CombinationMode.PAIRWISE, 2),
        ("alpha", UniverseSpec(16, 8, 2), CombinationMode.PAIRWISE, 3),
        ("const", UniverseSpec(6, 2, 1), CombinationMode.FINITE_FSFP, 3),
    ], ids=["nu-pairwise", "alpha-pairwise", "const-finite"])
    def test_budget_visits_a_prefix_of_one_preorder(self, colouring, universe, mode, target):
        # the configurations walked root by root from the pair graph, apart from search
        elements = universe.elements()
        graph = verify._PairGraph(colouring, elements, mode)
        walk = [[elements[i] for i in idx]
                for root in range(len(elements)) for idx in graph.below(root)]
        total = len(walk)
        for budget in sorted({1, 2, total - 1, total, total + 1, 2 * total}):
            res = search(colouring, universe, mode, target_size=target, budget=budget)
            visited = walk[:budget]
            assert (res.nodes, res.exhausted, res.max_size) == (
                len(visited), budget >= total, max(map(len, visited)))
            assert [list(c.sequence) for c in res.certificates] == [
                xs for xs in visited if len(xs) == target]

    @pytest.mark.parametrize("colouring, bounds, nodes, max_size", [
        ("nu", (10, 4, 2), 27, 1),
        ("mu", (12, 8, 2), 42, 1),
        ("alpha", (12, 6, 2), 51, 2),
    ])
    def test_pinned_finite_mode(self, colouring, bounds, nodes, max_size):
        res = search(colouring, UniverseSpec(*bounds), CombinationMode.FINITE_FSFP,
                     target_size=3, budget=10**6)
        assert (res.nodes, res.max_size, res.exhausted, res.certificates) == (
            nodes, max_size, True, [])

    @pytest.mark.parametrize("colouring, universe, count", [
        ("phi", UniverseSpec(numerator_bound=40, integers_only=True), 6),
        ("alpha", UniverseSpec(16, 8, 2), 8),
        ("const", UniverseSpec(6, 2, 1), 84),
    ])
    def test_finite_mode_matches_naive(self, colouring, universe, count):
        got = search(colouring, universe, CombinationMode.FINITE_FSFP, target_size=3,
                     budget=10**6).to_obj()
        want = naive_search(colouring, universe, CombinationMode.FINITE_FSFP, 3).to_obj()
        assert got.pop("nodes") > 0 and want.pop("nodes") == -1
        assert got == want
        assert len(got["certificates"]) == count

    @pytest.mark.parametrize("mode, colouring, universe, target", [
        (CombinationMode.PAIRWISE, "nu", NU_UNIVERSE, 2),
        (CombinationMode.FINITE_FSFP, "alpha", UniverseSpec(16, 8, 2), 3),
    ], ids=["pairwise", "finite"])
    def test_each_value_coloured_once(self, monkeypatch, mode, colouring, universe, target):
        real = verify.colouring_fn
        seen = []

        def counting(colouring_id):
            fn = real(colouring_id)
            return lambda x, **given: seen.append(x) or fn(x, **given)

        monkeypatch.setattr(verify, "colouring_fn", counting)
        graphs = []

        class Recorded(verify._PairGraph):
            def __init__(self, *args):
                super().__init__(*args)
                graphs.append(self)

        monkeypatch.setattr(verify, "_PairGraph", Recorded)
        res = search(colouring, universe, mode, target_size=target, budget=10**6)
        assert res.certificates and len(seen) == len(set(seen))
        if mode is CombinationMode.PAIRWISE:
            assert sorted(seen) == sorted(_gated_values(colouring, universe.elements(), mode))
        # every certificate value is a pair of the graph's table, with the key it has there
        (graph,) = graphs
        assert all(v in graph.keys and graph.keys[v] == key
                   for cert in res.certificates for v, key in zip(cert.values, cert.keys))

    GATE_UNIVERSES = [
        ("theta", UniverseSpec(150, integers_only=True), CombinationMode.PAIRWISE),
        ("theta", UniverseSpec(40, integers_only=True), CombinationMode.FINITE_FSFP),
        ("nu", UniverseSpec(16, 10, 3), CombinationMode.PAIRWISE),
        ("nu", UniverseSpec(12, 6, 2), CombinationMode.FINITE_FSFP),
        ("mu", UniverseSpec(18, 8, 3), CombinationMode.PAIRWISE),
        ("mu", UniverseSpec(12, 6, 2), CombinationMode.FINITE_FSFP),
        ("alpha", UniverseSpec(20, 6, 2), CombinationMode.PAIRWISE),
        ("alpha", UniverseSpec(60, integers_only=True), CombinationMode.FINITE_FSFP),
    ]

    @pytest.mark.parametrize("colouring, universe, mode", GATE_UNIVERSES)
    def test_gate_keeps_every_edge(self, colouring, universe, mode):
        elements = universe.elements()
        graph = verify._PairGraph(colouring, elements, mode)
        assert (graph.adj, graph.edges, graph.singles) == _ungated_graph(colouring, elements, mode)
        assert set(graph.keys) == {(v.numerator, v.denominator)
                                   for v in _graph_lookups(colouring, elements, mode)[1]}

    @pytest.mark.parametrize("mode", list(CombinationMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("colouring", ["nu", "mu", "alpha"])
    def test_gate_keeps_every_edge_over_many_primes(self, colouring, mode):
        # 1/1..1/64: the denominators use the 18 primes up to 61, so the sums and products
        # reduce by gcds that the small denominators above never reach
        elements = UniverseSpec(1, 64, 18).elements()
        graph = verify._PairGraph(colouring, elements, mode)
        assert (graph.adj, graph.edges, graph.singles) == _ungated_graph(colouring, elements, mode)
        assert set(graph.keys) == {(v.numerator, v.denominator)
                                   for v in _graph_lookups(colouring, elements, mode)[1]}

    @pytest.mark.parametrize("colouring, universe, coloured", [
        ("theta", UniverseSpec(150, integers_only=True), 0),
        ("alpha", UniverseSpec(16, 8, 2), 406),
        ("alpha", UniverseSpec(20, 6, 2), 395),
        ("nu", UniverseSpec(16, 10, 3), 782),
        ("nu", UniverseSpec(18, 8, 3), 584),
        ("mu", UniverseSpec(16, 10, 3), 598),
        ("mu", UniverseSpec(18, 8, 3), 488),
    ])
    def test_gate_colours_pinned_counts(self, colouring, universe, coloured):
        # the values the table stores: theta and alpha key the sum and product of two integers
        # by profile and store neither, and alpha's shadow gives every other natural one token.
        # nu's and mu's rows hold its (w1, phi(a)) shadow to its partition
        graph = verify._PairGraph(colouring, universe.elements(), CombinationMode.PAIRWISE)
        assert len(graph.keys) == coloured

    def test_head_gate_skips_the_profile_lookups(self, monkeypatch):
        # theta to 150's 11,175 pairs lie in 595 pairs of its 34 (v2, top bit) classes. The
        # class rule keeps 7 of them, with 37 pairs; 23 of those pass the v2 head test and look
        # their sum and product up by profile, and a pair whose sum has another head than its
        # product is dropped before either value is built. The lookups colour 23 values, one
        # per profile met
        calls, real = [], verify.ColourTable.natural
        monkeypatch.setattr(verify.ColourTable, "natural", lambda self, n: calls.append(n) or real(self, n))
        elements = UniverseSpec(150, integers_only=True).elements()
        graph = verify._PairGraph("theta", elements, CombinationMode.PAIRWISE)
        assert (len(calls), len(graph.keys.profiles), len(graph.keys)) == (2 * 23, 23, 0)
        met, _ = _graph_lookups("theta", elements, CombinationMode.PAIRWISE)
        assert calls == [v.numerator for v in met]

    @pytest.mark.parametrize("colouring", PROFILED)
    def test_class_route_finds_the_brute_graph(self, colouring):
        # every pair of 1..1,000 keyed straight from the colourings, apart from the pair graph
        assert_natural_graph_is_brute(colouring, 1_000)

    def test_skipped_class_pairs_hold_no_agreeing_pair(self):
        # up to 2,048, no pair of two classes the rule skips has a sum and a product that agree
        # in the theta components their (v2, top bit) fixes, read from each sum and product
        classes = {}
        for n in range(1, 2_049):
            end, digits, _ = _profile(n)
            classes.setdefault((end, digits - 1), []).append(n)
        order, groups = list(classes), list(classes.values())
        kept = set(verify._class_pairs(order))
        skipped = [(a, b) for a in range(len(order)) for b in range(a, len(order)) if (a, b) not in kept]
        assert (len(order), len(kept), len(skipped)) == (67, 60, 2_218)
        for a, b in skipped:
            pairs = (itertools.combinations(groups[a], 2) if a == b
                     else itertools.product(groups[a], groups[b]))
            sums, prods = set(), set()
            for x, y in pairs:
                sums.add(_ends(x + y))
                prods.add(_ends(x * y))
            fixed = {_fixed(*es) for es in sums}
            assert fixed.isdisjoint({_fixed(*es) for es in prods}), (order[a], order[b])

    def test_natural_cap(self):
        # theta and alpha over the naturals take 65,536 elements; any other universe 512
        for colouring, spec, cap in [("theta", UniverseSpec(65_537, integers_only=True), 65_536),
                                     ("alpha", UniverseSpec(65_537), 65_536),
                                     ("nu", UniverseSpec(513, integers_only=True), 512),
                                     ("theta", UniverseSpec(400, 2), 512)]:
            with pytest.raises(DomainError, match=f"^universe has more than {cap} elements"):
                search(colouring, spec, CombinationMode.PAIRWISE, target_size=2, budget=1)
        res = search("alpha", UniverseSpec(4_096), CombinationMode.PAIRWISE, target_size=11, budget=10**6)
        assert (res.max_size, res.exhausted, res.nodes) == (10, True, 13_565)

    @pytest.mark.parametrize("colouring, universe, mode", [
        ("nu", NU_UNIVERSE, CombinationMode.PAIRWISE),
        ("alpha", UniverseSpec(16, 8, 2), CombinationMode.FINITE_FSFP),
    ], ids=["pairwise", "finite"])
    def test_graph_colours_in_first_seen_order(self, monkeypatch, colouring, universe, mode):
        # the order decides which value's DomainError a search reports
        real = verify.colouring_fn
        seen = []

        def counting(colouring_id):
            fn = real(colouring_id)
            return lambda x, **given: seen.append(x) or fn(x, **given)

        monkeypatch.setattr(verify, "colouring_fn", counting)
        elements = universe.elements()
        verify._PairGraph(colouring, elements, mode)
        assert seen == _gated_values(colouring, elements, mode)

    def test_finite_configurations_stop_at_the_term_cap(self):
        # every subset is monochromatic under const, so the preorder's first 17 nodes run
        # straight down: without the cap the 17th would be all 17 terms, which check refuses
        res = search("const", UniverseSpec(17, integers_only=True), CombinationMode.FINITE_FSFP,
                     target_size=3, budget=17 * 17)
        assert (res.max_size, res.nodes, res.exhausted) == (verify.FINITE_TERM_CAP, 289, False)

    def test_colouring_loads_no_process_machinery(self):
        # a search and a check that colour over 7,169 distinct values each, in a fresh
        # interpreter: every value is coloured in the calling process
        code = """
import contextlib, io, json, sys
from qcolour import cli, verify
counts, real = [], verify.colouring_fn
def counting(colouring_id):
    fn = real(colouring_id)
    def call(x, **given):
        counts[-1] += 1
        return fn(x, **given)
    return call
verify.colouring_fn = counting
for argv, terms in [
    (["search", "--colouring", "mu", "--numerator-bound", "40", "--denominator-bound", "30",
      "--prime-index", "3", "--target", "3"], ""),
    (["check", "--colouring", "nu"], "\\n".join(map(str, range(1, 171)))),
]:
    counts.append(0)
    sys.stdin = io.StringIO(terms)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
print(json.dumps([counts, loaded]))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts, loaded = json.loads(proc.stdout)
        assert counts == [8_542, 8_024] and loaded == []

    def test_gate_keeps_a_pair_with_one_undecided_value(self):
        # theta has no shadow, so the pair of 1/2 + 3/2 = 2 and 3/4 is coloured, and 3/4 refused
        with pytest.raises(DomainError, match="theta colours naturals only, got 3/4"):
            verify._PairGraph("theta", [Fraction(1, 2), Fraction(3, 2)], CombinationMode.PAIRWISE)

    def test_budget_exhaustion_is_reported(self):
        res = search("nu", NU_UNIVERSE, CombinationMode.PAIRWISE, target_size=2,
                     budget=5)
        assert not res.exhausted and res.nodes == 5

    def test_budget_above_the_machine_word_is_taken(self):
        # any budget >= 1 is a node count; one past sys.maxsize gives the whole search
        huge, whole = (search("nu", NU_UNIVERSE, CombinationMode.PAIRWISE, target_size=2, budget=b)
                       for b in (10**30, 10**6))
        assert huge == whole and huge.exhausted and huge.nodes == 47

    def test_domain_errors(self):
        for kwargs in (
            {"target_size": 1},
            {"budget": 0},
        ):
            with pytest.raises(DomainError):
                search("nu", NU_UNIVERSE, CombinationMode.PAIRWISE,
                       **{"target_size": 2, "budget": 100, **kwargs})

    @pytest.mark.parametrize("mode", list(CombinationMode), ids=lambda mode: mode.value)
    def test_finite_target_above_term_cap_rejected_before_colouring(self, monkeypatch, mode):
        # no configuration of the mode holds more terms, so the universe is not even listed
        def refuse(*args):
            raise AssertionError("listed or coloured before the target size was checked")

        monkeypatch.setattr(verify, "colouring_fn", refuse)
        monkeypatch.setattr(UniverseSpec, "elements", refuse)
        cap = verify.term_cap(mode)
        message = f"{mode.value} mode takes at most {cap} terms, got {cap + 1}$"
        with pytest.raises(DomainError, match=message):
            search("nu", NU_UNIVERSE, mode, target_size=cap + 1, budget=100)


class TestPropertySuite:
    def test_all_laws_pass(self):
        report = property_suite(seed=1, sample_count=300)
        assert report.all_passed
        assert [law.name for law in report.laws] == [
            "disjoint-support-sum",
            "binary-product-end",
            "binary-product-start",
            "same-end-carry",
            "primorial-product-end",
            "primorial-product-start",
            "c3-dyadic-closure",
        ]
        assert all(law.samples == 300 for law in report.laws)

    def test_deterministic_for_seed(self):
        a = property_suite(seed=7, sample_count=100).to_obj()
        b = property_suite(seed=7, sample_count=100).to_obj()
        assert a == b

    def test_shifted_end_is_caught(self, monkeypatch):
        monkeypatch.setattr(verify, "end2", lambda m: end2(m) + 1)
        report = property_suite(seed=1, sample_count=300)
        failed = {law.name for law in report.laws if not law.passed}
        assert "binary-product-end" in failed
        assert "same-end-carry" in failed
        # the shift cancels in the min()-based sum law and start laws stay clean
        assert "disjoint-support-sum" not in failed
        assert "binary-product-start" not in failed
        for law in report.laws:
            if not law.passed:
                assert law.counterexample

    def test_shifted_start_is_caught(self, monkeypatch):
        monkeypatch.setattr(verify, "start2", lambda m: start2(m) + 1)
        report = property_suite(seed=1, sample_count=300)
        failed = {law.name for law in report.laws if not law.passed}
        assert "binary-product-start" in failed

    def test_shifted_expansion_is_caught(self, monkeypatch):
        def shifted(x, n):
            d = expand(x, n)
            return DigitExpansion(d.base_index, {p + 1: v for p, v in d.digits.items()})

        monkeypatch.setattr(verify, "expand", shifted)
        report = property_suite(seed=1, sample_count=300)
        failed = {law.name for law in report.laws if not law.passed}
        assert "primorial-product-end" in failed
        assert "binary-product-end" not in failed

    def test_non_dyadic_half_sums_are_caught(self, monkeypatch):
        # the law redraws until a triple meets its side conditions, so one sample is tested
        monkeypatch.setattr(verify, "is_dyadic", lambda x: False)
        report = property_suite(seed=1, sample_count=1)
        failed = [law for law in report.laws if not law.passed]
        assert [law.name for law in failed] == ["c3-dyadic-closure"]
        assert failed[0].counterexample.startswith("alpha=")

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            property_suite(seed=1, sample_count=0)


class TestC3Triples:
    def test_reconstruction(self):
        rng = random.Random(3)
        seen = 0
        while seen < 50:
            triple = c3_triple(rng)
            if triple is None:
                continue
            seen += 1
            a, b, g, x, y, z = triple
            assert x + y == a and x + z == b and y + z == g
            for v in (x, y, z):
                assert v > 0 and v.denominator & (v.denominator - 1) == 0

    @staticmethod
    def c3_numbers() -> set[int]:
        """2^k + 2^l times 2^13 for every (k, l) the sampler's element draw can give."""
        pairs = [(-12, -13)] + [(k, l) for k in range(-11, 13) for l in range(-12, k)]
        return {2 ** (k + 13) + 2 ** (l + 13) for k, l in pairs}

    def test_table_is_the_drawable_c3_numbers(self):
        assert len(C3_SCALED) == 301
        assert list(C3_SCALED) == sorted(self.c3_numbers())

    def test_draw_takes_k_then_l_from_the_groups(self):
        assert len(C3_BY_K) == 25
        for k, group in zip(range(-12, 13), C3_BY_K):
            assert group == tuple(2 ** (k + 13) + 2 ** (l + 13) for l in range(-12 if k > -12 else -13, k)), k
        assert sorted(itertools.chain(*C3_BY_K)) == list(C3_SCALED)
        ks = []  # the group index of each k drawn: α's, then β's, per triple

        class Recording(random.Random):
            def choice(self, seq):
                picked = super().choice(seq)
                if seq is C3_BY_K:
                    ks.append(C3_BY_K.index(picked))
                return picked

        rng = Recording("c3-by-k")
        for _ in range(25_000):
            c3_triple(rng)
        assert len(ks) == 50_000
        counts = collections.Counter(ks[::2])
        assert sorted(counts) == list(range(25))
        assert all(800 <= count <= 1_200 for count in counts.values()), counts

    def test_gammas_are_exactly_those_meeting_the_side_conditions(self):
        c3 = sorted(self.c3_numbers())
        rng = random.Random("c3-gammas")
        pairs = [(rng.choice(c3), rng.choice(c3)) for _ in range(2_000)] + [(c3[5], c3[5])]
        for a, b in pairs:
            brute = []
            for g in c3:
                halves = (a + b - g, a - b + g, -a + b + g)
                if min(halves) > 0 and len(set(halves)) == 3:
                    brute.append(g)
            assert c3_gammas(a, b) == brute, (a, b)

    def test_drawn_gamma_is_one_of_the_gammas(self):
        rng = random.Random(11)
        for _ in range(500):
            if (triple := c3_triple(rng)) is not None:
                a, b, g = (v * 2**13 for v in triple[:3])
                assert g in c3_gammas(a, b)

    def test_few_draws_per_triple(self):
        rng = random.Random("acceptance9")
        draws = seen = 0
        while seen < 1000:
            draws += 1
            seen += c3_triple(rng) is not None
        assert draws <= 2_500

    def test_big_phi_zero_diagonal(self):
        # sanity: embedded pair colouring degenerates on the diagonal
        assert big_phi(4, 4) == big_phi(9, 2)
