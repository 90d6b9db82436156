"""Combination sets, monochromaticity certificates, bounded search, law suite.

A *combination set* of a finite sequence is either the pairwise one (sums and
products of all two-element subsets) or the full finite-sums-and-products one
(sums and products of every nonempty subset, singletons included). A
certificate records the sequence, every combination with its exact value and
colour key, and a verdict: one shared key, or the first clashing pair.

Colour keys (strings) are the sole equality tokens throughout; structured
colour values are never compared across colourings.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Hashable, Iterator

from .colourings import HEADED, SHADOWS, WALKED, colouring_fn, theta_fixed
from .core import (
    DIGIT_LIMIT, PRIME_CAP, PrimeTable, Rational, Record, check_digits, is_dyadic, nth_prime,
    parse_rational, prime_walk, primorial,
)
from .digits import DigitExpansion, binary_positions, end2, expand, start2
from .errors import DomainError, InternalInvariantError


class CombinationMode(Enum):
    PAIRWISE = "pairwise"
    FINITE_FSFP = "finite"


class Monochromatic(Record):
    key: str | None
    empty: bool = False

    def to_obj(self) -> dict:
        return {"monochromatic": {"key": self.key, "empty": self.empty}}


class Clash(Record):
    first: int
    second: int

    def to_obj(self) -> dict:
        return {"clash": [self.first, self.second]}


Verdict = Monochromatic | Clash


class CombinationEntry(Record):
    tag: str
    value: Rational
    colour: str  # colour key of the value


Pair = tuple[int, int]  # (numerator, denominator) in lowest terms, denominator > 0
_JSON_NAMES = {bool: "boolean", int: "integer", str: "string", list: "array"}


def _json_typed(value: Any, kind: type, what: str) -> Any:
    """``value`` if its JSON type is ``kind``, else ValueError; a boolean is no integer."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def json_text(obj: dict, pretty: bool = False) -> str:
    """One line of compact JSON, or ``pretty``: indented by two, the same keys in the same order."""
    # each object given is a tree built for this call, so it needs no cycle check
    return json.dumps(obj, check_circular=False, indent=2 if pretty else None,
                      separators=None if pretty else (",", ":"))


class Certificate(Record):
    """A sequence, its combinations as parallel columns in combination order, and a verdict."""

    colouring_id: str
    mode: CombinationMode
    sequence: tuple[Rational, ...]
    tags: tuple[str, ...]
    values: tuple[Pair, ...]
    keys: tuple[str, ...]
    verdict: Verdict

    def __post_init__(self) -> None:
        if not len(self.tags) == len(self.values) == len(self.keys):
            raise DomainError("a certificate needs one tag, value and colour per combination")

    @property
    def combinations(self) -> tuple[CombinationEntry, ...]:
        """The rows, each with its value as a ``Fraction``, built anew on every read."""
        return tuple(map(self._entry, range(len(self.tags))))

    def _entry(self, j: int) -> CombinationEntry | None:
        """Row ``j``, or None past the last."""
        if j >= len(self.tags):
            return None
        return CombinationEntry(self.tags[j], Fraction(*self.values[j]), self.keys[j])

    def to_obj(self) -> dict:
        return {
            "colouring": self.colouring_id,
            "mode": self.mode.value,
            "sequence": [str(x) for x in self.sequence],
            "combinations": [{"tag": tag, "value": str(n) if d == 1 else f"{n}/{d}", "colour": key}
                             for tag, (n, d), key in zip(self.tags, self.values, self.keys)],
            "verdict": self.verdict.to_obj(),
        }

    def to_json(self, pretty: bool = False) -> str:
        return json_text(self.to_obj(), pretty)

    @staticmethod
    def from_obj(obj: dict) -> "Certificate":
        verdict: Verdict
        try:
            match v := obj["verdict"]:
                case {"clash": [first, second]} if len(v) == 1:
                    verdict = Clash(_json_typed(first, int, "a clash index"),
                                    _json_typed(second, int, "a clash index"))
                case {"monochromatic": {"key": key, "empty": empty}} if len(v) == 1:
                    if key is not None and type(key) is not str:
                        raise ValueError(f"a key must be a JSON string or null, got {key!r}")
                    verdict = Monochromatic(key, _json_typed(empty, bool, "empty"))
                case _:
                    raise ValueError('a verdict must be {"clash": [first, second]} or {"monochromatic":'
                                     f' {{"key": key, "empty": empty}}}}, got {v!r}')
            colouring = _json_typed(obj["colouring"], str, "colouring")
            mode = CombinationMode(obj["mode"])
            sequence = tuple(map(parse_rational, _json_typed(obj["sequence"], list, "sequence")))
            tags, values, keys = [], [], []
            for c in _json_typed(obj["combinations"], list, "combinations"):  # row by row
                tags.append(_json_typed(c["tag"], str, "a tag"))
                values.append(((x := parse_rational(c["value"])).numerator, x.denominator))
                keys.append(_json_typed(c["colour"], str, "a colour"))
            return Certificate(colouring, mode, sequence, tuple(tags), tuple(values), tuple(keys), verdict)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed certificate object: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "Certificate":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep to read
            raise DomainError(f"certificate is not valid JSON: {exc}") from exc
        return Certificate.from_obj(obj)


#: Finite mode takes at most this many terms: k terms have 2·(2^k − 1)
#: combinations, so each term past the cap would double the work and output.
FINITE_TERM_CAP = 16

#: A search universe holds at most this many elements; its pairs are coloured up front.
#: Pairwise mode takes at most this many terms, so a search certificate always
#: fits: k terms have k·(k − 1) combinations.
UNIVERSE_CAP = 512
#: A θ or α search over the naturals alone (denominator bound 1) holds at most this many
#: elements: ``_PairGraph`` visits their pairs by class, and at the cap ``search --target 11``
#: takes about 2 s and 32 MiB end to end (2 CPUs, Python 3.11.7). ``--target`` keeps the
#: pairwise term cap.
NATURAL_CAP = 65_536


def term_cap(mode: CombinationMode) -> int:
    """The most terms the mode takes."""
    return FINITE_TERM_CAP if mode is CombinationMode.FINITE_FSFP else UNIVERSE_CAP


def check_term_count(count: int, mode: CombinationMode) -> None:
    """Refuse more terms than the mode takes, before anything is built from them."""
    cap = term_cap(mode)
    if count > cap:
        raise DomainError(f"{mode.value} mode takes at most {cap} terms, got {count}")


EMPTY_SUM, EMPTY_PRODUCT = (0, 1), (1, 1)  # the empty subset's, index 0 of every subset closure


def _add(x: Pair, y: Pair) -> Pair:
    if x[1] == 1 == y[1]:
        return x[0] + y[0], 1
    n, d = x[0] * y[1] + y[0] * x[1], x[1] * y[1]
    g = gcd(n, d)
    return n // g, d // g


def _mul(x: Pair, y: Pair) -> Pair:
    if x[1] == 1 == y[1]:
        return x[0] * y[0], 1
    g, h = gcd(x[0], y[1]), gcd(y[0], x[1])
    return (x[0] // g) * (y[0] // h), (x[1] // h) * (y[1] // g)


def _pair_combinations(xs: list[Rational], mode: CombinationMode) -> tuple[list[str], list[Pair]]:
    """``combinations`` as two columns, the tags and the values as reduced pairs."""
    check_term_count(len(xs), mode)
    if len(set(xs)) != len(xs):
        raise DomainError("sequence terms must be distinct")
    terms = [(x.numerator, x.denominator) for x in xs]
    # a subset's sum and product have parts below 2^(Σ(bit length + 1) − 1) over its terms, so
    # none is looked at while that sum over all terms is below the limit's bit length
    short = sum(max(t).bit_length() + 1 for t in terms) < DIGIT_LIMIT.bit_length()
    add, mul = _add, _mul
    if not short:  # a value too long to print is kept, never an operand
        add, mul = (lambda v, t, op=op: v if max(v) >= DIGIT_LIMIT else op(v, t) for op in (_add, _mul))
    columns = [(f",{j + 1}", j, t) for j, t in enumerate(terms)]  # position j's tag part and term

    def grown(level: list) -> list:  # each s-subset, in order, extended by each position after its last
        return [(body + label, j, add(s, t), mul(p, t))
                for body, last, s, p in level for label, j, t in columns[last + 1:]]

    # rows (tag body, last position, sum, product) in combination order, e.g. of the terms
    # 1, 2, 1/3 the row ("1,3", 2, (4, 3), (1, 3)); pairwise mode keeps only the second level
    level = [(str(i + 1), i, t, t) for i, t in enumerate(terms)]
    if mode is CombinationMode.PAIRWISE:
        rows = grown(level)
    else:
        rows = []
        while level:
            rows += level
            level = grown(level)
    tags = [block + row[0] for block in ("s:", "p:") for row in rows]
    values = [row[2] for row in rows] + [row[3] for row in rows]
    for tag, value in () if short else zip(tags, values):  # the first too long in this order is refused
        check_digits(max(value), f"combination {tag}")
    return tags, values


def combinations(xs: list[Rational], mode: CombinationMode) -> list[tuple[str, Rational]]:
    """All (tag, value) pairs for the mode, sums block first, then products.

    Subsets are ordered by (size, positions); tags are 1-based, e.g. "s:1,3".
    A singleton's value is its term, and each larger subset's is one exact ``+`` or ``·``
    of its prefix subset's value with its last term, so k terms in finite mode take
    2·(2^k − 1 − k) operations. A value too long to print (see ``core.MAX_DIGITS``) is
    refused, the first in this order named, and none is an operand.
    """
    return [(tag, Fraction(*value)) for tag, value in zip(*_pair_combinations(xs, mode))]


class ColourTable(dict):
    """``Pair -> key``: only a missing pair is coloured, as one ``Fraction``, by ``fn``, what
    ``verify.colouring_fn`` returned for ``colouring_id`` when the table was made, and its key stored
    in first-seen order. Under a ``colourings.HEADED`` colouring a missing natural's key comes from
    ``natural``; under a ``colourings.WALKED`` one ``fn`` has a ``walk`` bound in, which puts each
    denominator d's ``core.prime_walk(x, d, support)`` in ``walked`` once. ``support`` ({index:
    prime}) holds the primes the table has met: each walk over the primes meets a new prime or
    refuses d, so a check walks over them at most once per prime of its terms. A prime put in
    ``support`` beforehand is only a hint: the (k, u) and refusals are the walk's. Nothing outlives
    the table."""

    def __init__(self, colouring_id: str):
        self.colouring_id = colouring_id
        self.fn = colouring_fn(colouring_id)
        self.profiles: dict[tuple, str] | None = {} if colouring_id in HEADED else None
        support, walked = self.support, self.walked = {}, {}  # {index: prime} met, {d: (k, u)} walked

        def walk(x: Rational, d: int) -> tuple[int, int]:  # not a bound method, so the table is in no cycle
            if (found := walked.get(d)) is None:
                found = walked[d] = prime_walk(x, d, support)
            return found

        if colouring_id in WALKED:  # bound once; like ``walk``, it holds no reference to the table
            fn = self.fn
            self.fn = lambda x: fn(x, walk=walk)

    def natural(self, n: int) -> str:
        """``n``'s key under a ``HEADED`` colouring, coloured once per binary profile and stored by it."""
        profile = binary_positions(n)
        if (key := self.profiles.get(profile)) is None:
            key = self.profiles[profile] = self.fn(Fraction(n))._key
        return key

    def __missing__(self, v: Pair) -> str:
        if v[1] == 1 and self.profiles is not None:
            key = self[v] = self.natural(v[0])
        else:
            key = self[v] = self.fn(Fraction(*v))._key
        return key


def check(
    colouring_id: str, xs: list[Rational], mode: CombinationMode,
    *, keys: ColourTable | None = None,
) -> Certificate:
    """Colour every combination and report Monochromatic or the first Clash.

    The clash cited is the lexicographically first pair in combination order,
    which is always (0, j) for the first j whose key differs from entry 0's.
    Keys are read from ``keys`` in combination order, so each distinct value, or under θ
    and α each distinct binary profile, is coloured once, where first met. ``keys`` is a
    fresh table unless given: search gives its graph's table, construct one whose prime
    support it seeded with its blocks' primes. A table of another colouring is refused.
    """
    tags, values = _pair_combinations(xs, mode)
    keys = ColourTable(colouring_id) if keys is None else keys
    if keys.colouring_id != colouring_id:
        raise InternalInvariantError(f"a {colouring_id} check was given a {keys.colouring_id} colour table")
    colours = tuple(map(keys.__getitem__, values))
    first = colours[0] if colours else None
    clash_at = next((j for j, key in enumerate(colours) if key != first), None)
    verdict: Verdict = Monochromatic(first, not colours) if clash_at is None else Clash(0, clash_at)
    return Certificate(colouring_id, mode, tuple(xs), tuple(tags), tuple(values), colours, verdict)


def validate(
    cert: Certificate,
    reasons: list[str] | None = None,
    table: PrimeTable | None = None,
) -> bool:
    """Recompute everything from the sequence alone; true iff it all matches."""
    # ``table`` is ignored; perfbench/gate.py passes one until the benchmark is next revised.

    def fail(why: str) -> bool:
        if reasons is not None:
            reasons.append(why)
        return False

    try:
        expected = check(cert.colouring_id, list(cert.sequence), cert.mode)
    except DomainError as exc:
        return fail(f"recomputation failed: {exc}")
    ours, theirs = (expected.tags, expected.values, expected.keys), (cert.tags, cert.values, cert.keys)
    if ours != theirs:  # the first row that differs, as entries
        j = next(j for j, row in enumerate(itertools.zip_longest(*ours, *theirs)) if row[:3] != row[3:])
        return fail(f"combination mismatch: expected {expected._entry(j)}, found {cert._entry(j)}")
    if expected.verdict != cert.verdict:
        return fail(f"verdict mismatch: expected {expected.verdict}, found {cert.verdict}")
    return True


class UniverseSpec(Record):
    """Finite window of positive rationals, in canonical enumeration order."""

    numerator_bound: int
    denominator_bound: int = 1
    prime_index_bound: int = 1
    integers_only: bool = False

    def elements(self, cap: int = UNIVERSE_CAP) -> list[Rational]:
        """All x = n/d in lowest terms with d at most the denominator bound D (1 under
        ``integers_only``) and a product of the first ``prime_index_bound`` primes (``PRIME_CAP``
        at most), ordered by (d, n); at most ``cap`` of them and of the denominators. A bound
        below 1 is refused before anything is listed. At most D - 1 primes are at most D, so
        D = 1 reads no prime."""
        for name, bound in (("numerator bound", self.numerator_bound),
                            ("denominator bound", self.denominator_bound),
                            ("prime index", self.prime_index_bound)):
            if bound < 1:
                raise DomainError(f"{name} must be >= 1, got {bound}")
        top_d = 1 if self.integers_only else self.denominator_bound
        dens = [1]
        for p in map(nth_prime, range(1, min(self.prime_index_bound, PRIME_CAP, top_d - 1) + 1)):
            if p > top_d or len(dens) > cap:
                break
            for d in dens[:]:
                while d * p <= top_d and len(dens) <= cap:
                    d *= p
                    dens.append(d)
        top = self.numerator_bound + 1
        values = (Fraction(n, d) for d in sorted(dens) for n in range(1, top) if gcd(n, d) == 1)
        out = list(itertools.islice(values, cap + 1))
        if len(dens) > cap or len(out) > cap:
            raise DomainError(f"universe has more than {cap} elements or denominators; "
                              f"theta and alpha over the naturals take {NATURAL_CAP}")
        return out


class SearchResult(Record):
    max_size: int
    exhausted: bool
    nodes: int
    certificates: list[Certificate]


def _class_pairs(classes: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The pairs (a, b), a <= b, of indices into ``classes``, each the (v2, top bit) = (end, start)
    of a class of naturals, whose integer pairs can hold an edge under θ or α, in order. (a, b)
    is kept when some (end, start) its sums can have and some its products can have agree in
    ``colourings.theta_fixed``. Each (end, start)'s components are read once, and each
    candidate set built once per (end range, start)."""
    fixed: dict[tuple[int, int], tuple] = {}  # (end, start) -> its theta_fixed
    sets: dict[tuple[int, int, int], set] = {}  # (least end, most end, start) -> its candidates

    def candidates(lo: int, hi: int, start: int) -> set:  # every end in [lo, hi], start or start + 1
        if (found := sets.get((lo, hi, start))) is None:
            ends = [(e, s) for s in (start, start + 1) for e in range(lo, min(hi, s) + 1)]
            for es in ends:
                if es not in fixed:
                    fixed[es] = theta_fixed(*es)
            found = sets[lo, hi, start] = {fixed[es] for es in ends}
        return found

    for a, (e1, s1) in enumerate(classes):
        for b in range(a, len(classes)):
            e2, s2 = classes[b]
            top, low = max(s1, s2), min(e1, e2)
            sums = candidates(low, low, top) if e1 != e2 else candidates(e1 + 1, top + 1, top)
            if not sums.isdisjoint(candidates(e1 + e2, e1 + e2, s1 + s2)):
                yield a, b


class _PairGraph:
    """The colour keys of the values a search meets, and its pair masks by key.

    Finite mode first colours the elements. Then each pair's sum and product is coloured
    as the pair is met, into one ``ColourTable``. ``adj[K, i]`` is the bitmask of the j > i
    whose pair sum and pair product both have key K, so a pairwise-monochromatic
    configuration is a clique of one key. Finite mode uses the masks as a necessary filter
    and colours the sums and products of three or more terms as they are met.

    Under a ``colourings.HEADED`` colouring the leading naturals, all of them in (d, n)
    order, are paired by class: the naturals of one (v2, top bit) = (end, start). A class
    pair is visited only when ``_class_pairs`` keeps it: some (end, start) its sums can have
    and some its products can have agree in the θ components (end, start) fixes
    (``colourings.theta_fixed``), as a sum and a product of one key must. Their candidates:
    v2(xy) = e1 + e2, and xy's top bit is s1 + s2 or s1 + s2 + 1; x + y's top bit is
    max(s) or max(s) + 1, and its v2 is min(e) when e1 != e2, else in [e1 + 1, max(s) + 1].
    Inside a kept class pair an integer pair is dropped before either value is built when
    the end parity and φ of v2(x + y) and of v2(x) + v2(y), the components of its sum's
    and its product's keys that ``theta_fixed`` reads from the v2 alone, differ; else they
    are compared through ``ColourTable.natural``, which stores neither.

    Every other pair, one with a member that is not such a natural, is met in canonical
    order, a row of pairs (i, j > i) at a time, each row starting past the naturals paired
    by class. Its pair is no edge, and neither value is coloured, when the two values have
    ``colourings.SHADOWS`` that differ.
    """

    def __init__(self, colouring_id: str, elements: list[Rational], mode: CombinationMode):
        self.keys = keys = ColourTable(colouring_id)  # its pairs become the certificates' values
        self.xs = xs = [(x.numerator, x.denominator) for x in elements]
        self.finite = mode is CombinationMode.FINITE_FSFP
        self.singles: dict[str, int] = {}  # finite mode: the elements of each key
        for j, x in enumerate(xs if self.finite else ()):
            k = keys[x]
            self.singles[k] = self.singles.get(k, 0) | 1 << j
        self.adj: dict[tuple[str, int], int] = {}
        self.edges: list[int] = [0] * len(xs)  # j > i whose pair sum and product share any key
        m = next((i for i, x in enumerate(xs) if x[1] != 1), len(xs)) if colouring_id in HEADED else 0
        if m:
            self._natural_edges(xs[:m])
        shadow = SHADOWS.get(colouring_id)
        shades: dict[Pair, Hashable] = {}  # per distinct value, filled where first met
        for i, x in enumerate(xs):
            row = 0
            for j in range(max(i + 1, m), len(xs)):
                y = xs[j]
                total, prod = _add(x, y), _mul(x, y)
                if shadow:  # one shadow per distinct value
                    if (a := shades.get(total)) is None:
                        a = shades[total] = shadow(*total)
                    if (b := shades.get(prod)) is None:
                        b = shades[prod] = shadow(*prod)
                    if a is not b and a != b:  # identity first: a record's == is a Python call
                        continue  # the shadows differ, so the keys do
                k = keys[total]
                if k == keys[prod]:
                    self.adj[k, i] = self.adj.get((k, i), 0) | 1 << j
                    row |= 1 << j
            self.edges[i] |= row

    def _natural_edges(self, naturals: list[Pair]) -> None:
        """The edges among ``naturals``, the graph's first elements, by kept class pair."""
        # the head of every v2 e a sum or product can have: the end parity and phi(e) it fixes
        heads = [theta_fixed(e, e)[1:3] for e in range(2 * max(n for n, _ in naturals).bit_length())]
        classes: dict[tuple[int, int], list[int]] = {}  # (v2, top bit) -> its members, ascending
        for i, (n, _) in enumerate(naturals):
            classes.setdefault(((n & -n).bit_length() - 1, n.bit_length() - 1), []).append(i)
        order, members = list(classes), list(classes.values())
        natural, adj, edges = self.keys.natural, self.adj, self.edges
        for a, b in _class_pairs(order):
            head = heads[order[a][0] + order[b][0]]  # v2(xy) = v2(x) + v2(y)
            pairs = (itertools.combinations(members[a], 2) if a == b
                     else itertools.product(members[a], members[b]))
            for i, j in pairs:
                x, y = naturals[i][0], naturals[j][0]
                s = x + y
                if heads[(s & -s).bit_length() - 1] != head:
                    continue  # the heads of v2(x + y) and v2(x) + v2(y) differ, so the keys do
                k = natural(s)
                if k == natural(x * y):
                    i, j = min(i, j), max(i, j)
                    adj[k, i] = adj.get((k, i), 0) | 1 << j
                    edges[i] |= 1 << j

    def below(self, root: int) -> Iterator[list[int]]:
        """Monochromatic configurations with least element ``root``, in DFS preorder."""
        if not self.finite:
            return self._extend([root], self.edges[root], None, [], [])
        x = self.xs[root]
        k = self.keys[x]
        cand = self.adj.get((k, root), 0) & self.singles[k]
        return self._extend([root], cand, k, [EMPTY_SUM, x], [EMPTY_PRODUCT, x])

    def _extend(
        self, prefix: list[int], cand: int, key: str | None, sums: list[Pair], prods: list[Pair]
    ) -> Iterator[list[int]]:
        """``cand`` holds the j > prefix[-1] in the pair masks of every member;
        ``sums``/``prods`` are finite mode's sums and products over every subset
        of the prefix, indexed by bitmask, the empty one first."""
        yield prefix
        if self.finite and len(prefix) == FINITE_TERM_CAP:
            return  # ``check`` refuses a longer configuration, and each term doubles ``sums``
        xs = self.xs
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            if key is None:  # the root's pair with j fixes the key
                k = self.keys[_add(xs[prefix[0]], xs[j])]
                yield from self._extend(
                    prefix + [j], self.adj[k, prefix[0]] & self.adj.get((k, j), 0), k, sums, prods
                )
                continue
            child = cand & self.adj.get((key, j), 0)
            if not self.finite:
                yield from self._extend(prefix + [j], child, key, sums, prods)
                continue
            x = xs[j]
            new_sums = [_add(t, x) for t in sums]
            new_prods = [_mul(t, x) for t in prods]
            # x and its pair values are coloured already, and the masks fix their key
            if all(self.keys[v] == key for v in itertools.chain(new_sums, new_prods)):
                yield from self._extend(prefix + [j], child, key, sums + new_sums, prods + new_prods)


def search(
    colouring_id: str,
    universe: UniverseSpec,
    mode: CombinationMode,
    target_size: int,
    budget: int,
) -> SearchResult:
    """Bounded DFS for monochromatic configurations over the universe.

    Pair sums and products are coloured once each, or under θ and α once per
    binary profile, in one pass before the DFS, unless their classes, the v2 head
    test or their shadows rule the pair out (see ``_PairGraph``). A θ or α universe
    of naturals (denominator bound 1) holds up to ``NATURAL_CAP`` elements, any
    other up to ``UNIVERSE_CAP``. Extensions only
    move forward in canonical order, so every subset is visited at most once,
    and ``nodes`` counts the configurations visited. A target above ``term_cap``
    is refused before the universe is listed. Finite mode extends no configuration
    past ``FINITE_TERM_CAP`` terms, so ``max_size`` is at most 16 there. The search
    visits the first ``budget`` nodes of one preorder (each root in order, then
    the configurations below it) and is exhausted exactly when none remains.
    """
    if target_size < 2:
        raise DomainError(f"target size must be >= 2, got {target_size}")
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    check_term_count(target_size, mode)
    naturals = universe.integers_only or universe.denominator_bound == 1
    elements = universe.elements(NATURAL_CAP if colouring_id in HEADED and naturals else UNIVERSE_CAP)
    graph = _PairGraph(colouring_id, elements, mode)
    preorder = itertools.chain.from_iterable(map(graph.below, range(len(elements))))
    certificates, max_size, nodes = [], 0, 0
    for _, idx in zip(range(budget), preorder):  # zip stops at the range before it pulls a node
        nodes += 1
        max_size = max(max_size, len(idx))
        if len(idx) == target_size:
            xs = [elements[i] for i in idx]
            certificates.append(check(colouring_id, xs, mode, keys=graph.keys))
    exhausted = next(preorder, None) is None  # no node past the first ``budget``
    return SearchResult(
        certificates=certificates, max_size=max_size, exhausted=exhausted, nodes=nodes
    )


def naive_search(
    colouring_id: str,
    universe: UniverseSpec,
    mode: CombinationMode,
    target_size: int,
) -> SearchResult:
    """Reference search: test every candidate subset from scratch via check.

    Levels grow by extending the monochromatic subsets of the previous level
    (sound because any subset of a monochromatic configuration is
    monochromatic); each candidate is still verified in full, with no shared
    state. Intended for small universes in tests.
    """
    elements = universe.elements()
    certificates = []
    level: list[tuple[int, ...]] = []
    for i in range(len(elements)):
        cert = check(colouring_id, [elements[i]], mode)
        if isinstance(cert.verdict, Monochromatic):
            level.append((i,))
    max_size = 1 if level else 0
    while level:
        nxt: list[tuple[int, ...]] = []
        for idx in level:
            for j in range(idx[-1] + 1, len(elements)):
                candidate = idx + (j,)
                cert = check(colouring_id, [elements[i] for i in candidate], mode)
                if isinstance(cert.verdict, Monochromatic):
                    nxt.append(candidate)
                    if len(candidate) == target_size:
                        certificates.append(cert)
        if nxt:
            max_size = len(nxt[0])
        level = nxt
    return SearchResult(
        certificates=certificates, max_size=max_size, exhausted=True, nodes=-1
    )


class LawResult(Record):
    name: str
    samples: int
    passed: bool
    counterexample: str | None = None


class PropertyReport(Record):
    seed: int
    samples: int
    laws: tuple[LawResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def to_obj(self) -> dict:
        return {**super().to_obj(), "all_passed": self.all_passed}


def _random_support(rng: random.Random, positions: list[int]) -> int:
    chosen = rng.sample(positions, rng.randint(1, min(6, len(positions))))
    return sum(1 << p for p in chosen)


def _random_digits(rng: random.Random, t: int) -> dict[int, int]:
    """Nonzero base-P_t digits at one to four distinct positions in [-4, 4]."""
    base = primorial(t)
    return {pos: rng.randint(1, base - 1) for pos in rng.sample(range(-4, 5), rng.randint(1, 4))}


def _disjoint_sum(rng: random.Random) -> str | None:
    pool = list(range(0, 40))
    rng.shuffle(pool)
    cut = rng.randint(1, len(pool) - 1)
    a = _random_support(rng, pool[:cut])
    b = _random_support(rng, pool[cut:])
    ok = end2(a + b) == min(end2(a), end2(b)) and start2(a + b) == max(start2(a), start2(b))
    return None if ok else f"a={a} b={b}"


def _product_end(rng: random.Random) -> str | None:
    a, b = rng.randint(1, 1 << 30), rng.randint(1, 1 << 30)
    return None if end2(a * b) == end2(a) + end2(b) else f"a={a} b={b}"


def _product_start(rng: random.Random) -> str | None:
    a, b = rng.randint(1, 1 << 30), rng.randint(1, 1 << 30)
    return None if start2(a * b) - (start2(a) + start2(b)) in (0, 1) else f"a={a} b={b}"


def _carry(rng: random.Random) -> str | None:
    i = rng.randint(0, 20)
    # both end at i with a zero digit right above it
    a = (1 << i) + _random_support(rng, list(range(i + 2, i + 24)))
    b = (1 << i) + _random_support(rng, list(range(i + 2, i + 24)))
    return None if end2(a + b) == i + 1 else f"a={a} b={b}"


def _primorial_end(rng: random.Random) -> str | None:
    t = rng.randint(1, 3)
    dx, dy = _random_digits(rng, t), _random_digits(rng, t)
    # equal last digits d: P_t is squarefree, so d·d is no multiple of it
    dy[min(dy)] = dx[min(dx)]
    x, y = DigitExpansion(t, dx).value(), DigitExpansion(t, dy).value()
    ok = expand(x * y, t).trailing() == expand(x, t).trailing() + expand(y, t).trailing()
    return None if ok else f"t={t} x={x} y={y}"


def _primorial_start(rng: random.Random) -> str | None:
    t = rng.randint(1, 3)
    base = primorial(t)
    x = DigitExpansion(t, _random_digits(rng, t)).value()
    y = DigitExpansion(t, _random_digits(rng, t)).value()
    sx, sy = expand(x, t).leading(), expand(y, t).leading()

    def above_root(v: Rational, s: int) -> bool:  # v's mantissa v·P_t^(−s) > √P_t: v² > P_t^(2s+1)
        e = 2 * s + 1
        return v.numerator ** 2 * base ** max(0, -e) > v.denominator ** 2 * base ** max(0, e)

    # the product's leading position rises by 0 when both mantissas are below √P_t, by 1
    # when both are above, and by either when one is each (none is equal: P_t is squarefree)
    ok = expand(x * y, t).leading() - sx - sy in {above_root(x, sx), above_root(y, sy)}
    return None if ok else f"t={t} x={x} y={y}"


def _c3_closure(rng: random.Random) -> str | None:
    while (triple := c3_triple(rng)) is None:
        pass  # redraw until the side conditions hold, so every sample is tested
    alpha_, beta_, gamma_, x, y, z = triple
    ok = all(v > 0 and is_dyadic(v) for v in (x, y, z))
    return None if ok else f"alpha={alpha_} beta={beta_} gamma={gamma_}"


#: (name, law) in report order; a law draws one sample from its generator and returns
#: None when the sample meets it, else the counterexample.
_LAWS: tuple[tuple[str, Callable[[random.Random], str | None]], ...] = (
    ("disjoint-support-sum", _disjoint_sum),
    ("binary-product-end", _product_end),
    ("binary-product-start", _product_start),
    ("same-end-carry", _carry),
    ("primorial-product-end", _primorial_end),
    ("primorial-product-start", _primorial_start),
    ("c3-dyadic-closure", _c3_closure),
)

#: The law suite draws at most this many samples per law, so its time stays bounded.
SAMPLE_CAP = 10_000


def property_suite(seed: int, sample_count: int) -> PropertyReport:
    """Seeded randomized checks of the digit-arithmetic laws.

    Each law draws its samples from ``random.Random(f"{seed}:{name}")`` and stops at
    its first counterexample. The laws call this module's ``end2``, ``start2``,
    ``expand`` and ``is_dyadic``, so a fault-injection test patches those names here.
    """
    if sample_count < 1:
        raise DomainError(f"sample count must be >= 1, got {sample_count}")
    if sample_count > SAMPLE_CAP:
        raise DomainError(f"sample count must be <= {SAMPLE_CAP}, got {sample_count}")
    laws = []
    for name, law in _LAWS:
        rng = random.Random(f"{seed}:{name}")
        witness = next(filter(None, (law(rng) for _ in range(sample_count))), None)
        laws.append(LawResult(name, sample_count, witness is None, witness))
    return PropertyReport(seed=seed, samples=sample_count, laws=tuple(laws))


#: The numbers 2^k + 2^l, k > l, that ``c3_triple`` draws, times 2^13 so that they are
#: integers: one group per k from -12 to 12, ascending in l from -12, or from -13 at k = -12.
C3_BY_K: tuple[tuple[int, ...], ...] = tuple(
    tuple((1 << k + 13) + (1 << l + 13) for l in range(-12 if k > -12 else -13, k)) for k in range(-12, 13)
)
#: The 301 numbers of ``C3_BY_K``, ascending.
C3_SCALED: tuple[int, ...] = tuple(sorted(itertools.chain.from_iterable(C3_BY_K)))


def c3_gammas(a: int, b: int) -> list[int]:
    """The γ in ``C3_SCALED`` that make the half-sums of (α, β, γ) = (a, b, γ) positive and
    distinct, ascending: |α − β| < γ < α + β and γ ∉ {α, β}; none when α = β."""
    window = C3_SCALED[bisect_right(C3_SCALED, abs(a - b)):bisect_left(C3_SCALED, a + b)]
    return [g for g in window if g != a and g != b] if a != b else []


def c3_triple(
    rng: random.Random,
) -> tuple[Rational, Rational, Rational, Rational, Rational, Rational] | None:
    """Random (α,β,γ) of two-power pairs with positive distinct half-sums.

    Returns (α, β, γ, x, y, z) with x=(α+β−γ)/2, y=(α−β+γ)/2, z=(−α+β+γ)/2,
    or None when no γ meets the positivity/distinctness side conditions for the
    drawn α and β. α and β each draw k, then l, uniformly from ``C3_BY_K``. γ is
    drawn uniformly from those that meet the conditions (``c3_gammas``), so every
    triple that meets them can be drawn, though not with the weights of three
    independent draws.
    """
    a, b = rng.choice(rng.choice(C3_BY_K)), rng.choice(rng.choice(C3_BY_K))
    if not (gammas := c3_gammas(a, b)):
        return None
    g = rng.choice(gammas)
    halves = (a + b - g, a - b + g, -a + b + g)  # x, y, z times 2^14
    return (*(Fraction(v, 1 << 13) for v in (a, b, g)), *(Fraction(v, 1 << 14) for v in halves))
