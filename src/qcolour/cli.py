"""Command-line interface: JSON on stdout, diagnostics on stderr.

Exit codes: 0 success (a Clash verdict is a successful analysis), 2 usage or
domain errors, 3 search/construction budget exhaustion (including a
non-exhaustive search summary), 141 stdout closed early by its reader.
Output keys are emitted in a fixed order; ``--pretty`` only adds whitespace.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .colourings import (
    PAIR_COLOURINGS,
    UNARY_COLOURINGS,
    Bit,
    colour_key,
    colouring_fn,
    phi,
)
from .construct import DEFAULT_SEARCH_BUDGET, extend_sum_closed
from .core import MAX_DIGITS, parse_rational, primorial
from .digits import expand
from .errors import BudgetExhaustedError, DomainError
from .verify import (
    CombinationMode, UniverseSpec, check, check_term_count, json_text, property_suite, search,
    term_cap,
)


def _parse_int(text: str, what: str) -> int:
    """An optional ``-`` and ASCII digits after ``strip()``, the digits ``parse_rational`` takes."""
    if sum(map(str.isdigit, text)) > MAX_DIGITS:
        raise DomainError(f"{what} has more than {MAX_DIGITS} decimal digits")
    body = text.strip().removeprefix("-")
    if not (body.isascii() and body.isdigit()):
        raise DomainError(f"{what} must be an integer, got {text!r}")
    return int(text)


def _colour_one(colouring_id: str, text: str):
    if colouring_id in PAIR_COLOURINGS:
        parts = text.split(",")
        if len(parts) != 2:
            raise DomainError(
                f"{colouring_id} colours pairs; expected 'a,b', got {text!r}"
            )
        a = _parse_int(parts[0], "first component")
        b = _parse_int(parts[1], "second component")
        return PAIR_COLOURINGS[colouring_id](a, b)
    if colouring_id == "phi":
        return Bit(phi(_parse_int(text, "phi argument")))
    return colouring_fn(colouring_id)(parse_rational(text))


#: ``check`` refuses a longer line; two ``MAX_DIGITS``-digit integers fit many times over.
MAX_LINE = 2**16
#: ``check`` reads at most this many lines, blank and comment lines included, per term
#: the mode takes, so a stream of comments alone is refused too.
LINES_PER_TERM = 64


def _read_sequence(path: str | None, mode: CombinationMode) -> list[str]:
    """The terms, one per line; reading stops at the first term past the mode's cap,
    or at the first line past ``LINES_PER_TERM`` times that cap."""
    stdin = path is None or path == "-"
    max_lines = LINES_PER_TERM * term_cap(mode)
    out: list[str] = []
    try:
        with contextlib.nullcontext(sys.stdin) if stdin else open(path, encoding="utf-8") as fh:
            lines = 0
            while line := fh.readline(MAX_LINE + 2):
                lines += 1
                if lines > max_lines:
                    raise DomainError(f"{mode.value} mode reads at most {max_lines} lines")
                if len(line.removesuffix("\n").removesuffix("\r")) > MAX_LINE:  # \r\n is one break
                    raise DomainError(f"a line has more than {MAX_LINE} characters")
                # \f, \v and the other breaks str.splitlines knows end a term too
                for piece in line.splitlines():
                    text = piece.split("#", 1)[0].strip()
                    if text:
                        out.append(text)
                        check_term_count(len(out), mode)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {'stdin' if stdin else path}: {exc}") from None
    if not out:
        raise DomainError("no terms supplied")
    return out


# Each command returns its JSON object and its exit code; ``main`` writes the object.
Outcome = tuple[dict, int]


def _cmd_colour(args: argparse.Namespace) -> Outcome:
    value = _colour_one(args.colouring, args.value)
    return {"input": args.value, "colour": colour_key(value)}, 0


def _cmd_expand(args: argparse.Namespace) -> Outcome:
    x = parse_rational(args.value)
    n = args.prime_index
    exp = expand(x, n)
    digits = sorted(exp.digits.items(), reverse=True)
    return {
        "input": args.value,
        "base_index": n,
        "base": primorial(n),
        "digits": [[pos, digit] for pos, digit in digits],
        "leading": exp.leading(),
        "trailing": exp.trailing(),
        "positional": exp.positional(),
    }, 0


def _cmd_check(args: argparse.Namespace) -> Outcome:
    mode = CombinationMode(args.mode)
    texts = _read_sequence(args.file, mode)
    return check(args.colouring, [parse_rational(t) for t in texts], mode).to_obj(), 0


def _cmd_search(args: argparse.Namespace) -> Outcome:
    universe = UniverseSpec(
        numerator_bound=args.numerator_bound,
        denominator_bound=args.denominator_bound,
        prime_index_bound=args.prime_index,
        integers_only=args.integers_only,
    )
    result = search(
        args.colouring,
        universe,
        CombinationMode(args.mode),
        target_size=args.target,
        budget=args.budget,
        workers=args.workers,
    )
    return result.to_obj(), 0 if result.exhausted else 3


def _cmd_construct(args: argparse.Namespace) -> Outcome:
    return extend_sum_closed(args.terms, args.budget).to_obj(), 0


def _cmd_properties(args: argparse.Namespace) -> Outcome:
    return property_suite(args.seed, args.samples).to_obj(), 0


@functools.cache  # built once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcolour",
        description="Colourings of the positive rationals, digit expansions, "
        "monochromaticity checks, bounded searches, and sequence construction.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="indent JSON output (same key order)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colour", parents=[common], help="colour one value")
    p.add_argument("--colouring", required=True, choices=[*UNARY_COLOURINGS, *PAIR_COLOURINGS])
    p.add_argument("value", help="rational 'n/d', integer, or 'a,b' for pair colourings")
    p.set_defaults(fn=_cmd_colour)

    p = sub.add_parser("expand", parents=[common], help="digit expansion in a primorial base")
    p.add_argument("--prime-index", type=int, default=1, help="base index n (base is P_n)")
    p.add_argument("value")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("check", parents=[common], help="monochromaticity certificate")
    p.add_argument("--colouring", required=True, choices=UNARY_COLOURINGS)
    p.add_argument("--mode", choices=[m.value for m in CombinationMode], default="pairwise")
    p.add_argument("file", nargs="?", help="terms, one per line ('#' comments); default stdin")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("search", parents=[common], help="bounded monochromatic-configuration search")
    p.add_argument("--colouring", required=True, choices=UNARY_COLOURINGS)
    p.add_argument("--mode", choices=[m.value for m in CombinationMode], default="pairwise")
    p.add_argument("--target", type=int, default=2, help="configuration size to certify")
    p.add_argument("--budget", type=int, default=1_000_000, help="node budget")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored until the benchmark revision drops it")
    p.add_argument("--numerator-bound", type=int, default=20)
    p.add_argument("--denominator-bound", type=int, default=1)
    p.add_argument(
        "--prime-index", type=int, default=1, help="universe denominators use the first n primes"
    )
    p.add_argument("--integers-only", action="store_true")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("construct", parents=[common], help="sum-and-product monochromatic terms")
    p.add_argument("--terms", type=int, required=True, help="number of terms m")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET, help="at least 1")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("properties", parents=[common], help="run the seeded digit-law suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(fn=_cmd_properties)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            obj, code = args.fn(args)
        except BudgetExhaustedError as exc:
            obj, code = {"budget_exhausted": {"message": str(exc), "best_depth": exc.best_depth}}, 3
        print(json_text(obj, args.pretty), flush=True)  # a closed pipe fails here
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: exit quietly, as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the flush at interpreter exit cannot fail
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
