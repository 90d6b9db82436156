"""End-to-end CLI contract: JSON bodies, exit codes and refusals. The bytes of whole outputs are
pinned in one place, the corpus of ``tests/golden/cli.json``."""
from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from test_golden import corpus

from qcolour import cli, core, oracles
from qcolour.colourings import colour_key

CMD = [sys.executable, "-m", "qcolour"]
ROWS = {tuple(row["argv"]): row for row in corpus.load() if row["stdin"] is None}


def run_cli(*args: str, stdin: str | None = None):
    return subprocess.run(
        CMD + list(args), input=stdin, capture_output=True, text=True, timeout=120
    )


def assert_fresh_as_corpus(*argv: str, row: tuple[str, ...] = ()) -> str:
    """``argv`` run in a fresh interpreter exits and prints exactly what the corpus row ``row``
    (``argv`` itself by default) gives in the corpus runner's one shared interpreter, where the
    corpus pins its bytes and validates its certificates; returns stdout."""
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == corpus.invoke(ROWS[row or argv])
    return proc.stdout


class TestColour:
    def test_nu_tuple(self):
        proc = run_cli("colour", "--colouring", "nu", "11/4")
        assert proc.returncode == 0
        assert proc.stdout == '{"input":"11/4","colour":"nu:t:0,1,2,1,1"}\n'

    def test_phi_accepts_negatives(self):
        proc = run_cli("colour", "--colouring", "phi", "-5")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"input": "-5", "colour": "bit:0"}

    def test_pair_colouring(self):
        proc = run_cli("colour", "--colouring", "bigphi", "1,3")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"input": "1,3", "colour": "phi:t:0,0,0,1,1"}

    def test_domain_error_exit_2(self):
        proc = run_cli("colour", "--colouring", "nu", "0/1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize(
        "colouring, value", [("psi", "3,-1"), ("psi", "3,-2"), ("psiprime", "1,-5"), ("psiprime", "3,-2")]
    )
    def test_pair_colouring_refuses_negative_components(self, capsys, colouring, value):
        # the error names the pair as typed, not as the colouring shifts it
        assert cli.main(["colour", "--colouring", colouring, value]) == 2
        pair = value.replace(",", ", ")
        assert capsys.readouterr() == ("", f"error: pair components must be non-negative: ({pair})\n")

    @pytest.mark.parametrize("value", ["1", "1,2,3"])
    def test_pair_colouring_needs_two_components(self, capsys, value):
        assert cli.main(["colour", "--colouring", "bigphi", value]) == 2
        assert capsys.readouterr() == ("", f"error: bigphi colours pairs; expected 'a,b', got '{value}'\n")

    @pytest.mark.parametrize("colouring, value, what, part", [
        ("phi", "1_0", "phi argument", "1_0"), ("phi", "+7", "phi argument", "+7"),
        ("phi", "\u0663", "phi argument", "\u0663"), ("phi", "", "phi argument", ""),
        ("bigphi", "1_0,3", "first component", "1_0"), ("bigphi", "1,+3", "second component", "+3"),
        ("psi", "1,\u0663", "second component", "\u0663"), ("psi", "1,--7", "second component", "--7"),
    ], ids=["underscore", "plus", "arabic-indic", "empty", "pair-underscore", "pair-plus",
            "pair-arabic-indic", "pair-double-minus"])
    def test_integer_takes_ascii_digits_only(self, capsys, colouring, value, what, part):
        # the grammar of parse_rational's digits, with an optional minus sign
        assert cli.main(["colour", "--colouring", colouring, value]) == 2
        assert capsys.readouterr() == ("", f"error: {what} must be an integer, got {part!r}\n")

    @pytest.mark.parametrize("colouring, value, colour", [
        ("bigphi", " 3, 5", "phi:t:0,0,1,0,1"), ("phi", " -5 ", "bit:0"), ("phi", "007", "bit:1"),
        ("phi", "4611686018427387904", "bit:0"),  # 2^62: phi colours every integer
    ])
    def test_integer_strips_spaces_and_keeps_leading_zeros(self, capsys, colouring, value, colour):
        assert cli.main(["colour", "--colouring", colouring, value]) == 0
        assert json.loads(capsys.readouterr().out) == {"input": value, "colour": colour}

    def test_unknown_colouring_exit_2(self):
        proc = run_cli("colour", "--colouring", "zeta", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "colouring, value, oracle",
        [("mu", "1/313", oracles.mu_oracle), ("alpha", "1000/313", oracles.alpha_oracle)],
    )
    def test_primes_past_the_first_64(self, colouring, value, oracle):
        proc = run_cli("colour", "--colouring", colouring, value)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["colour"] == colour_key(oracle(Fraction(value)))

    @pytest.mark.parametrize("value, code, out, err", [
        ("1/180503", 0, '{"input":"1/180503","colour":"mu:f:nu:t:1,0,2,1,0|phi:z|phi:t:0,1,0,0,0"}\n', ""),
        ("1/180511", 2, "", "error: denominator of 1/180511 has a prime factor beyond the first 16384"
                            " primes (residue 180511)\n"),
    ], ids=["last-listed-prime", "next-prime"])
    def test_prime_cap_edges(self, capsys, value, code, out, err):
        # 180,503 is the 16,384th and last listed prime, 180,511 the next
        assert cli.main(["colour", "--colouring", "mu", value]) == code
        assert capsys.readouterr() == (out, err)

    def test_prime_past_the_cap_same_error_before_and_after_construct(self, capsys):
        # 1,000,003 is prime and past the cap; 7,919 is the 1,000th prime
        def colour_errors() -> list[str]:
            errors = []
            for value in ("1/1000003", f"1/{7919 * 1000003}"):
                t0 = time.perf_counter()
                assert cli.main(["colour", "--colouring", "mu", value]) == 2
                assert time.perf_counter() - t0 < 1.0
                out, err = capsys.readouterr()
                assert out == ""
                errors.append(err)
            return errors

        before = colour_errors()
        assert cli.main(["construct", "--terms", "3"]) == 0
        capsys.readouterr()
        after = colour_errors()
        assert before == after
        for err in after:
            assert f"first {core.PRIME_CAP} primes (residue 1000003)" in err

    def test_prime_free_commands_never_sieve(self):
        # nu, theta, phi, const and --help read no prime, so they never run the sieve; mu does.
        # Nor does a search whose denominators are bounded by 1, with or without --integers-only.
        code = """
import contextlib, io, sys
from qcolour import cli, core
with contextlib.redirect_stdout(io.StringIO()):
    for colouring, value in [("nu", "5/7"), ("theta", "12"), ("phi", "12"), ("const", "5/7")]:
        assert cli.main(["colour", "--colouring", colouring, value]) == 0
    for colouring in ("theta", "nu"):
        for flags in ([], ["--integers-only"]):
            assert cli.main(["search", "--colouring", colouring, "--numerator-bound", "20", *flags]) == 0
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
    sieved = [core._primes.cache_info().currsize]
    assert cli.main(["colour", "--colouring", "mu", "1/3"]) == 0
sieved.append(core._primes.cache_info().currsize)
print(sieved)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 1]\n"

    def test_input_digit_limit(self):
        proc = run_cli("colour", "--colouring", "nu", "1" * 4300)
        assert proc.returncode == 0
        proc = run_cli("colour", "--colouring", "nu", "1" * 4301)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: numerator or denominator has more than 4300 decimal digits\n"

    @pytest.mark.parametrize("colouring, value, what", [
        ("bigphi", "1," + "9" * 5000, "second component"),
        ("phi", "9" * 4301, "phi argument"),
    ], ids=["bigphi", "phi"])
    def test_integer_digit_limit(self, capsys, colouring, value, what):
        assert cli.main(["colour", "--colouring", colouring, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {what} has more than 4300 decimal digits\n"

    def test_pretty_same_object(self):
        compact = run_cli("colour", "--colouring", "mu", "5/6")
        pretty = run_cli("colour", "--colouring", "mu", "5/6", "--pretty")
        assert compact.returncode == pretty.returncode == 0
        assert "\n  " in pretty.stdout
        assert json.loads(compact.stdout) == json.loads(pretty.stdout)


class TestExpand:
    def test_worked_expansion(self):
        proc = run_cli("expand", "--prime-index", "2", "14305/96")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj == {
            "input": "14305/96",
            "base_index": 2,
            "base": 6,
            "digits": [[2, 4], [0, 5], [-3, 2], [-4, 1], [-5, 3]],
            "leading": 2,
            "trailing": -5,
            "positional": "405.00213",
        }

    def test_non_terminating_exit_2(self):
        proc = run_cli("expand", "--prime-index", "1", "1/3")
        assert proc.returncode == 2 and proc.stdout == ""

    @pytest.mark.parametrize("index", ["0", "-2"])
    def test_prime_index_below_one_exit_2(self, capsys, index):
        # the refusal every other --prime-index gives, not a primorial's own
        assert cli.main(["expand", "--prime-index", index, "1/2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: prime index must be >= 1, got {index}\n"

    def test_prime_index_past_the_cap_exit_2(self, capsys):
        assert cli.main(["expand", "--prime-index", "16385", "1/2"]) == 2
        assert capsys.readouterr() == ("", "error: prime index 16385 beyond the cap of 16384 primes\n")

    def test_base_digit_limit(self):
        # P_1229 has 4,298 decimal digits, P_1230 more than 4,300
        proc = run_cli("expand", "--prime-index", "1229", "1/3")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["base_index"] == 1229
        proc = run_cli("expand", "--prime-index", "1230", "1/3")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "4300 decimal digits" in proc.stderr


class TestCheck:
    def test_clash_from_stdin(self):
        proc = run_cli("check", "--colouring", "nu", "--mode", "pairwise", stdin="2\n4\n")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["verdict"] == {"clash": [0, 1]}
        assert obj["combinations"][0] == {"tag": "s:1,2", "value": "6", "colour": "nu:s:C4mC1"}

    def test_comments_and_file_input(self, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("# a monochromatic singleton\n1/3  # the usual suspect\n")
        proc = run_cli("check", "--colouring", "nu", "--mode", "finite", str(seq))
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["verdict"] == {"monochromatic": {"key": "nu:t:0,1,2,1,1", "empty": False}}

    def test_pair_colouring_rejected(self):
        proc = run_cli("check", "--colouring", "bigphi", stdin="2\n4\n")
        assert proc.returncode == 2

    def test_empty_sequence_rejected(self):
        proc = run_cli("check", "--colouring", "nu", stdin="# nothing\n")
        assert proc.returncode == 2

    @pytest.mark.parametrize("colouring, mode, terms, value, residue", [
        ("mu", "finite", "1/3 1/180511", "1/180511", 180_511),
        ("mu", "finite", "1/2 1/162921105605 1/7", "1/162921105605", 32_584_221_121),  # 5·180511²
        ("mu", "pairwise", "1/180511 180510/180511 1/2", "180513/361022", 180_511),  # s:1,2 = 1 cancels it
        ("alpha", "pairwise", "1/180511 180510/180511 3", "541534/180511", 180_511),  # and here
        ("alpha", "finite", "361023/180511 5/2", "361023/180511", 180_511),
    ])
    def test_prime_past_the_cap_refused_at_its_first_value(self, colouring, mode, terms, value, residue):
        # 180,511 is the first prime past the cap; the first value in combination order whose
        # denominator holds it is named with the residue the primes under the cap leave
        row = {"argv": ["check", "--colouring", colouring, "--mode", mode], "stdin": "\n".join(terms.split())}
        assert corpus.invoke(row) == (2, "", f"error: denominator of {value} has a prime factor"
                                             f" beyond the first {core.PRIME_CAP} primes (residue {residue})\n")

    def test_check_bytes_do_not_depend_on_earlier_checks(self):
        # a table's denominators and primes live and die with it: a μ check prints the same bytes
        # again, after another μ check, and in a fresh interpreter
        row = {"argv": ["check", "--colouring", "mu", "--mode", "finite"], "stdin": "1/6\n5/7\n1/180503\n4/15"}
        other = {"argv": ["check", "--colouring", "mu", "--mode", "pairwise"], "stdin": "1/180497\n1/10\n3/49"}
        first, again = corpus.invoke(row), corpus.invoke(row)
        assert corpus.invoke(other)[0] == 0
        fresh = run_cli(*row["argv"], stdin=row["stdin"])
        assert first == again == corpus.invoke(row) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert first[0] == 0 and first[1]

    def test_finite_term_cap(self):
        terms = "".join(f"{n}\n" for n in range(1, 18))
        proc = run_cli("check", "--colouring", "const", "--mode", "finite", stdin=terms)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "at most 16 terms" in proc.stderr
        proc = run_cli("check", "--colouring", "const", "--mode", "finite",
                       stdin=terms.rsplit("17\n", 1)[0])
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["combinations"]) == 2 * (2**16 - 1)

    def test_pairwise_term_cap(self):
        terms = "".join(f"{n}\n" for n in range(1, 514))
        proc = run_cli("check", "--colouring", "const", stdin=terms)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: pairwise mode takes at most 512 terms, got 513\n"

    @pytest.mark.parametrize("mode, cap", [("pairwise", 512), ("finite", 16)])
    def test_term_cap_before_any_term_is_parsed(self, monkeypatch, capsys, mode, cap):
        def refuse(text):
            raise AssertionError(f"parsed {text!r} before the term cap")

        monkeypatch.setattr(cli, "parse_rational", refuse)
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{n}\n" for n in range(cap + 1))))
        assert cli.main(["check", "--colouring", "const", "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {mode} mode takes at most {cap} terms, got {cap + 1}\n"

    @pytest.mark.parametrize("mode, cap", [("pairwise", 512), ("finite", 16)])
    def test_endless_stdin_read_only_past_the_cap(self, monkeypatch, capsys, mode, cap):
        class Endless(io.StringIO):
            lines = 0

            def readline(self, size=-1):
                self.lines += 1
                return "1\n"

        stdin = Endless()
        monkeypatch.setattr(sys, "stdin", stdin)
        assert cli.main(["check", "--colouring", "const", "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {mode} mode takes at most {cap} terms, got {cap + 1}\n"
        assert stdin.lines == cap + 1 and not stdin.closed

    @pytest.mark.parametrize(
        "text",
        ["1" * (cli.MAX_LINE + 1) + "\n", "2\n" + "\0" * (3 * cli.MAX_LINE)],
        ids=["one-long-term", "endless-line"],
    )
    def test_line_cap(self, monkeypatch, capsys, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["check", "--colouring", "const"]) == 2
        assert capsys.readouterr() == ("", f"error: a line has more than {cli.MAX_LINE} characters\n")
        # a line of exactly the cap is read
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 #" + "x" * (cli.MAX_LINE - 3) + "\n"))
        assert cli.main(["check", "--colouring", "const"]) == 0
        capsys.readouterr()
        # ... and so is one ending in "\r\n", which stdin does not translate: one line break
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 #" + "x" * (cli.MAX_LINE - 3) + "\r\n"))
        assert cli.main(["check", "--colouring", "const"]) == 0
        capsys.readouterr()
        # ... but not one character more
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 #" + "x" * (cli.MAX_LINE - 2) + "\r\n"))
        assert cli.main(["check", "--colouring", "const"]) == 2
        assert capsys.readouterr() == ("", f"error: a line has more than {cli.MAX_LINE} characters\n")

    @pytest.mark.parametrize("mode, cap", [("pairwise", 512), ("finite", 16)])
    def test_comment_lines_count_towards_the_line_cap(self, monkeypatch, capsys, mode, cap):
        limit = cli.LINES_PER_TERM * cap
        # the last line allowed holds the only term
        monkeypatch.setattr(sys, "stdin", io.StringIO("#\n" * (limit - 1) + "2\n"))
        assert cli.main(["check", "--colouring", "const", "--mode", mode]) == 0
        capsys.readouterr()
        # one line more, and it is refused before that term is read
        monkeypatch.setattr(sys, "stdin", io.StringIO("#\n" * limit + "2\n"))
        assert cli.main(["check", "--colouring", "const", "--mode", mode]) == 2
        assert capsys.readouterr() == ("", f"error: {mode} mode reads at most {limit} lines\n")

    def test_non_utf8_input(self, monkeypatch, capsys, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_bytes(b"2\n\xff\n")
        proc = run_cli("check", "--colouring", "const", str(seq))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot read {seq}: 'utf-8' codec can't decode")
        stdin = io.TextIOWrapper(io.BytesIO(b"2\n\xff\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert cli.main(["check", "--colouring", "const"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot read stdin: 'utf-8' codec")

    def test_combination_digit_limit(self):
        # each term prints, but their product has 4,400 digits
        terms = f"{10**2199 + 1}\n{10**2199 + 3}\n"
        proc = run_cli("check", "--colouring", "nu", stdin=terms)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: combination p:1,2 has more than 4300 decimal digits\n"

    @pytest.mark.parametrize(
        "terms, tag",
        [
            ([f"1/{10**1500 + c}" for c in (1, 3, 7)], "s:1,2,3"),  # sums of 1,500-digit denominators
            ([str(10**1450 + c) for c in (1, 3, 7)], "p:1,2,3"),  # products of 1,451-digit integers
        ],
    )
    def test_combination_digit_limit_past_two_terms(self, terms, tag):
        stdin = "".join(f"{t}\n" for t in terms)
        proc = run_cli("check", "--colouring", "nu", "--mode", "pairwise", stdin=stdin)
        assert proc.returncode == 0  # every pair prints
        proc = run_cli("check", "--colouring", "nu", "--mode", "finite", stdin=stdin)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: combination {tag} has more than 4300 decimal digits\n"

class TestSearch:
    def test_exhaustive_exit_0(self):
        proc = run_cli(
            "search", "--colouring", "nu", "--numerator-bound", "6",
            "--denominator-bound", "2", "--workers", "1",
        )
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["exhausted"] is True
        assert obj["max_size"] >= 2

    def test_budget_exhaustion_exit_3_with_payload(self):
        proc = run_cli(
            "search", "--colouring", "nu", "--numerator-bound", "10",
            "--denominator-bound", "4", "--budget", "5", "--workers", "1",
        )
        assert proc.returncode == 3
        obj = json.loads(proc.stdout)
        assert obj["exhausted"] is False and obj["nodes"] == 5

    def test_universe_cap(self, capsys):
        t0 = time.perf_counter()
        assert cli.main(["search", "--colouring", "nu", "--numerator-bound", "100000"]) == 2
        assert time.perf_counter() - t0 < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "more than 512 elements" in err

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_denominator_bound_below_one_exit_2(self, capsys, bound):
        # not even d = 1 is within the bound, so there is no universe to search
        assert cli.main(["search", "--colouring", "nu", "--denominator-bound", bound]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"denominator bound must be >= 1, got {bound}" in err

    @pytest.mark.parametrize("option, bound, message", [
        ("--numerator-bound", "0", "numerator bound must be >= 1, got 0"),
        ("--numerator-bound", "-4", "numerator bound must be >= 1, got -4"),
        ("--prime-index", "0", "prime index must be >= 1, got 0"),
    ])
    def test_universe_bound_below_one_exit_2(self, capsys, option, bound, message):
        # the universe would be empty, so the search is refused rather than run on nothing
        assert cli.main(["search", "--colouring", "nu", option, bound]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("args, huge, same", [
        ("--numerator-bound 6", "--budget", "--budget 1000000"),
        ("--numerator-bound 3 --denominator-bound 4", "--prime-index", "--prime-index 16384"),
        ("--numerator-bound 3 --denominator-bound 4 --integers-only", "--prime-index",
         "--prime-index 16384"),
    ], ids=["budget", "prime-index", "prime-index-integers-only"])
    def test_flag_above_the_machine_word_exit_0(self, capsys, args, huge, same):
        # a budget past the whole search, or a prime index past the 16,384 primes, changes nothing
        outputs = []
        for flag in (f"{huge} {10**23 - 1}", same):
            assert cli.main(["search", "--colouring", "nu", *args.split(), *flag.split()]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""

    def test_workers_below_one_exit_2(self, capsys):
        # --workers picks nothing but is still validated
        assert cli.main(["search", "--colouring", "nu", "--workers", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "worker count must be >= 1, got 0" in err

    def test_workers_refused_before_the_target(self, capsys):
        # the CLI checks --workers before the library checks the target
        assert cli.main(["search", "--colouring", "nu", "--target", "1", "--workers", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: worker count must be >= 1, got 0\n"

    def test_worker_count_does_not_change_output(self, capsys):
        outputs = []
        for workers in ("1", "2", "8"):
            argv = ["search", "--colouring", "nu", "--numerator-bound", "10",
                    "--denominator-bound", "4", "--workers", workers]
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == "" and outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_integers_only_is_denominator_bound_one(self, capsys):
        # the flag lists the universe of --denominator-bound 1, whatever the other bounds say
        outputs = []
        for flags in ("", "--integers-only --denominator-bound 1000000 --prime-index 99"):
            argv = ["search", "--colouring", "theta", "--numerator-bound", "150", *flags.split()]
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == "" and outputs[1] == outputs[0]

    def test_pairwise_target_above_term_cap_exit_2(self, capsys):
        # no pairwise configuration holds more than 512 terms, so no universe is searched
        argv = ["search", "--colouring", "nu", "--numerator-bound", "30", "--target", "600"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: pairwise mode takes at most 512 terms, got 600\n"

    @pytest.mark.parametrize("args", [
        "--colouring nu --numerator-bound 18 --denominator-bound 8 --prime-index 3 --target 3",
    ], ids=["nu"])
    def test_finite_output_pinned(self, args):
        assert_fresh_as_corpus("search", *args.split(), "--mode", "finite")

    @pytest.mark.parametrize("args, target, row", [
        # the corpus rows of the first three add --workers 1, which selects nothing
        ("--colouring nu --numerator-bound 18 --denominator-bound 8 --prime-index 3", "3", "--workers 1"),
        ("--colouring alpha --numerator-bound 16 --denominator-bound 8 --prime-index 2", "3", "--workers 1"),
        ("--colouring theta --numerator-bound 150 --integers-only", "3", "--workers 1"),
        # the theta frontier at the universe cap: the 9-term progression 442, 450, ..., 506
        ("--colouring theta --integers-only --numerator-bound 512", "9", None),
        # the budget counts the nodes of one preorder: its 2,383 nodes finish the search
        ("--colouring theta --integers-only --numerator-bound 512 --budget 2383", "9", None),
    ], ids=["nu-18-8-3", "alpha-16-8-2", "theta-150", "theta-512-target-9", "theta-512-target-9-budget-2383"])
    def test_pairwise_output_pinned(self, args, target, row):
        argv = ("search", *args.split(), "--mode", "pairwise", "--target", target)
        assert_fresh_as_corpus(*argv, row=(*argv, *row.split()) if row else ())

    def test_budget_one_node_short_exit_3(self):
        # one node fewer than the 2,383 that finish the search stops it at exactly that many
        argv = "search --colouring theta --integers-only --numerator-bound 512 --target 9 --budget 2382"
        out = assert_fresh_as_corpus(*argv.split())
        assert out.startswith('{"max_size":9,"exhausted":false,"nodes":2382,')


class TestConstruct:
    def test_two_terms(self):
        proc = run_cli("construct", "--terms", "2")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["system"]["blocks"] == [[1], [2, 7, 11, 13]]
        assert obj["terms"] == ["1/3", "1/2069271737"]
        verdict = obj["certificate"]["verdict"]
        assert verdict["monochromatic"]["key"].startswith("mu:f:")

    @pytest.mark.parametrize("terms", ["1", "2", "3", "4"])
    def test_certificate_validates_with_defaults(self, terms):
        out = assert_fresh_as_corpus("construct", "--terms", terms)
        assert "certificate" in json.loads(out)

    # each named by the stdout digest that its corpus row records
    @pytest.mark.parametrize("terms", ["3", "4"],
                             ids=lambda terms: f"{terms}-{ROWS['construct', '--terms', terms]['stdout_sha256']}")
    def test_stdout_pinned(self, terms):
        # a search that picked other valid blocks would still validate; the corpus's digest would not
        assert_fresh_as_corpus("construct", "--terms", terms)

    def test_budget_exhaustion_exit_3(self):
        proc = run_cli("construct", "--terms", "3", "--budget", "5")
        assert proc.returncode == 3
        obj = json.loads(proc.stdout)
        assert obj["budget_exhausted"]["best_depth"] >= 1

    @pytest.mark.parametrize("terms, budget", [("3", "0"), ("3", "-5"), ("1", "0")])
    def test_budget_below_one_exit_2(self, capsys, terms, budget):
        assert cli.main(["construct", "--terms", terms, "--budget", budget]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: budget must be >= 1, got {budget}\n"

    @pytest.mark.parametrize("terms", ["0", "-2"])
    def test_term_count_below_one_exit_2(self, capsys, terms):
        assert cli.main(["construct", "--terms", terms]) == 2
        assert capsys.readouterr() == ("", f"error: term count must be >= 1, got {terms}\n")

    def test_pool_past_the_prime_cap_names_the_term_count(self, capsys):
        # 12 terms take a pool of 16 + 14·12 = 184 reciprocal primes; only 173 fit under the cap
        assert cli.main(["construct", "--terms", "12"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: term count 12 needs 184 reciprocal primes:"
            " prime index 16385 beyond the cap of 16384 primes\n"
        )

    def test_huge_term_count_refused_at_the_prime_cap(self, capsys):
        # the pool walk stops at the cap, so the refusal costs no more than m = 12's
        assert cli.main(["construct", "--terms", "1000000000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: term count 1000000000 needs 14000000016 reciprocal primes:"
            " prime index 16385 beyond the cap of 16384 primes\n"
        )

    @pytest.mark.parametrize("terms, budget, depth", [
        ("4", "208509", 3), ("5", "200000", 3),
        # ten and a hundred times m = 5's budget, and the 100- and 128-prime pools of six and
        # eight terms, all stop at depth 4
        ("5", "2000000", 4), ("5", "20000000", 4), ("6", "3000000", 4), ("8", "5000000", 4),
    ], ids=["4-208509", "5-200000", "5-2000000", "5-20000000", "6-3000000", "8-5000000"])
    def test_budget_exhaustion_payload_pinned(self, terms, budget, depth):
        proc = run_cli("construct", "--terms", terms, "--budget", budget)
        assert (proc.returncode, proc.stderr) == (3, "")
        assert proc.stdout == (
            '{"budget_exhausted":{"message":"search budget exhausted at depth %d","best_depth":%d}}\n'
            % (depth, depth)
        )


class TestMain:
    def test_repeated_calls_in_one_process(self, capsys):
        argv = ["colour", "--colouring", "nu", "11/4"]
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr() == first == ('{"input":"11/4","colour":"nu:t:0,1,2,1,1"}\n', "")
        # a usage error still exits 2, and the next call is unaffected
        with pytest.raises(SystemExit) as exc:
            cli.main(["colour", "--colouring", "zeta", "3"])
        assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: qcolour")
        assert cli.main(argv) == 0 and capsys.readouterr() == first
        assert cli._build_parser() is cli._build_parser()  # built once per process

    def test_import_loads_no_dataclass_machinery(self):
        # every CLI call pays the package import: its records need neither module, and
        # importing dataclasses alone costs a fresh interpreter about 7 ms
        code = """
import json, sys
import qcolour, qcolour.cli
print(json.dumps(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


class TestProperties:
    def test_deterministic_across_runs(self):
        a = run_cli("properties", "--seed", "5", "--samples", "40")
        b = run_cli("properties", "--seed", "5", "--samples", "40")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        obj = json.loads(a.stdout)
        assert all(law["passed"] for law in obj["laws"])

    def test_samples_past_the_cap_exit_2(self, capsys):
        # the law suite draws at most 10,000 samples per law
        assert cli.main(["properties", "--samples", "10001"]) == 2
        assert capsys.readouterr() == ("", "error: sample count must be <= 10000, got 10001\n")

    @pytest.mark.parametrize("args", ["--seed 1"], ids=["seed-1"])
    def test_output_pinned(self, args):
        # with every law passing the suite names each law with its sample count
        assert_fresh_as_corpus("properties", *args.split())


class TestClosedStdout:
    """A reader that goes away early ends the command with 141 (128 + SIGPIPE), stderr empty."""

    @pytest.mark.parametrize(
        "args",
        [
            ("properties", "--seed", "1", "--samples", "1000"),
            ("search", "--colouring", "nu", "--numerator-bound", "6", "--budget", "1",
             "--workers", "1"),  # a partial result, exit 3
            ("construct", "--terms", "5", "--budget", "1000"),  # BudgetExhaustedError's payload
        ],
    )
    def test_read_end_closed_before_any_output(self, args):
        proc = subprocess.Popen(CMD + list(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=120), stderr) == (141, b"")

    def test_piped_into_head(self):
        # Two megabytes of certificate cannot fit in the pipe once head has gone.
        terms = "".join(f"{i}\n" for i in range(1, 201)).encode()
        qc = subprocess.Popen(CMD + ["check", "--colouring", "const"], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = subprocess.Popen(["head", "-c", "10"], stdin=qc.stdout, stdout=subprocess.PIPE)
        qc.stdout.close()
        qc.stdin.write(terms)
        qc.stdin.close()
        assert head.communicate(timeout=120)[0] == b'{"colourin'
        assert (qc.wait(timeout=120), qc.stderr.read()) == (141, b"")


@pytest.mark.parametrize(
    "args, stdin",
    [
        (("colour", "--colouring", "nu", "11/4"), None),
        (("check", "--colouring", "nu", "--mode", "pairwise"), "2\n4\n"),
        (("expand", "--prime-index", "2", "14305/96"), None),
        (("search", "--colouring", "theta", "--integers-only", "--numerator-bound", "12",
          "--workers", "1"), None),
    ],
)
def test_byte_identical_across_invocations(args, stdin):
    # two fresh interpreters, each with its own hash seed, print the same bytes
    first = run_cli(*args, stdin=stdin)
    second = run_cli(*args, stdin=stdin)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and first.stdout
