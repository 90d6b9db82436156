"""End-to-end CLI contract: JSON bodies, exit codes, byte stability."""
from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qcolour import cli, core, oracles
from qcolour.colourings import colour_key
from qcolour.verify import Certificate, validate

CMD = [sys.executable, "-m", "qcolour"]


def run_cli(*args: str, stdin: str | None = None):
    return subprocess.run(
        CMD + list(args), input=stdin, capture_output=True, text=True, timeout=120
    )


def assert_certificates_validate(out: str) -> int:
    """Every certificate in the check, search or construct document ``out`` validates from its
    JSON alone and reads back to the same JSON object; returns how many there are."""
    obj = json.loads(out)
    certs = obj["certificates"] if "certificates" in obj else [obj.get("certificate", obj)]
    for c in certs:
        cert = Certificate.from_obj(c)
        reasons: list[str] = []
        assert validate(cert, reasons), reasons
        assert cert.to_obj() == c
    return len(certs)


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

    @pytest.mark.parametrize(
        "colouring, terms, digest, mode",
        [*(pytest.param(*row, "finite", id="-".join(row)) for row in [
            ("nu", "11/8 1/7 1/16 17/12 1 8 19 5/2 1/24 13/2 19/8",
             "4b9882850184604cbbca4bceaf47e37993c8634dbf2344a7076a490f77dad335"),
            ("mu", "1/16 31 3/4 5 4 1 8 18 25/126 27/2 39/7",
             "7c7deba4d5ba4133655fae56a731f3f063c8c5f87b9cd7f033b828a4930b49f3"),
            ("alpha", "29 10 7/4 4/7 1/42 11/4 13/210 1/16 3/16 3/70 3/8",
             "201a3b25ec63079effd5e1372b2f24a0c1e0270734617f7f683e83c1f92d94fa"),
            ("theta", "15 31 36 5 18 14 35 2 37 9 34",
             "79a0113b367976f5b33ad08b2df6df8ed4c4428fa3f10f9c0ad9744016c3532a"),
            ("phi", "29 16 4 3 12 19 24 34 37 9 6",
             "27991ae73f67deab3a5db7c438b377e11872c946a22a49e5e1508c5f61921cd9"),
        ]),
            # 4,297 distinct values, each coloured once
            pytest.param("nu", " ".join(map(str, range(1, 17))),
                         "faf666d47ef1064b1ae19961506fba7cfabb394eea633ffbc0b6e2b01a91fa3d", "finite",
                         id="nu-1..16"),
            # theta and alpha colour one natural per binary profile, and validate re-runs the
            # same table, so only a digest catches a wrong rule
            pytest.param("theta", " ".join(map(str, range(3, 13))),
                         "00cb67afd4bb1d00a88f02ce898c4ec2891afdc11b5b16eee049def4355a5ecd", "finite",
                         id="theta-3..12"),
            pytest.param("alpha", " ".join(map(str, range(3, 13))),
                         "c37486ca29431987840e803a71eca0f0f3b460418b84110acb18b0241822a47a", "finite",
                         id="alpha-3..12"),
            pytest.param("alpha", "3 1/2 5/3 7/4 2/9 11/6 1/10 13 4/15 17/8",
                         "28596be49d1c415e730fc4827742f20ccd9d88ddbc7598bbf5274e0c5f8a7b04", "finite",
                         id="alpha-ten-terms"),
            pytest.param("nu", "3 1/2 5/3 7/4 2/9 11/6 1/10 13 4/15 17/8",
                         "7392aa7487b0a747b1e7d77f9a1771f98ba6fde3378a40d0e6016cf9ed7074b0", "finite",
                         id="nu-ten-terms"),
            pytest.param("mu", "3 1/2 5/3 7/4 2/9 11/6 1/10 13 4/15 17/8",
                         "3110fa651076165d0bbf5477632881a202b1290e202ea27da89c051d3b6ff41d", "finite",
                         id="mu-ten-terms"),
            pytest.param("phi", " ".join(map(str, range(3, 13))),
                         "9f34c803a06d0fcdde5216e59518716117614c895d60a2f7c143293bbb3a97b9", "finite",
                         id="phi-3..12"),
            # the largest pairwise check: integer terms take the gcd-free sum and product path
            pytest.param("nu", " ".join(map(str, range(1, 513))),
                         "f22ac042541f3243a5ef2509f3d85a05c9b4fb576f8ffe24ff1b598ecb3fd8d5", "pairwise",
                         id="nu-1..512-pairwise"),
            # the product 6·10^18 passes 2^62: phi colours every integer
            pytest.param("phi", "3000000000 2000000000",
                         "3bdc2176969da5cb945439203c71180b867771d8ef2c687c27c8ebeb4235020a", "pairwise",
                         id="phi-past-2^62-pairwise"),
        ],
    )
    def test_finite_output_pinned(self, colouring, terms, digest, mode, tmp_path, capsys):
        # the digest pins every tag, value and key; the 11 seeded terms give 4,094 combinations
        seq = tmp_path / "seq.txt"
        seq.write_text("\n".join(terms.split()) + "\n")
        assert cli.main(["check", "--colouring", colouring, "--mode", mode, str(seq)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and hashlib.sha256(out.encode()).hexdigest() == digest
        assert_certificates_validate(out)


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

    @pytest.mark.parametrize("args, code, digest", [
        ("--colouring phi --numerator-bound 40 --integers-only --target 3", 0,
         "5dc55c386ba5da900f3a1a8347d56240bb805946f564728d8974760976decf39"),
        ("--colouring const --numerator-bound 10 --integers-only --target 4 --budget 500", 3,
         "6916418d002c23fabb302fc90039b22836bebcc5c67f1bf180ffa4e25716e18c"),
        ("--colouring nu --numerator-bound 18 --denominator-bound 8 --prime-index 3 --target 3", 0,
         "0744234c9fc861a2c731138b0f91c8ef375144533beec53b4c6797dd559bdb70"),
    ], ids=["phi", "const-budget", "nu"])
    def test_finite_output_pinned(self, args, code, digest, capsys):
        # the digest pins nodes, max_size and every certificate's tags, values and keys
        assert cli.main(["search", *args.split(), "--mode", "finite"]) == code
        out, err = capsys.readouterr()
        assert err == "" and hashlib.sha256(out.encode()).hexdigest() == digest
        assert_certificates_validate(out)

    @pytest.mark.parametrize("args, target, digest", [
        ("--colouring nu --numerator-bound 18 --denominator-bound 8 --prime-index 3", "3",
         "9d63078872f6d55d15401a49251ac8b2ce8c65819ad32b885efe4d366bc0a0a2"),
        ("--colouring mu --numerator-bound 18 --denominator-bound 8 --prime-index 3", "3",
         "86aa19c8d81a90e23025c71b94cf06081c1da02ccb4b603e11c9a7ace3e79340"),
        ("--colouring nu --numerator-bound 16 --denominator-bound 10 --prime-index 3", "3",
         "f8c787925cd2cd2355928b41d9b8dacc679ea00ce512c695858cd62315578472"),
        ("--colouring mu --numerator-bound 16 --denominator-bound 10 --prime-index 3", "3",
         "c99d3372c8302657f4d6a7b8e88303d8340fc573d7f7c68c2a11e1ca6c810c87"),
        ("--colouring alpha --numerator-bound 16 --denominator-bound 8 --prime-index 2", "3",
         "8f3029a9a3a68cece170c499463b0eb5b7b6513c70932c1da2a8b19b814f99b2"),
        ("--colouring alpha --numerator-bound 20 --denominator-bound 6 --prime-index 2", "3",
         "c2293a341dd3269b9467c9e9dcd646fdab20f19935ff32610c9d22ba8fd646b5"),
        ("--colouring theta --numerator-bound 150 --integers-only", "3",
         "db185a2b8e6f1833fd3329989f621b1162588b70eeab825787c81bd1039450d3"),
        # 8,542 values pass the shadow gate, all coloured before the DFS
        ("--colouring mu --numerator-bound 40 --denominator-bound 30 --prime-index 3", "3",
         "d614672074bfcdd89aae6526860b59d7404f964019438e0f50be8b8b5d7ae72b"),
        # the theta frontier at the universe cap: the 9-term progression 442, 450, ..., 506;
        # alpha colours a natural by its theta colour, so it visits the same 2,383 nodes
        ("--colouring theta --integers-only --numerator-bound 512", "9",
         "5b242679fe6c7712371751b6b498245ecb7b9d6d978e1a9233dedc6938fb4248"),
        ("--colouring alpha --integers-only --numerator-bound 512", "9",
         "6a4e97957faea25bc8c8d1f6e4c5c3d9219df1d76bfb8f85ffc9eb1452e21251"),
        # the budget counts the nodes of one preorder: its 2,383 nodes finish the search
        ("--colouring theta --integers-only --numerator-bound 512 --budget 2383", "9",
         "5b242679fe6c7712371751b6b498245ecb7b9d6d978e1a9233dedc6938fb4248"),
    ], ids=["nu-18-8-3", "mu-18-8-3", "nu-16-10-3", "mu-16-10-3", "alpha-16-8-2",
            "alpha-20-6-2", "theta-150", "mu-40-30-3", "theta-512-target-9", "alpha-512-target-9",
            "theta-512-target-9-budget-2383"])
    def test_pairwise_output_pinned(self, args, target, digest, capsys):
        # the benchmark's seven search universes and three larger ones: the digest pins nodes,
        # max_size and every certificate's tags, values and keys, however the pair graph is built
        assert cli.main(["search", *args.split(), "--mode", "pairwise", "--target", target]) == 0
        out, err = capsys.readouterr()
        assert err == "" and hashlib.sha256(out.encode()).hexdigest() == digest
        assert_certificates_validate(out)

    def test_budget_one_node_short_exit_3(self, capsys):
        # one node fewer than the 2,383 that finish the search stops it at exactly that many
        argv = "--colouring theta --integers-only --numerator-bound 512 --target 9 --budget 2382"
        assert cli.main(["search", *argv.split()]) == 3
        out, err = capsys.readouterr()
        assert out.startswith('{"max_size":9,"exhausted":false,"nodes":2382,') and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fe29feebfc28d01b3613e5a582590015ae04ffdce5873382eb1434ed6ace09ce"
        )
        assert_certificates_validate(out)


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
        proc = run_cli("construct", "--terms", terms)
        assert proc.returncode == 0
        assert assert_certificates_validate(proc.stdout) == 1

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

    @pytest.mark.parametrize(
        "terms, digest",
        [
            ("3", "a54b2b290a83f07dd531a1c554b26425f930922db8b6b550eff5e8eee008ef3c"),
            ("4", "e529abd70eac0dcccc347509d8ef2976832b43a04e0cb0e89c205cf0ce53619b"),
            # the budget contract: four terms take exactly 208,510 units (one fewer is pinned below)
            ("4 --budget 208510", "e529abd70eac0dcccc347509d8ef2976832b43a04e0cb0e89c205cf0ce53619b"),
        ],
    )
    def test_stdout_pinned(self, terms, digest):
        # a search that picked other valid blocks would still validate; this would not
        proc = run_cli("construct", "--terms", *terms.split())
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
        assert_certificates_validate(proc.stdout)

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

    @pytest.mark.parametrize("args, digest", [
        ("--seed 1", "aee6e24c9771f18391afb324a160a8b57a9b2c5301edf31439fd696be1816e98"),
        ("--seed 1 --samples 200", "98f418e0e171b2ea4aac2e64b2de5a9d913293f4f7c8b6936845e4cc26df2a28"),
    ], ids=["seed-1", "seed-1-samples-200"])
    def test_output_pinned(self, args, digest, capsys):
        # with every law passing the suite names each law with its sample count, however the
        # laws draw their samples
        assert cli.main(["properties", *args.split()]) == 0
        out, err = capsys.readouterr()
        assert err == "" and hashlib.sha256(out.encode()).hexdigest() == digest


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
    first = run_cli(*args, stdin=stdin)
    second = run_cli(*args, stdin=stdin)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and first.stdout
