"""Config parsing, subcommand output, and exit codes of the command line."""

import hashlib
import io
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import deltacodes
import oracles
from deltacodes.approximants import BivarPoly
from deltacodes.cli import (
    _SCHEMA,
    COMMANDS,
    JobConfig,
    _command_line,
    _coordinate,
    main,
    parse_config,
    run,
)
from deltacodes.errors import ConfigError
from deltacodes.genesis import MAX_CHAIN_STEPS
from deltacodes.gf import _DEFAULT_MODULI, FieldSpec
from helpers import PAIRS_F32_A, PAIRS_F32_B, POINTS_F7

DATA = pathlib.Path(__file__).parent / "data"
PLANAR = DATA / "planar119.cfg"
GOLDEN = DATA / "golden_table2.csv"

FIELD_7 = "[field]\np = 7\n"
DELTA_N = "[delta]\ntype = N\nunder = 11 9\n"
DELTA_C = "[delta]\ntype = C\nunder = 11 9\n"
DELTA_D = "[delta]\ntype = D\nunder = 11 9\ndigits = 80 1 2\n"
DELTA_E = "[delta]\ntype = E\nunder = 3 1\nsteps = 2\nchoices = 2 5, 2 19\n"
DELTAS = {"N": DELTA_N, "C": DELTA_C, "D": DELTA_D, "E": DELTA_E}
# one point whose first coordinate is g^{power}, over F_32
POWER_CFG = "[field]\np = 2\nm = 5\n" + DELTA_N + "[points]\ng^{power} 1\n"


def parse_error(text):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    return str(info.value)


class TestParseConfig:
    def test_full_roundtrip(self):
        config = parse_config(PLANAR.read_text())
        assert config.spec.p == 7 and config.spec.m == 1
        assert config.delta_type == "C"
        assert config.under == (11, 9)
        assert len(config.points) == 12
        assert config.mode == "jumps"
        assert config.limit is None and config.depth is None

    def test_empty_file_is_missing_field(self):
        assert "missing [field] section" in parse_error("")

    def test_missing_field_section(self):
        assert "missing [field] section" in parse_error(DELTA_N)

    def test_missing_delta_section(self):
        assert "missing [delta] section" in parse_error(FIELD_7)

    def test_unknown_section(self):
        assert "unknown section [stuff] at line 1" in parse_error("[stuff]\n")

    def test_content_before_section(self):
        assert "before any section at line 1" in parse_error("p = 7\n")

    def test_duplicate_section(self):
        text = FIELD_7 + "[field]\n"
        assert "duplicate section [field] at line 3" in parse_error(text)

    def test_unknown_key(self):
        text = "[field]\np = 7\nq = 3\n" + DELTA_N
        assert "unknown key 'q' in [field] at line 3" in parse_error(text)

    def test_duplicate_key(self):
        text = "[field]\np = 7\np = 11\n" + DELTA_N
        assert "duplicate key 'p' at line 3" in parse_error(text)

    def test_bad_integer(self):
        text = "[field]\np = seven\n" + DELTA_N
        assert "bad integer for 'p' at line 2" in parse_error(text)

    def test_nonprime_p(self):
        assert "not prime" in parse_error("[field]\np = 6\n" + DELTA_N)

    def test_missing_p(self):
        assert "missing key 'p' in [field]" in parse_error("[field]\n" + DELTA_N)

    def test_missing_type(self):
        text = FIELD_7 + "[delta]\nunder = 11 9\n"
        assert "missing key 'type' in [delta]" in parse_error(text)

    def test_missing_under(self):
        text = FIELD_7 + "[delta]\ntype = N\n"
        assert "missing key 'under' in [delta]" in parse_error(text)

    def test_unknown_delta_type(self):
        text = FIELD_7 + "[delta]\ntype = Q\nunder = 11 9\n"
        assert "unknown delta type 'Q' at line 4" in parse_error(text)

    def test_key_for_wrong_type(self):
        text = FIELD_7 + "[delta]\ntype = N\nunder = 11 9\nsteps = 2\n"
        assert "'steps' does not apply to type N at line 6" in parse_error(text)

    def test_type_d_needs_digits(self):
        text = FIELD_7 + "[delta]\ntype = D\nunder = 11 9\n"
        assert "type D needs a 'digits' key" in parse_error(text)

    def test_choices(self):
        text = FIELD_7 + "[delta]\ntype = E\nunder = 3 1\nchoices = 2 5, 2 19\n"
        assert parse_config(text).choices == ((2, 5), (2, 19))

    def test_bad_choices(self):
        text = FIELD_7 + "[delta]\ntype = E\nunder = 3 1\nchoices = 2\n"
        assert "choices need 'z new' pairs at line 6" in parse_error(text)

    def test_duplicate_point(self):
        text = FIELD_7 + DELTA_N + "[points]\n1 1\n1 1\n"
        assert "duplicate point at line 8" in parse_error(text)

    def test_one_point_written_two_ways_is_a_duplicate(self):
        # g is encoded 2 in F_32, and g^36 is g^5, as g has order 31
        text = "[field]\np = 2\nm = 5\n" + DELTA_N + "[points]\ng^5 g\n1 1\ng^36 2\n"
        assert "duplicate point at line 10" in parse_error(text)

    def test_coordinate_outside_the_field(self):
        for token in ("7", "-1"):
            text = FIELD_7 + DELTA_N + f"[points]\n1 {token}\n"
            message = f"bad coordinate at line 7: encoded value {token} outside [0, 7)"
            assert message in parse_error(text)

    def test_points_are_the_elements_of_their_values(self):
        text = "[field]\np = 2\nm = 5\n" + DELTA_N + "[points]\ng^5 3\n3 g^5\n0 31\n"
        spec = FieldSpec(2, 5)
        xi, three = spec.element(2), spec.element(3)
        expected = ((xi**5, three), (three, xi**5), (spec.element(0), spec.element(31)))
        assert parse_config(text).points == expected

    def test_point_arity(self):
        text = FIELD_7 + DELTA_N + "[points]\n1 2 3\n"
        assert "two coordinates at line 7" in parse_error(text)

    def test_power_coordinates(self):
        text = "[field]\np = 2\nm = 5\n" + DELTA_N + "[points]\ng^5 g^3\ng 1\n"
        config = parse_config(text)
        xi = config.spec.element(2)
        assert config.points[0] == (xi**5, xi**3)
        assert config.points[1] == (xi, config.spec.element(1))

    @pytest.mark.parametrize(
        "p, m",
        [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for m in range(2, 11)
         if p**m <= 1024],
    )
    def test_power_tokens_name_the_powers_of_g(self, p, m):
        """``g^k`` is the k-th power of the class of x in every extension
        field, so it prints as itself (x is primitive under the default
        modulus); the encoded value 2 is x only when p = 2."""
        for k in (1, 2, p**m - 2):
            text = f"[field]\np = {p}\nm = {m}\n" + DELTA_N + f"[points]\ng^{k} 1\n"
            assert str(parse_config(text).points[0][0]) == ("g" if k == 1 else f"g^{k}")

    def test_power_needs_extension(self):
        text = FIELD_7 + DELTA_N + "[points]\ng^2 1\n"
        assert "needs an extension field at line 7" in parse_error(text)

    def test_malformed_power(self):
        text = "[field]\np = 2\nm = 5\n" + DELTA_N + "[points]\ng^x 1\n"
        assert "malformed power coordinate 'g^x' at line 8" in parse_error(text)

    def test_unknown_mode(self):
        text = FIELD_7 + DELTA_N + "[job]\nmode = all\n"
        assert "unknown mode 'all' at line 7" in parse_error(text)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n" + FIELD_7 + DELTA_N + "[job]\nlimit = 3  # cap\n"
        assert parse_config(text).limit == 3

    def test_inapplicable_key_is_reported_before_any_typed_value(self):
        text = FIELD_7 + "[delta]\ntype = D\nunder = 11 9\ndigits = x\nsteps = 2\n"
        assert parse_error(text) == "key 'steps' does not apply to type D at line 7"

    @pytest.mark.parametrize(
        "kind, bound, value",
        [
            ("N", "40", (Fraction(40),)),
            ("C", "10 2", (10, 2)),
            ("D", "3/2", (Fraction(3, 2), 0)),
            ("D", "3 2", (Fraction(3), 2)),
            ("D", "2.25", (Fraction(9, 4), 0)),
            ("E", "-1/2", (Fraction(-1, 2),)),
        ],
    )
    def test_bound_is_read_in_the_notation_of_the_type(self, kind, bound, value):
        text = FIELD_7 + DELTAS[kind] + f"[job]\nbound = {bound}\n"
        assert parse_config(text).bound == value

    @pytest.mark.parametrize(
        "kind, bound",
        [
            ("N", "1 2"),
            ("N", "x"),
            ("C", "x y"),
            ("C", "10"),
            ("C", "1/2 1"),
            ("D", "1 2 3"),
            ("D", "1 1/2"),
            ("E", "1/0"),
            ("E", ""),
            # would take minutes and gigabytes to expand
            ("E", "1e999999999"),
            ("D", "2.5E99999999 1"),
        ],
    )
    def test_bad_bound_names_its_line(self, kind, bound):
        text = FIELD_7 + DELTAS[kind] + f"[job]\nmode = full\nbound = {bound}\n"
        no = text.count("\n")
        assert parse_error(text) == f"bad bound {bound!r} for type {kind} at line {no}"

    def test_job_config_fields_are_the_schema_keys(self):
        """[field] becomes ``spec``; every [delta] and [job] key is a field,
        ``type`` as ``delta_type``."""
        keys = [*_SCHEMA["delta"], *_SCHEMA["job"]]
        named = ["delta_type" if key == "type" else key for key in keys]
        assert sorted(JobConfig._fields) == sorted(named + ["spec", "points", "command"])
        assert set(_SCHEMA["field"]) == {"p", "m", "modulus"}


F32_POINTS = "[points]\n1 1\ng g^2\ng^3 g^4\ng^5 g^6\n0 g^7\ng^8 0\n"
F32_C = "[delta]\ntype = C\nunder = 11 9\n" + F32_POINTS


class TestModulus:
    """``modulus`` is the encoded polynomial: its base-p digits, lowest first."""

    def table(self, tmp_path, capsys, field):
        path = tmp_path / "m.cfg"
        path.write_text(field + F32_C)
        code = main(["table", "--config", str(path)])
        return code, capsys.readouterr()

    def test_encoded_default_equals_the_default(self, tmp_path, capsys):
        field = "[field]\np = 2\nm = 5\n"
        with_key = parse_config(field + "modulus = 0x25\n" + F32_C)
        assert with_key.spec == parse_config(field + F32_C).spec
        assert self.table(tmp_path, capsys, field + "modulus = 0x25\n") == self.table(
            tmp_path, capsys, field
        )
        code, captured = self.table(tmp_path, capsys, field + "modulus = 37\n")
        assert code == 0 and captured.out.count("\n") > 1

    @pytest.mark.parametrize(
        "field, message",
        [
            ("p = 2\nm = 5\nmodulus = 0x23", "modulus is reducible"),
            ("p = 2\nm = 5\nmodulus = 0x65", "not a polynomial of degree <= 5"),
            ("p = 2\nm = 5\nmodulus = -0x25", "not a polynomial of degree <= 5"),
            ("p = 2\nm = 5\nmodulus = 0x5", "modulus must be monic"),
            ("p = 7\nmodulus = 0x25", "modulus applies only to extension fields"),
            ("p = 2\nm = 5\nmodulus = 25h", "bad integer for 'modulus' at line 4"),
        ],
    )
    def test_bad_modulus_exits_2(self, tmp_path, capsys, field, message):
        code, captured = self.table(tmp_path, capsys, f"[field]\n{field}\n")
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error[parse]:") and message in captured.err


class TestCommands:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text(FIELD_7 + DELTA_N)
        assert main(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid delta-sequence: 11 9" in out
        assert "gcd chain: 11 1" in out
        assert "quotients: 11" in out

    def test_validate_violation_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(FIELD_7 + "[delta]\ntype = N\nunder = 9 11\n")
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[domain]:")
        assert "condition (3)" in err

    @pytest.mark.parametrize(
        "power, message",
        [
            ("\u00b2", "malformed power coordinate 'g^\u00b2' at line 8"),
            ("9" * 5000, "bad integer for 'point' at line 8"),
        ],
        ids=["superscript-digit", "5000-digits"],
    )
    def test_bad_power_token_exits_2(self, tmp_path, capsys, power, message):
        """A digit that only str.isdigit takes, and more digits than int()
        converts, are both config errors, not tracebacks."""
        path = tmp_path / "power.cfg"
        path.write_text(POWER_CFG.format(power=power), encoding="utf-8")
        assert main(["table", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[parse]: ") and message in captured.err

    @pytest.mark.parametrize(
        "text, length",
        [
            (POWER_CFG.format(power="9" * 5000), 5000),
            ("[field]\np = " + "7" * 999 + "x\n" + DELTA_N, 1000),
        ],
        ids=["5000-digit-power", "1000-character-prime"],
    )
    def test_a_long_bad_integer_is_quoted_in_part(self, tmp_path, capsys, text, length):
        """The message quotes a bounded prefix of the value and its length,
        so one bad token cannot fill the terminal."""
        path = tmp_path / "long.cfg"
        path.write_text(text)
        assert main(["table", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[parse]: bad integer for ")
        assert captured.err.endswith(f"... ({length} characters)\n")
        assert captured.err.count("\n") == 1 and len(captured.err) < 200

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[field]\np = 6\n" + DELTA_N)
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error[parse]:")

    def test_missing_config_file(self, capsys):
        assert main(["validate", "--config", "/no/such/file.cfg"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_construct_n(self, tmp_path, capsys):
        path = tmp_path / "n.cfg"
        path.write_text(FIELD_7 + DELTA_N)
        assert main(["construct", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "{11,9}\n"

    def test_construct_c(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(FIELD_7 + "[delta]\ntype = C\nunder = 40 12 97\n")
        assert main(["construct", "--config", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "{(10,10),(3,3),(24,25)}"
        assert "(A,B) = (1,1)" in out
        assert "(A',B') = (1,0)" in out

    def test_construct_d(self, tmp_path, capsys):
        path = tmp_path / "d.cfg"
        path.write_text(
            FIELD_7
            + "[delta]\ntype = D\nunder = 11 9\ndigits = 80 1 2\nradicand = 3\n"
        )
        assert main(["construct", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "{11/9,1,tau}"
        assert "53/26" in out and "1/234" in out and "sqrt(3)" in out

    def test_construct_e(self, tmp_path, capsys):
        path = tmp_path / "e.cfg"
        path.write_text(
            FIELD_7
            + "[delta]\ntype = E\nunder = 3 1\nsteps = 2\nchoices = 2 5, 2 19\n"
        )
        assert main(["construct", "--config", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "{3,1,5/2,19/4,...}"
        assert out[1] == "stages: 3 1 | 6 2 5 | 12 4 10 19"

    def test_approximates(self, capsys):
        assert main(["approximates", "--config", str(PLANAR)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "q_0 = x"
        assert out[1] == "q_1 = y"
        assert out[2] == "weights: (5,1) (4,1)"

    def test_approximates_over_a_non_primitive_modulus(self, tmp_path, capsys):
        """GF(9) under x^2 + 1 keeps no logarithms, so each coefficient
        prints as its coefficients in g: the constant 2 as ``2``."""
        path = tmp_path / "e.cfg"
        path.write_text(
            "[field]\np = 3\nm = 2\nmodulus = 10\n[delta]\ntype = E\nunder = 7 5\nsteps = 2\n"
        )
        assert main(["approximates", "--config", str(path)]) == 0
        assert capsys.readouterr() == (
            "q_0 = x\nq_1 = y\nq_2 = y^7 + 2*x^5\nq_3 = y^14 + x^5*y^7 + x^10 + 2*y^3\n"
            "weights: 7/5 1 3/2 9/4\n",
            "",
        )

    def test_approximates_over_the_term_limit_is_rejected_before_any_product(
        self, tmp_path, capsys, monkeypatch
    ):
        """The chain (7, 5) with 9 steps takes 8 s or more to expand; its
        estimate is over the limit, and no polynomial product runs."""
        products = []
        monkeypatch.setattr(BivarPoly, "__mul__", lambda *args: products.append(args))
        path = tmp_path / "e.cfg"
        path.write_text("[field]\np = 2\nm = 5\n[delta]\ntype = E\nunder = 7 5\nsteps = 9\n")
        assert main(["approximates", "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "",
            "error[domain]: expanding the approximates: an estimated 2146215 terms"
            " exceed the limit of 300000\n",
        )
        assert products == []

    def test_a_chain_over_the_step_limit_is_rejected_by_every_command(self, tmp_path, capsys):
        path = tmp_path / "e.cfg"
        path.write_text(OVER_STEPS_CFG)
        for command in COMMANDS:
            assert main([command, "--config", str(path)]) == 1
            assert capsys.readouterr() == (
                "",
                f"error[domain]: type E chain: {MAX_CHAIN_STEPS + 1} steps exceed"
                f" the limit of {MAX_CHAIN_STEPS}\n",
            )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_negative_step_count_is_rejected_by_every_command(self, tmp_path, capsys, command):
        path = tmp_path / "e.cfg"
        path.write_text(OVER_STEPS_CFG.replace(f"steps = {MAX_CHAIN_STEPS + 1}", "steps = -2"))
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error[domain]: type E chain: steps must be >= 0, got -2\n"
        )

    def test_semigroup_n(self, tmp_path, capsys):
        path = tmp_path / "n.cfg"
        path.write_text(FIELD_7 + DELTA_N + "[job]\nbound = 40\n")
        assert main(["semigroup", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13
        assert lines[0] == "0 : 0 0"
        assert lines[1] == "9 : 0 1"
        assert lines[-1] == "40 : 2 2"

    def test_semigroup_c(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(
            FIELD_7 + "[delta]\ntype = C\nunder = 11 9\n[job]\nbound = 10 2\n"
        )
        assert main(["semigroup", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "(0,0) : 0 0"
        assert lines[-1] == "(10,2) : 2 0"
        assert len(lines) == 6

    def test_semigroup_d(self, tmp_path, capsys):
        path = tmp_path / "d.cfg"
        path.write_text(FIELD_7 + DELTA_D + "[job]\nbound = 3 2\n")
        assert main(["semigroup", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 51
        assert lines[0] == "0 + 0*tau : 0 0 0"
        assert lines[1] == "1 + 0*tau : 0 1 0"
        assert lines[-2] == "5 + 1*tau : 0 5 1"
        assert lines[-1] == "3 + 2*tau : 0 3 2"

    @pytest.mark.parametrize("bound", ["-1", "-3 1"])
    def test_semigroup_d_below_zero_is_empty(self, tmp_path, capsys, bound):
        # tau is about 2.03, so -3 + tau is below zero although m > 0
        path = tmp_path / "d.cfg"
        path.write_text(FIELD_7 + DELTA_D + f"[job]\nbound = {bound}\n")
        assert main(["semigroup", "--config", str(path)]) == 0
        assert capsys.readouterr() == ("", "")

    def test_semigroup_e(self, tmp_path, capsys):
        path = tmp_path / "e.cfg"
        path.write_text(FIELD_7 + DELTA_E + "[job]\nbound = 6\n")
        assert main(["semigroup", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13
        assert lines[0] == "0 : 0 0 0 0"
        assert lines[3] == "5/2 : 0 0 1 0"
        assert lines[8] == "19/4 : 0 0 0 1"
        assert lines[-1] == "6 : 2 0 0 0"

    def test_semigroup_e_below_zero_is_empty(self, tmp_path, capsys):
        path = tmp_path / "e.cfg"
        path.write_text(FIELD_7 + DELTA_E + "[job]\nbound = -1/2\n")
        assert main(["semigroup", "--config", str(path)]) == 0
        assert capsys.readouterr() == ("", "")

    def test_semigroup_c_generator_on_the_y_axis_is_infinite(self, tmp_path, capsys):
        """The listing streams, but its error comes before any output: none
        on stdout, and no --out file is made."""
        path = tmp_path / "c.cfg"
        path.write_text(
            FIELD_7 + "[delta]\ntype = C\nunder = 6 3 1\n[job]\nbound = 3 3\n"
        )
        assert main(["semigroup", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "enumeration is infinite" in err
        listing = tmp_path / "listing.txt"
        assert main(["semigroup", "--config", str(path), "--out", str(listing)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not listing.exists()
        assert "enumeration is infinite" in err

    def test_semigroup_needs_bound(self, tmp_path, capsys):
        path = tmp_path / "n.cfg"
        path.write_text(FIELD_7 + DELTA_N)
        assert main(["semigroup", "--config", str(path)]) == 2
        assert "needs a 'bound' key" in capsys.readouterr().err

    def test_bad_bound(self, tmp_path, capsys):
        """Every command rejects a malformed bound, not only ``semigroup``."""
        text = PLANAR.read_text() + "[job]\nbound = x y\n"
        path = tmp_path / "c.cfg"
        path.write_text(text)
        no = text.count("\n")
        error = f"error[parse]: bad bound 'x y' for type C at line {no}\n"
        for command in COMMANDS:
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr() == ("", error)


class TestTable:
    def test_matches_golden(self, capsys):
        assert main(["table", "--config", str(PLANAR)]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_out_file_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["table", "--config", str(PLANAR), "--out", str(first)]) == 0
        assert main(["table", "--config", str(PLANAR), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == GOLDEN.read_bytes()

    def test_mode_flag_overrides(self, capsys):
        code = main(["table", "--config", str(PLANAR), "--mode", "full"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 17
        assert lines[1] == '"(0,0)",00,11,2,2,2,-1,2'

    def test_limit_prints_notice(self, tmp_path, capsys):
        path = tmp_path / "capped.cfg"
        path.write_text(PLANAR.read_text() + "\n[job]\nlimit = 4\n")
        assert main(["table", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 5
        assert "note: table limited to 4 rows" in captured.err

    @pytest.mark.parametrize("limit", [10, 100])
    def test_limit_that_drops_no_row_prints_no_notice(self, tmp_path, capsys, limit):
        path = tmp_path / "uncapped.cfg"
        path.write_text(PLANAR.read_text() + f"\n[job]\nlimit = {limit}\n")
        assert main(["table", "--config", str(path)]) == 0
        assert capsys.readouterr() == (GOLDEN.read_text(), "")

    def test_negative_limit_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "negative.cfg"
        path.write_text(PLANAR.read_text() + "\n[job]\nlimit = -1\n")
        assert main(["table", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[domain]: limit must be >= 0, got -1\n"

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["table", "--config", str(PLANAR), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.parent.exists()
        assert captured.err.startswith("error[parse]: cannot write output: ")
        assert str(out) in captured.err

    def test_table_without_points_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "nopoints.cfg"
        path.write_text(FIELD_7 + "[delta]\ntype = C\nunder = 11 9\n")
        assert main(["table", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error[domain]:")

    @pytest.mark.parametrize(
        "depth, message",
        [(0, "depth must be at least 1"), (3, "depth exceeds the generator count")],
    )
    def test_a_bad_depth_is_reported_before_the_missing_points(
        self, tmp_path, capsys, depth, message
    ):
        """The depth is checked before the points are read, so a config with
        neither a family at its depth nor any point reports the depth."""
        path = tmp_path / "depth.cfg"
        path.write_text(FIELD_7 + f"[delta]\ntype = N\nunder = 6 4 3\n[job]\ndepth = {depth}\n")
        assert main(["table", "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error[domain]: {message}\n")


# The reference scans of the acceptance suite besides the golden table, as
# configs: the [delta] section, the field, the points and the [job] section.
# The digests are the first 16 hex digits of the sha256 of each table as the
# library printed it while it still multiplied every approximant out.
_F7_SCAN = ("p = 7", [f"{x} {y}" for x, y in POINTS_F7], "")
_F32_SCAN_A = ("p = 2\nm = 5", [f"g^{a} g^{b}" for a, b in PAIRS_F32_A], "limit = 9")
_F32_SCAN_B = ("p = 2\nm = 5", [f"g^{a} g^{b}" for a, b in PAIRS_F32_B], "limit = 9")
REFERENCE_SCANS = {
    "f7 quadratic": ("type = D\nunder = 11 9\ndigits = 80 1 2", _F7_SCAN, "7cf5a6cc11e80327"),
    "f7 chain": ("type = E\nunder = 11 9\nsteps = 4", _F7_SCAN, "c2a7ef0eedf252d1"),
    "first-extension plane-vector": (
        "type = C\nunder = 42 30 70 77", _F32_SCAN_A, "68ba2e1b3ebcb5a2"
    ),
    "second-extension pair": ("type = C\nunder = 5 3", _F32_SCAN_A, "9a92f1e90127f505"),
    "second-extension triple": ("type = C\nunder = 20 8 29", _F32_SCAN_A, "42a1acebadf1c8b7"),
    "large plane-vector": ("type = C\nunder = 36 24 8 18 13", _F32_SCAN_A, "edf17c503b345f21"),
    "large quadratic": (
        "type = D\nunder = 36 24 8 18 13\ndigits = 20 5 2", _F32_SCAN_A, "8cc0b9a6491b5688"
    ),
    "large chain": (
        "type = E\nunder = 36 24 8 18 13\nsteps = 3", _F32_SCAN_A, "ae004caacbd50e2e"
    ),
    "small plane-vector": ("type = C\nunder = 7 5", _F32_SCAN_B, "4d99460784397f0b"),
    "small quadratic": ("type = D\nunder = 7 5\ndigits = 28 3 1", _F32_SCAN_B, "8c8265eaac5739c9"),
    "small chain": ("type = E\nunder = 7 5\nsteps = 4", _F32_SCAN_B, "11c3da8cdaa0cb03"),
}


def reference_config(name: str) -> JobConfig:
    delta, (field, points, job), _ = REFERENCE_SCANS[name]
    text = f"[field]\n{field}\n[delta]\n{delta}\n[points]\n" + "\n".join(points)
    return parse_config(text + f"\n[job]\n{job}\n").replace(command="table")


class TestTableFromTheRecurrence:
    """A table job reads the family's recurrence and the values at the
    points; it multiplies no polynomial out."""

    @pytest.fixture(autouse=True)
    def no_products(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table job multiplied a polynomial")

        monkeypatch.setattr(BivarPoly, "__mul__", refuse)
        monkeypatch.setattr(BivarPoly, "__pow__", refuse)

    @pytest.mark.parametrize("name", sorted(REFERENCE_SCANS))
    def test_reference_scan_is_unchanged(self, name):
        out = run(reference_config(name))
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == REFERENCE_SCANS[name][2]

    def test_golden_table_is_unchanged(self):
        config = parse_config(PLANAR.read_text()).replace(command="table")
        assert run(config) == GOLDEN.read_text()

    def test_forty_chain_steps(self):
        """No expansion, so 40 steps of the chain (7, 5) take about 0.1 s
        (they did not finish in 40 s when every q_i was multiplied out)."""
        points = "".join(f"g^{a} g^{a + 1}\n" for a in range(1, 17, 2))
        config = parse_config(
            "[field]\np = 2\nm = 5\n[delta]\ntype = E\nunder = 7 5\nsteps = 40\n"
            "[points]\n" + points
        ).replace(command="table")
        start = time.perf_counter()
        lines = run(config).splitlines()
        assert time.perf_counter() - start < 5
        assert lines[1] == "1,010000000000000000000000000000000000000000,6,3,2,2,0,-10"
        assert len(lines) == 7

    @pytest.mark.parametrize("command", ["construct", "validate", "table"])
    def test_the_chain_at_the_step_limit_keeps_its_bytes(self, capsys, command):
        """tests/data/chain75_150.cfg, the chain (7, 5) at the step limit,
        prints what it printed while every step validated the whole stage:
        the sha256 digests in chain75_150.sha256."""
        digests = dict(
            line.split()[::-1] for line in (DATA / "chain75_150.sha256").read_text().splitlines()
        )
        assert main([command, "--config", str(DATA / "chain75_150.cfg")]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digests[command]

    def test_the_step_limit_keeps_its_time_budget(self):
        """A table job, one of the costliest commands on a chain, at the
        step limit: about 2 s, here allowed five times that."""
        points = "".join(f"g^{a} g^{a + 1}\n" for a in range(1, 17, 2))
        config = parse_config(
            "[field]\np = 2\nm = 5\n[delta]\ntype = E\nunder = 7 5\n"
            f"steps = {MAX_CHAIN_STEPS}\n[points]\n" + points
        ).replace(command="table")
        start = time.perf_counter()
        lines = run(config).splitlines()
        assert time.perf_counter() - start < 10
        assert len(lines) == 7


def _extension_fields():
    """Every extension field with q <= 256 under its default modulus, and
    GF(2^4) under x^4+x^3+x^2+x+1, in which g has order 5."""
    specs = [FieldSpec(p, m) for p, m in sorted(_DEFAULT_MODULI) if p**m <= 256]
    return specs + [FieldSpec(2, 4, 0x1F)]


@pytest.mark.parametrize("spec", _extension_fields(), ids=repr)
def test_power_points_come_from_the_power_table(spec):
    """g^k as a point coordinate is the encoded value of g raised to the
    power k, for k up to 2q (past the order of g) and for one k of 1,000
    digits."""
    g = spec.element(spec.p)
    assert len(spec._t.gpow) == (spec.q - 1 if spec.is_primitive else 5)
    for k in [*range(2 * spec.q + 1), int("7" * 1000)]:
        assert _coordinate(f"g^{k}", spec, 1) == (g**k).encoded
    assert _coordinate("g", spec, 1) == g.encoded


def test_a_power_point_table_job_builds_no_element_list():
    """A table job over F_256 with g^k points builds the field's tables but
    not the list of its 256 elements, and each coordinate still prints as
    the power it was written as."""
    tokens = [(f"g^{a}", f"g^{3 * a + 1}") for a in range(2, 40, 3)]
    points = "".join(f"{x} {y}\n" for x, y in tokens)
    config = parse_config(
        "[field]\np = 2\nm = 8\n" + DELTA_C + "[points]\n" + points
    ).replace(command="table")
    assert run(config).startswith("alpha,exp,k,d,d_ev,d_fr,fr_bound,goppa\n")
    assert "_t" in vars(config.spec) and "by_val" not in vars(config.spec._t)
    assert [(str(x), str(y)) for x, y in config.points] == tokens


# One config per sequence kind over the twelve points of the golden table,
# with a semigroup bound for each.
KIND_DELTAS = {
    "N": (DELTA_N, "40"),
    "C": (DELTA_C, "10 2"),
    "D": (DELTA_D, "3 2"),
    "E": (DELTA_E, "6"),
}


class TestInProcessDeterminism:
    def test_repeated_jobs_print_identical_output(self, tmp_path, capsys):
        """Every job prints the same bytes when run again in the same
        process after the other jobs ran in between."""
        points = PLANAR.read_text().partition("[points]")[2]
        jobs = []
        for kind, (delta, bound) in KIND_DELTAS.items():
            path = tmp_path / f"{kind}.cfg"
            path.write_text(FIELD_7 + delta + "[points]" + points + f"\n[job]\nbound = {bound}\n")
            jobs += [("table", "--config", str(path)), ("semigroup", "--config", str(path))]

        def outputs(order):
            out = {}
            for job in order:
                assert main(list(job)) == 0
                out[job] = capsys.readouterr().out
            return out

        first = outputs(jobs)
        assert all(first.values())
        assert outputs(jobs[::-1]) == first
        assert outputs(jobs[1::2] + jobs[::2]) == first


LISTING = """
import sys, time
from deltacodes.cli import main
start = time.perf_counter()
code = main(["semigroup", "--config", sys.argv[1], "--out", sys.argv[2]])
seconds = time.perf_counter() - start
status = open("/proc/self/status").read().split("VmHWM:")[1]
print(code, seconds, int(status.split()[0]) / 1024)
"""


def fresh_listing(tmp_path, delta: str, bound: str):
    """Run a ``semigroup`` listing with ``--out`` in a fresh interpreter:
    (seconds, peak resident MB, line count, sha256 of the output)."""
    config, listing = tmp_path / "listing.cfg", tmp_path / "listing.txt"
    config.write_text(FIELD_7 + "[delta]\n" + delta + f"[job]\nbound = {bound}\n")
    root = str(pathlib.Path(deltacodes.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", LISTING, str(config), str(listing)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    code, seconds, peak_mb = result.stdout.split()
    assert code == "0"
    digest, lines = hashlib.sha256(), 0
    with listing.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return float(seconds), float(peak_mb), lines, digest.hexdigest()


@pytest.mark.parametrize("name", ["chain119_semigroup", "planar_big_semigroup"])
def test_a_listing_equals_its_checked_in_text(name, capsys):
    """The listings of the configs in tests/data, a chain one past four
    appended generators and a planar one, as the text checked in beside
    each."""
    assert main(["semigroup", "--config", str(DATA / f"{name}.cfg")]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.txt").read_text()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_large_chain_listing_streams_in_bounded_memory(tmp_path):
    """The chain (11, 9) with 6 steps lists 744,757 members up to 160.  In a
    fresh interpreter the listing writes the same bytes as when it was built
    whole, within 50 MB peak resident: memory is one block of delta_0 values
    plus the text of each exponent tail, not the output.  On a 2-vCPU VM it
    takes about 0.47 s and 21 MB (0.72 s and 23 MB when each member was
    first built as a row tuple); built whole, it took 3.9 s and 319 MB."""
    seconds, peak_mb, lines, digest = fresh_listing(
        tmp_path, "type = E\nunder = 11 9\nsteps = 6\n", "160"
    )
    assert peak_mb <= 50, (seconds, peak_mb)
    assert lines == 744_757
    assert digest == "a456418f5788d285e4ce5fc8a42cd9c34e1ede9098f408e9785a7cc414f6058a"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize(
    "delta, bound, count, expected",
    [
        (
            "type = C\nunder = 36 24 8 18 13\n",
            "4000 0",
            1_138_582,
            "a8d87d9be6b9fd1bd3ad1fe48d83a2837090d6351191f09e0784c3f38fe0fe03",
        ),
        (
            "type = D\nunder = 36 24 8 18 13\ndigits = 20 5 2\n",
            "60",
            171_830,
            "1138446c941a161fd970c9b3568d16c97d27a8a49b859a0521bc2858498c540c",
        ),
    ],
    ids=["planar", "quadratic"],
)
def test_a_large_head_listing_streams_in_bounded_memory(tmp_path, delta, bound, count, expected):
    """The planar and quadratic listings hold one sub-window of rows at a
    time, so their peak does not grow with the output: the same bytes as
    when the whole window was sorted at once, within 50 MB peak resident.
    On a 2-vCPU VM the planar one takes about 2 s and 23 MB, the quadratic
    one 0.33 s and 22 MB.  Built whole, the quadratic one peaked at 67 MB and
    the planar listing grew with its output: 104 MB up to 2000 0, 1.46 GB up
    to 8000 0."""
    seconds, peak_mb, lines, digest = fresh_listing(tmp_path, delta, bound)
    assert peak_mb <= 50, (seconds, peak_mb)
    assert (lines, digest) == (count, expected)


class TestEntryPoint:
    def test_module_invocation_exit_codes(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(FIELD_7 + "[delta]\ntype = N\nunder = 9 11\n")
        result = subprocess.run(
            [sys.executable, "-m", "deltacodes.cli", "validate", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "condition (3)" in result.stderr

    def test_run_requires_command(self):
        config = parse_config(FIELD_7 + DELTA_N)
        with pytest.raises(Exception, match="unknown command"):
            run(config)

    def test_a_table_job_loads_no_argparse(self):
        """Neither importing the command line nor running a table job, in a
        fresh interpreter, loads argparse or what it imports."""
        root = str(pathlib.Path(deltacodes.__file__).parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "FORBIDDEN = ('argparse', 'gettext', 'locale')\n"
            "before = set(sys.modules)\n"
            "def loaded():\n"
            "    return [m for m in FORBIDDEN if m in set(sys.modules) - before]\n"
            "import deltacodes.cli\n"
            "on_import = loaded()\n"
            f"code = deltacodes.cli.main(['table', '--config', {str(PLANAR)!r}])\n"
            "sys.stderr.write(f'{code} {on_import} {loaded()}')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.stderr == "0 [] []"
        assert result.stdout == GOLDEN.read_text()


# --- the command line ---------------------------------------------------------


def read_argv(argv):
    """What ``cli._command_line`` makes of argv: its tuple, or the exit code
    with stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            return _command_line(argv)
    except SystemExit as exc:
        return exc.code, stdout.getvalue(), stderr.getvalue()


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["table", "--config", "a"], ("table", "a", None, None)),
            (["table", "--config=a", "--out=b", "--mode=full"], ("table", "a", "b", "full")),
            (["table", "--c", "a", "--o", "b", "--m", "full"], ("table", "a", "b", "full")),
            (["table", "--conf=a", "--mo=jumps"], ("table", "a", None, "jumps")),
            (["semigroup", "--out", "b", "--config", "a"], ("semigroup", "a", "b", None)),
            (["table", "--config", "a", "--config", "b", "--mode", "full", "--mode", "jumps"],
             ("table", "b", None, "jumps")),
            (["validate", "--config=-a", "--out="], ("validate", "-a", "", None)),
            (["construct", "--config", "table"], ("construct", "table", None, None)),
        ],
    )
    def test_grammar(self, argv, expected):
        assert read_argv(argv) == expected

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["--he"], ["table", "-h"], ["semigroup", "--stray", "--help"]]
    )
    def test_help_prints_to_stdout_and_exits_0(self, argv):
        code, out, err = read_argv(argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: deltacodes ") and "--mode MODE" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["tables", "--config", "a"], "invalid command 'tables'"),
            (["table"], "the following arguments are required: --config"),
            (["table", "--config"], "argument --config: expected one argument"),
            (["table", "--config", "-a"], "argument --config: expected one argument"),
            (["table", "--config", "a", "--mode", "all"],
             "argument --mode: invalid choice: 'all'"),
            (["validate", "--config", "a", "--mode", "full"],
             "unrecognized arguments: --mode full"),
            (["--config", "a", "table"], "invalid command 'a'"),
            (["table", "--config", "a", "--", "b"], "unrecognized arguments: -- b"),
            (["table", "--config", "a", "--help=x"], "ignored explicit argument 'x'"),
            # an error before -h in reading order stops first
            (["table", "--mode", "all", "-h"], "invalid choice: 'all'"),
        ],
    )
    def test_bad_command_line_exits_2(self, argv, message):
        code, out, err = read_argv(argv)
        assert code == 2 and out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: deltacodes ")
        assert error.startswith("deltacodes: error: ") and message in error

    def test_main_exits_2_on_a_bad_command_line(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table", "--mode", "full"])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith("required: --config\n")


# The parts an argv of the differential test is drawn from.
NAMES = ("--config", "--out", "--mode")
SPELLINGS = {name: [name[:k] for k in range(3, len(name) + 1)] for name in NAMES}
HELPS = ["-h", "--h", "--he", "--hel", "--help"]
WORDS = list(COMMANDS) + ["frobnicate", "jumps", "full", "sideways"]
PATHS = st.text("abcxyz019._/", min_size=1, max_size=8)
VALUES = st.one_of(st.sampled_from(WORDS), PATHS)


@st.composite
def option_with_value(draw):
    """One option spelled in full or as a prefix, with its value as the
    next argument or after "="."""
    name = draw(st.sampled_from(NAMES))
    spelling = draw(st.sampled_from(SPELLINGS[name]))
    value = draw(st.sampled_from(["jumps", "full", "sideways"]) if name == "--mode" else VALUES)
    return [f"{spelling}={value}"] if draw(st.booleans()) else [spelling, value]


ARGV_TOKENS = st.one_of(
    st.sampled_from(WORDS + HELPS + [s for name in NAMES for s in SPELLINGS[name]]),
    option_with_value().map(lambda parts: parts[0]),
    PATHS,
)


@st.composite
def command_lines(draw):
    """A command followed by options, at times with up to two loose tokens
    put anywhere; or any short list of tokens."""
    if draw(st.booleans()):
        return draw(st.lists(ARGV_TOKENS, max_size=8))
    argv = [draw(st.sampled_from(list(COMMANDS) + ["frobnicate"]))]
    for parts in draw(st.lists(option_with_value(), min_size=1, max_size=4)):
        argv += parts
    for token in draw(st.lists(ARGV_TOKENS, max_size=2)) if draw(st.booleans()) else ():
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def argparse_outcome(argv):
    """What the argparse reader the command line replaced makes of argv: the
    same tuple, or the exit code."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            args = oracles._parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return args.command, args.config, args.out, getattr(args, "mode", None)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(command_lines())
@example(["table", "--conf=a", "--m", "full", "--config", "b"])
@example(["--config", "a", "-h"])
@example(["validate", "--config", "a", "--mode", "full"])
@example(["table", "--mode", "sideways", "--help"])
def test_the_reader_agrees_with_argparse(argv):
    """The same (command, config, out, mode) or the same exit code as the
    argparse parser.  Values that begin with "-" and the "--" separator are
    left out: the reader takes such a token for an option (a value that
    begins with "-" needs the "=" form), where argparse also reads negative
    numbers, "-" and anything after "--" as values."""
    ours = read_argv(argv)
    if isinstance(ours[0], str):
        assert ours == argparse_outcome(argv)
        return
    code, out, err = ours
    assert code == argparse_outcome(argv)
    if code == 0:
        assert out.startswith("usage: deltacodes ") and err == ""
    else:
        assert out == "" and err.startswith("usage: deltacodes ") and "deltacodes: error: " in err


# --- fuzzing ----------------------------------------------------------------
#
# Random configs and mutations of the ones above.  The sizes stay small (p at
# most 13, bounds at most 20, at most 4 steps and 12 points), so no input
# reaches the distance search or the semigroup listing in the ranges where
# they have no bound.

FUZZ_BOUNDS = {"N": "20", "C": "10 2", "D": "3 2", "E": "6"}
FUZZ_BASES = [PLANAR.read_text()] + [
    FIELD_7 + delta + "[points]" + PLANAR.read_text().partition("[points]")[2]
    + f"\n[job]\nbound = {FUZZ_BOUNDS[kind]}\n"
    for kind, (delta, _) in KIND_DELTAS.items()
]
TOKENS = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["", "x", "0x25", "1 2", "3 2", "2 5, 2 19", "g", "g^2", "g^x"]),
    st.sampled_from(["N", "D", "E", "full", "[job]"]),
)


@st.composite
def random_configs(draw):
    p, m = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1)]))
    kind = draw(st.sampled_from("NCDE"))
    small = st.integers(1, 20)
    lines = ["[field]", f"p = {p}", f"m = {m}", "[delta]", f"type = {kind}"]
    # any coprime pair a > b is a delta-sequence; a random list seldom is
    pairs = st.tuples(small, small).filter(lambda ab: ab[0] > ab[1] and math.gcd(*ab) == 1)
    under = draw(st.one_of(pairs, st.lists(small, min_size=1, max_size=3)))
    lines.append("under = " + " ".join(map(str, under)))
    if kind == "D":
        digits = draw(st.lists(st.integers(0, 5), min_size=2, max_size=4))
        lines.append("digits = " + " ".join(map(str, digits)))
    if kind == "E":
        lines.append(f"steps = {draw(st.integers(0, 4))}")
        choices = draw(st.lists(st.tuples(st.integers(1, 5), small), max_size=2))
        if choices:
            lines.append("choices = " + ", ".join(f"{z} {new}" for z, new in choices))
    points = draw(st.lists(st.tuples(*[st.integers(0, p**m - 1)] * 2), max_size=12, unique=True))
    lines += ["[points]"] + [f"{x} {y}" for x, y in points]
    lines += ["[job]", f"mode = {draw(st.sampled_from(['jumps', 'full']))}"]
    bound = {"C": "{} {}", "D": "{} 1"}.get(kind, "{}")
    lines.append("bound = " + bound.format(*draw(st.lists(small, min_size=2, max_size=2))))
    if draw(st.booleans()):
        lines.append(f"limit = {draw(st.integers(0, 12))}")
    return "\n".join(lines) + "\n"


@st.composite
def fuzz_configs(draw):
    """A random config or a base one, with up to three lines dropped,
    duplicated, swapped, or given a random value."""
    lines = draw(st.one_of(st.sampled_from(FUZZ_BASES), random_configs())).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "duplicate", "swap", "replace"]))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(j, lines[i])
        elif action == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            key, sep, _ = lines[i].partition("=")
            lines[i] = key + sep + " " + draw(TOKENS) if sep else draw(TOKENS)
    return "\n".join(lines) + "\n"


def run_every_command(path):
    """Each command's exit code, stdout and stderr; any other exception
    escapes."""
    out = []
    for command in COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([command, "--config", path])
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


MODULUS_CFG = "[field]\np = 2\nm = 5\nmodulus = 0x25\n" + F32_C
HUGE_PRIME_CFG = "[field]\np = 2305843009213693951\n" + DELTA_N
HUGE_EXPONENT_CFG = "[field]\np = 2\nm = 100000000\n" + DELTA_N
NEGATIVE_LIMIT_CFG = PLANAR.read_text() + "[job]\nlimit = -1\n"
SUPERSCRIPT_POWER_CFG = POWER_CFG.format(power="\u00b2")
LONG_POWER_CFG = POWER_CFG.format(power="9" * 5000)
OVER_STEPS_CFG = (
    FIELD_7 + f"[delta]\ntype = E\nunder = 7 5\nsteps = {MAX_CHAIN_STEPS + 1}\n"
    + "[job]\nbound = 6\n"
)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fuzz_configs())
@example(MODULUS_CFG)
@example(HUGE_PRIME_CFG)
@example(HUGE_EXPONENT_CFG)
@example(NEGATIVE_LIMIT_CFG)
@example(SUPERSCRIPT_POWER_CFG)
@example(LONG_POWER_CFG)
@example(OVER_STEPS_CFG)
def test_fuzzed_configs_exit_cleanly_and_repeat(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "fuzz.cfg")
        pathlib.Path(path).write_text(text, encoding="utf-8")
        first = run_every_command(path)
        assert all(code in (0, 1, 2) for code, _, _ in first)
        assert run_every_command(path) == first
