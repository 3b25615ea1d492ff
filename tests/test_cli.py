"""Config parsing, subcommand output, and exit codes of the command line."""

import pathlib
import subprocess
import sys

import pytest

from deltacodes.cli import main, parse_config, run
from deltacodes.errors import ConfigError

DATA = pathlib.Path(__file__).parent / "data"
PLANAR = DATA / "planar119.cfg"
GOLDEN = DATA / "golden_table2.csv"

FIELD_7 = "[field]\np = 7\n"
DELTA_N = "[delta]\ntype = N\nunder = 11 9\n"
DELTA_D = "[delta]\ntype = D\nunder = 11 9\ndigits = 80 1 2\n"
DELTA_E = "[delta]\ntype = E\nunder = 3 1\nsteps = 2\nchoices = 2 5, 2 19\n"


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

    def test_point_arity(self):
        text = FIELD_7 + DELTA_N + "[points]\n1 2 3\n"
        assert "two coordinates at line 7" in parse_error(text)

    def test_power_coordinates(self):
        text = "[field]\np = 2\nm = 5\n" + DELTA_N + "[points]\ng^5 g^3\ng 1\n"
        config = parse_config(text)
        xi = config.spec.element(2)
        assert config.points[0] == (xi**5, xi**3)
        assert config.points[1] == (xi, config.spec.element(1))

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
        path = tmp_path / "c.cfg"
        path.write_text(
            FIELD_7 + "[delta]\ntype = C\nunder = 6 3 1\n[job]\nbound = 3 3\n"
        )
        assert main(["semigroup", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "enumeration is infinite" in err

    def test_semigroup_needs_bound(self, tmp_path, capsys):
        path = tmp_path / "n.cfg"
        path.write_text(FIELD_7 + DELTA_N)
        assert main(["semigroup", "--config", str(path)]) == 2
        assert "needs a 'bound' key" in capsys.readouterr().err

    def test_bad_bound(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(
            FIELD_7 + "[delta]\ntype = C\nunder = 11 9\n[job]\nbound = x y\n"
        )
        assert main(["semigroup", "--config", str(path)]) == 2
        assert "bad bound" in capsys.readouterr().err


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

    def test_table_without_points_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "nopoints.cfg"
        path.write_text(FIELD_7 + "[delta]\ntype = C\nunder = 11 9\n")
        assert main(["table", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error[domain]:")


# One config per sequence kind over the twelve points of the golden table,
# with a semigroup bound for each.
KIND_DELTAS = {
    "N": (DELTA_N, "40"),
    "C": ("[delta]\ntype = C\nunder = 11 9\n", "10 2"),
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
