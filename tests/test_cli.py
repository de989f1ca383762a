"""End-to-end tests of the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes, stdout and
stderr can be asserted exactly; one subprocess smoke test covers the
installed console script.  The JSON forms are round-tripped through the
library parsers to keep the documented schemas honest.
"""

import argparse
import json
import random
import shutil
import subprocess

import pytest

from stackbrauer.abelian import IntegerMatrix
from stackbrauer.cli import _FLAGS, _build_parser, main, parse_matrix
from stackbrauer.covers import AdmissibleDatum, sector_report
from stackbrauer.rootdata import SemisimpleGroupSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestMatrixLiteral:
    def test_parse_matrix(self):
        assert parse_matrix("2,-1;-1,2") == IntegerMatrix([[2, -1], [-1, 2]])
        assert parse_matrix(" 1 , 0 ; 0 , 1 ") == IntegerMatrix.identity(2)

    def test_parse_matrix_rejects_bad_literals(self):
        from stackbrauer.cli import UsageError

        with pytest.raises(UsageError):
            parse_matrix("1,2;3")  # ragged
        with pytest.raises(UsageError):
            parse_matrix("1,x")


class TestSnfCommand:
    def test_table_output(self, capsys):
        code, out, err = run_cli(capsys, "snf", "2,-1;-1,2")
        assert code == 0 and err == ""
        assert "d = [1, 3]" in out
        assert "U =" in out and "V =" in out

    def test_json_output_reconstructs(self, capsys):
        code, out, _ = run_cli(capsys, "snf", "6,4;4,8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"d", "U", "V"}
        a = IntegerMatrix([[6, 4], [4, 8]])
        u = IntegerMatrix(doc["U"])
        v = IntegerMatrix(doc["V"])
        product = u @ a @ v
        assert product == IntegerMatrix.diagonal(doc["d"])
        assert doc["d"] == [2, 16]

    def test_80x80_json_answers(self, capsys):
        # Its transforms once grew past the 4300-digit limit on int -> str.
        rng = random.Random(0)
        rows = [[rng.randint(-50, 50) for _ in range(80)] for _ in range(80)]
        literal = ";".join(",".join(str(x) for x in row) for row in rows)
        code, out, err = run_cli(capsys, "snf", "--json", "--", literal)
        assert code == 0 and err == ""
        doc = json.loads(out)
        a = IntegerMatrix(rows)
        assert IntegerMatrix(doc["U"]) @ a @ IntegerMatrix(doc["V"]) == IntegerMatrix.diagonal(doc["d"])

    def test_bad_literal_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "snf", "1,2;3")
        assert code == 2 and out == ""
        assert "error:" in err


class TestBrBgCommand:
    def test_adjoint_default(self, capsys):
        code, out, _ = run_cli(capsys, "br-bg", "--type", "A1")
        assert code == 0 and out.strip() == "Z/2"

    def test_trivial_center(self, capsys):
        code, out, _ = run_cli(capsys, "br-bg", "--type", "A1", "--center", "trivial")
        assert code == 0 and out.strip() == "trivial"

    def test_generator_literal(self, capsys):
        code, out, _ = run_cli(capsys, "br-bg", "--type", "A3", "--center", "gens=2")
        assert code == 0 and out.strip() == "Z/2"

    def test_multi_factor(self, capsys):
        code, out, _ = run_cli(capsys, "br-bg", "--type", "A1,A1")
        assert code == 0 and out.strip() == "Z/2 x Z/2"

    def test_spec_json(self, capsys):
        spec = '{"factors": ["A3"], "central_generators": [[2]]}'
        code, out, _ = run_cli(capsys, "br-bg", "--spec", spec)
        assert code == 0 and out.strip() == "Z/2"

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "br-bg", "--type", "A3,D4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"factors", "central_generators", "fundamental_group", "brauer_group"}
        again = SemisimpleGroupSpec.from_json(doc)
        assert [str(t) for t in again.factors] == ["A3", "D4"]
        assert doc["fundamental_group"] == doc["brauer_group"] == [2, 2, 4]

    def test_spec_and_type_conflict(self, capsys):
        code, _, err = run_cli(capsys, "br-bg", "--type", "A1", "--spec", "{}")
        assert code == 2 and "do not combine" in err

    def test_missing_type_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "br-bg")
        assert code == 2 and "error:" in err

    def test_bad_type_and_bad_center(self, capsys):
        assert run_cli(capsys, "br-bg", "--type", "Q5")[0] == 2
        assert run_cli(capsys, "br-bg", "--type", "A1", "--center", "half")[0] == 2
        assert run_cli(capsys, "br-bg", "--spec", "not json")[0] == 2

    @pytest.mark.parametrize("spec", [
        "[1,2]",
        "null",
        "3",
        '"A1"',
        '{"factors": ["A1"], "central_generators": [[1e400]]}',
        '{"factors": [["A", 1.5]]}',
        '{"factors": [["A", true]]}',
        '{"factors": ["A1"], "central_generators": [[1.9]]}',
    ], ids=["list", "null", "number", "string", "overflow", "float-rank", "bool-rank",
            "float-coordinate"])
    def test_malformed_spec_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "br-bg", "--spec", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: bad group spec: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec, field", [
        ('{"factors": "A12"}', "factors"),
        ('{"factors": {"A1": 1}}', "factors"),
        ('{"factors": [5]}', "factor"),
        ('{"factors": ["A1"], "central_generators": 5}', "central_generators"),
        ('{"factors": ["A1"], "central_generators": "1"}', "central_generators"),
        ('{"factors": ["A1"], "central_generators": [1]}', "central generator"),
        ('{"factors": ["A1"], "central_generators": ["1"]}', "central generator"),
    ], ids=["factors-string", "factors-object", "factor-number", "generators-number",
            "generators-string", "generator-number", "generator-string"])
    def test_non_array_spec_field_exits_2(self, capsys, spec, field):
        code, out, err = run_cli(capsys, "br-bg", "--spec", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: bad group spec: ") and err.count("\n") == 1
        assert f"{field} must be a JSON array" in err

    @pytest.mark.parametrize("pair", ['[]', '["A"]', '["A", 3, 4]'],
                             ids=["empty", "one", "three"])
    def test_family_rank_pair_length_exits_2(self, capsys, pair):
        spec = '{"factors": [%s]}' % pair
        code, out, err = run_cli(capsys, "br-bg", "--spec", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: bad group spec: ") and err.count("\n") == 1
        assert "each non-name factor must be a [family, rank] pair" in err

    def test_generator_arity_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "br-bg", "--type", "A1", "--center", "gens=1,0")
        assert code == 2 and "error:" in err


class TestEnumerateCommand:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--g", "2", "--N", "2")
        assert code == 0
        assert out.splitlines() == ["(g'=0, N=2, d=[6])", "(g'=1, N=2, d=[2])"]

    def test_quotient_genus_filter(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--g", "2", "--N", "2", "--gq", "0")
        assert code == 0
        assert out.splitlines() == ["(g'=0, N=2, d=[6])"]

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--g", "2", "--N", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["g"] == 2 and doc["N"] == 3 and doc["quotient_genus"] is None
        data = [AdmissibleDatum.from_json(item) for item in doc["data"]]
        assert data == [AdmissibleDatum(0, 3, (2, 2))]

    def test_empty_listing_is_success(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--g", "2", "--N", "7")
        assert code == 0 and out == ""

    def test_domain_errors_exit_2(self, capsys):
        assert run_cli(capsys, "enumerate", "--g", "1", "--N", "2")[0] == 2
        assert run_cli(capsys, "enumerate", "--g", "2", "--N", "1")[0] == 2

    def test_recursion_depth_exits_3(self, capsys, monkeypatch):
        # No valid input exhausts the recursion limit any more; a stand-in
        # search raises RecursionError as an exhausted recursion would.
        def exhaust(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("stackbrauer.cli.enumerate_admissible", exhaust)
        code, out, err = run_cli(capsys, "enumerate", "--g", "2", "--N", "1200")
        assert code == 3 and out == ""
        assert err.startswith("error: out of resources: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_memory_error_exits_3(self, capsys, monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("stackbrauer.cli.smith_normal_form", exhaust)
        code, out, err = run_cli(capsys, "snf", "2,-1;-1,2")
        assert (code, out, err) == (3, "", "error: out of resources: MemoryError\n")


class TestInertiaCommand:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "inertia", "--g", "2", "--N", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert "connected" in lines[0] and "H2=Z/2" in lines[0] and "class=nontrivial" in lines[0]
        assert lines[1].rstrip().endswith("-")  # no Brauer column for g' > 0

    def test_genus0_only_filter(self, capsys):
        code, out, _ = run_cli(capsys, "inertia", "--g", "2", "--N", "2", "--genus0-only")
        assert code == 0
        assert len(out.splitlines()) == 1 and "g'=0" in out

    def test_json_matches_library_reports(self, capsys):
        code, out, _ = run_cli(capsys, "inertia", "--g", "2", "--N", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["g"] == 2 and doc["N"] == 2
        expected = [
            sector_report(AdmissibleDatum(0, 2, (6,)), genus=2).to_json(),
            sector_report(AdmissibleDatum(1, 2, (2,)), genus=2).to_json(),
        ]
        assert doc["sectors"] == expected
        assert doc["sectors"][0]["brauer"]["d_over_N"] == 3

    def test_empty_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "inertia", "--g", "2", "--N", "7", "--json")
        assert code == 0
        assert json.loads(out)["sectors"] == []


class TestClassifyCommand:
    def test_admissible_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--datum", "0,2,6")
        assert code == 0
        assert "admissible:   yes" in out
        assert "connected:    connected" in out
        assert "class:        nontrivial" in out

    def test_json_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--datum", "0,2,6", "--json")
        assert code == 0
        assert json.loads(out) == sector_report(AdmissibleDatum(0, 2, (6,))).to_json()

    def test_inadmissible_exits_1(self, capsys):
        # genus 4 but the weighted-degree congruence fails
        code, out, _ = run_cli(capsys, "classify", "--datum", "0,3,4,2")
        assert code == 1
        assert "admissible:   no (structural_equation)" in out

    def test_half_integral_genus_exits_1_with_structured_output(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--datum", "0,2,5")
        assert code == 1
        assert "not an integer" in out
        code, out, _ = run_cli(capsys, "classify", "--datum", "0,2,5", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "non_integral_genus"
        assert doc["total_genus"] == "3/2"

    def test_parse_errors_exit_2(self, capsys):
        assert run_cli(capsys, "classify", "--datum", "0,2,x")[0] == 2
        assert run_cli(capsys, "classify", "--datum", "0,3,1")[0] == 2
        assert run_cli(capsys, "classify", "--datum", "0")[0] == 2


class TestLeadingMinus:
    """Literals that start with "-" are values, not option flags."""

    def test_snf_positional(self, capsys):
        code, out, err = run_cli(capsys, "snf", "-1,0;0,1")
        assert code == 0 and err == ""
        assert out.startswith("d = [1, 1]\n")

    def test_snf_matches_double_dash_form(self, capsys):
        want = run_cli(capsys, "snf", "--json", "--", "-2,1;1,-2")
        assert want[0] == 0
        assert run_cli(capsys, "snf", "--json", "-2,1;1,-2") == want
        assert run_cli(capsys, "snf", "-2,1;1,-2", "--json") == want

    def test_classify_option_value(self, capsys):
        want = run_cli(capsys, "classify", "--datum=-1,2,6")
        assert want == (2, "", "error: quotient genus -1 is negative\n")
        assert run_cli(capsys, "classify", "--datum", "-1,2,6") == want

    def test_classify_negative_zero_answers(self, capsys):
        want = run_cli(capsys, "classify", "--datum", "0,2,6", "--json")
        assert want[0] == 0
        assert run_cli(capsys, "classify", "--datum", "-0,2,6", "--json") == want

    def test_negative_number_option_unchanged(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--g", "2", "--N", "2", "--gq", "-1")
        assert (code, out) == (2, "")
        assert err == "error: quotient genus filter must be nonnegative\n"

    def test_abbreviated_flag(self, capsys):
        want = run_cli(capsys, "snf", "--json", "--", "-1,0;0,1")
        assert want[0] == 0
        assert run_cli(capsys, "snf", "--js", "-1,0;0,1") == want

    def test_literal_before_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["-1,0;0,1", "snf"])
        assert exc.value.code == 2

    def test_flags_match_parser(self):
        # argparse lists its actions only in private attributes
        parser = _build_parser()
        parsers = [parser]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
        flags = {option for p in parsers for action in p._actions if action.nargs == 0
                 for option in action.option_strings if option.startswith("--")}
        assert _FLAGS == flags


class TestParserBehaviour:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["paint"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--g", "2"])
        assert exc.value.code == 2


def test_console_script_smoke():
    exe = shutil.which("stackbrauer")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "snf", "2,-1;-1,2"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    assert "d = [1, 3]" in proc.stdout
