"""Subcommand dispatch, grammars, exit codes, output determinism."""

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ehpcalc
from ehpcalc import cli, ehp
from ehpcalc.cli import MAX_NESTING, main, parse_space
from ehpcalc.ehp import signed_preimages
from ehpcalc.errors import DomainError
from ehpcalc.james import james_census
from ehpcalc.simplicial import SSet, build_sphere, product, smash, sset_dumps, wedge


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestPinnedOutputs:
    def test_hp_case_with_invariants(self, capsys):
        code, out, _ = run_cli(
            ["ehp", "hp", "-p", "2", "-q", "1", "--field", "real-closed"], capsys
        )
        assert code == 0
        assert out == "h (rank 2, signature 0)\n"

    def test_homology_of_truncation(self, capsys):
        code, out, _ = run_cli(["homology", "--space", "J(S1,2)"], capsys)
        assert code == 0
        assert out == "{1: Z, 2: Z}\n"

    def test_hopf_word(self, capsys):
        code, out, _ = run_cli(["hopf", "--word", "x|y|z", "-r", "2"], capsys)
        assert code == 0
        assert out == "(x^y)(x^z)(y^z)\n"


class TestSpaceGrammar:
    def test_sphere(self, capsys):
        assert run_cli(["homology", "--space", "S2"], capsys)[1] == "{2: Z}\n"

    def test_wedge(self, capsys):
        assert run_cli(["homology", "--space", "S1 + S1"], capsys)[1] == "{1: Z^2}\n"

    def test_smash(self, capsys):
        assert run_cli(["homology", "--space", "S1 ^ S1"], capsys)[1] == "{2: Z}\n"

    def test_product(self, capsys):
        code, out, _ = run_cli(["homology", "--space", "S1 x S1"], capsys)
        assert code == 0
        assert out == "{1: Z^2, 2: Z}\n"

    def test_point(self, capsys):
        assert run_cli(["homology", "--space", "pt"], capsys)[1] == "{}\n"

    def test_quotient(self, capsys):
        assert run_cli(["homology", "--space", "Q(S1,2)"], capsys)[1] == "{2: Z}\n"

    def test_parens_override_precedence(self, capsys):
        code, out, _ = run_cli(["homology", "--space", "(S1 + S1) ^ S1"], capsys)
        assert code == 0
        assert out == "{2: Z^2}\n"

    def test_smash_binds_tighter_than_wedge(self, capsys):
        code, out, _ = run_cli(["homology", "--space", "S1 + S1 ^ S1"], capsys)
        assert code == 0
        assert out == "{1: Z, 2: Z}\n"

    def test_wedge_chains_build_once_as_the_left_fold(self, monkeypatch):
        S1, S2, S3 = (build_sphere(n) for n in (1, 2, 3))
        for text, want in [("S1+S2+S3", wedge(wedge(S1, S2), S3)), ("(S1+S2)+S3", wedge(wedge(S1, S2), S3)),
                           ("S1+(S2+S3)", wedge(S1, wedge(S2, S3))),
                           ("S1+S2xS1+S3^S1+S1", wedge(wedge(wedge(S1, product(S2, S1)), smash(S3, S1)), S1))]:
            assert sset_dumps(parse_space(text)) == sset_dumps(want), text
        checked = []
        validate = SSet._validate
        monkeypatch.setattr(SSet, "_validate", lambda K: checked.append(K) or validate(K))
        parse_space("+".join(f"S{n}" for n in range(1, 9)))
        assert len(checked) == 8 + 1  # each sphere, then the wedge once

    def test_james_census(self, capsys):
        code, out, _ = run_cli(["james", "--space", "S1", "-n", "2"], capsys)
        assert code == 0
        assert out == "{0: 1, 1: 2, 2: 2}\n"

    def test_parse_errors(self, capsys):
        for expr in ["S1 +", "T2", "J(S1)", "S1 ^", "()"]:
            code, _, err = run_cli(["homology", "--space", expr], capsys)
            assert code == 2
            assert err.startswith("parse error:")

    def test_james_past_the_truncation_cap_answers(self, capsys):
        # J and Q come from tensor powers of chains, so the 2,000-generator
        # truncation cap no longer bounds them
        assert run_cli(["homology", "--space", "Q(S2,3)"], capsys) == (0, "{6: Z}\n", "")
        assert run_cli(["homology", "--space", "Q(S3,3)"], capsys) == (0, "{9: Z}\n", "")
        assert run_cli(["homology", "--space", "J(S1,6)"], capsys) == (
            0, "{1: Z, 2: Z, 3: Z, 4: Z, 5: Z, 6: Z}\n", "")

    def test_level_zero_is_domain_error(self, capsys):
        code, _, err = run_cli(["james", "--space", "S1", "-n", "0"], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_deep_nesting_is_parse_error(self, capsys):
        for space in ["(" * 1000 + "S1" + ")" * 1000, "J(" * 1000 + "S1" + ",1)" * 1000]:
            code, out, err = run_cli(["homology", "--space", space], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("parse error:") and "nested deeper" in err

    def test_nesting_up_to_the_limit_parses(self, capsys):
        depth = MAX_NESTING
        code, out, _ = run_cli(["homology", "--space", "(" * depth + "S1" + ")" * depth], capsys)
        assert code == 0
        assert out == "{1: Z}\n"
        code, _, _ = run_cli(["homology", "--space", "(" * (depth + 1) + "S1" + ")" * (depth + 1)], capsys)
        assert code == 2


class TestHopfCommand:
    def test_word_shorter_than_r(self, capsys):
        code, out, _ = run_cli(["hopf", "--word", "x|y", "-r", "3"], capsys)
        assert code == 0
        assert out == "*\n"

    def test_repeated_letters(self, capsys):
        code, out, _ = run_cli(["hopf", "--word", "x|y|x", "-r", "2"], capsys)
        assert code == 0
        assert out == "(x^y)(x^x)(y^x)\n"

    def test_degenerate_letters(self, capsys):
        code, out, _ = run_cli(
            ["hopf", "--word", "s0 x | y | y", "-r", "2", "--format", "json"], capsys
        )
        assert code == 0
        assert len(json.loads(out)["letters"]) == 3

    def test_bad_operator(self, capsys):
        code, _, err = run_cli(["hopf", "--word", "t0 x | y", "-r", "2"], capsys)
        assert code == 2

    def test_inconsistent_letter_dimensions(self, capsys):
        code, _, err = run_cli(["hopf", "--word", "x | s0 x", "-r", "1"], capsys)
        assert code == 1
        assert "inconsistent" in err


class TestGwCommand:
    def test_finite_field_cancellation(self, capsys):
        code, out, _ = run_cli(
            ["gw", "--expr", "<1> + <-1> - 2<g>", "--field", "f5"], capsys
        )
        assert code == 0
        assert out == "0 (rank 0, disc 1)\n"

    def test_non_residue_canonicalization(self, capsys):
        code, out, _ = run_cli(["gw", "--expr", "<2>", "--field", "f5"], capsys)
        assert code == 0
        assert out == "<g> (rank 1, disc g)\n"

    def test_real_closed_signature(self, capsys):
        code, out, _ = run_cli(
            ["gw", "--expr", "<1> + <-1>", "--field", "real-closed"], capsys
        )
        assert code == 0
        assert out == "<1> + <-1> (rank 2, disc -1, signature 0)\n"

    def test_bare_integer_term(self, capsys):
        code, out, _ = run_cli(["gw", "--expr", "2", "--field", "f5"], capsys)
        assert code == 0
        assert out == "2<1> (rank 2, disc 1)\n"

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            ["gw", "--expr", "2<3>", "--field", "rationals", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out) == {
            "disc": "1",
            "element": "2<3>",
            "field": "Q",
            "rank": 2,
            "signature": 2,
        }

    def test_bad_field_is_domain_error(self, capsys):
        code, _, err = run_cli(["gw", "--expr", "<1>", "--field", "f6"], capsys)
        assert code == 1

    def test_unknown_field_is_parse_error(self, capsys):
        code, _, _ = run_cli(["gw", "--expr", "<1>", "--field", "galois"], capsys)
        assert code == 2

    def test_zero_unit_is_domain_error(self, capsys):
        code, _, _ = run_cli(["gw", "--expr", "<0>", "--field", "f5"], capsys)
        assert code == 1

    def test_g_outside_finite_fields(self, capsys):
        code, _, _ = run_cli(["gw", "--expr", "<g>", "--field", "rationals"], capsys)
        assert code == 1

    def test_malformed_expression(self, capsys):
        code, _, err = run_cli(["gw", "--expr", "<1> <2>", "--field", "f5"], capsys)
        assert code == 2
        assert err.startswith("parse error:")

    # forms are stored as counts per square class, so a coefficient of
    # 10^12 costs no more than a coefficient of 1
    @pytest.mark.parametrize("field, expected", [
        ("f5", "999999999992<1> + <g> (rank 999999999993, disc g)"),
        ("q", "1000000000000<3> - 7<2> (rank 999999999993, disc 2, signature 999999999993)"),
        ("r", "999999999993<1> (rank 999999999993, disc 1, signature 999999999993)"),
        ("qbar", "999999999993<1> (rank 999999999993, disc 1)"),
    ])
    def test_large_coefficient(self, capsys, field, expected):
        code, out, _ = run_cli(["gw", "--expr", "1000000000000<3> - 7<2>", "--field", field], capsys)
        assert code == 0
        assert out == expected + "\n"

    def test_unit_at_the_trial_division_bound(self, capsys):
        code, out, _ = run_cli(["gw", "--expr", "<1000000000000>", "--field", "q"], capsys)
        assert code == 0
        assert out == "<1> (rank 1, disc 1, signature 1)\n"

    @pytest.mark.parametrize("unit", ["10000000000037", "-1000000000001", "1/1000000000001"])
    def test_unit_past_the_trial_division_bound(self, capsys, unit):
        code, _, err = run_cli(["gw", "--expr", f"<{unit}>", "--field", "q"], capsys)
        assert code == 1
        assert "square class" in err and "trial-division bound 1000000000000" in err

    def test_field_size_past_the_trial_division_bound(self, capsys):
        code, _, err = run_cli(["gw", "--expr", "<1>", "--field", "f10000000000037"], capsys)
        assert code == 1
        assert "field size 10000000000037 exceeds the trial-division bound" in err


class TestKmwCommand:
    def test_generator_normal_form(self, capsys):
        code, out, _ = run_cli(["kmw", "--expr", "[2]", "--field", "f5"], capsys)
        assert code == 0
        assert out == "[2] (degree 1; normal form (1, <1>+<g>))\n"

    def test_eta_normal_form(self, capsys):
        code, out, _ = run_cli(["kmw", "--expr", "eta", "--field", "f5"], capsys)
        assert code == 0
        assert out == "eta (degree -1; normal form <1>)\n"

    def test_degree_zero_form(self, capsys):
        code, out, _ = run_cli(["kmw", "--expr", "<2>", "--field", "f5"], capsys)
        assert code == 0
        assert out == "1 + eta [2] (degree 0; normal form <g>)\n"

    def test_products_and_sums(self, capsys):
        code, out, _ = run_cli(
            ["kmw", "--expr", "[2]*[3] + eta*[2]*[3]*[4]", "--field", "f5"], capsys
        )
        assert code == 0
        assert out == "[2] [3] + eta [2] [3] [4] (degree 2; normal form (0, 0))\n"

    def test_free_part_product(self, capsys):
        code, out, _ = run_cli(
            ["kmw", "--expr", "[2] + [3]", "--field", "quadratically-closed"], capsys
        )
        assert code == 0
        assert out == "[2] + [3] (degree 1; normal form (6, 0))\n"

    def test_unavailable_normal_form(self, capsys):
        code, out, _ = run_cli(["kmw", "--expr", "[2]", "--field", "rationals"], capsys)
        assert code == 0
        assert out == "[2] (degree 1; normal form unavailable)\n"

    def test_bracket_at_one_is_zero(self, capsys):
        code, out, _ = run_cli(["kmw", "--expr", "[1]", "--field", "f5"], capsys)
        assert code == 0
        assert out == "0 (zero)\n"

    def test_mixed_degrees_rejected(self, capsys):
        code, _, err = run_cli(["kmw", "--expr", "[2] + eta", "--field", "f5"], capsys)
        assert code == 1
        assert "degree" in err

    def test_zero_entry_rejected(self, capsys):
        code, _, _ = run_cli(["kmw", "--expr", "[0]", "--field", "f5"], capsys)
        assert code == 1

    def test_empty_bracket_is_parse_error(self, capsys):
        code, _, _ = run_cli(["kmw", "--expr", "[]", "--field", "f5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("coeff, normal_form", [
        ("1000000000000", "0"),
        ("1000000000001", "<g> - <1>"),
    ])
    def test_large_coefficient(self, capsys, coeff, normal_form):
        code, out, _ = run_cli(["kmw", "--expr", f"{coeff}*eta*[3]", "--field", "f5"], capsys)
        assert code == 0
        assert out == f"{coeff} eta [3] (degree 0; normal form {normal_form})\n"

    def test_discrete_log_table_past_the_cap(self, capsys):
        code, _, err = run_cli(["kmw", "--expr", "[2]", "--field", "f1000003"], capsys)
        assert code == 1
        assert "discrete-log table: p = 1000003 exceeds the cap of 1000000" in err


class TestTensorCommand:
    def test_tensor_of_generators(self, capsys):
        code, out, _ = run_cli(["tensor", "--expr", "KMW(2) (x) KMW(3)"], capsys)
        assert code == 0
        assert out == "KMW(5)\n"

    def test_contraction_below_zero(self, capsys):
        assert run_cli(["tensor", "--expr", "KMW(5)_{-6}"], capsys)[1] == "W\n"

    def test_milnor_contraction_to_base(self, capsys):
        assert run_cli(["tensor", "--expr", "KM(5)_{-5}"], capsys)[1] == "Z\n"

    def test_mod_tensor(self, capsys):
        code, out, _ = run_cli(["tensor", "--expr", "KM(5)/24 (x) KMW(1)"], capsys)
        assert code == 0
        assert out == "KM(6)/24\n"

    def test_unit(self, capsys):
        assert run_cli(["tensor", "--expr", "Z (x) KMW(3)"], capsys)[1] == "KMW(3)\n"

    def test_chained_subscripts(self, capsys):
        assert run_cli(["tensor", "--expr", "I(3)_{-1}_{-2}"], capsys)[1] == "W\n"

    def test_no_rule_is_domain_error(self, capsys):
        code, _, err = run_cli(["tensor", "--expr", "KMW(0) (x) KMW(0)"], capsys)
        assert code == 1

    def test_positive_subscript_is_parse_error(self, capsys):
        code, _, _ = run_cli(["tensor", "--expr", "KMW(2)_{3}"], capsys)
        assert code == 2

    def test_bad_modulus_is_domain_error(self, capsys):
        code, _, _ = run_cli(["tensor", "--expr", "KM(2)/1"], capsys)
        assert code == 1

    @pytest.mark.parametrize("expr, err", [
        ("KMW(W)", "parse error: expected an integer, found 'W'\n"),
        (")", "parse error: unexpected token ')'\n"),
    ])
    def test_malformed_is_parse_error(self, expr, err, capsys):
        assert run_cli(["tensor", "--expr", expr], capsys) == (2, "", err)

    def test_deep_nesting_is_parse_error(self, capsys):
        code, _, err = run_cli(["tensor", "--expr", "(" * 1000 + "W" + ")" * 1000], capsys)
        assert code == 2
        assert err.startswith("parse error:")


class TestEhpCommands:
    def test_exchange_values(self, capsys):
        code, out, _ = run_cli(
            ["ehp", "exchange", "-p", "1", "-q", "0", "--field", "f7"], capsys
        )
        assert code == 0
        assert out == "-<1>\n"
        code, out, _ = run_cli(
            ["ehp", "exchange", "-p", "0", "-q", "1", "--field", "real-closed"], capsys
        )
        assert out == "-<-1>\n"

    def test_exchange_at_huge_q_matches_its_parity(self, capsys):
        for q, small in (("100000000", "2"), ("100000001", "1")):
            argv = ["ehp", "exchange", "-p", "1", "-q", q, "--field", "f5"]
            assert run_cli(argv, capsys) == run_cli(argv[:5] + [small] + argv[6:], capsys)

    def test_classical_route(self, capsys):
        assert run_cli(["ehp", "classical", "-p", "3"], capsys)[1] == "2\n"
        assert run_cli(["ehp", "classical", "-p", "1"], capsys)[0] == 1

    def test_sequence_low_degree(self, capsys):
        code, out, _ = run_cli(["ehp", "sequence", "--sphere", "S[2+3a]"], capsys)
        assert code == 0
        assert out == (
            "pi_{5+6a}(S^{3+3a}) -> pi_{5+6a}(S^{5+6a}) -P-> "
            "pi_{3+6a}(S^{2+3a}) -> pi_{4+6a}(S^{3+3a}) -> 0\n"
        )

    def test_sequence_full_range(self, capsys):
        code, out, _ = run_cli(
            ["ehp", "sequence", "--sphere", "S[3+3a]", "--mode", "full_range"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("pi_{7}(S^{3+3a}) -E->")
        assert lines[1] == "E is an isomorphism on pi_q for q <= 4"

    def test_sequence_json(self, capsys):
        code, out, _ = run_cli(
            ["ehp", "sequence", "--sphere", "S[2+3a]", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"][1]["sheaf"] == "KMW(6)"
        assert doc["tokens"][3] == "-P->"

    def test_hp_json(self, capsys):
        code, out, _ = run_cli(
            ["ehp", "hp", "-p", "3", "-q", "1", "--field", "f5", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "1+eps"
        assert doc["rank"] == 0
        assert doc["signature"] == 2

    def test_bad_sphere_is_parse_error(self, capsys):
        for bad in ["S(2)", "S[2+-3a]", "S[a]"]:
            assert run_cli(["ehp", "sequence", "--sphere", bad], capsys)[0] == 2

    def test_low_sphere_is_domain_error(self, capsys):
        assert run_cli(["ehp", "sequence", "--sphere", "S[1+2a]"], capsys)[0] == 1


class TestDegreeCommand:
    def test_exchange_homotopy(self, capsys):
        code, out, _ = run_cli(
            ["degree", "--map", "whitehead_exchange_homotopy", "--at", "1/4,3/4"],
            capsys,
        )
        assert code == 0
        assert out == "-1\n"

    def test_json_includes_fiber(self, capsys):
        code, out, _ = run_cli(
            [
                "degree",
                "--map",
                "whitehead_exchange_homotopy",
                "--at",
                "1/4,3/4",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == {
            "degree": -1,
            "maps": ["whitehead_exchange_homotopy"],
            "preimages": [{"point": ["1/4", "1/6"], "sign": -1}],
            "value": ["1/4", "3/4"],
        }

    def test_composite(self, capsys):
        code, out, _ = run_cli(
            ["degree", "--map", "identity", "coordinate_flip", "--at", "1/2,1/4"],
            capsys,
        )
        assert code == 0
        assert out == "-1\n"

    def test_seam_value_is_domain_error(self, capsys):
        code, _, err = run_cli(
            ["degree", "--map", "whitehead_exchange_homotopy", "--at", "1/3,1/3"],
            capsys,
        )
        assert code == 1
        assert "piece boundary" in err

    def test_bad_coordinates_are_parse_errors(self, capsys):
        for at in ["1/x,1/2", "1/2", "1,2,3"]:
            code, _, _ = run_cli(["degree", "--map", "identity", "--at", at], capsys)
            assert code == 2

    def test_unknown_map(self, capsys):
        code, _, err = run_cli(["degree", "--map", "squaring", "--at", "1/3,1/4"], capsys)
        assert code == 1
        assert "known ids" in err

    def test_lower_solution_past_the_seam_is_left_to_the_upper_piece(self, capsys):
        argv = ["degree", "--map", "whitehead_exchange_homotopy", "--at", "1/3,1/4", "--format", "json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["preimages"] == [{"point": ["1/4", "5/9"], "sign": -1}]
        assert json.loads(out)["degree"] == -1

    def test_composites_past_the_cap_are_refused_quickly_in_a_child(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(ehpcalc.__file__)))
        argv = ["degree", "--map", *["whitehead_exchange_homotopy"] * 1001, "--at", "2/97,95/97"]
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "ehpcalc.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        want = (1, "", "error: degree: 1001 maps exceed the cap of 1000\n")
        assert (done.returncode, done.stdout, done.stderr) == want
        assert elapsed < 1.0

    def test_composite_at_the_cap_answers(self, capsys):
        argv = ["degree", "--map", *["whitehead_exchange_homotopy"] * 1000, "--at", "2/97,95/97"]
        assert run_cli(argv, capsys) == (0, "1\n", "")

    def test_single_map_fiber_taken_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return signed_preimages(*args)

        monkeypatch.setattr(ehp, "signed_preimages", counted)
        monkeypatch.setattr(cli, "signed_preimages", counted, raising=False)  # wherever the CLI may call it from
        argv = ["degree", "--map", "whitehead_exchange_homotopy", "--at", "1/4,3/4", "--format", "json"]
        # the bytes printed before the fiber was taken once
        want = ('{"degree": -1, "maps": ["whitehead_exchange_homotopy"], '
                '"preimages": [{"point": ["1/4", "1/6"], "sign": -1}], "value": ["1/4", "3/4"]}\n')
        assert run_cli(argv, capsys) == (0, want, "")
        assert len(calls) == 1


class TestFactsCommand:
    def test_table_text(self, capsys):
        code, out, _ = run_cli(["facts"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("pi_{4+5a}(S^{3+3a}) = Z/24")

    def test_single_key(self, capsys):
        code, out, _ = run_cli(["facts", "--key", "pi_{4+6a}(S^{3+3a})"], capsys)
        assert code == 0
        assert out.startswith("pi_{4+6a}(S^{3+3a}) = 0")

    def test_missing_key(self, capsys):
        code, _, err = run_cli(["facts", "--key", "pi_{9}(S^{2})"], capsys)
        assert code == 1
        assert "no recorded fact" in err

    def test_json_table(self, capsys):
        code, out, _ = run_cli(["facts", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert [e["key"] for e in doc["facts"]] == [
            "pi_{4+5a}(S^{3+3a})",
            "pi_{4+6a}(S^{3+3a})",
        ]


class TestDeterminism:
    COMMANDS = [
        ["homology", "--space", "J(S1,2)", "--format", "json"],
        ["gw", "--expr", "<1> + <-1> - 2<g>", "--field", "f5", "--format", "json"],
        ["kmw", "--expr", "[2]*[3]", "--field", "f5", "--format", "json"],
        ["tensor", "--expr", "KMW(2) (x) KMW(3)", "--format", "json"],
        ["ehp", "sequence", "--sphere", "S[2+3a]", "--format", "json"],
        ["degree", "--map", "whitehead_exchange_homotopy", "--at", "1/4,3/4", "--format", "json"],
        ["facts", "--format", "json"],
    ]

    def test_byte_identical_reruns(self, capsys):
        for argv in self.COMMANDS:
            first = run_cli(argv, capsys)
            second = run_cli(argv, capsys)
            assert first == second
            assert first[0] == 0

    def test_json_round_trips(self, capsys):
        for argv in self.COMMANDS:
            _, out, _ = run_cli(argv, capsys)
            doc = json.loads(out)
            assert json.dumps(doc, sort_keys=True) + "\n" == out

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


def _circles(k):
    """A wedge of k circles."""
    return "(" + "+".join(["S1"] * k) + ")"


_CIRCLES_200 = _circles(200)
_FORTY_FORMS = "*".join(f"<{a}>" for a in range(2, 42))

# (argv, exit code, full stderr) for malformed input to each grammar, as
# recorded before the grammars shared their front end.
GOLDEN_ERRORS = [
    (['homology', '--space', 'S1 +'], 2, 'parse error: space expression ends early\n'),
    (['homology', '--space', 'T2'], 2, "parse error: bad space expression near 'T2'\n"),
    (['homology', '--space', 'J(S1)'], 2, "parse error: expected ',', found ')'\n"),
    (['homology', '--space', '()'], 2, "parse error: unexpected token ')'\n"),
    (['homology', '--space', 'S1 S1'], 2, "parse error: unexpected trailing token 'S1'\n"),
    (['homology', '--space', 'J(S1,x)'], 2, "parse error: expected a level, found 'x'\n"),
    (['homology', '--space', 'S1 ^ -1'], 2, "parse error: bad space expression near '-1'\n"),
    (['homology', '--space', ''], 2, 'parse error: empty space expression\n'),
    (['homology', '--space', '(S1'], 2, 'parse error: space expression ends early\n'),
    (['hopf', '--word', 'x||y', '-r', '1'], 2, 'parse error: empty letter in word\n'),
    (['hopf', '--word', 't0 x', '-r', '1'], 2, "parse error: bad degeneracy operator 't0'\n"),
    (['hopf', '--word', '', '-r', '1'], 2, 'parse error: empty letter in word\n'),
    (['hopf', '--word', 's0 s1 x', '-r', '1', '--dim', '1'], 1, "error: letter 'x' has too many degeneracies for dimension 1\n"),
    (['gw', '--expr', '<1> <1>', '--field', 'f5'], 2, 'parse error: form terms must be joined by + or -\n'),
    (['gw', '--expr', '<1> +', '--field', 'f5'], 2, 'parse error: expected <unit>\n'),
    (['gw', '--expr', '', '--field', 'f5'], 2, 'parse error: empty form expression\n'),
    (['gw', '--expr', '<a>', '--field', 'f5'], 2, "parse error: bad unit 'a'\n"),
    (['gw', '--expr', '<1/0>', '--field', 'q'], 2, "parse error: bad unit '1/0'\n"),
    (['gw', '--expr', '<1> ? <2>', '--field', 'f5'], 2, "parse error: bad form expression near '?<2>'\n"),
    (['gw', '--expr', '2*3', '--field', 'f5'], 2, 'parse error: form terms must be joined by + or -\n'),
    (['gw', '--expr=-*<1>', '--field', 'f5'], 2, 'parse error: expected <unit>\n'),
    (['gw', '--expr', '<1>', '--field', 'f4'], 1, 'error: finite field size must be an odd prime power >= 3\n'),
    (['gw', '--expr', '<1>', '--field', 'bogus'], 2, "parse error: unknown field 'bogus'\n"),
    (['gw', '--expr', '<g>', '--field', 'q'], 1, 'error: the symbol g is reserved for finite fields\n'),
    (['gw', '--expr', '<0>', '--field', 'r'], 1, 'error: zero is not a unit\n'),
    (['kmw', '--expr', '[2] [3]', '--field', 'f5'], 2, 'parse error: symbol terms must be joined by + or -\n'),
    (['kmw', '--expr', '[2] +', '--field', 'f5'], 2, 'parse error: symbol expression ends early\n'),
    (['kmw', '--expr', '[x]', '--field', 'f5'], 2, "parse error: bad entry 'x'\n"),
    (['kmw', '--expr', '<1/0>', '--field', 'f5'], 2, "parse error: bad entry '1/0'\n"),
    (['kmw', '--expr', '*[2]', '--field', 'f5'], 2, "parse error: unexpected token '*'\n"),
    (['kmw', '--expr', '[]', '--field', 'f5'], 2, "parse error: bad symbol expression near '[]'\n"),
    (['kmw', '--expr', '[2] * +', '--field', 'f5'], 2, "parse error: unexpected token '+'\n"),
    (['kmw', '--expr', '', '--field', 'f5'], 2, 'parse error: empty symbol expression\n'),
    (['kmw', '--expr', '[0]', '--field', 'f5'], 1, 'error: bracket entry is not a unit\n'),
    (['kmw', '--expr', '[2]+eta', '--field', 'f5'], 1, 'error: cannot add symbols of different degrees\n'),
    (['tensor', '--expr', 'KMW(2) (x)'], 2, 'parse error: sheaf expression ends early\n'),
    (['tensor', '--expr', 'KMW(x)'], 2, "parse error: expected '(', found '(x)'\n"),
    (['tensor', '--expr', 'KM(2)/'], 2, 'parse error: sheaf expression ends early\n'),
    (['tensor', '--expr', 'I(1)_{1}'], 2, 'parse error: subscripts denote contraction; write _{-j}\n'),
    (['tensor', '--expr', 'KMW(2) KMW(3)'], 2, "parse error: unexpected trailing token 'KMW'\n"),
    (['tensor', '--expr', 'Q'], 2, "parse error: bad sheaf expression near 'Q'\n"),
    (['tensor', '--expr', '(W'], 2, 'parse error: sheaf expression ends early\n'),
    (['tensor', '--expr', ''], 2, 'parse error: empty sheaf expression\n'),
    (['tensor', '--expr', 'KMW(2)/3'], 2, "parse error: unexpected trailing token '/'\n"),
    (['degree', '--map', 'identity', '--at', '1/2'], 2, 'parse error: the value is two comma-separated rationals\n'),
    (['degree', '--map', 'identity', '--at', 'a,1/2'], 2, "parse error: bad coordinate 'a'\n"),
    (['degree', '--map', 'identity', '--at', '1/0,1/2'], 2, "parse error: bad coordinate '1/0'\n"),
    (['degree', '--map', 'identity', '--at', ',1/2'], 2, "parse error: bad coordinate ''\n"),
    (['degree', '--map', 'identity', '--at', '1,2,3'], 2, 'parse error: the value is two comma-separated rationals\n'),
    (['degree', '--map', 'bogus', '--at', '1/3,1/5'], 1, "error: unknown map id 'bogus'; known ids: coordinate_flip, identity, whitehead_exchange_homotopy\n"),
    (['ehp', 'sequence', '--sphere', 'S[x]'], 2, "parse error: bad sphere 'S[x]'; write S[n] or S[n+qa]\n"),
    (['ehp', 'sequence', '--sphere', 'S[2+a]'], 2, "parse error: bad sphere 'S[2+a]'; write S[n] or S[n+qa]\n"),
    (['ehp', 'sequence', '--sphere', 'T[2]'], 2, "parse error: bad sphere 'T[2]'; write S[n] or S[n+qa]\n"),
    (['ehp', 'sequence', '--sphere', 'S[0]'], 1, 'error: the sequence needs simplicial degree >= 2\n'),
    # the tensor cells of two wedges of circles, counted before any is built
    (['homology', '--space', f"{_CIRCLES_200}^{_CIRCLES_200}"], 1,
     'error: smash: 40000 chain cells, over the cap of 25000\n'),
    (['homology', '--space', f"{_circles(250)}x{_circles(101)}"], 1,
     'error: product: 25250 chain cells, over the cap of 25000\n'),
    (['gw', '--expr', '<1e100000000>', '--field', 'q'], 1,
     'error: unit: the decimal exponent gives more than 4300 digits\n'),
    (['gw', '--expr', '<1e' + '9' * 5000 + '>', '--field', 'q'], 1,
     'error: unit exponent: 5000 digits exceed the cap of 4300\n'),
    (['kmw', '--expr', '[1e4299]', '--field', 'qbar'], 1,
     'error: entry: the decimal exponent gives more than 4300 digits\n'),
    (['gw', '--expr', '9' * 5000 + '<1>', '--field', 'f5'], 1,
     'error: coefficient: 5000 digits exceed the cap of 4300\n'),
    (['gw', '--expr', '+'.join(['9' * 4300 + '<1>'] * 3), '--field', 'f5'], 1,
     'error: coefficient of 14286 bits exceeds the cap of 4300 digits\n'),
    (['kmw', '--expr', '*'.join(['9' * 1000] * 6), '--field', 'q'], 1,
     'error: coefficient of 16610 bits exceeds the cap of 4300 digits\n'),
    (['homology', '--space', 'S' + '9' * 5000], 1, 'error: sphere dimension: 5000 digits exceed the cap of 4300\n'),
    (['gw', '--expr', '<1>', '--field', 'f' + '9' * 5000], 1, 'error: field size: 5000 digits exceed the cap of 4300\n'),
    (['tensor', '--expr', 'KM(' + '9' * 5000 + ')'], 1, 'error: integer: 5000 digits exceed the cap of 4300\n'),
    (['hopf', '--word', 's' + '9' * 5000 + ' x', '-r', '1'], 1, 'error: degeneracy: 5000 digits exceed the cap of 4300\n'),
    (['james', '--space', 'S1', '-n', '100000000'], 1, 'error: truncation exceeds 2000 generators\n'),
    (['james', '--space', 'S0', '-n', '3000'], 1, 'error: truncation exceeds 2000 generators\n'),
    (['hopf', '--word', '|'.join(['x'] * 60), '--dim', '0', '-r', '30'], 1,
     'error: hopf word: 118264581564861424 subsequences, over the cap of 25000\n'),
    # the tensor powers of J and Q, counted up to the first past the cap
    (['homology', '--space', 'J(S1,100000000)'], 1,
     'error: james truncation: 25197 chain cells and degrees in 222 powers, over the cap of 25000\n'),
    (['homology', '--space', 'Q(S0,100000000)'], 1,
     'error: james quotient: 25002 chain cells and degrees in 12501 powers, over the cap of 25000\n'),
    (['homology', '--space', 'Q(S1,0)'], 1, 'error: truncation level must be >= 1\n'),
    # letters are refused by dimension before their complex is validated
    (['hopf', '--word', 'x', '-r', '1', '--dim', '100000'], 1, 'error: word: letter dimension 100000 exceeds the cap of 256\n'),
    # a product of k forms with distinct entries expands to 2^k terms
    (['kmw', '--expr', _FORTY_FORMS, '--field', 'q'], 1, 'error: symbol product: 32768 terms, over the cap of 25000\n'),
]


def _golden_id(argv):
    return " ".join(a if len(a) <= 60 else f"<{len(a)} characters>" for a in argv)


@pytest.mark.parametrize("argv, code, err", GOLDEN_ERRORS, ids=[_golden_id(a) for a, _, _ in GOLDEN_ERRORS])
def test_golden_errors(argv, code, err, capsys):
    assert run_cli(argv, capsys) == (code, "", err)


# Products and smashes whose built complexes pass the generator cap: homology
# takes them from the chains of their factors.
COMPOSITE_ANSWERS = [
    ("S12^S12", "{24: Z}\n"),
    ("S4xS4xS4", "{4: Z^3, 8: Z^3, 12: Z}\n"),
    ("S256xS256", "{256: Z^2, 512: Z}\n"),
    ("S256^S256", "{512: Z}\n"),
]


@pytest.mark.parametrize("space, out", COMPOSITE_ANSWERS, ids=[space for space, _ in COMPOSITE_ANSWERS])
def test_composites_past_the_generator_cap_answer(space, out, capsys):
    assert run_cli(["homology", "--space", space], capsys) == (0, out, "")


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli(["ehp", "classical", "-p", "3"], capsys)[0] == 0
    assert run_cli(["facts"], capsys)[0] == 0
    assert built == []


# small space expressions: atoms, +, x and ^, and J and Q at levels 1-3
_SPACES = st.recursive(
    st.sampled_from(["pt", "S0", "S1", "S2", "S3"]),
    lambda sub: st.builds("({}{}{})".format, sub, st.sampled_from("+x^"), sub)
    | st.builds("{}({},{})".format, st.sampled_from("JQ"), sub, st.integers(1, 3)),
    max_leaves=3)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(space=_SPACES, n=st.integers(1, 3))
def test_james_census_matches_the_built_space(space, n, capsys):
    """james counts from censuses what james_census reads off the built space."""
    try:
        counts = james_census(parse_space(space), n)
        want = (0, "{" + ", ".join(f"{d}: {c}" for d, c in sorted(counts.items())) + "}\n", "")
    except DomainError as exc:
        want = (1, "", f"error: {exc}\n")
    assert run_cli(["james", "--space", space, "-n", str(n)], capsys) == want


def _limit_address_space():
    limit = 2_000_000 * 1024  # ulimit -v 2000000
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# Reads a JSON list of argvs on stdin and runs each through main in its own
# child, forked from this one process after its one import of ehpcalc.cli,
# with 600 s to finish. Prints one JSON line per argv: the exit code (minus
# the signal number for a child that was killed, as subprocess gives it),
# stdout, stderr, and the traceback of an exception other than SystemExit,
# which an interpreter would print before exiting 1.
_CHILD_DRIVER = """
import contextlib, io, json, os, signal, sys, traceback
from ehpcalc.cli import main
for argv in json.load(sys.stdin):
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            signal.alarm(600)
            out, err, tb = io.StringIO(), io.StringIO(), None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                except BaseException:
                    code, tb = 1, traceback.format_exc()
            with os.fdopen(w, "w") as f:
                json.dump([code, out.getvalue(), err.getvalue(), tb], f)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as f:
        record = f.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    print(record if status == 0 and record else json.dumps([status, "", "", None]), flush=True)
"""


class _Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    traceback: str | None


def _run_in_one_child(argvs):
    """Each argv's run, from one child under the address-space limit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ehpcalc.__file__)))
    done = subprocess.run([sys.executable, "-c", _CHILD_DRIVER], input=json.dumps(argvs),
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          preexec_fn=_limit_address_space, timeout=600)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-2000:]
    runs = [_Run(*json.loads(line)) for line in done.stdout.splitlines()]
    assert len(runs) == len(argvs)
    return runs


# Hopf letters are named without building a smash power: a 10-letter word
# at r = 4 answers, and any r past the word length gives the empty word "*".
_TEN_LETTERS = "abcdeabcde"
_TEN_LETTER_HOPF = "".join(f"((({a}^{b})^{c})^{d})" for a, b, c, d in itertools.combinations(_TEN_LETTERS, 4))
# a wedge of the spheres S1 to S256, whose products and smashes are refused
# from its census, and 100 distinct letters at the top letter dimension
_SPHERES_256 = "+".join(f"S{n}" for n in range(1, 257))
_HUNDRED_LETTERS = [f"x{i}" for i in range(100)]

# Each input exits 1 with an error, or exits 0 with the given stdout.
BOUNDED_INPUTS = [
    (["ehp", "exchange", "-p", "1", "-q", "100000000", "--field", "f5"], "-<1>\n"),
    (["kmw", "--expr", "20000*[2]", "--field", "qbar"], None),
    (["kmw", "--expr", "1000000000000*[2]", "--field", "qbar"], None),
    (["homology", "--space", "S3000"], None),
    (["hopf", "--word", "x|y", "-r", "3000"], "*\n"),
    (["hopf", "--word", "x|y", "-r", "6"], "*\n"),
    (["hopf", "--word", "x", "--dim", "0", "-r", "1000000000"], "*\n"),
    (["hopf", "--word", "|".join(_TEN_LETTERS), "-r", "4"], _TEN_LETTER_HOPF + "\n"),
    (["hopf", "--word", "|".join(["x"] * 60), "--dim", "0", "-r", "30"], None),
    (["homology", "--space", "S12^S12"], "{24: Z}\n"),
    (["homology", "--space", "S4xS4xS4"], "{4: Z^3, 8: Z^3, 12: Z}\n"),
    (["homology", "--space", f"{_CIRCLES_200}^{_CIRCLES_200}"], None),
    (["homology", "--space", "J(pt,100000000)"], "{}\n"),
    (["homology", "--space", "Q(pt,100000000)"], "{}\n"),
    (["homology", "--space", "J(S1,100000000)"], None),
    (["homology", "--space", "Q(S1,100000000)"], None),
    (["homology", "--space", "J(S0,100000000)"], None),
    (["homology", "--space", "Q(S0,100000000)"], None),
    (["james", "--space", "pt", "-n", "100000000"], "{0: 1}\n"),
    (["james", "--space", "S1", "-n", "100000000"], None),
    (["gw", "--expr", "<1e100000000>", "--field", "q"], None),
    (["hopf", "--word", "x", "-r", "1", "--dim", "100000"], None),
    (["kmw", "--expr", _FORTY_FORMS, "--field", "q"], None),
    (["homology", "--space", f"({_SPHERES_256})x({_SPHERES_256})"], None),
    (["james", "--space", f"({_SPHERES_256})x({_SPHERES_256})", "-n", "1"], None),
    (["james", "--space", _SPHERES_256, "-n", "1"], "{" + ", ".join(f"{d}: 1" for d in range(257)) + "}\n"),
    (["hopf", "--word", "|".join(_HUNDRED_LETTERS), "--dim", "256", "-r", "1"], "".join(_HUNDRED_LETTERS) + "\n"),
]


@pytest.fixture(scope="module")
def bounded_runs():
    """The run of each bounded input, by its JSON text; one child runs them all."""
    runs = _run_in_one_child([argv for argv, _ in BOUNDED_INPUTS])
    return {json.dumps(argv): run for (argv, _), run in zip(BOUNDED_INPUTS, runs)}


@pytest.mark.parametrize("argv, stdout", BOUNDED_INPUTS, ids=[_golden_id(a) for a, _ in BOUNDED_INPUTS])
def test_bounded_inputs_end_cleanly_in_a_child(argv, stdout, bounded_runs):
    done = bounded_runs[json.dumps(argv)]
    assert done.returncode in (0, 1, 2)
    assert "Traceback" not in done.stderr
    assert done.traceback is None
    if stdout is None:
        assert done.returncode == 1 and done.stderr.startswith("error: ")
    else:
        assert (done.returncode, done.stdout) == (0, stdout)


# -- argv fuzzing: every subcommand, drawn to reach long wedges, high --dim
# and wide products, the levels and sizes at the caps, and malformed text.
_JUNK = st.text(alphabet="S0123456789+x^()JQ,pt[]<>*|s.aeg-/ _{}", max_size=12)
_NUMBERS = st.integers(-3, 40) | st.sampled_from([255, 256, 257, 1999, 2000, 3000, 10**8])
_FUZZ_ATOMS = st.sampled_from(["pt", "S0", "S1", "S2", "S3", "S12", "S256", "S257"])
_FUZZ_SPACES = st.recursive(
    _FUZZ_ATOMS | st.builds(lambda atom, k: "(" + "+".join([atom] * k) + ")", _FUZZ_ATOMS, st.integers(1, 256)),
    lambda sub: st.builds("({}{}{})".format, sub, st.sampled_from("+x^"), sub)
    | st.builds("{}({},{})".format, st.sampled_from("JQ"), sub, _NUMBERS),
    max_leaves=4) | _JUNK
_FUZZ_LETTERS = st.builds("{}{}".format, st.sampled_from(["", "", "", "s0 ", "s1 ", "s1 s0 ", "s9 "]),
                          st.sampled_from(["x", "y", "z", "x7"]) | st.integers(0, 99).map("x{}".format))
_FUZZ_WORDS = st.lists(_FUZZ_LETTERS, max_size=100).map("|".join) | _JUNK
_FUZZ_FIELDS = st.sampled_from(["f3", "f5", "f9", "f25", "f4", "q", "r", "qbar", "real-closed", "f10000000000037",
                                "bogus"])
_FUZZ_FORMS = st.lists(st.builds("{}<{}>".format, st.sampled_from(["", "2", "-1", "20000"]),
                                 st.sampled_from(["1", "-1", "2", "3", "g", "1/2", "0", "7e3"])),
                       min_size=1, max_size=6).map("+".join) | _JUNK
_FUZZ_SYMBOLS = st.lists(st.lists(st.sampled_from(["[2]", "[3]", "[5]", "[-1]", "[1/2]", "eta", "<2>", "<3>", "2"]),
                                  min_size=1, max_size=16).map("*".join),
                         min_size=1, max_size=3).map("+".join) | _JUNK
_FUZZ_SHEAVES = st.lists(st.sampled_from(["KMW(2)", "KM(3)", "W", "I(1)", "KMW(5)_{-6}", "KM(2)/2", "GW"]),
                         min_size=1, max_size=4).map(" (x) ".join) | _JUNK
_N = _NUMBERS.map(str)
_FUZZ_COMMANDS = st.one_of(
    st.tuples(st.just("homology"), st.just("--space"), _FUZZ_SPACES),
    st.tuples(st.just("james"), st.just("--space"), _FUZZ_SPACES, st.just("-n"), _N),
    st.tuples(st.just("hopf"), st.just("--word"), _FUZZ_WORDS, st.just("-r"),
              st.sampled_from(["0", "1", "2", "3", "4", "30", "1001", "1000000000"]), st.just("--dim"),
              st.sampled_from([None, "0", "1", "2", "256", "257", "100000"]))
    .map(lambda t: t[:5] if t[6] is None else t),
    st.tuples(st.just("gw"), st.just("--expr"), _FUZZ_FORMS, st.just("--field"), _FUZZ_FIELDS),
    st.tuples(st.just("kmw"), st.just("--expr"), _FUZZ_SYMBOLS, st.just("--field"), _FUZZ_FIELDS),
    st.tuples(st.just("tensor"), st.just("--expr"), _FUZZ_SHEAVES),
    st.tuples(st.just("ehp"), st.sampled_from(["hp", "exchange"]), st.just("-p"), _N, st.just("-q"), _N,
              st.just("--field"), _FUZZ_FIELDS),
    st.tuples(st.just("ehp"), st.just("sequence"), st.just("--sphere"),
              st.builds("S[{}+{}a]".format, _NUMBERS, _NUMBERS) | st.builds("S[{}]".format, _NUMBERS) | _JUNK,
              st.just("--mode"), st.sampled_from(["low_degree", "full_range"])),
    st.tuples(st.just("ehp"), st.just("classical"), st.just("-p"), _N),
    st.tuples(st.just("degree"), st.just("--map"),
              st.sampled_from(["identity", "coordinate_flip", "whitehead_exchange_homotopy", "bogus"]),
              st.just("--at"), st.builds("{}/{},{}/{}".format, _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS) | _JUNK),
    st.tuples(st.just("facts"), st.just("--key"), st.sampled_from(["pi_{4+5a}(S^{3+3a})", "pi_{9}(S^{2})"]) | _JUNK),
    st.lists(st.sampled_from(["homology", "james", "hopf", "--space", "-n", "-r", "--bogus", "S1", "1"]),
             max_size=4).map(tuple))
_FUZZ_ARGV = st.builds(lambda command, fmt: list(command + fmt), _FUZZ_COMMANDS,
                       st.sampled_from([(), ("--format", "json")]))

@settings(max_examples=3, deadline=None, suppress_health_check=list(HealthCheck))
@given(argvs=st.lists(_FUZZ_ARGV, min_size=30, max_size=30))
def test_drawn_argvs_end_cleanly_in_a_child(argvs):
    """Every drawn argv exits 0, 1 or 2 with no traceback, under the same
    address-space limit as the bounded inputs; one child runs a batch."""
    runs = _run_in_one_child(argvs)
    assert not [(argv, run.traceback) for argv, run in zip(argvs, runs) if run.traceback]
    codes = [run.returncode for run in runs]
    assert len(codes) == len(argvs) and set(codes) <= {0, 1, 2}, list(zip(argvs, codes))


# -- the direct argv reader: wherever it reads an argv, argparse reads the same

_ARGPARSE = cli.build_parser()
_ROWS = [row for row in cli._COMMANDS if row[1]]
_NAMES = st.text(alphabet="S1x^ <>/=_-", max_size=6)
# tokens a mutation puts in: values argparse reads its own way or refuses, choices and names
_ODD_TOKENS = ["-3", "-<1>", "", " 4", "4_0", "٣", "1e3", "bogus", "-h", "--help", "--", "text", "json",
               "low_degree", "full_range", "hp", "ehp", "homology", "S1", "x y"]
_FLAGS = sorted({flag for _, _, _, options in _ROWS for spec, *_ in (cli._FORMAT, *options) for flag in spec.split()})


@st.composite
def _well_formed_argvs(draw):
    """A row's path, then some order of its options, each written once with
    a well-formed value: required ones always, optional ones sometimes."""
    path, _run, _summary, options = draw(st.sampled_from(_ROWS))
    argv = path.split()
    for spec, kind, *default in draw(st.permutations((cli._FORMAT, *options))):
        if default and draw(st.booleans()):
            continue
        flag = draw(st.sampled_from(spec.split()))
        glued = flag.startswith("--") and draw(st.booleans())  # written --flag=value
        if isinstance(kind, tuple):
            values = [draw(st.sampled_from(kind))]
        elif kind is int:
            values = [draw(st.integers(-20 if glued else 0, 3000).map(str) | st.sampled_from([" 4", "4_0", "٣"]))]
        else:
            # argparse reads --flag=-- as no value at all
            names = _NAMES.filter(lambda name: name != "--" if glued else not name.startswith("-"))
            values = draw(st.lists(names, min_size=1, max_size=1 if glued or kind is str else 3))
        argv += [f"{flag}={values[0]}"] if glued else [flag, *values]
    return argv


def _mutate(draw, argv):
    """argv with one token dropped, inserted, repeated, swapped, abbreviated, glued to the next or replaced."""
    k = draw(st.integers(0, max(len(argv) - 1, 0)))
    how = draw(st.sampled_from(["drop", "insert", "repeat", "swap", "abbreviate", "glue", "replace"]))
    if how == "insert" or not argv:
        token = draw(st.sampled_from(_ODD_TOKENS + _FLAGS) | st.sampled_from([3, None]))
        return argv[:k] + [token] + argv[k:]
    if how == "drop":
        return argv[:k] + argv[k + 1:]
    if how == "repeat":
        return argv[:k] + argv[k:k + 1] * 2 + argv[k + 1:]
    if how == "swap":
        j, argv = draw(st.integers(0, len(argv) - 1)), list(argv)
        argv[j], argv[k] = argv[k], argv[j]
        return argv
    texts = all(isinstance(token, str) for token in argv)
    if how == "abbreviate" and texts and argv[k].startswith("--") and len(argv[k]) > 3:
        return argv[:k] + [argv[k][:draw(st.integers(3, len(argv[k]) - 1))]] + argv[k + 1:]
    if how == "glue" and texts and k + 1 < len(argv):  # -p3, -p=3, --flag=value
        return argv[:k] + [argv[k] + draw(st.sampled_from(["", "="])) + argv[k + 1]] + argv[k + 2:]
    return argv[:k] + [draw(st.sampled_from(_ODD_TOKENS))] + argv[k + 1:]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_args_agrees_with_argparse(data):
    argv = data.draw(_well_formed_argvs())
    assert vars(cli._read_args(argv)) == vars(_ARGPARSE.parse_args(argv))
    for _ in range(data.draw(st.integers(1, 3))):
        argv = _mutate(data.draw, argv)
    read = cli._read_args(argv)
    if read is not None:
        assert vars(read) == vars(_ARGPARSE.parse_args(argv))


LEFT_TO_ARGPARSE = [
    ["-h"], ["homology", "-h"], ["ehp"], ["homology"], ["homology", "--spa", "S1"],
    ["homology", "--space", "S1", "--space", "S2"], ["ehp", "classical", "-p3"], ["ehp", "classical", "-p=3"],
    ["ehp", "classical", "-p", "-3"], ["james", "--space", "S1", "-n", "1e3"],
    ["homology", "--space", "S1", "--format", "xml"], ["homology", "--", "--space", "S1"],
    ["degree", "--map=identity", "flip", "--at", "0,0"], ["homology", "--space", 3], ("homology", "--space", "S1"),
]


@pytest.mark.parametrize("argv", LEFT_TO_ARGPARSE, ids=[repr(argv) for argv in LEFT_TO_ARGPARSE])
def test_read_args_leaves_other_argvs_to_argparse(argv):
    assert cli._read_args(argv) is None


def test_workload_argvs_never_reach_argparse(tmp_path, monkeypatch, capsys):
    tool = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "workload_argvs.py")
    argvs = []
    for workload in ("homology_cold", "forms_stream"):
        out = tmp_path / f"{workload}.json"
        subprocess.run([sys.executable, tool, "--workload", workload, "--seed", "601", "--seed", "7",
                        "--out", str(out)], check=True, capture_output=True, timeout=120)
        argvs += json.loads(out.read_text())
    assert len(argvs) == 1224
    assert sum(any(token.startswith("--expr=-") for token in argv) for argv in argvs) == 74

    def refuse(*args, **kwargs):
        raise AssertionError(f"argparse read {args}")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    assert [main(argv) for argv in argvs] == [0] * len(argvs)
    capsys.readouterr()
