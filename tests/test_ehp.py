"""Exchange degrees, the boundary case table, sequence reports, degree checks."""

import json
from fractions import Fraction

import pytest

import ehpcalc.ehp as ehp_module
from ehpcalc.ehp import (
    DEGREE_MAPS_CAP,
    EHPReport,
    SphereBidegree,
    classical_hp_degree,
    degree_by_signed_preimages,
    ehp_sequence_report,
    exchange_degree,
    hp_differential,
    hp_differential_variant,
    hp_invariant_report,
    known_results_lookup,
    known_results_table,
    signed_preimages,
)
from ehpcalc.errors import CapExceeded, DomainError, NoTensorRule, NotRegularValue
from ehpcalc.gw import (
    exchange_class,
    finite_odd,
    gw_add,
    gw_equal,
    gw_invariants,
    gw_mul,
    gw_one,
    gw_scale,
    gw_sub,
    gw_zero,
    hyperbolic,
    quadratically_closed,
    rationals,
    real_closed,
)

import oracles

F5 = finite_odd(5)
RC = real_closed()
QC = quadratically_closed()
FIELDS = (QC, RC, F5)

LOW_DEGREE_TOKENS = [
    "pi_{5+6a}(S^{3+3a})",
    "->",
    "pi_{5+6a}(S^{5+6a})",
    "-P->",
    "pi_{3+6a}(S^{2+3a})",
    "->",
    "pi_{4+6a}(S^{3+3a})",
    "->",
    "0",
]


def expected_case(field, label):
    one = gw_one(field)
    if label == "0":
        return gw_zero(field)
    if label == "2":
        return gw_scale(2, one)
    if label == "h":
        return hyperbolic(field)
    return gw_add(one, exchange_class(field))


class TestSphereBidegree:
    def test_token_forms(self):
        assert SphereBidegree(2, 3).token() == "S^{2+3a}"
        assert SphereBidegree(3, 0).token() == "S^{3}"
        assert SphereBidegree(1, 1).token() == "S^{1+1a}"
        assert str(SphereBidegree(2, 3)) == "S^{2+3a}"

    def test_smash_adds_componentwise(self):
        assert SphereBidegree(2, 3).smash(SphereBidegree(1, 2)) == SphereBidegree(3, 5)

    def test_suspend_raises_simplicial_part(self):
        assert SphereBidegree(2, 3).suspend() == SphereBidegree(3, 3)

    def test_rejects_bad_parts(self):
        for bad in [(-1, 0), (0, -2), (Fraction(1, 2), 0), (True, 0), (1, "2")]:
            with pytest.raises(DomainError):
                SphereBidegree(*bad)


class TestExchangeDegree:
    def test_base_cases(self):
        for field in FIELDS:
            one = gw_one(field)
            assert gw_equal(exchange_degree(1, 0, field), gw_scale(-1, one)) is True
            assert gw_equal(exchange_degree(0, 1, field), exchange_class(field)) is True
            assert gw_equal(exchange_degree(0, 0, field), one) is True

    def test_squares_cancel(self):
        for field in FIELDS:
            assert gw_equal(exchange_degree(2, 2, field), gw_one(field)) is True

    def test_multiplicative_in_bidegrees(self):
        for field in (RC, F5):
            for p1, q1 in [(1, 0), (0, 1), (2, 1)]:
                for p2, q2 in [(1, 1), (3, 2)]:
                    product = gw_mul(
                        exchange_degree(p1, q1, field), exchange_degree(p2, q2, field)
                    )
                    assert (
                        gw_equal(exchange_degree(p1 + p2, q1 + q2, field), product)
                        is True
                    )

    @pytest.mark.parametrize("field", [QC, RC, rationals()] + [finite_odd(q) for q in (3, 5, 7, 9)], ids=str)
    def test_closed_form_matches_repeated_products(self, field):
        for q in range(8):
            for p in range(4):
                expected = oracles.reference_exchange_degree(field, p, q)
                assert str(exchange_degree(p, q, field)) == oracles.reference_gw_str(expected)
            if q >= 1:
                for p in range(2, 5):
                    expected = oracles.reference_hp_variant(field, p, q)
                    assert str(hp_differential_variant(p, q, field)) == oracles.reference_gw_str(expected)

    def test_huge_q_follows_parity(self):
        for field in FIELDS:
            assert exchange_degree(3, 10**12 + 1, field) == exchange_degree(3, 1, field)
            assert hp_differential_variant(3, 10**12, field) == hp_differential_variant(3, 2, field)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            exchange_degree(-1, 0, RC)
        with pytest.raises(DomainError):
            exchange_degree(0, -1, RC)


class TestBoundaryCaseTable:
    def test_fixed_examples(self):
        for field in FIELDS:
            value, label = hp_differential(2, 2, field)
            assert label == "0"
            assert gw_equal(value, gw_zero(field)) is True
            value, label = hp_differential(3, 2, field)
            assert label == "2"
            assert gw_equal(value, gw_scale(2, gw_one(field))) is True
            value, label = hp_differential(2, 1, field)
            assert label == "h"
            assert gw_equal(value, hyperbolic(field)) is True
            value, label = hp_differential(3, 1, field)
            assert label == "1+eps"
            assert gw_equal(value, gw_add(gw_one(field), exchange_class(field))) is True

    def test_case_table_full_range(self):
        for field in FIELDS:
            for p in range(2, 7):
                for q in range(1, 6):
                    value, label = hp_differential(p, q, field)
                    expected_label = {
                        (0, 0): "0",
                        (1, 0): "2",
                        (0, 1): "h",
                        (1, 1): "1+eps",
                    }[(p % 2, q % 2)]
                    assert label == expected_label
                    assert gw_equal(value, expected_case(field, label)) is True

    def test_matches_exchange_composition(self):
        for field in FIELDS:
            for p in range(2, 7):
                for q in range(1, 6):
                    value, _label = hp_differential(p, q, field)
                    composed = gw_sub(
                        gw_one(field),
                        gw_scale((-1) ** p, exchange_degree(0, q, field)),
                    )
                    assert gw_equal(value, composed) is True

    def test_variant_formula_agrees(self):
        for field in FIELDS:
            for p in range(2, 7):
                for q in range(1, 6):
                    value, _label = hp_differential(p, q, field)
                    variant = hp_differential_variant(p, q, field)
                    assert gw_equal(value, variant) is True

    def test_rank_and_signature_closed_forms(self):
        for p in range(2, 7):
            for q in range(1, 6):
                value, _label = hp_differential(p, q, RC)
                inv = gw_invariants(value)
                assert inv["rank"] == 1 - (-1) ** (p + q)
                assert inv["signature"] == 1 - (-1) ** p

    def test_classical_value_over_quadratically_closed(self):
        # with every unit a square the element collapses to its rank
        for p in range(2, 7):
            for q in range(1, 6):
                value, _label = hp_differential(p, q, QC)
                rank = 1 - (-1) ** (p + q)
                assert gw_equal(value, gw_scale(rank, gw_one(QC))) is True

    def test_hypothesis_violations(self):
        for p, q in [(1, 1), (0, 2), (2, 0), (2, -1)]:
            with pytest.raises(DomainError):
                hp_differential(p, q, RC)
        with pytest.raises(DomainError):
            hp_differential_variant(1, 1, RC)

    def test_classical_route(self):
        assert classical_hp_degree(2) == 0
        assert classical_hp_degree(3) == 2
        assert classical_hp_degree(6) == 0
        with pytest.raises(DomainError):
            classical_hp_degree(1)


class TestInvariantReport:
    def test_fixed_examples(self):
        assert hp_invariant_report(2, 1) == {"rank": 2, "signature": 0}
        assert hp_invariant_report(2, 2) == {"rank": 0, "signature": 0}
        assert hp_invariant_report(3, 1) == {"rank": 0, "signature": 2}

    def test_full_range_consistent(self):
        for p in range(2, 7):
            for q in range(1, 6):
                report = hp_invariant_report(p, q)
                assert report == {
                    "rank": 1 - (-1) ** (p + q),
                    "signature": 1 - (-1) ** p,
                }

    def test_propagates_hypotheses(self):
        with pytest.raises(DomainError):
            hp_invariant_report(1, 1)


class TestSequenceReport:
    def test_low_degree_tokens_frozen(self):
        report = ehp_sequence_report(SphereBidegree(2, 3), "low_degree")
        assert isinstance(report, EHPReport)
        assert report.tokens() == LOW_DEGREE_TOKENS

    def test_low_degree_entry_structure(self):
        report = ehp_sequence_report(SphereBidegree(2, 3), "low_degree")
        assert report.space == "S^{2+3a}"
        assert report.mode == "low_degree"
        assert report.annotation is None
        assert [entry[2] for entry in report.entries] == ["H", "P", "E", None, None]
        assert report.entries[1][1] == "KMW(6)"
        assert [entry[1] for entry in report.entries].count("KMW(6)") == 1

    def test_generic_middle_sheaf(self):
        for n, q in [(2, 1), (3, 2), (4, 5)]:
            report = ehp_sequence_report(SphereBidegree(n, q), "low_degree")
            assert report.entries[1][1] == f"KMW({2 * q})"

    def test_simplicial_sphere_has_no_tensor_rule(self):
        with pytest.raises(NoTensorRule):
            ehp_sequence_report(SphereBidegree(2, 0), "low_degree")

    def test_full_range_tokens(self):
        report = ehp_sequence_report(SphereBidegree(3, 3), "full_range")
        assert report.tokens() == [
            "pi_{7}(S^{3+3a})",
            "-E->",
            "pi_{7}(J(S^{3+3a}))",
            "-H->",
            "pi_{7}(J(S^{6+6a}))",
            "-P->",
            "pi_{6}(S^{3+3a})",
            "-E->",
            "...",
        ]
        assert report.annotation == "E is an isomorphism on pi_q for q <= 4"

    def test_full_range_generic_left_endpoint(self):
        report = ehp_sequence_report(SphereBidegree(2, 1), "full_range")
        tokens = report.tokens()
        assert tokens[0] == "pi_{4}(S^{2+1a})"
        assert tokens[4] == "pi_{4}(J(S^{4+2a}))"
        assert report.annotation == "E is an isomorphism on pi_q for q <= 2"

    def test_rejects_low_connectivity(self):
        for mode in ("low_degree", "full_range"):
            for sphere in (SphereBidegree(1, 1), SphereBidegree(0, 3)):
                with pytest.raises(DomainError):
                    ehp_sequence_report(sphere, mode)

    def test_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            ehp_sequence_report(SphereBidegree(2, 3), "everything")

    def test_doc_round_trip(self):
        report = ehp_sequence_report(SphereBidegree(2, 3), "low_degree")
        doc = report.to_doc()
        assert json.dumps(doc, sort_keys=True)
        assert doc["tokens"] == report.tokens()
        assert doc["entries"][1]["sheaf"] == "KMW(6)"
        assert all(entry["basis"] for entry in doc["entries"])


class TestDegreeCheck:
    def test_exchange_homotopy_fiber_frozen(self):
        value = (Fraction(1, 4), Fraction(3, 4))
        fiber = signed_preimages("whitehead_exchange_homotopy", value)
        assert fiber == [((Fraction(1, 4), Fraction(1, 6)), -1)]
        assert degree_by_signed_preimages("whitehead_exchange_homotopy", value) == -1

    def test_lower_piece_regular_value(self):
        value = (Fraction(1, 3), Fraction(3, 4))
        fiber = signed_preimages("whitehead_exchange_homotopy", value)
        assert fiber == [((Fraction(1, 3), Fraction(3, 16)), -1)]
        assert degree_by_signed_preimages("whitehead_exchange_homotopy", value) == -1

    def test_upper_piece_regular_value(self):
        value = (Fraction(2, 3), Fraction(1, 3))
        fiber = signed_preimages("whitehead_exchange_homotopy", value)
        assert fiber == [((Fraction(1, 3), Fraction(3, 4)), -1)]
        assert degree_by_signed_preimages("whitehead_exchange_homotopy", value) == -1

    def test_identity_and_flip(self):
        point = (Fraction(1, 2), Fraction(1, 7))
        assert signed_preimages("identity", point) == [(point, 1)]
        assert degree_by_signed_preimages("identity", point) == 1
        fiber = signed_preimages("coordinate_flip", (Fraction(1, 2), Fraction(1, 4)))
        assert fiber == [((Fraction(1, 2), Fraction(3, 4)), -1)]
        assert (
            degree_by_signed_preimages(
                "coordinate_flip", (Fraction(1, 2), Fraction(1, 4))
            )
            == -1
        )

    def test_string_coordinates_accepted(self):
        assert degree_by_signed_preimages("identity", ("1/3", "2/5")) == 1

    def test_diagonal_values_hit_the_seam(self):
        # the seam maps onto the diagonal, so diagonal values are never regular
        for value in [(Fraction(1, 3), Fraction(1, 3)), ("2/5", "2/5")]:
            with pytest.raises(NotRegularValue):
                signed_preimages("whitehead_exchange_homotopy", value)

    def test_boundary_values_rejected(self):
        for value in [(0, Fraction(1, 2)), (Fraction(1, 2), 1), (1, 1)]:
            with pytest.raises(NotRegularValue):
                signed_preimages("identity", value)

    def test_zero_jacobian_detected(self, monkeypatch):
        # one piece over the whole square whose Jacobian vanishes everywhere
        flat = ((Fraction(0), Fraction(1), lambda x, y: (x, Fraction(1, 2)), lambda u, t: Fraction(0)),)
        monkeypatch.setitem(ehp_module._SQUARE_MAPS, "flat", flat)
        with pytest.raises(NotRegularValue):
            signed_preimages("flat", (Fraction(1, 3), Fraction(1, 4)))

    def test_lower_solution_past_the_seam_is_left_to_the_upper_piece(self):
        # the lower piece solves (1/3, 1/4) at t = 9/16, above its range
        value = (Fraction(1, 3), Fraction(1, 4))
        fiber = signed_preimages("whitehead_exchange_homotopy", value)
        assert fiber == [((Fraction(1, 4), Fraction(5, 9)), -1)]
        assert degree_by_signed_preimages("whitehead_exchange_homotopy", value) == -1

    def test_composites_past_the_cap_are_refused_before_any_preimage(self, monkeypatch):
        monkeypatch.setattr(ehp_module, "signed_preimages", lambda *_: pytest.fail("a preimage was taken"))
        ids = ["whitehead_exchange_homotopy"] * (DEGREE_MAPS_CAP + 1)
        with pytest.raises(CapExceeded, match=r"^degree: 1001 maps exceed the cap of 1000$"):
            degree_by_signed_preimages(ids, ("2/97", "95/97"))

    def test_composite_at_the_cap_answers(self):
        # an even number of Whitehead maps, each of degree -1
        ids = ["whitehead_exchange_homotopy"] * DEGREE_MAPS_CAP
        assert degree_by_signed_preimages(ids, ("2/97", "95/97")) == 1

    def test_composition_with_identity(self):
        cases = [
            ("whitehead_exchange_homotopy", (Fraction(1, 4), Fraction(3, 4))),
            ("coordinate_flip", (Fraction(1, 2), Fraction(1, 4))),
            ("identity", (Fraction(2, 5), Fraction(1, 3))),
        ]
        for map_id, value in cases:
            base = degree_by_signed_preimages(map_id, value)
            assert degree_by_signed_preimages(("identity", map_id), value) == base
            assert degree_by_signed_preimages((map_id, "identity"), value) == base

    def test_flip_squared_has_identity_degree(self):
        value = (Fraction(1, 3), Fraction(1, 4))
        assert (
            degree_by_signed_preimages(("coordinate_flip", "coordinate_flip"), value)
            == 1
        )

    def test_composite_degrees_multiply(self):
        value = (Fraction(1, 4), Fraction(1, 4))
        composite = ("coordinate_flip", "whitehead_exchange_homotopy")
        assert degree_by_signed_preimages(composite, value) == 1

    def test_unknown_map_rejected(self):
        with pytest.raises(DomainError):
            signed_preimages("squaring", (Fraction(1, 3), Fraction(1, 4)))
        with pytest.raises(DomainError):
            degree_by_signed_preimages((), (Fraction(1, 3), Fraction(1, 4)))

    def test_malformed_values_rejected(self):
        with pytest.raises(DomainError):
            degree_by_signed_preimages("identity", (1, 2, 3))
        with pytest.raises(DomainError):
            degree_by_signed_preimages("identity", ("x", "y"))


class TestKnownResults:
    def test_table_contents(self):
        table = known_results_table()
        assert {entry["key"]: entry["value"] for entry in table} == {
            "pi_{4+5a}(S^{3+3a})": "Z/24",
            "pi_{4+6a}(S^{3+3a})": "0",
        }
        for entry in table:
            assert entry["status"] == "recorded fact"
            assert "quadratically closed" in entry["hypotheses"]

    def test_lookup(self):
        entry = known_results_lookup("pi_{4+5a}(S^{3+3a})")
        assert entry is not None and entry["value"] == "Z/24"
        assert known_results_lookup("pi_{9}(S^{2})") is None

    def test_table_returns_fresh_copies(self):
        first = known_results_table()
        first[0]["value"] = "corrupted"
        assert known_results_table()[0]["value"] == "Z/24"
