"""Square classes, Grothendieck-Witt arithmetic, Witt quotients, ideal powers."""
from __future__ import annotations

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ehpcalc.errors import DomainError
from ehpcalc.gw import (
    _dlog,
    Field,
    exchange_class,
    finite_odd,
    fundamental_ideal_power,
    gw_add,
    gw_equal,
    gw_invariants,
    gw_make,
    gw_mul,
    gw_neg,
    gw_one,
    gw_scale,
    gw_sub,
    gw_zero,
    hyperbolic,
    non_residue,
    pfister_form,
    quadratically_closed,
    rationals,
    real_closed,
    square_class,
    witt_class,
    witt_ring_table,
)

import oracles
from oracles import representation_counts

QC, RC, QQ = quadratically_closed(), real_closed(), rationals()
F3, F5, F7, F9 = finite_odd(3), finite_odd(5), finite_odd(7), finite_odd(9)
ALL_FIELDS = [QC, RC, QQ, F3, F5, F7, F9]


def units_of(field):
    kind = field.kind
    if kind == "quadratically-closed":
        return [1]
    if kind == "real-closed":
        return [1, -1]
    if kind == "finite-odd":
        p = field.characteristic
        return [u for u in range(1, min(field.q, 8)) if u % p] + ["g"]
    return [1, -1, 2, -2, 3, 5, -30]


def terms_of(field):
    units = units_of(field)
    return st.lists(
        st.tuples(st.integers(min_value=-3, max_value=3), st.sampled_from(units)),
        max_size=6,
    )


def elements(field):
    return terms_of(field).map(lambda t: gw_make(field, t))


class TestField:
    def test_rejects_characteristic_two(self):
        for q in [2, 4, 8, 16]:
            with pytest.raises(DomainError):
                finite_odd(q)

    def test_rejects_non_prime_powers(self):
        for q in [15, 21, 45]:
            with pytest.raises(DomainError):
                finite_odd(q)

    def test_accepts_odd_prime_powers(self):
        for q in [3, 5, 7, 9, 27, 121]:
            assert finite_odd(q).q == q

    def test_size_only_for_finite(self):
        with pytest.raises(DomainError):
            Field("rationals", 5)

    def test_characteristic(self):
        assert F9.characteristic == 3
        assert RC.characteristic == 0


# Refusals of field kinds and of values across fields, with their texts.
REFUSALS = [
    ("Field: unknown kind", lambda: Field("zz"), "unknown field kind 'zz'"),
    ("SquareClass: across fields", lambda: square_class(F5, 2) * square_class(F7, 2),
     "square classes live over different fields"),
    ("IdealPower: across fields", lambda: fundamental_ideal_power(F5, 2).contains(gw_one(F7)),
     "element lives over a different field"),
    ("gw_make: float coefficient", lambda: gw_make(QQ, [(1.5, 2)]), "coefficients must be integers"),
    ("gw_make: fraction coefficient", lambda: gw_make(F5, [(Fraction(1, 2), 2)]), "coefficients must be integers"),
    ("gw_scale: float factor", lambda: gw_scale(0.5, gw_one(RC)), "coefficients must be integers"),
    ("gw_scale: float factor on zero", lambda: gw_scale(0.5, gw_zero(RC)), "coefficients must be integers"),
]


@pytest.mark.parametrize("call, text", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_refused_with_its_text(call, text):
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        call()


class TestSquareClass:
    def test_quadratically_closed_collapses(self):
        for a in [1, -1, 7, -30]:
            assert square_class(QC, a).rep == 1

    def test_real_closed_is_sign(self):
        assert square_class(RC, 5).rep == 1
        assert square_class(RC, -3).rep == -1

    def test_finite_euler_criterion(self):
        assert square_class(F7, 2).rep == 1
        assert square_class(F7, 3).rep == "g"
        assert square_class(F7, -1).rep == "g"
        assert square_class(F5, -1).rep == 1
        assert square_class(F3, 2).rep == "g"

    def test_prime_subfield_in_even_extension_is_square(self):
        # F9 contains F3 inside its squares
        for a in [1, 2, -1]:
            assert square_class(F9, a).rep == 1
        assert square_class(F9, "g").rep == "g"

    def test_non_residue(self):
        assert non_residue(F3) == 2
        assert non_residue(F5) == 2
        assert non_residue(F7) == 3
        with pytest.raises(DomainError):
            non_residue(F9)
        with pytest.raises(DomainError):
            non_residue(RC)

    def test_rational_squarefree(self):
        assert square_class(QQ, 12).rep == 3
        assert square_class(QQ, -18).rep == -2
        assert square_class(QQ, Fraction(2, 3)).rep == 6
        assert square_class(QQ, 49).rep == 1

    def test_zero_rejected(self):
        for field in [QC, RC, QQ, F5]:
            with pytest.raises(DomainError):
                square_class(field, 0)
        with pytest.raises(DomainError):
            square_class(F5, 10)

    def test_g_reserved_for_finite(self):
        with pytest.raises(DomainError):
            square_class(RC, "g")

    def test_multiplication(self):
        assert (square_class(F7, 3) * square_class(F7, 5)).rep == 1
        assert (square_class(QQ, 2) * square_class(QQ, 6)).rep == 3
        assert (square_class(RC, -1) * square_class(RC, -1)).rep == 1


class TestNormalForms:
    def test_unit_is_multiplicative_identity(self):
        for field in ALL_FIELDS:
            one = gw_one(field)
            x = gw_make(field, [(2, 1), (-1, -1)])
            assert gw_mul(one, x) == x

    def test_hyperbolic_invariants(self):
        inv = gw_invariants(hyperbolic(RC))
        assert inv["rank"] == 2 and inv["signature"] == 0
        assert inv["disc"] == square_class(RC, -1)

    def test_exchange_class_invariants(self):
        inv = gw_invariants(exchange_class(RC))
        assert inv["rank"] == -1
        assert inv["disc"] == square_class(RC, -1)
        assert inv["signature"] == 1

    def test_one_minus_exchange_is_hyperbolic(self):
        for field in ALL_FIELDS:
            assert gw_sub(gw_one(field), exchange_class(field)) == hyperbolic(field)

    def test_exchange_squares_to_one(self):
        for field in ALL_FIELDS:
            eps = exchange_class(field)
            assert gw_mul(eps, eps) == gw_one(field)

    def test_class_squares_to_one(self):
        for field, a in [(RC, -1), (F7, 3), (F7, "g"), (QQ, -6), (QC, 5)]:
            x = gw_make(field, [(1, a)])
            assert gw_mul(x, x) == gw_one(field)

    def test_exchange_times_hyperbolic(self):
        for field in ALL_FIELDS:
            lhs = gw_mul(exchange_class(field), hyperbolic(field))
            assert lhs == gw_neg(hyperbolic(field))
        inv = gw_invariants(gw_mul(exchange_class(RC), hyperbolic(RC)))
        assert inv["rank"] == -2 and inv["signature"] == 0

    def test_rational_hyperbolic_pair_rewrite(self):
        x = gw_make(QQ, [(1, 3), (1, -3)])
        assert x == hyperbolic(QQ)
        y = gw_make(QQ, [(1, 2), (1, -2), (1, 5)])
        assert y == gw_add(hyperbolic(QQ), gw_make(QQ, [(1, 5)]))

    def test_str(self):
        assert str(gw_zero(QQ)) == "0"
        assert str(hyperbolic(RC)) == "<1> + <-1>"
        assert str(gw_make(QQ, [(1, 1), (-2, 3)])) == "<1> - 2<3>"
        # over F7 the normal form collapses <1> - 2<g>: rank -1, square disc
        assert str(gw_make(F7, [(1, 1), (-2, "g")])) == "-<1>"


class TestEquality:
    def test_finite_hyperbolic_presentations(self):
        x = gw_make(F7, [(1, 1), (1, -1)])
        y = gw_make(F7, [(1, 3), (1, -3)])
        assert gw_equal(x, y) is True

    def test_real_distinguishes_signature(self):
        assert gw_equal(gw_make(RC, [(2, 1)]), hyperbolic(RC)) is False

    def test_quadratically_closed_ranks_only(self):
        assert gw_equal(gw_make(QC, [(1, 7)]), gw_one(QC)) is True

    def test_field_mismatch(self):
        with pytest.raises(DomainError):
            gw_equal(gw_one(F3), gw_one(F5))

    def test_rational_sound_answers(self):
        assert gw_equal(gw_make(QQ, [(1, 8)]), gw_make(QQ, [(1, 2)])) is True
        # same rank, discriminant, and signature, but different classes:
        # deciding would need Hasse symbols, so stay agnostic
        x = gw_make(QQ, [(1, 2), (1, 3)])
        y = gw_make(QQ, [(1, 1), (1, 6)])
        assert gw_equal(x, y) == "undecided"
        assert gw_equal(gw_make(QQ, [(1, 2)]), gw_make(QQ, [(1, 3)])) is False
        assert gw_equal(gw_make(QQ, [(1, 2)]), gw_make(QQ, [(1, -2)])) is False

    @pytest.mark.parametrize("field", [F3, F5, F7])
    def test_matches_representation_numbers(self, field):
        q = field.q
        for rank in range(1, 4):
            forms = list(itertools.product(range(1, q), repeat=rank))
            counts = {a: representation_counts(q, a) for a in forms}  # the oracle, once per form
            for a in forms:
                for b in forms:
                    ours = gw_equal(
                        gw_make(field, [(1, u) for u in a]),
                        gw_make(field, [(1, u) for u in b]),
                    )
                    oracle = counts[a] == counts[b]
                    assert ours == oracle


class TestRingAxioms:
    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_axioms(self, field, data):
        def same(x, y):
            if field.kind != "rationals":
                return x == y
            # multiplication can leave virtual combinations the sound
            # rational reduction cannot merge; accept anything not refuted
            return gw_equal(x, y) is not False

        a = data.draw(elements(field))
        b = data.draw(elements(field))
        c = data.draw(elements(field))
        assert same(gw_add(a, gw_add(b, c)), gw_add(gw_add(a, b), c))
        assert gw_add(a, b) == gw_add(b, a)
        assert gw_add(a, gw_zero(field)) == a
        assert gw_add(a, gw_neg(a)) == gw_zero(field)
        assert same(gw_mul(a, b), gw_mul(b, a))
        assert same(gw_mul(a, gw_mul(b, c)), gw_mul(gw_mul(a, b), c))
        assert same(gw_mul(a, gw_add(b, c)), gw_add(gw_mul(a, b), gw_mul(a, c)))
        assert same(gw_mul(a, gw_one(field)), a)

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rank_is_a_ring_map(self, field, data):
        a = data.draw(elements(field))
        b = data.draw(elements(field))
        ra, rb = gw_invariants(a)["rank"], gw_invariants(b)["rank"]
        assert gw_invariants(gw_add(a, b))["rank"] == ra + rb
        assert gw_invariants(gw_mul(a, b))["rank"] == ra * rb

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_signature_is_a_ring_map(self, data):
        a = data.draw(elements(RC))
        b = data.draw(elements(RC))
        sa, sb = gw_invariants(a)["signature"], gw_invariants(b)["signature"]
        assert gw_invariants(gw_add(a, b))["signature"] == sa + sb
        assert gw_invariants(gw_mul(a, b))["signature"] == sa * sb

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_hyperbolic_annihilates_witt_classes(self, field, data):
        x = data.draw(elements(field))
        assert witt_class(gw_mul(hyperbolic(field), x)).is_zero


class TestCountStoreAgainstReference:
    """Forms stored as counts per square class against the one-entry-per-copy
    store they replaced (oracles.reference_gw_*)."""

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_operations_match_the_expanded_store(self, field, data):
        ta, tb = data.draw(terms_of(field)), data.draw(terms_of(field))
        n = data.draw(st.integers(min_value=-4, max_value=4))
        a, b = gw_make(field, ta), gw_make(field, tb)
        ra, rb = oracles.reference_gw_make(field, ta), oracles.reference_gw_make(field, tb)
        cases = [
            (gw_add(a, b), oracles.reference_gw_add(field, ra, rb)),
            (gw_neg(a), oracles.reference_gw_neg(field, ra)),
            (gw_mul(a, b), oracles.reference_gw_mul(field, ra, rb)),
            (gw_scale(n, a), oracles.reference_gw_scale(field, n, ra)),
        ]
        for ours, ref in cases:
            assert str(ours) == oracles.reference_gw_str(ref)
            inv, want = gw_invariants(ours), oracles.reference_gw_invariants(field, ref)
            assert (inv["rank"], inv["disc"].rep, inv["signature"]) == (
                want["rank"], want["disc"], want["signature"])
            assert str(witt_class(ours)) == oracles.reference_gw_witt_str(field, ref)


class TestWitt:
    def test_hyperbolic_dies_everywhere(self):
        for field in ALL_FIELDS:
            assert witt_class(hyperbolic(field)).is_zero

    def test_real_closed_is_signature(self):
        x = gw_make(RC, [(3, 1), (1, -1)])
        assert witt_class(x).data == (2,)

    def test_table_sizes(self):
        for field in [F3, F5, F7, F9]:
            table = witt_ring_table(field)
            assert len(table["elements"]) == 4
            assert len(set(table["elements"])) == 4

    def test_cyclic_iff_q_mod_4_is_3(self):
        assert witt_ring_table(F3)["cyclic"] is True
        assert witt_ring_table(F7)["cyclic"] is True
        assert witt_ring_table(F5)["cyclic"] is False
        assert witt_ring_table(F9)["cyclic"] is False

    def test_table_is_a_group_table(self):
        for field in [F3, F5]:
            t = witt_ring_table(field)
            elements = t["elements"]
            zero = elements[0]
            # row of zero reproduces the header; every row is a permutation
            assert t["add"][0] == elements
            for row in t["add"]:
                assert sorted(row) == sorted(elements)
            one = elements[1]
            assert t["mul"][1] == elements

    def test_no_table_for_infinite_fields(self):
        with pytest.raises(DomainError):
            witt_ring_table(QQ)


class TestIdealPowers:
    def test_nonpositive_power_is_everything(self):
        ideal = fundamental_ideal_power(RC, 0)
        assert ideal.contains(gw_one(RC))
        assert "W(" in ideal.description

    def test_real_closed_powers_are_signature_multiples(self):
        for n in range(1, 5):
            ideal = fundamental_ideal_power(RC, n)
            assert ideal.contains(pfister_form(RC, [-1] * n))
            assert not ideal.contains(gw_one(RC))
            if n > 1:
                assert not ideal.contains(pfister_form(RC, [-1] * (n - 1)))

    def test_pfister_signature_doubles(self):
        for n in range(5):
            form = pfister_form(RC, [-1] * n)
            assert gw_invariants(form)["signature"] == 2 ** n

    def test_finite_first_power_is_even_rank(self):
        ideal = fundamental_ideal_power(F7, 1)
        assert ideal.contains(gw_make(F7, [(1, 1), (1, "g")]))
        assert ideal.contains(gw_make(F7, [(2, 1)]))
        assert not ideal.contains(gw_one(F7))

    def test_finite_square_vanishes(self):
        ideal = fundamental_ideal_power(F7, 2)
        assert ideal.contains(hyperbolic(F7))
        # -1 is a non-residue mod 7, so <1>+<1> is the nonzero even class
        assert not ideal.contains(gw_make(F7, [(2, 1)]))
        # I^2 = 0: every product of two even-rank forms dies
        for field in [F3, F5, F7, F9]:
            square = fundamental_ideal_power(field, 2)
            gens = [gw_make(field, [(1, 1), (-1, a)]) for a in [1, 2, "g"]]
            for x, y in itertools.product(gens, repeat=2):
                assert square.contains(gw_mul(x, y))

    def test_quadratically_closed_first_power_vanishes(self):
        ideal = fundamental_ideal_power(QC, 1)
        assert ideal.contains(gw_make(QC, [(2, 1)]))
        assert not ideal.contains(gw_one(QC))

    def test_rationals_partial_support(self):
        ideal = fundamental_ideal_power(QQ, 1)
        assert ideal.contains(gw_make(QQ, [(1, 2), (1, 3)]))
        assert not ideal.contains(gw_one(QQ))
        with pytest.raises(DomainError):
            fundamental_ideal_power(QQ, 2).contains(gw_one(QQ))

    def test_discrete_log_is_to_the_smallest_generator(self):
        # 2 has order 3 mod 7, so 3 is the smallest generator there
        assert [_dlog(x, 7) for x in range(1, 7)] == [0, 2, 1, 4, 5, 3]
        for p in [3, 5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 71, 191]:
            g = next(g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
            assert [pow(g, _dlog(x, p), p) for x in range(1, p)] == list(range(1, p))
            assert all(0 <= _dlog(x, p) < p - 1 for x in range(1, p))

    def test_scale_helper(self):
        assert gw_scale(3, gw_one(RC)) == gw_make(RC, [(3, 1)])
        assert gw_scale(-2, gw_one(F5)) == gw_make(F5, [(-2, 1)])
