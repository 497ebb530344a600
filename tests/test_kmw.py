"""Symbol calculus: construction, relations, normal forms, sheaf tables."""

import functools
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehpcalc.cli import parse_sheaf_expr
from ehpcalc.errors import CapExceeded, DomainError, NoTensorRule, NormalFormUnavailable
from ehpcalc.gw import (
    finite_odd,
    gw_equal,
    gw_invariants,
    gw_make,
    hyperbolic,
    quadratically_closed,
    rationals,
    real_closed,
    square_class,
)
from ehpcalc.kmw import (
    _SHEAF_TAGS,
    KMWSymbol,
    SheafExpr,
    aone_tensor,
    contraction,
    kmw_add,
    kmw_bracket,
    kmw_epsilon,
    kmw_equal,
    kmw_eta,
    kmw_form,
    kmw_hyperbolic,
    kmw_mul,
    kmw_neg,
    kmw_normal_form,
    kmw_power,
    kmw_scalar,
    kmw_scale,
    kmw_sub,
    kmw_zero,
    rational_decomposition,
    sheaf_token,
)
from oracles import fp_power_product, independent_primitive_root, sign_product_signature

F3, F5, F7, F9 = finite_odd(3), finite_odd(5), finite_odd(7), finite_odd(9)
RC, QC, QQ = real_closed(), quadratically_closed(), rationals()


def units_mod(q):
    p = finite_odd(q).characteristic
    return range(2, p)  # 1 is dropped anyway


class TestSymbols:
    def test_bracket_at_one_is_zero(self):
        for field in (F5, RC, QC, QQ):
            assert kmw_bracket(field, 1).terms == ()
            assert kmw_bracket(field, 1).degree is None
        assert kmw_bracket(F5, 6).terms == ()

    def test_letters_reduce_into_prime_subfield(self):
        assert kmw_bracket(F5, 7) == kmw_bracket(F5, 2)
        assert kmw_bracket(F9, 5) == kmw_bracket(F9, 2)
        assert kmw_bracket(F5, Fraction(2, 3)) == kmw_bracket(F5, 4)

    def test_non_units_rejected(self):
        with pytest.raises(DomainError):
            kmw_bracket(F5, 0)
        with pytest.raises(DomainError):
            kmw_bracket(F5, 10)
        with pytest.raises(DomainError):
            kmw_bracket(F5, Fraction(5, 3))
        with pytest.raises(DomainError):
            kmw_bracket(QQ, 0)
        with pytest.raises(DomainError):
            kmw_bracket(F5, "g")

    def test_degree_bookkeeping(self):
        x = kmw_mul(kmw_power(kmw_eta(F5), 2), kmw_mul(kmw_bracket(F5, 2), kmw_mul(kmw_bracket(F5, 3), kmw_bracket(F5, 2))))
        assert x.degree == 1
        assert kmw_eta(F5).degree == -1
        assert kmw_scalar(F5, 3).degree == 0
        assert kmw_zero(F5).degree is None

    def test_mixed_degree_addition_rejected(self):
        with pytest.raises(DomainError):
            kmw_add(kmw_bracket(F5, 2), kmw_eta(F5))

    def test_zero_is_degree_polymorphic(self):
        z = kmw_zero(F5)
        b = kmw_bracket(F5, 2)
        assert kmw_add(z, b) == b
        assert kmw_add(b, z) == b
        assert kmw_equal(z, kmw_sub(b, b)) is True

    def test_field_mismatch_rejected(self):
        with pytest.raises(DomainError):
            kmw_add(kmw_bracket(F5, 2), kmw_bracket(F7, 2))
        with pytest.raises(DomainError):
            kmw_equal(kmw_eta(F5), kmw_eta(F7))

    def test_integer_coefficients_enforced(self):
        with pytest.raises(DomainError):
            kmw_scale(Fraction(1, 2), kmw_bracket(F5, 2))
        with pytest.raises(DomainError):
            KMWSymbol(F5, 1, ((0, (0, (2,))),))

    def test_eta_is_central(self):
        b = kmw_bracket(F5, 3)
        assert kmw_mul(b, kmw_eta(F5)) == kmw_mul(kmw_eta(F5), b)

    def test_products_under_the_term_cap_answer_as_before(self):
        # k forms with distinct entries: the sum over subsets S of eta^|S|
        # and the brackets of S, 2^k terms
        entries = range(2, 15)
        x = functools.reduce(kmw_mul, (kmw_form(QQ, a) for a in entries))
        subsets = (S for k in range(len(entries) + 1) for S in itertools.combinations(entries, k))
        assert x.terms == tuple(sorted((1, (len(S), tuple(map(Fraction, S)))) for S in subsets))
        # one repeated form merges to k + 1 terms, with binomial coefficients
        y = kmw_power(kmw_form(QQ, 2), 40)
        assert y.terms == tuple((comb(40, j), (j, (Fraction(2),) * j)) for j in range(41))
        with pytest.raises(CapExceeded, match="^symbol product: 32768 terms, over the cap of 25000$"):
            kmw_mul(x, kmw_mul(kmw_form(QQ, 15), kmw_form(QQ, 16)))

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            kmw_power(kmw_eta(F5), -1)

    def test_rendering(self):
        assert str(kmw_zero(QQ)) == "0"
        assert str(kmw_hyperbolic(QQ)) == "2 + eta [-1]"
        assert str(kmw_epsilon(QQ)) == "- 1 - eta [-1]"
        assert str(kmw_mul(kmw_bracket(QQ, 2), kmw_bracket(QQ, 3))) == "[2] [3]"
        assert str(kmw_power(kmw_eta(QQ), 2)) == "eta^2"


class TestDegreeZeroDictionary:
    def test_form_symbol_evaluates_to_diagonal_form(self):
        for field, unit in [(F5, 2), (F5, 3), (F7, 5), (F9, 2), (RC, -1), (RC, 2), (QC, 3)]:
            nf = kmw_normal_form(kmw_form(field, unit))
            assert nf.degree == 0
            assert gw_equal(nf.value, gw_make(field, [(1, unit)])) is True

    def test_round_trip_fixes_square_classes(self):
        cases = [(F5, (2, 3, -1)), (F7, (2, 3, -1)), (F9, (2, -1)), (RC, (2, 3, -1)), (QC, (2, 3, -1))]
        for field, units in cases:
            for unit in units:
                nf = kmw_normal_form(kmw_form(field, unit))
                assert gw_invariants(nf.value)["disc"] == square_class(field, unit)
                assert gw_invariants(nf.value)["rank"] == 1

    def test_hyperbolic_symbol(self):
        for field in (F5, RC, QC):
            nf = kmw_normal_form(kmw_hyperbolic(field))
            assert gw_equal(nf.value, hyperbolic(field)) is True

    def test_eta_times_hyperbolic_dies(self):
        for field in (F3, F5, F7, F9, RC, QC):
            x = kmw_mul(kmw_eta(field), kmw_hyperbolic(field))
            nf = kmw_normal_form(x)
            assert nf.degree == -1
            assert nf.is_zero()

    def test_form_squares_to_one_over_finite_fields(self):
        for q in (5, 7):
            field = finite_odd(q)
            one = kmw_scalar(field, 1)
            for a in units_mod(q):
                sq = kmw_mul(kmw_form(field, a), kmw_form(field, a))
                assert kmw_equal(sq, one) is True

    def test_epsilon_squares_to_one(self):
        for field in (F5, RC, QC):
            eps = kmw_epsilon(field)
            assert kmw_equal(kmw_mul(eps, eps), kmw_scalar(field, 1)) is True

    def test_negative_degree_routes_to_witt(self):
        x = kmw_mul(kmw_power(kmw_eta(RC), 2), kmw_bracket(RC, -1))
        nf = kmw_normal_form(x)
        assert nf.degree == -1
        assert nf.value.data[0] == -2


class TestFiniteNormalForms:
    def test_steinberg_vanishes(self):
        for q in (3, 5, 7):
            field = finite_odd(q)
            for a in range(2, q):
                st = kmw_mul(kmw_bracket(field, a), kmw_bracket(field, 1 - a))
                assert kmw_normal_form(st).is_zero()

    def test_pure_degree_two_symbols_vanish(self):
        for q in (3, 5, 7):
            field = finite_odd(q)
            for a in units_mod(q):
                for b in units_mod(q):
                    nf = kmw_normal_form(kmw_mul(kmw_bracket(field, a), kmw_bracket(field, b)))
                    milnor, witt = nf.value
                    assert milnor == 0 and witt.is_zero

    def test_degree_one_group_of_f5_is_cyclic_of_order_four(self):
        b = kmw_bracket(F5, 2)
        orders = [kmw_normal_form(kmw_scale(c, b)).is_zero() for c in range(1, 5)]
        assert orders == [False, False, False, True]

    def test_hyperbolic_acts_as_two_on_brackets(self):
        b = kmw_bracket(F5, 2)
        assert kmw_equal(kmw_mul(kmw_hyperbolic(F5), b), kmw_scale(2, b)) is True

    def test_witt_kernel_of_degree_one_f5(self):
        # multiples of [2]: the even ones and only those die in the ideal part
        b = kmw_bracket(F5, 2)
        for c in range(8):
            _milnor, witt = kmw_normal_form(kmw_scale(c, b)).value if c else (0, None)
            if c == 0:
                continue
            assert witt.is_zero == (c % 2 == 0)

    def test_milnor_part_matches_multiplicative_arithmetic(self):
        # independent oracle: sum of c [a] is detected by the product a^c mod p
        g = independent_primitive_root(5)
        for c2 in range(-2, 3):
            for c3 in range(-2, 3):
                for c4 in range(-2, 3):
                    pairs = [(2, c2), (3, c3), (4, c4)]
                    sym = kmw_zero(F5)
                    for a, c in pairs:
                        sym = kmw_add(sym, kmw_scale(c, kmw_bracket(F5, a)))
                    if not sym.terms:
                        assert fp_power_product(5, pairs) == 1
                        continue
                    milnor, witt = kmw_normal_form(sym).value
                    assert pow(g, milnor, 5) == fp_power_product(5, pairs)
                    assert (fp_power_product(5, pairs) == 1) == (milnor == 0)
                    assert (milnor % 2 == 1) == (not witt.is_zero)

    def test_prime_power_letters_embed_through_the_subfield(self):
        # 2 = -1 generates order 2 inside the order-8 unit group
        milnor, witt = kmw_normal_form(kmw_bracket(F9, 2)).value
        assert milnor == 4
        assert witt.is_zero  # every prime-subfield unit is a square here
        assert kmw_normal_form(kmw_scale(2, kmw_bracket(F9, 2))).is_zero()

    def test_exact_sequence_boundaries(self):
        # ideal-part kernel has even multiplicative part; multiplicative
        # kernel lands one ideal power deeper (here that power is zero)
        for c2 in range(4):
            for c3 in range(4):
                sym = kmw_add(kmw_scale(c2, kmw_bracket(F5, 2)), kmw_scale(c3, kmw_bracket(F5, 3)))
                if not sym.terms:
                    continue
                milnor, witt = kmw_normal_form(sym).value
                if witt.is_zero:
                    assert milnor % 2 == 0
                if milnor == 0:
                    assert witt.is_zero


class TestRealClosedNormalForms:
    def test_sign_symbol_powers_survive(self):
        for n in range(1, 7):
            nf = kmw_normal_form(kmw_power(kmw_bracket(RC, -1), n))
            milnor, witt = nf.value
            assert milnor == 1
            assert witt.data[0] == (-2) ** n
            assert abs(witt.data[0]) == 2 ** n

    def test_eta_shifts_keep_the_ideal_part(self):
        for n in range(1, 5):
            x = kmw_mul(kmw_eta(RC), kmw_power(kmw_bracket(RC, -1), n + 1))
            milnor, witt = kmw_normal_form(x).value
            assert x.degree == n
            assert milnor == 0
            assert witt.data[0] == (-2) ** (n + 1)

    def test_even_multiples_fall_into_the_next_ideal_power(self):
        milnor, witt = kmw_normal_form(kmw_scale(2, kmw_bracket(RC, -1))).value
        assert milnor == 0
        assert witt.data[0] == -4
        assert witt.data[0] % 4 == 0

    def test_fragment_boundary(self):
        with pytest.raises(NormalFormUnavailable):
            kmw_normal_form(kmw_bracket(RC, 2))
        # degree zero sees only square classes, so any unit is fine there
        nf = kmw_normal_form(kmw_form(RC, 2))
        assert gw_equal(nf.value, gw_make(RC, [(1, 1)])) is True

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)), min_size=1, max_size=4))
    def test_signature_matches_sign_arithmetic(self, shape):
        # common degree 1: each term's letter count exceeds its eta power by one
        items = [(c, s, [-1] * (s + 1)) for c, s in shape]
        sym = kmw_zero(RC)
        for c, s, letters in items:
            term = kmw_power(kmw_eta(RC), s)
            for a in letters:
                term = kmw_mul(term, kmw_bracket(RC, a))
            sym = kmw_add(sym, kmw_scale(c, term))
        if not sym.terms:
            return
        milnor, witt = kmw_normal_form(sym).value
        assert witt.data[0] == sign_product_signature(items)
        assert milnor == sum(c for c, s, _l in items if s == 0) % 2


class TestQuadraticallyClosedNormalForms:
    def test_positive_units_form_a_free_group(self):
        nf = kmw_normal_form(kmw_add(kmw_bracket(QC, 2), kmw_bracket(QC, 3)))
        assert nf.value[0] == Fraction(6)
        assert nf.value[1].is_zero
        assert kmw_normal_form(kmw_bracket(QC, Fraction(2, 3))).value[0] == Fraction(2, 3)
        assert kmw_equal(kmw_add(kmw_bracket(QC, 2), kmw_bracket(QC, 3)), kmw_bracket(QC, 6)) is True
        assert kmw_equal(kmw_bracket(QC, 2), kmw_bracket(QC, 3)) is False

    def test_fragment_boundaries(self):
        with pytest.raises(NormalFormUnavailable):
            kmw_normal_form(kmw_mul(kmw_bracket(QC, 2), kmw_bracket(QC, 3)))
        with pytest.raises(NormalFormUnavailable):
            kmw_normal_form(kmw_bracket(QC, -5))

    def test_milnor_part_bit_cap(self):
        # [2] counts 3 bits a copy against the cap of 10,000
        assert kmw_normal_form(kmw_scale(3333, kmw_bracket(QC, 2))).value[0] == 2 ** 3333
        with pytest.raises(CapExceeded, match="Milnor part over Qbar: 10002 bits exceeds the cap of 10000"):
            kmw_normal_form(kmw_scale(3334, kmw_bracket(QC, 2)))

    def test_eta_multiples_die_in_degree_one(self):
        x = kmw_mul(kmw_eta(QC), kmw_mul(kmw_bracket(QC, 2), kmw_bracket(QC, 3)))
        nf = kmw_normal_form(x)
        assert nf.degree == 1
        assert nf.is_zero()


class TestEquality:
    def test_centrality_is_syntactic(self):
        for field in (F5, QQ):
            b = kmw_bracket(field, 3)
            assert kmw_equal(kmw_mul(b, kmw_eta(field)), kmw_mul(kmw_eta(field), b)) is True

    def test_product_bracket_relation_over_f5(self):
        for a in range(1, 5):
            for b in range(1, 5):
                lhs = kmw_bracket(F5, a * b)
                rhs = kmw_add(
                    kmw_add(kmw_bracket(F5, a), kmw_bracket(F5, b)),
                    kmw_mul(kmw_eta(F5), kmw_mul(kmw_bracket(F5, a), kmw_bracket(F5, b))),
                )
                assert kmw_equal(lhs, rhs) is True

    def test_rational_comparisons_stay_honest(self):
        x = kmw_bracket(QQ, 6)
        y = kmw_add(
            kmw_add(kmw_bracket(QQ, 2), kmw_bracket(QQ, 3)),
            kmw_mul(kmw_eta(QQ), kmw_mul(kmw_bracket(QQ, 2), kmw_bracket(QQ, 3))),
        )
        assert kmw_equal(x, y) == "undecided"
        assert kmw_equal(x, x) is True
        assert kmw_equal(kmw_sub(x, x), kmw_zero(QQ)) is True

    def test_sound_refutations(self):
        assert kmw_equal(kmw_bracket(F5, 2), kmw_bracket(F5, 3)) is False
        assert kmw_equal(kmw_scalar(F5, 1), kmw_scalar(F5, 2)) is False

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DomainError):
            kmw_equal(kmw_bracket(F5, 2), kmw_eta(F5))

    def test_swap_class_formula_variants_agree(self):
        # 1 - (-1)^p eps^q against <1> + (-1)^(p+1+q) <-1>^q in degree zero
        for field in (QC, RC, F5):
            one = kmw_scalar(field, 1)
            eps = kmw_epsilon(field)
            minus = kmw_form(field, -1)
            for p in range(5):
                for q in range(5):
                    lhs = kmw_sub(one, kmw_scale((-1) ** p, kmw_power(eps, q)))
                    rhs = kmw_add(one, kmw_scale((-1) ** (p + 1 + q), kmw_power(minus, q)))
                    assert kmw_equal(lhs, rhs) is True


class TestDefiningRelations:
    def test_all_four_exhaustively_in_low_degree(self):
        for q in (3, 5, 7):
            field = finite_odd(q)
            eta = kmw_eta(field)
            h = kmw_hyperbolic(field)
            zero = kmw_zero(field)
            units = list(range(2, q)) or [2]
            for a in units:
                st = kmw_mul(kmw_bracket(field, a), kmw_bracket(field, 1 - a))
                assert kmw_equal(st, zero) is True
                assert kmw_equal(kmw_mul(kmw_bracket(field, a), eta), kmw_mul(eta, kmw_bracket(field, a))) is True
                for b in units:
                    # padded to degree 3 on either side
                    assert kmw_equal(kmw_mul(kmw_bracket(field, b), st), zero) is True
                    assert kmw_equal(kmw_mul(st, kmw_bracket(field, b)), zero) is True
            for a in range(1, q):
                a = a % field.characteristic or 1
                for b in range(1, q):
                    lhs = kmw_bracket(field, a * b)
                    rhs = kmw_add(
                        kmw_add(kmw_bracket(field, a), kmw_bracket(field, b)),
                        kmw_mul(eta, kmw_mul(kmw_bracket(field, a), kmw_bracket(field, b))),
                    )
                    assert kmw_equal(lhs, rhs) is True
                    for c in units:
                        assert kmw_equal(kmw_mul(kmw_bracket(field, c), lhs), kmw_mul(kmw_bracket(field, c), rhs)) is True
            assert kmw_equal(kmw_mul(eta, h), zero) is True
            assert kmw_equal(kmw_mul(kmw_mul(eta, h), eta), zero) is True
            for a in units:
                assert kmw_equal(kmw_mul(kmw_mul(eta, h), kmw_bracket(field, a)), zero) is True

    @settings(max_examples=40)
    @given(
        st.integers(2, 4),
        st.integers(2, 4),
        st.integers(0, 2),
        st.integers(-2, 2),
    )
    def test_normal_form_is_additive_over_f5(self, a, b, s, c):
        x = kmw_mul(kmw_power(kmw_eta(F5), s + 1), kmw_mul(kmw_bracket(F5, a), kmw_mul(kmw_bracket(F5, b), kmw_power(kmw_eta(F5), 0))))
        y = kmw_scale(c, kmw_mul(kmw_power(kmw_eta(F5), s + 1), kmw_mul(kmw_bracket(F5, 2), kmw_bracket(F5, 3))))
        total = kmw_add(x, y)
        if x.degree != 1 or not total.terms:
            return
        nx, ny, nxy = kmw_normal_form(x), kmw_normal_form(y), kmw_normal_form(total)
        assert nxy.value[0] == (nx.value[0] + (ny.value[0] if ny.degree else 0)) % 4


class TestSheafTags:
    def test_tokens(self):
        assert sheaf_token(SheafExpr("KMW", (5,))) == "KMW(5)"
        assert sheaf_token(SheafExpr("KM_mod", (5, 24))) == "KM(5)/24"
        assert sheaf_token(SheafExpr("I", (3,))) == "I(3)"
        assert sheaf_token(SheafExpr("W")) == "W"
        assert sheaf_token(SheafExpr("Z")) == "Z"
        assert sheaf_token(SheafExpr("Z_mod", (24,))) == "Z/24"
        assert sheaf_token(SheafExpr("Zero")) == "0"
        inner = SheafExpr("Tensor", (SheafExpr("KMW", (2,)), SheafExpr("KMW", (3,))))
        assert sheaf_token(inner) == "KMW(2) (x) KMW(3)"
        assert sheaf_token(SheafExpr("Contraction", (SheafExpr("KMW", (5,)), 6))) == "KMW(5)_{-6}"

    def test_malformed_expressions_rejected(self):
        with pytest.raises(DomainError):
            SheafExpr("GW")
        with pytest.raises(DomainError):
            SheafExpr("KMW", (1, 2))
        with pytest.raises(DomainError):
            SheafExpr("KM_mod", (3, 1))
        with pytest.raises(DomainError):
            SheafExpr("Tensor", (SheafExpr("Z"), 3))
        with pytest.raises(DomainError):
            SheafExpr("Contraction", (SheafExpr("Z"), -1))
        # degrees are integers, and a bool is not one
        for degree in ("a", 1.5, True, Fraction(2)):
            with pytest.raises(DomainError, match="^a degree must be an integer$"):
                SheafExpr("KMW", (degree,))
            with pytest.raises(DomainError, match="^a degree must be an integer$"):
                SheafExpr("KM_mod", (degree, 8))
        with pytest.raises(DomainError, match="^a degree must be an integer$"):
            aone_tensor(SheafExpr("KMW", (1.5,)), SheafExpr("KMW", (2,)))
        with pytest.raises(DomainError, match="^a degree must be an integer$"):
            contraction(SheafExpr("KMW", (True,)), 1)
        with pytest.raises(DomainError, match="^contraction count must be a non-negative integer$"):
            contraction(SheafExpr("KMW", (2,)), True)
        with pytest.raises(DomainError, match="^a modulus must be an integer >= 2$"):
            SheafExpr("Z_mod", (True,))
        # negative degrees stay allowed
        assert contraction(SheafExpr("KMW", (-2,)), 1) == SheafExpr("W")
        assert sheaf_token(SheafExpr("I", (-1,))) == "I(-1)"

    def test_tokens_parse_back(self):
        # the token table and the CLI grammar agree on every leaf tag
        values = {"degree": range(-2, 6), "modulus": (2, 8, 24)}
        leaves = [tag for tag, (kinds, _) in _SHEAF_TAGS.items() if all(k in values for k in kinds)]
        assert sorted(leaves) == ["I", "KM", "KMW", "KM_mod", "W", "Z", "Z_mod", "Zero"]
        for tag in leaves:
            for args in itertools.product(*(values[k] for k in _SHEAF_TAGS[tag][0])):
                e = SheafExpr(tag, args)
                assert parse_sheaf_expr(sheaf_token(e)) == e

    def test_contraction_table(self):
        assert contraction(SheafExpr("KMW", (5,)), 6) == SheafExpr("W")
        assert contraction(SheafExpr("KMW", (5,)), 2) == SheafExpr("KMW", (3,))
        assert contraction(SheafExpr("KM", (5,)), 5) == SheafExpr("Z")
        assert contraction(SheafExpr("KM", (5,)), 6) == SheafExpr("Zero")
        assert contraction(SheafExpr("KM", (5,)), 2) == SheafExpr("KM", (3,))
        assert contraction(SheafExpr("KM_mod", (5, 24)), 5) == SheafExpr("Z_mod", (24,))
        assert contraction(SheafExpr("KM_mod", (3, 8)), 4) == SheafExpr("Zero")
        assert contraction(SheafExpr("KM_mod", (3, 8)), 1) == SheafExpr("KM_mod", (2, 8))
        assert contraction(SheafExpr("I", (3,)), 3) == SheafExpr("W")
        assert contraction(SheafExpr("I", (3,)), 1) == SheafExpr("I", (2,))
        assert contraction(SheafExpr("KMW", (0,)), 1) == SheafExpr("W")
        for stable in (SheafExpr("W"), SheafExpr("Z"), SheafExpr("Z_mod", (24,)), SheafExpr("Zero")):
            assert contraction(stable, 3) == stable

    def test_zero_contraction_is_identity(self):
        for e in (SheafExpr("KMW", (5,)), SheafExpr("KM", (0,)), SheafExpr("I", (3,)), SheafExpr("W")):
            assert contraction(e, 0) == e

    def test_contraction_guards(self):
        with pytest.raises(DomainError):
            contraction(SheafExpr("KMW", (5,)), -1)

    def test_tensor_table(self):
        assert aone_tensor(SheafExpr("KMW", (2,)), SheafExpr("KMW", (3,))) == SheafExpr("KMW", (5,))
        for n in range(4, 9):
            out = aone_tensor(SheafExpr("KMW", (n - 3,)), SheafExpr("KM_mod", (5, 24)))
            assert sheaf_token(out) == f"KM({n + 2})/24"
        assert aone_tensor(SheafExpr("KM_mod", (5, 24)), SheafExpr("KMW", (2,))) == SheafExpr("KM_mod", (7, 24))
        assert aone_tensor(SheafExpr("KM_mod", (1, 8)), SheafExpr("KM_mod", (2, 8))) == SheafExpr("KM_mod", (3, 8))
        assert aone_tensor(SheafExpr("Z"), SheafExpr("KMW", (4,))) == SheafExpr("KMW", (4,))
        assert aone_tensor(SheafExpr("I", (3,)), SheafExpr("Z")) == SheafExpr("I", (3,))

    def test_pairs_outside_the_table_are_refused(self):
        with pytest.raises(NoTensorRule):
            aone_tensor(SheafExpr("KMW", (0,)), SheafExpr("KMW", (1,)))
        with pytest.raises(NoTensorRule):
            aone_tensor(SheafExpr("KM", (2,)), SheafExpr("KMW", (1,)))
        with pytest.raises(NoTensorRule):
            aone_tensor(SheafExpr("W"), SheafExpr("W"))
        with pytest.raises(NoTensorRule):
            aone_tensor(SheafExpr("KM_mod", (1, 8)), SheafExpr("KM_mod", (2, 12)))
        with pytest.raises(NoTensorRule):
            aone_tensor(SheafExpr("Zero"), SheafExpr("KMW", (1,)))

    def test_contraction_commutes_with_tensor_resolution(self):
        pair = SheafExpr("Tensor", (SheafExpr("KMW", (2,)), SheafExpr("KMW", (3,))))
        for j in range(8):
            assert contraction(pair, j) == contraction(SheafExpr("KMW", (5,)), j)

    def test_nested_nodes_resolve_first(self):
        nested = SheafExpr("Contraction", (SheafExpr("KMW", (5,)), 6))
        assert contraction(nested, 0) == SheafExpr("W")
        tensor_of_contraction = SheafExpr("Tensor", (SheafExpr("Contraction", (SheafExpr("KMW", (4,)), 2)), SheafExpr("KMW", (3,))))
        assert contraction(tensor_of_contraction, 0) == SheafExpr("KMW", (5,))


class TestRationalDecomposition:
    def test_finite_fields_lose_the_ideal_part(self):
        report = rational_decomposition(3, F7)
        assert report["milnor_part_nontrivial"] is True
        assert report["I_part_nontrivial"] is False

    def test_orderable_fields_keep_it(self):
        report = rational_decomposition(-2, RC)
        assert report["I_part_nontrivial"] is True
        assert report["milnor_part_nontrivial"] is False
        assert rational_decomposition(-1, QQ)["I_part_nontrivial"] is True

    def test_degree_zero_always_keeps_the_multiplicative_part(self):
        for field in (F5, RC, QC, QQ):
            assert rational_decomposition(0, field)["milnor_part_nontrivial"] is True

    def test_quadratically_closed_has_no_ideal_part(self):
        assert rational_decomposition(5, QC)["I_part_nontrivial"] is False
