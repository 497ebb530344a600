"""Smith normal form and reduced integral homology."""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ehpcalc import cli, homology, simplicial
from ehpcalc.errors import CapExceeded, DomainError
from ehpcalc.homology import (
    HomologyGroup,
    IntegerMatrix,
    euler_characteristic,
    homology_to_doc,
    _smith,
    chain_homology,
    james_chains,
    normalized_chain_complex,
    reduced_chains,
    reduced_homology,
    reduced_product,
    smith_normal_form,
    tensor,
)
from ehpcalc.james import smash_power
from ehpcalc.simplicial import (SSet, Simplex, build_sphere, dimension_census, point, product, smash, suspension,
                                wedge)

from oracles import (
    gcd_of_minors,
    homology_ranks_from_chains,
    integer_det,
    rational_rank,
    reference_smith_normal_form,
)
from test_cli import BOUNDED_INPUTS, COMPOSITE_ANSWERS, GOLDEN_ERRORS

S0, S1, S2, S3 = (build_sphere(n) for n in range(4))

# Moore space M(Z/2, 1): a loop a with a 2-cell f glued along a twice
MOORE = SSet.build(
    "*",
    {"*": 0, "a": 1, "f": 2},
    {
        "a": (Simplex("*", (), 0), Simplex("*", (), 0)),
        "f": (Simplex("a", (), 1), Simplex("*", (0,), 1), Simplex("a", (), 1)),
    },
)


def random_matrix(rng, rows, cols, bound=9):
    return IntegerMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols
    )


def random_unimodular(rng, n, steps=12):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntegerMatrix.from_rows(rows, n)


class TestSmithNormalForm:
    def test_zero_matrix(self):
        factors, U, V = smith_normal_form(IntegerMatrix.zero(3, 4))
        assert factors == []
        assert U == IntegerMatrix.identity(3) and V == IntegerMatrix.identity(4)

    def test_identity(self):
        factors, _, _ = smith_normal_form(IntegerMatrix.identity(2))
        assert factors == [1, 1]

    def test_diag_2_3(self):
        M = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        factors, U, V = smith_normal_form(M)
        assert factors == [1, 6]
        assert (U @ M @ V).entries == ((1, 0), (0, 6))

    def test_empty_shapes(self):
        assert smith_normal_form(IntegerMatrix.zero(0, 5))[0] == []
        assert smith_normal_form(IntegerMatrix.zero(5, 0))[0] == []
        assert smith_normal_form(IntegerMatrix.zero(0, 0))[0] == []

    def test_random_against_minor_gcds(self):
        rng = random.Random(7)
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            M = random_matrix(rng, rows, cols)
            factors, U, V = smith_normal_form(M)
            assert abs(integer_det([list(r) for r in U.entries])) == 1
            assert abs(integer_det([list(r) for r in V.entries])) == 1
            D = U @ M @ V
            for i in range(D.rows):
                for j in range(D.cols):
                    if i != j:
                        assert D.entries[i][j] == 0
            for a, b in zip(factors, factors[1:]):
                assert a > 0 and b % a == 0
            # d_1 ... d_k equals the gcd of all k x k minors
            prod = 1
            mat = [list(r) for r in M.entries]
            for k, d in enumerate(factors, start=1):
                prod *= d
                assert prod == gcd_of_minors(mat, k)
            assert len(factors) == rational_rank(mat)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_unimodular_stability(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, rows, cols)
        P = random_unimodular(rng, rows)
        Q = random_unimodular(rng, cols)
        assert smith_normal_form(P @ M @ Q)[0] == smith_normal_form(M)[0]

    def test_dense_draws_certify_with_small_entries(self):
        # Dense draws whose certificates once grew to 409,237 bits: thirty
        # 11 x 11 matrices drawn after thirty each of sizes 3 to 10, then
        # thirty 12 x 12 ones from the same stream.
        rng = random.Random(1)
        for n in range(3, 11):
            for _ in range(30):
                random_matrix(rng, n, n)
        for n in (11, 12):
            for _ in range(30):
                assert_certified(random_matrix(rng, n, n), 64 * n)

    @pytest.mark.parametrize("n", [20, 24])
    def test_large_draws_stay_small(self, n):
        # With no size reduction of U at all, the 20 x 20 draw reaches 23,433 bits.
        assert_certified(random_matrix(random.Random(n), n, n), 64 * n)

    def test_reduction_ends_on_six_digit_entries(self):
        # The size reduction once took any step that shortened a row at all,
        # and ran for minutes on this matrix. The bound is 64 n bits per 4
        # bits of entry (9 has 4); with no size reduction V reaches 9,919.
        rng = random.Random(13)
        rows = [[rng.randint(-999_999, 999_999) if rng.random() < 0.7 else 0 for _ in range(11)] for _ in range(10)]
        assert_certified(IntegerMatrix.from_rows(rows, 11), 64 * 11 * (999_999).bit_length() // 4)


def assert_certified(M, most_bits):
    """smith_normal_form(M) has U*M*V = diag(factors), unimodular U and V,
    and no entry of U or V with most_bits bits or more."""
    factors, U, V = smith_normal_form(M)
    assert (U @ M @ V).entries == tuple(
        tuple(factors[i] if i == j and i < len(factors) else 0 for j in range(M.cols)) for i in range(M.rows))
    assert abs(integer_det([list(r) for r in U.entries])) == 1
    assert abs(integer_det([list(r) for r in V.entries])) == 1
    assert max(abs(v).bit_length() for X in (U, V) for r in X.entries for v in r) < most_bits


SPARSE_ENTRIES = (0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -3, 4, -4, 6)


@st.composite
def sparse_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=9))
    cols = draw(st.integers(min_value=0, max_value=9))
    cell = st.sampled_from(SPARSE_ENTRIES)
    return [[draw(cell) for _ in range(cols)] for _ in range(rows)], cols


def sparse_factors(columns):
    return [abs(d) for _, _, d in _smith(columns)[0]]


class TestUnitPivotElimination:
    """The sparse engine behind reduced_homology against the dense reference
    Smith form and the oracles."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_factors_match_dense_smith(self, drawn):
        mat, cols = drawn
        columns = [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(cols)]
        factors = sparse_factors(columns)
        assert factors == reference_smith_normal_form(mat, cols)[0]
        assert len(factors) == rational_rank(mat)
        # d_1 ... d_k is the gcd of the k x k minors; skip k with too many minors
        prod = 1
        for k, d in enumerate(factors, start=1):
            prod *= d
            if math.comb(len(mat), k) * math.comb(cols, k) <= 2000:
                assert prod == gcd_of_minors(mat, k)

    def test_remainder_is_reduced_densely(self):
        # no +-1 entry at all, so everything goes through the Euclid stage
        cases = [([{0: 2, 1: 4}, {0: 6, 1: 2}], [[2, 6], [4, 2]], [2, 10]),
                 ([{0: 2}, {}, {1: 3}], [[2, 0, 0], [0, 0, 3]], [1, 6]),
                 ([], [], [])]
        for columns, mat, factors in cases:
            assert sparse_factors(columns) == factors
            assert reference_smith_normal_form(mat, len(columns))[0] == factors

    def test_large_smash_power(self):
        assert reduced_homology(smash_power(S1, 6)) == {6: HomologyGroup(1)}


class TestTorsion:
    def test_moore_space(self):
        assert reduced_homology(MOORE) == {1: HomologyGroup(0, (2,))}

    def test_smash_of_moore_spaces(self):
        assert reduced_homology(smash(MOORE, MOORE)) == {
            2: HomologyGroup(0, (2,)),
            3: HomologyGroup(0, (2,)),
        }

    def test_product_with_circle(self):
        assert reduced_homology(product(MOORE, S1)) == {
            1: HomologyGroup(1, (2,)),
            2: HomologyGroup(0, (2,)),
        }

    def test_wedge_of_moore_spaces(self):
        assert reduced_homology(wedge(MOORE, MOORE)) == {1: HomologyGroup(0, (2, 2))}

    def test_json_doc(self):
        assert homology_to_doc(reduced_homology(MOORE)) == [
            {"degree": 1, "free_rank": 0, "torsion": [2]}
        ]


ATOMS = ("M", "S0", "S1", "S2", "pt")

# composites of up to three atoms: an atom's name, (op, left, right) for op
# in + x ^, or (J or Q, inner, level) with level <= 3
composites = st.recursive(
    st.sampled_from(ATOMS),
    lambda sub: st.tuples(st.sampled_from("+x^"), sub, sub) | st.tuples(st.sampled_from("JQ"), sub, st.integers(1, 3)),
    max_leaves=3)


def fold(e, alg):
    """e evaluated in one of the CLI's algebras: built complexes or chains;
    M, which the grammar lacks, is lifted from its built complex."""
    if e == "M":
        return MOORE if alg is cli._BUILD else reduced_chains(MOORE)
    if e == "pt":
        return alg.point()
    if isinstance(e, str):
        return alg.sphere(int(e[1:]))
    op, a, b = e
    if op in "JQ":
        return (alg.james if op == "J" else alg.quotient)(fold(a, alg), b)
    return {"+": alg.wedge, "x": alg.product, "^": alg.smash}[op](fold(a, alg), fold(b, alg))


def text(e):
    """e as a space expression; it parses when e has no M, which the grammar lacks."""
    if isinstance(e, str):
        return e
    op, a, b = e
    return f"{op}({text(a)},{b})" if op in "JQ" else f"({text(a)}{op}{text(b)})"


def chains(e):
    return fold(e, cli._CHAINS)


class TestChainsOfParts:
    """Eilenberg-Zilber: the chains of a wedge, product or smash from those of its parts."""

    @settings(max_examples=60, deadline=None)
    @given(composites)
    def test_match_the_built_complex(self, e):
        try:
            want = reduced_homology(fold(e, cli._BUILD))
        except CapExceeded:
            return  # past a cap of the built path; the chains may still answer
        assert chain_homology(chains(e)) == want
        if "M" not in text(e):
            assert chain_homology(cli._eval_space(text(e), cli._CHAINS)) == want

    def test_kunneth_tor_terms(self):
        assert chain_homology(chains(("^", "M", "M"))) == {2: HomologyGroup(0, (2,)), 3: HomologyGroup(0, (2,))}
        assert chain_homology(chains(("x", "M", "S1"))) == {1: HomologyGroup(1, (2,)), 2: HomologyGroup(0, (2,))}
        assert chain_homology(chains(("x", "M", "M"))) == {
            1: HomologyGroup(0, (2, 2)), 2: HomologyGroup(0, (2,)), 3: HomologyGroup(0, (2,))}

    def test_tensor_counted_before_built(self):
        many = [[{}] * 200, []]  # 200 cells in degree 0
        with pytest.raises(CapExceeded, match="^smash: 40000 chain cells, over the cap of 25000$"):
            tensor(many, many)
        with pytest.raises(CapExceeded, match="^product: 40000 chain cells, over the cap of 25000$"):
            reduced_product(many, many)

    def test_james_powers_counted_before_built(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a tensor power was built")

        monkeypatch.setattr(homology, "tensor", unreachable)
        with pytest.raises(CapExceeded, match="^james truncation: 25197 chain cells and degrees in 222 powers, "
                                              "over the cap of 25000$"):
            james_chains(reduced_chains(S1), 100000000)
        with pytest.raises(CapExceeded, match="^james quotient: 25002 chain cells and degrees in 12501 powers, "
                                              "over the cap of 25000$"):
            james_chains(reduced_chains(S0), 100000000, quotient=True)
        assert james_chains(reduced_chains(point()), 100000000) == []
        with pytest.raises(DomainError, match="^truncation level must be >= 1$"):
            james_chains(reduced_chains(point()), 0)

    def test_unbuilt_atoms_match_the_built(self):
        for n in range(9):
            assert cli._CHAINS.sphere(n) == reduced_chains(build_sphere(n))
            assert cli._CENSUS.sphere(n) == dimension_census(build_sphere(n), True)
        assert cli._CHAINS.point() == reduced_chains(point())
        assert cli._CENSUS.point() == dimension_census(point(), True)

    def test_cli_builds_no_product(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a complex was built")

        # every complex, the atoms included, is checked by SSet.build
        monkeypatch.setattr(simplicial.SSet, "build", unreachable)
        assert cli.main(["homology", "--space", "S2xS2xS2"]) == 0
        assert capsys.readouterr().out == "{2: Z^3, 4: Z^3, 6: Z}\n"
        # the golden homology and james calls of the CLI tests read the same
        for argv, code, err in GOLDEN_ERRORS:
            if argv[0] in ("homology", "james"):
                assert (cli.main(argv), *capsys.readouterr()) == (code, "", err), argv
        for space, out in COMPOSITE_ANSWERS:
            assert (cli.main(["homology", "--space", space]), *capsys.readouterr()) == (0, out, ""), space
        for argv, stdout in BOUNDED_INPUTS:
            if argv[0] in ("homology", "james"):
                code, out, err = cli.main(argv), *capsys.readouterr()
                if stdout is None:
                    assert code == 1 and err.startswith("error: "), argv
                else:
                    assert (code, out) == (0, stdout), argv


class TestHomologyGroup:
    def test_divisibility_enforced(self):
        with pytest.raises(DomainError):
            HomologyGroup(0, (4, 6))
        with pytest.raises(DomainError):
            HomologyGroup(0, (1,))

    def test_str(self):
        assert str(HomologyGroup(0)) == "0"
        assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


# Refusals of the matrix and group values, with their texts.
REFUSALS = [
    ("IntegerMatrix: negative dimension", lambda: IntegerMatrix(-1, 0, ()), "negative matrix dimension"),
    ("IntegerMatrix: row count", lambda: IntegerMatrix(2, 0, ((),)), "row count mismatch"),
    ("IntegerMatrix: column count", lambda: IntegerMatrix(1, 2, ((1,),)), "column count mismatch"),
    ("IntegerMatrix: product shapes", lambda: IntegerMatrix.identity(2) @ IntegerMatrix.identity(3),
     "matrix shapes do not compose"),
    ("IntegerMatrix: float entries", lambda: IntegerMatrix(1, 2, ((1.5, 2.5),)),
     "matrix entry must be of type int, got 1.5"),
    ("IntegerMatrix: bool entry", lambda: IntegerMatrix(1, 1, ((True,),)), "matrix entry must be of type int, got True"),
    ("from_rows: float", lambda: IntegerMatrix.from_rows([[2.9]]), "matrix entry must be of type int, got 2.9"),
    ("from_rows: fraction", lambda: IntegerMatrix.from_rows([[1, Fraction(5, 2)]]),
     "matrix entry must be of type int, got Fraction(5, 2)"),
    ("from_rows: string", lambda: IntegerMatrix.from_rows([["3"]]), "matrix entry must be of type int, got '3'"),
    ("smith_normal_form: float entry", lambda: smith_normal_form(IntegerMatrix.from_rows([[1.5, 2]])),
     "matrix entry must be of type int, got 1.5"),
    ("HomologyGroup: negative rank", lambda: HomologyGroup(-1), "negative free rank"),
]


@pytest.mark.parametrize("call, text", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_refused_with_its_text(call, text):
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        call()


def dense(columns, n):
    """The boundary out of degree n as a list of rows."""
    return [[col.get(r, 0) for col in columns[n]] for r in range(len(columns[n - 1]))]


class TestChainComplex:
    def test_circle_boundary_is_zero(self):
        assert normalized_chain_complex(S1) == ((("*",), ("e1",)), [[{}], [{}]])

    def test_sphere_boundaries_zero(self):
        gens, columns = normalized_chain_complex(S2)
        assert gens == (("*",), (), ("e2",))
        assert columns == [[{}], [], [{}]]

    def test_torus_rank_one_boundary(self):
        _, columns = normalized_chain_complex(product(S1, S1), reduced=True)
        assert rational_rank(dense(columns, 2)) == 1

    def test_composite_checked(self):
        with pytest.raises(DomainError):
            chain_homology([[{}], [{0: 1}, {0: -1}], [{0: 1}]])

    def test_composite_checked_beyond_first_degree(self):
        with pytest.raises(DomainError, match="nonzero in degree 3"):
            chain_homology([[{}], [{}], [{0: 1}], [{0: 2}]])

    @pytest.mark.parametrize("columns, n", [
        ([[{}], [{5: 1}]], 1),
        ([[{}], [{}], [{5: 1}]], 2),
        ([[{}], [{}], [{-1: 1}]], 2),
        ([[{}, {0: 1}]], 0),
        ([[{0: 1}], [{0: 1}]], 0),
    ])
    def test_shape_checked(self, columns, n):
        with pytest.raises(DomainError) as info:
            chain_homology(columns)
        assert str(info.value) == f"boundary shape mismatch in degree {n}"

    def test_moore_space_boundary(self):
        # d_2 f = a - s_0(*) + a, and the degenerate face drops out
        assert normalized_chain_complex(MOORE, reduced=True) == (((), ("a",), ("f",)), [[], [{}], [{0: 2}]])

    def test_reduced_drops_basepoint(self):
        gens, _ = normalized_chain_complex(S0, reduced=True)
        assert gens[0] == ("e0",)


class TestReducedHomology:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_spheres(self, n):
        assert reduced_homology(build_sphere(n)) == {n: HomologyGroup(1)}

    def test_point_and_s0(self):
        assert reduced_homology(point()) == {}
        assert reduced_homology(S0) == {0: HomologyGroup(1)}

    def test_smash_of_circles(self):
        assert reduced_homology(smash(S1, S1)) == {2: HomologyGroup(1)}

    def test_torus(self):
        assert reduced_homology(product(S1, S1)) == {1: HomologyGroup(2), 2: HomologyGroup(1)}

    def test_wedge(self):
        assert reduced_homology(wedge(S1, S1)) == {1: HomologyGroup(2)}
        assert reduced_homology(wedge(S1, S2)) == {1: HomologyGroup(1), 2: HomologyGroup(1)}

    def test_suspension_shifts(self):
        for K in [S1, wedge(S1, S1), smash(S1, S1)]:
            shifted = {n + 1: g for n, g in reduced_homology(K).items()}
            assert reduced_homology(suspension(K)) == shifted

    def test_free_ranks_match_chain_oracle(self):
        for K in [S2, product(S1, S1), wedge(S1, S2), smash(S1, S1)]:
            gens, columns = normalized_chain_complex(K, reduced=True)
            sizes = {n: len(g) for n, g in enumerate(gens)}
            bnd = {n: dense(columns, n) for n in range(1, len(columns))}
            expected = homology_ranks_from_chains(bnd, sizes)
            got = {n: g.free_rank for n, g in reduced_homology(K).items() if g.free_rank}
            assert got == expected

    def test_euler_characteristic_matches(self):
        for K in [point(), S0, S1, S2, product(S1, S1), wedge(S1, S2), smash(S1, S1)]:
            chi = sum((-1) ** n * g.free_rank for n, g in reduced_homology(K).items())
            assert chi == euler_characteristic(K)

    def test_json_doc(self):
        doc = homology_to_doc(reduced_homology(product(S1, S1)))
        assert doc == [
            {"degree": 1, "free_rank": 2, "torsion": []},
            {"degree": 2, "free_rank": 1, "torsion": []},
        ]
