"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each check re-derives its expected answers from scratch (brute-force
enumeration, representation counting, determinants over Q, parity closed
forms) rather than trusting the module under test, and enforces the wall
clock budget it is allowed.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

from ehpcalc.ehp import (
    SphereBidegree,
    degree_by_signed_preimages,
    ehp_sequence_report,
    hp_differential,
    hp_differential_variant,
    hp_invariant_report,
    signed_preimages,
)
from ehpcalc.gw import (
    finite_odd,
    gw_add,
    gw_equal,
    gw_invariants,
    gw_make,
    gw_one,
    gw_scale,
    gw_sub,
    gw_zero,
    quadratically_closed,
    real_closed,
    witt_class,
    witt_ring_table,
)
from ehpcalc.homology import HomologyGroup, IntegerMatrix, reduced_homology, smith_normal_form
from ehpcalc.james import (
    JamesWord,
    james_hopf_map,
    james_hopf_word,
    james_quotient,
    james_truncation,
    smash_power,
    smash_power_class,
    suspension_unit_E,
    word_token,
)
from ehpcalc.kmw import (
    SheafExpr,
    aone_tensor,
    contraction,
    kmw_add,
    kmw_bracket,
    kmw_equal,
    kmw_eta,
    kmw_form,
    kmw_hyperbolic,
    kmw_mul,
    kmw_normal_form,
    kmw_scalar,
    kmw_scale,
    kmw_zero,
    sheaf_token,
)
from ehpcalc.simplicial import SSet, Simplex, build_sphere, degenerate, wedge

from oracles import assert_generator_isomorphism, reference_smith_normal_form


def check(num, bound, name):
    """Print one pass/fail line for the wrapped body and enforce its budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"acceptance {num:2d} FAIL ({elapsed:.2f}s)  {name}")
                raise
            elapsed = time.perf_counter() - start
            print(f"acceptance {num:2d} PASS ({elapsed:.2f}s < {bound:g}s)  {name}")
            assert elapsed < bound, f"budget exceeded: {elapsed:.2f}s >= {bound:g}s"

        return wrapper

    return deco


def letters_complex(names, dim=1):
    """Wedge of circles with one named free letter per generator."""
    bp = Simplex("*", tuple(range(dim - 2, -1, -1)), dim - 1)
    dims = {"*": 0}
    faces = {}
    for name in names:
        dims[name] = dim
        faces[name] = tuple(bp for _ in range(dim + 1))
    return SSet.build("*", dims, faces)


@check(1, 1.0, "subsequence words match brute-force enumeration")
def test_01_hopf_word_matches_brute_force_enumeration():
    W = letters_complex("abcdef")
    all_letters = tuple(W.simplex(g) for g in "abcdef")
    for q in range(1, 7):
        word = JamesWord(W, 1, all_letters[:q])
        for r in range(1, 4):
            got = james_hopf_word(word, r)
            # independent enumeration: filter all index tuples instead of
            # generating combinations, then sort lexicographically
            tuples = sorted(
                idx
                for idx in itertools.product(range(q), repeat=r)
                if all(a < b for a, b in zip(idx, idx[1:]))
            )
            expected = tuple(
                smash_power_class(W, r, tuple(word.letters[i] for i in idx))
                for idx in tuples
            )
            assert got.letters == expected
            assert got == JamesWord(smash_power(W, r), 1, expected)


@check(2, 1.0, "subsequence maps kill one-letter words")
def test_02_hopf_of_unit_inclusion_is_trivial():
    S1 = build_sphere(1)
    complexes = [build_sphere(0), S1, build_sphere(2), wedge(S1, S1)]
    for K in complexes:
        E = suspension_unit_E(K, 1)
        for r in (2, 3):
            H = james_hopf_map(K, 1, r)
            for g in K.generators():
                x = K.simplex(g)
                image = H(E(x))
                assert image == H.target.basepoint_simplex(x.dim)
                if x.dim >= 1:
                    y = degenerate(x, 0)
                    assert H(E(y)) == H.target.basepoint_simplex(y.dim)
        # word level: a one-letter word has no subsequence of length >= 2.
        # The target smash power is built even for an empty answer, so keep
        # the deep exponents on the complexes whose powers stay small.
        deep = K.generators() == ("*", "e0") or K.generators() == ("*", "e1")
        for g in K.generators():
            if g == K.basepoint:
                continue
            x = K.simplex(g)
            w = JamesWord(K, x.dim, (x,))
            for r in range(2, 6 if deep else 4):
                hw = james_hopf_word(w, r)
                assert hw.letters == ()
                assert word_token(hw) == "*"


@check(3, 30.0, "filtration quotients are smash powers")
def test_03_filtration_quotient_is_smash_power():
    S1 = build_sphere(1)
    cases = [
        (K, n)
        for K in (build_sphere(0), S1, build_sphere(2), wedge(S1, S1))
        for n in (1, 2)
    ] + [(S1, 3), (S1, 4), (build_sphere(2), 3)]
    for K, n in cases:
        Q, witness = james_quotient(K, n)
        assert_generator_isomorphism(Q, smash_power(K, n), witness)


@check(4, 60.0, "truncation homology splits as a sum over smash powers")
def test_04_truncation_homology_is_sum_of_smash_powers():
    for K in (build_sphere(1), build_sphere(2)):
        for n in (1, 2, 3):
            got = reduced_homology(james_truncation(K, n))
            # direct sum per degree: free ranks add, and the invariant
            # factors come from the reference Smith form of the diagonal
            ranks: dict[int, int] = {}
            torsion: dict[int, list[int]] = {}
            for i in range(1, n + 1):
                for deg, group in reduced_homology(smash_power(K, i)).items():
                    ranks[deg] = ranks.get(deg, 0) + group.free_rank
                    torsion.setdefault(deg, []).extend(group.torsion)
            expected = {}
            for deg, rank in ranks.items():
                t = torsion[deg]
                diagonal = [[t[i] if i == j else 0 for j in range(len(t))] for i in range(len(t))]
                factors = tuple(f for f in reference_smith_normal_form(diagonal, len(t))[0] if f > 1)
                group = HomologyGroup(rank, factors)
                if not group.is_trivial:
                    expected[deg] = group
            assert got == expected


def bareiss_det(M: IntegerMatrix) -> int:
    """Fraction-free determinant; exact over Z."""
    assert M.rows == M.cols
    n = M.rows
    if n == 0:
        return 1
    A = [list(row) for row in M.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot is None:
                return 0
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


@check(5, 10.0, "diagonalization certificates on 200 random matrices")
def test_05_smith_form_certificates():
    rng = random.Random(8225531)
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        M = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols
        )
        factors, U, V = smith_normal_form(M)
        D = U @ M @ V
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D.entries[i][j] == 0
                elif i < len(factors):
                    assert D.entries[i][i] == factors[i]
                else:
                    assert D.entries[i][i] == 0
        assert all(d > 0 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert bareiss_det(U) in (1, -1)
        assert bareiss_det(V) in (1, -1)

        # invariant factors survive a random unimodular change of basis
        A = [list(row) for row in M.entries]
        for _ in range(rng.randint(1, 6)):
            op = rng.randrange(3)
            if op == 0 and rows > 1:
                i, j = rng.sample(range(rows), 2)
                c = rng.randint(-3, 3)
                A[i] = [a + c * b for a, b in zip(A[i], A[j])]
            elif op == 1 and cols > 1:
                i, j = rng.sample(range(cols), 2)
                c = rng.randint(-3, 3)
                for row in A:
                    row[i] += c * row[j]
            else:
                i = rng.randrange(rows)
                A[i] = [-a for a in A[i]]
        perturbed, _, _ = smith_normal_form(IntegerMatrix.from_rows(A, cols))
        assert perturbed == factors


def representation_counts(q: int, diag: tuple) -> tuple:
    """Number of solutions of sum a_i x_i^2 = c for every c in F_q."""
    counts = [0] * q
    for xs in itertools.product(range(q), repeat=len(diag)):
        counts[sum(a * x * x for a, x in zip(diag, xs)) % q] += 1
    return tuple(counts)


@check(6, 10.0, "form equality agrees with representation counting")
def test_06_gw_equality_matches_representation_oracle():
    for q in (3, 5, 7):
        field = finite_odd(q)
        units = range(1, q)
        for rank in (1, 2, 3):
            diags = list(itertools.product(units, repeat=rank))
            elements = [gw_make(field, [(1, a) for a in d]) for d in diags]
            counts = [representation_counts(q, d) for d in diags]
            for i in range(len(diags)):
                for j in range(i, len(diags)):
                    assert gw_equal(elements[i], elements[j]) is (counts[i] == counts[j])
        # forms of different ranks are never isometric
        assert gw_equal(gw_one(field), gw_scale(2, gw_one(field))) is False

        # Witt ring: four classes, cyclic exactly when -1 is not a square
        classes = set()
        for rank in range(5):
            for combo in itertools.product((1, "g"), repeat=rank):
                classes.add(witt_class(gw_make(field, [(1, u) for u in combo])).data)
        assert len(classes) == 4
        acc = gw_one(field)
        order = 1
        while not witt_class(acc).is_zero:
            acc = gw_add(acc, gw_one(field))
            order += 1
            assert order <= 8
        assert (order == 4) is (q % 4 == 3)
        assert witt_ring_table(field)["cyclic"] is (q % 4 == 3)


@check(7, 10.0, "symbol relations, form dictionary, and kernel structure")
def test_07_symbol_calculus_relations():
    F5 = finite_odd(5)
    units = (1, 2, 3, 4)
    eta = kmw_eta(F5)
    h = kmw_hyperbolic(F5)
    b = {a: kmw_bracket(F5, a) for a in units}

    def agree(x, y):
        assert kmw_equal(x, y) is True

    multipliers = [None, eta, kmw_mul(eta, eta)]
    multipliers += [b[c] for c in units]
    multipliers += [kmw_mul(eta, b[c]) for c in units]

    def both_sides(lhs, rhs):
        agree(lhs, rhs)
        for m in multipliers:
            if m is not None:
                agree(kmw_mul(lhs, m), kmw_mul(rhs, m))

    # one defining relation per block, instantiated over every unit
    for a in (2, 3, 4):
        both_sides(kmw_mul(b[a], kmw_bracket(F5, 1 - a)), kmw_zero(F5))
    for a in units:
        for c in units:
            lhs = kmw_bracket(F5, a * c)
            rhs = kmw_add(kmw_add(b[a], b[c]), kmw_mul(eta, kmw_mul(b[a], b[c])))
            both_sides(lhs, rhs)
    for a in units:
        both_sides(kmw_mul(b[a], eta), kmw_mul(eta, b[a]))
    both_sides(kmw_mul(eta, h), kmw_zero(F5))
    for c, d in itertools.product(units, repeat=2):
        prod = kmw_mul(kmw_mul(eta, h), kmw_mul(b[c], b[d]))
        agree(prod, kmw_zero(F5))

    # dictionary <a> = 1 + eta [a], and the degree-0 normal form returns
    # exactly the rank-1 diagonal form
    for a in units:
        form = kmw_form(F5, a)
        agree(form, kmw_add(kmw_scalar(F5, 1), kmw_mul(eta, b[a])))
        nf = kmw_normal_form(form)
        assert nf.degree == 0
        assert gw_equal(nf.value, gw_make(F5, [(1, a)])) is True
    for a, c in itertools.product(units, repeat=2):
        nf = kmw_normal_form(kmw_add(kmw_form(F5, a), kmw_form(F5, c)))
        assert gw_equal(nf.value, gw_make(F5, [(1, a), (1, c)])) is True

    # exhaustive degree-1 samples: sums of <= 2 generators with an optional
    # eta-times-pair correction term
    samples = []
    pair_terms = [None] + [kmw_mul(eta, kmw_mul(b[x], b[y])) for x, y in itertools.product(units, repeat=2)]
    base_terms = [kmw_zero(F5)] + [b[a] for a in units]
    base_terms += [kmw_add(b[x], b[y]) for x, y in itertools.combinations_with_replacement(units, 2)]
    for base in base_terms:
        for extra in pair_terms:
            samples.append(base if extra is None else kmw_add(base, extra))

    # fiber compatibility restated: odd multiplicative part exactly when the
    # form part is nonzero
    for s in samples:
        nf = kmw_normal_form(s)
        if nf.degree is None:
            continue
        assert nf.degree == 1
        milnor, witt = nf.value
        assert (milnor % 2 == 1) is (not witt.is_zero)

        # kernel of the form-part projection is the hyperbolic multiples
        if witt.is_zero:
            assert milnor % 2 == 0
            agree(s, kmw_scale(milnor // 2, kmw_mul(h, b[2])))

    # degree >= 2 collapses entirely, so the eta-image criterion for the
    # multiplicative-part kernel reduces to vanishing
    for x, y in itertools.product(units, repeat=2):
        nf = kmw_normal_form(kmw_mul(b[x], b[y]))
        if nf.degree is not None:
            milnor, witt = nf.value
            assert milnor == 0 and witt.is_zero
        pushed = kmw_normal_form(kmw_mul(eta, kmw_mul(b[x], b[y])))
        assert pushed.degree is None or pushed.value[0] % 2 == 0
    for s in samples:
        nf = kmw_normal_form(s)
        if nf.degree is not None and nf.value[0] == 0:
            agree(s, kmw_zero(F5))

    # multiples of h land in the kernel of the form-part projection
    for a in units:
        nf = kmw_normal_form(kmw_mul(h, b[a]))
        assert nf.degree is None or nf.value[1].is_zero

    # compatibility in the other decidable fields
    RC = real_closed()
    minus = kmw_bracket(RC, -1)
    for reps in (1, 2, 3):
        for count in (1, 2, 3):
            power = minus
            for _ in range(reps - 1):
                power = kmw_mul(power, minus)
            nf = kmw_normal_form(kmw_scale(count, power))
            if nf.degree is not None:
                milnor, witt = nf.value
                sig = witt.data[0]
                assert sig % (1 << nf.degree) == 0
                assert (sig >> nf.degree) % 2 == milnor % 2
    QC = quadratically_closed()
    for entries in [(2,), (3,), (2, 3)]:
        sym = kmw_zero(QC)
        for a in entries:
            sym = kmw_add(sym, kmw_bracket(QC, a))
        nf = kmw_normal_form(sym)
        if nf.degree is not None:
            assert nf.value[1].is_zero


@check(8, 1.0, "boundary map four-case table and closed forms")
def test_08_boundary_map_case_table():
    fields = (finite_odd(5), real_closed(), quadratically_closed())
    labels = {(0, 0): "0", (0, 1): "h", (1, 0): "2", (1, 1): "1+eps"}
    RC = real_closed()
    for p in range(2, 7):
        for q in range(1, 6):
            for field in fields:
                elem, label = hp_differential(p, q, field)
                assert label == labels[(p % 2, q % 2)]
                expected = {
                    "0": gw_zero(field),
                    "2": gw_scale(2, gw_one(field)),
                    "h": gw_add(gw_one(field), gw_make(field, [(1, -1)])),
                    "1+eps": gw_sub(gw_one(field), gw_make(field, [(1, -1)])),
                }[label]
                assert gw_equal(elem, expected) is True
                assert gw_equal(elem, hp_differential_variant(p, q, field)) is True
            inv = gw_invariants(hp_differential(p, q, RC)[0])
            assert inv["rank"] == 1 - (-1) ** (p + q)
            assert inv["signature"] == 1 - (-1) ** p
            assert hp_invariant_report(p, q) == {
                "rank": 1 - (-1) ** (p + q),
                "signature": 1 - (-1) ** p,
            }


@check(9, 1.0, "signed preimage count of the exchange homotopy")
def test_09_exchange_homotopy_degree():
    value = (Fraction(1, 4), Fraction(3, 4))
    fiber = signed_preimages("whitehead_exchange_homotopy", value)
    assert fiber == [((Fraction(1, 4), Fraction(1, 6)), -1)]
    point, sign = fiber[0]
    assert all(isinstance(c, Fraction) for c in point)
    # the lower piece has derivative determinant -2(1 - u) there
    assert -2 * (1 - point[0]) < 0
    assert sign == -1
    assert degree_by_signed_preimages("whitehead_exchange_homotopy", value) == -1


@check(10, 1.0, "contraction and tensor tables, displayed sequence")
def test_10_bookkeeping_tables_and_sequence():
    assert sheaf_token(contraction(SheafExpr("KMW", (5,)), 6)) == "W"
    assert sheaf_token(contraction(SheafExpr("KM", (5,)), 5)) == "Z"
    assert sheaf_token(aone_tensor(SheafExpr("KMW", (2,)), SheafExpr("KMW", (3,)))) == "KMW(5)"
    for n in range(4, 9):
        got = aone_tensor(SheafExpr("KMW", (n - 3,)), SheafExpr("KM_mod", (5, 24)))
        assert sheaf_token(got) == f"KM({n + 2})/24"
    report = ehp_sequence_report(SphereBidegree(2, 3), "low_degree")
    assert report.tokens() == [
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
