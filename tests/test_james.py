"""Word complexes, the one-letter inclusion, subsequence invariants, quotients."""
from __future__ import annotations

import functools
import hashlib
import itertools
import re
from collections import Counter
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from ehpcalc import cli, james, simplicial
from ehpcalc.errors import CapExceeded, DomainError
from ehpcalc.homology import HomologyGroup, chain_homology, james_chains, reduced_chains, reduced_homology
from ehpcalc.james import (
    SMASH_FACTOR_CAP,
    JamesWord,
    TRUNCATION_CAP,
    cartan_word_check,
    james_census,
    james_hopf_letters,
    james_hopf_map,
    james_hopf_word,
    james_map,
    james_quotient,
    james_truncation,
    james_words,
    smash_power,
    smash_power_class,
    suspension_unit_E,
    word_degenerate,
    word_face,
    word_is_degenerate,
    word_normal_form,
    word_token,
)
from ehpcalc.simplicial import (
    SSet,
    Simplex,
    build_sphere,
    collapse,
    compose,
    degenerate,
    dimension_census,
    face as simplicial_face,
    fold_map,
    pair_census,
    point,
    product,
    simplex_token,
    smash,
    smash_map,
    sset_dumps,
    suspension,
    wedge,
)

from oracles import (
    assert_faces_follow_class_rule,
    assert_generator_isomorphism,
    increasing_tuples,
    james_cell_count,
    nondegenerate_count,
    reference_cells,
    reference_joint_normal_form,
)
from test_homology import MOORE

S0, S1, S2 = build_sphere(0), build_sphere(1), build_sphere(2)
W = wedge(S1, S1)


def gen_dims(K):
    return [K.dim_of(g) for g in K.generators() if g != K.basepoint]


@pytest.fixture
def truncation_cap(monkeypatch):
    """Sets james.TRUNCATION_CAP for one test. A cached truncation is not
    counted again, so each setting empties the cache."""
    def set_cap(cap):
        monkeypatch.setattr(james, "TRUNCATION_CAP", cap)
        james._james_data.cache_clear()
    return set_cap


class TestWords:
    def test_reduction_drops_basepoint_letters(self):
        e = S1.simplex("e1")
        b = S1.basepoint_simplex(1)
        w = JamesWord(S1, 1, (b, e, b, e))
        assert w.letters == (e, e)
        assert len(w) == 2

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DomainError):
            JamesWord(S1, 1, (S1.simplex("e1"), S1.basepoint_simplex(2)))

    def test_face_degeneracy_roundtrip(self):
        e = S1.simplex("e1")
        w = JamesWord(S1, 1, (e, e))
        for i in range(2):
            assert word_face(word_degenerate(w, i), i) == w

    def test_degeneracy_detection(self):
        e = S1.simplex("e1")
        w = JamesWord(S1, 1, (e, e))
        assert not word_is_degenerate(w)
        assert word_is_degenerate(word_degenerate(w, 0))
        mixed = JamesWord(S1, 2, (degenerate(e, 0), degenerate(e, 1)))
        assert not word_is_degenerate(mixed)
        # empty word in positive dimension is the degenerate basepoint
        assert word_is_degenerate(JamesWord(S1, 1, ()))

    def test_unchecked_words_equal_checked_ones(self):
        # word_face and word_normal_form build words without the letter
        # checks; the public constructor must agree, basepoint deletion
        # included (the faces of e1 are the basepoint)
        for K, n in [(S1, 3), (S2, 2), (W, 2)]:
            for w in james_words(K, n).values():
                for i in range(w.dim + 1):
                    letters = tuple(simplicial_face(K, x, i) for x in w.letters)
                    assert word_face(w, i) == JamesWord(K, w.dim - 1, letters)
                word, core = word_normal_form(w)
                assert core == JamesWord(K, core.dim, core.letters)

    def test_no_faces_in_dimension_zero(self):
        with pytest.raises(DomainError):
            word_face(JamesWord(S1, 0, ()), 0)

    def test_token(self):
        e = S1.simplex("e1")
        assert word_token(JamesWord(S1, 1, (e, e))) == "[e1|e1]"
        assert word_token(JamesWord(S1, 0, ())) == "*"


# Refusals of the smash powers, words and Hopf maps, with their texts.
REFUSALS = [
    ("smash_power: r = 0", lambda: smash_power(S1, 0), "smash power needs r >= 1"),
    ("smash_power_class: wrong length", lambda: smash_power_class(S1, 2, (S1.simplex("e1"),)),
     "need exactly r simplices of one dimension"),
    ("JamesWord: negative dimension", lambda: JamesWord(S1, -1, ()), "negative word dimension"),
    ("JamesWord: letter not in the complex", lambda: JamesWord(S1, 1, (Simplex("*", (), 1),)),
     "letter does not live in the complex"),
    ("JamesWord: letter not a Simplex", lambda: JamesWord(S1, 1, ("x",)), "letter 0 is not a Simplex: 'x'"),
    ("james_hopf_letters: r = 0", lambda: james_hopf_letters(JamesWord(S1, 1, (S1.simplex("e1"),)), 0),
     "subsequence length must be >= 1"),
    ("james_hopf_map: n = 0", lambda: james_hopf_map(S1, 0, 2), "levels must be >= 1"),
    # a word refuses the indices its letters would, even with no letters to refuse them
    ("word_face: index past dim, no letters", lambda: word_face(JamesWord(S1, 1, ()), 7),
     "face index 7 out of range for dim 1"),
    ("word_face: index past dim", lambda: word_face(JamesWord(S1, 1, (S1.simplex("e1"),)), 5),
     "face index 5 out of range for dim 1"),
    ("word_face: bool index, no letters", lambda: word_face(JamesWord(S1, 1, ()), True),
     "face index must be of type int, got True"),
    ("word_degenerate: negative index, no letters", lambda: word_degenerate(JamesWord(S1, 1, ()), -3),
     "degeneracy index -3 out of range for dim 1"),
    ("word_degenerate: negative index", lambda: word_degenerate(JamesWord(S1, 1, (S1.simplex("e1"),)), -3),
     "degeneracy index -3 out of range for dim 1"),
    ("word_degenerate: float index, no letters", lambda: word_degenerate(JamesWord(S1, 1, ()), 0.5),
     "degeneracy index must be of type int, got 0.5"),
]


@pytest.mark.parametrize("call, text", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_refused_with_its_text(call, text):
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        call()


class TestTruncation:
    def test_level_one_recovers_the_space(self):
        for K in [S0, S1, S2, W]:
            E = suspension_unit_E(K, 1)
            inverse = {img.generator: g for g, img in E.images}
            assert_generator_isomorphism(james_truncation(K, 1), K, inverse)

    def test_circle_level_two_counts(self):
        J = james_truncation(S1, 2)
        assert [len(J.generators(d)) for d in range(3)] == [1, 2, 2]

    def test_counts_match_inclusion_exclusion_oracle(self):
        for K in (point(), S0, S1, S2, W, product(S1, S1)):
            for n in range(1, 5):
                oracle = {m: james_cell_count(gen_dims(K), n, m) for m in range(n * K.max_dim + 2)}
                oracle = {m: c + (1 if m == 0 else 0) for m, c in oracle.items() if c or m == 0}
                if sum(oracle.values()) > TRUNCATION_CAP:
                    for counted in (james_census, james_truncation):
                        with pytest.raises(CapExceeded, match=f"^truncation exceeds {TRUNCATION_CAP} generators$"):
                            counted(K, n)
                    continue
                J = james_truncation(K, n)
                built = {m: len(J.generators(m)) for m in range(J.max_dim + 1) if J.generators(m)}
                assert james_census(K, n) == built == oracle, (K, n)

    def test_refused_before_any_word_is_built(self, monkeypatch):
        def unreachable(choices, masks, m):
            raise AssertionError("a truncation past the cap was enumerated")

        monkeypatch.setattr(james, "_nondegenerate_positions", unreachable)
        with pytest.raises(CapExceeded, match=f"^truncation exceeds {TRUNCATION_CAP} generators$"):
            james_truncation(S1, 6)

    def test_circle_level_three_size(self):
        assert james_truncation(S1, 3).n_generators == 18

    def test_homology_of_circle_level_two(self):
        assert reduced_homology(james_truncation(S1, 2)) == {
            1: HomologyGroup(1),
            2: HomologyGroup(1),
        }

    def test_homology_of_sphere_level_two(self):
        assert reduced_homology(james_truncation(S2, 2)) == {
            2: HomologyGroup(1),
            4: HomologyGroup(1),
        }

    def test_cap(self, truncation_cap):
        truncation_cap(50)
        with pytest.raises(CapExceeded):
            james_truncation(S2, 3)

    def test_cap_counts_every_generator(self, truncation_cap):
        truncation_cap(18)
        assert james_truncation(S1, 3).n_generators == 18
        truncation_cap(17)
        with pytest.raises(CapExceeded, match="^truncation exceeds 17 generators$"):
            james_truncation(S1, 3)

    def test_bad_level(self):
        with pytest.raises(DomainError):
            james_truncation(S1, 0)

    def test_colim_inclusion(self):
        for K in [S1, S2]:
            for n in [1, 2]:
                small = set(james_truncation(K, n).generators())
                large = set(james_truncation(K, n + 1).generators())
                assert small <= large


class TestSuspensionUnit:
    def test_images_are_one_letter_words(self):
        E = suspension_unit_E(S1, 2)
        assert E.image("*") == E.target.basepoint_simplex(0)
        assert E.image("e1") == Simplex("[e1]", (), 1)

    def test_hopf_after_unit_is_constant(self):
        for K, n in [(S1, 2), (S2, 2), (W, 2), (S0, 3)]:
            E = suspension_unit_E(K, n)
            H2 = james_hopf_map(K, n, 2)
            comp = compose(H2, E)
            for g, img in comp.images:
                assert img.generator == comp.target.basepoint


class TestHopfWord:
    def test_single_letter_gives_empty(self):
        w = JamesWord(S1, 1, (S1.simplex("e1"),))
        assert james_hopf_word(w, 2).letters == ()

    def test_three_letters_pairs_in_lex_order(self):
        a, b = W.simplex("l.e1"), W.simplex("r.e1")
        w = JamesWord(W, 1, (a, b, a))
        hw = james_hopf_word(w, 2)
        expect = tuple(
            smash_power_class(W, 2, ((a, b, a)[i], (a, b, a)[j]))
            for i, j in [(0, 1), (0, 2), (1, 2)]
        )
        assert hw.letters == expect

    def test_four_letters_triples(self):
        xs = (W.simplex("l.e1"), W.simplex("r.e1"), W.simplex("l.e1"), W.simplex("r.e1"))
        hw = james_hopf_word(JamesWord(W, 1, xs), 3)
        assert len(hw) == 4
        expect = tuple(
            smash_power_class(W, 3, tuple(xs[i] for i in t))
            for t in increasing_tuples(4, 3)
        )
        assert hw.letters == expect

    def test_length_is_binomial_before_reduction(self):
        a, b = W.simplex("l.e1"), W.simplex("r.e1")
        for q in range(7):
            xs = tuple((a, b)[i % 2] for i in range(q))
            for r in range(1, 4):
                hw = james_hopf_word(JamesWord(W, 1, xs), r)
                assert len(hw) == comb(q, r)
                # letter k matches the k-th increasing index tuple
                for k, t in enumerate(increasing_tuples(q, r)):
                    assert hw.letters[k] == smash_power_class(W, r, tuple(xs[i] for i in t))

    def test_refusals_past_the_factor_cap_and_the_word_length(self):
        w = cli.parse_word("|".join(["x"] * (SMASH_FACTOR_CAP + 1)), dim=0)
        with pytest.raises(CapExceeded, match="^smash power: 1001 factors exceed the cap of 1000$"):
            james_hopf_letters(w, SMASH_FACTOR_CAP + 1)
        assert james_hopf_letters(w, SMASH_FACTOR_CAP + 2) == ()
        assert james_hopf_letters(JamesWord(S1, 1, (S1.simplex("e1"),) * 3), 4) == ()

    def test_shared_prefixes_named_once_per_word(self, monkeypatch):
        # one class step per distinct (prefix, next letter), not r - 1 per subsequence
        calls = []
        smash_class = james._smash_class
        monkeypatch.setattr(james, "_smash_class", lambda *args: calls.append(args) or smash_class(*args))
        w = cli.parse_word("x|y|x|y|x|y")
        subsequences = list(itertools.combinations(w.letters, 3))
        assert len(james_hopf_letters(w, 3)) == len(subsequences) == 20
        assert len(calls) == len({xs[:2] for xs in subsequences}) + len(set(subsequences)) == 4 + 8

    def test_r_one_is_the_word_itself(self):
        w = JamesWord(S1, 1, (S1.simplex("e1"), S1.simplex("e1")))
        assert james_hopf_word(w, 1) == w

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_letters_agree_with_the_built_smash_power(self, data):
        # words on free letters of dimension <= dim, degenerate letters and
        # the basepoint included, wherever the smash power is under its cap
        dim = data.draw(st.integers(0, 2))
        K = simplicial._wedge_of_spheres(data.draw(st.dictionaries(st.sampled_from("abc"), st.integers(0, dim))))
        letters = data.draw(st.lists(st.sampled_from(K.simplices(dim)), max_size=7))
        r = data.draw(st.integers(1, 4))
        try:
            P = smash_power(K, r)
        except CapExceeded:
            assume(False)
        w = JamesWord(K, dim, tuple(letters))
        got = james_hopf_letters(w, r)
        assert got == james_hopf_word(w, r).letters
        for x in got:
            assert P.dim_of(x.generator) + len(x.word) == x.dim == dim


class TestHopfMap:
    def test_two_cells_map_to_one_letter_words(self):
        H = james_hopf_map(S1, 2, 2)
        for name in H.source.generators(2):
            img = H.image(name)
            assert img.generator != H.target.basepoint
            assert img.word == ()
            assert 1 == img.generator.count("|") + 1  # one-letter token

    def test_r_bigger_than_n_is_constant(self):
        H = james_hopf_map(S1, 1, 2)
        assert all(img.generator == H.target.basepoint for _, img in H.images)

    def test_simpliciality_over_small_inputs(self):
        # construction validates commutation with every operator
        for K, n, r in [(S0, 2, 2), (S0, 3, 3), (S1, 2, 2), (S1, 2, 3), (S1, 3, 3), (W, 2, 2), (S2, 2, 2)]:
            H = james_hopf_map(K, n, r)
            assert H.source is james_truncation(K, n)

    def test_target_is_the_image_and_is_capped(self, truncation_cap):
        # J_3(S1^S1) has 4,762 generators; the image spans 17
        assert james_hopf_map(S1, 3, 2).target.n_generators == 17
        assert james_hopf_map(S1, 4, 2).source is james_truncation(S1, 4)
        truncation_cap(10)
        with pytest.raises(CapExceeded):
            james_hopf_map(S1, 3, 2)

    def test_target_is_a_subcomplex_of_the_full_truncation(self):
        # the cells of the target are the cores of the Hopf words over the
        # built smash power, faced there; J_4(S1^S1^S1) and J_3(W^W) are over
        # the truncation cap, so they are compared cell by cell only
        for K, n, r in [(S1, 2, 2), (S2, 2, 2), (W, 2, 2), (S0, 4, 2), (S1, 3, 3),
                        (S1, 4, 3), (W, 3, 3), (W, 3, 2), (S1, 2, 1), (W, 3, 1)]:
            T = james_hopf_map(K, n, r).target
            cores = {word_token(c): c for _, c in
                     (word_normal_form(james_hopf_word(w, r)) for w in james_words(K, n).values())}
            assert set(T.generators()) == {"*", *cores}
            for g, c in cores.items():
                assert T.dim_of(g) == c.dim
                if c.dim > 0:
                    faces = map(word_normal_form, (word_face(c, i) for i in range(c.dim + 1)))
                    assert T.faces_of(g) == tuple(Simplex(word_token(core), word, c.dim - 1) for word, core in faces)
            try:
                full = james_truncation(smash_power(K, r), comb(n, r))
            except CapExceeded:
                assert (K, n, r) in [(S1, 4, 3), (W, 3, 2)]
                continue
            assert T.basepoint == full.basepoint
            for g in T.generators():
                assert T.dim_of(g) == full.dim_of(g)
                if T.dim_of(g) > 0:
                    assert T.faces_of(g) == full.faces_of(g)
            # J_4(S0) has words of 0..4 letters, whose pair words have
            # 0, 0, 1, 3 and 6 letters: 2, 4 and 5 are missed
            assert (T == full) is (K is not S0)

    def test_target_built_without_smash_power(self):
        # constant maps answer although W^6 is over the smash cap, and the
        # subsequence and factor caps still refuse
        built = smash.cache_info().currsize, smash_power.cache_info().currsize
        for K, n, r in [(W, 2, 6), (S2, 2, 4)]:
            H = james_hopf_map(K, n, r)
            assert H.target.n_generators == 1
            assert all(img.generator == "*" for _, img in H.images)
        with pytest.raises(CapExceeded, match="hopf word: 54264 subsequences, over the cap of 25000"):
            james_hopf_map(S0, 30, 15)
        with pytest.raises(CapExceeded, match="smash power: 1000000000 factors exceed the cap of 1000"):
            james_hopf_map(S1, 2, 10**9)
        assert (smash.cache_info().currsize, smash_power.cache_info().currsize) == built

    def test_subsequence_cap_refused_before_any_word_is_built(self, monkeypatch):
        # the first word past the cap is the shortest one, known from n and r;
        # the truncation cap still comes first
        def unreachable(choices, masks, m):
            raise AssertionError("a hopf map past the cap was enumerated")

        monkeypatch.setattr(james, "_nondegenerate_positions", unreachable)
        with pytest.raises(CapExceeded, match="^hopf word: 25200 subsequences, over the cap of 25000$"):
            james_hopf_map(S0, 1999, 2)
        with pytest.raises(CapExceeded, match="^hopf word: 54264 subsequences, over the cap of 25000$"):
            james_hopf_map(S0, 30, 15)
        for K, n, r in [(wedge(S1, S0), 40, 3), (S0, 2000, 2)]:
            with pytest.raises(CapExceeded, match=f"^truncation exceeds {TRUNCATION_CAP} generators$"):
                james_hopf_map(K, n, r)

    def test_word_level_commutation_where_the_target_is_large(self):
        # the subsequence map commutes with every operator, checked on words
        # directly, without building a target complex
        for w in james_words(S1, 3).values():
            for i in range(w.dim + 1):
                if w.dim > 0:
                    assert james_hopf_word(word_face(w, i), 2) == word_face(
                        james_hopf_word(w, 2), i
                    )
                assert james_hopf_word(word_degenerate(w, i), 2) == word_degenerate(
                    james_hopf_word(w, 2), i
                )

    def test_naturality_for_the_fold_map(self):
        f = fold_map(S1)
        H_src = james_hopf_map(f.source, 2, 2)
        H_dst = james_hopf_map(f.target, 2, 2)
        left = compose(H_dst, james_map(f, 2))
        right = compose(james_map(smash_map(f, f), 1), H_src)
        assert left.images == right.images


# smash_power(K, r) for r = 1..4: the SHA-256 of its sset_dumps, or its refusal text
SMASH_POWER_DIGESTS = [
    (S0, ["708c19725fdf9c091ef26b2f5c191b09d8b379a3d32c03db1e95a0c14cc0cdcd",
          "4d326fb870fa5ad836c4c7dfd0940cb46fe7cfe11aaab0f9d04afd8aac64b949",
          "8675f114633eb97ff23f2c0142611b4e45b53d556a2e3376fd1661521088a863",
          "a47cce31a843146673638b57a5e69de1a187bd6c0a1c08978117c63c498069f1"]),
    (S1, ["97d30ee63529aa8893a87b48aaad86bb99c93434d91046ab07c5908bab9c7030",
          "0fbdcc0223413d5d992ad54822a223f2b3d893b59b4c2c8cf369b1e1e95bdd11",
          "3f9508dd7ef8340f653200ebdaa44a89da0e1380794de6ae4cfdd47bddd79345",
          "e0325bd7271f47775d0434fa972aac9f17b2c95d0c2688f92b1daf4456417820"]),
    (S2, ["41a1869d7fc32f2e3f89b8f8c646aa47b437fa7c1c6c4d3f6d4880e05ad51f55",
          "37cfd80d7bdaa80665c619cbf17b35dbb17006f44e2195f919de8606c41c9518",
          "ad311abba62d581b3724af8e67328d9e813188afd6f9149e52a203f142f6feba",
          "3aa0bd18be726bc8039f5cb294cbe40ef02237f6a21516253890fce2de97855a"]),
    (W, ["e6af493e74341513540084acb90a37e9c7b9b811ea50e0437a5fbe9d3bb78b7e",
         "2de2ba55507f1854a83ccbf03e5e95eceb4d7815c66ded6fa600d6f778b464e0",
         "82968f6e41c1c23134d1e9a02fcadb0e2ac14954512fea7f5d99edae83dbbe8e",
         "516d1d332188afb13f38ec2050556e93be389e547afb62962a96c90ff298e540"]),
    (product(S1, S1), ["f40c0dff9ebdeb77bcfc14c7b476363e1eb00e791488d2b0a32fa24839585bf2",
                       "5ff09d9c1250ec65be9d6fc5236d2aada3d3441bbaccc6f58f51efe4ed9d6b47",
                       "201cdbc6433c1587a0ec95d1f12545342c173756bd809afc61502656d5a4ddc4",
                       "smash: 1055084 generators, over the cap of 25000"]),
    (MOORE, ["0e60088d338752f085a7914de07f0ac20982c07dc36585cbc514dd76e6e3b283",
             "d4748c2a1446a514a55afb38c5fa9cb460a50951d5c93fb407f94067861c7d7a",
             "b64af7fbbf5ff7c0b5f4d462854f863d29b633d79b6c0270e5b5a7e670784896",
             "smash: 47835 generators, over the cap of 25000"]),
]


def circle_wedge(k: int) -> SSet:
    """K_k = wedge(K_{k-1}, S1), the wedge of k circles built one circle at a time."""
    return functools.reduce(wedge, [S1] * k)


# The other complexes _tuple_complex builds: SHA-256 of sset_dumps, recorded
# before the build paused the collector and named each entry once
BUILD_DIGESTS = {
    "product(S1, S1)": (lambda: product(S1, S1),
                        "f40c0dff9ebdeb77bcfc14c7b476363e1eb00e791488d2b0a32fa24839585bf2"),
    "product(S2, S1)": (lambda: product(S2, S1),
                        "2e33977d19f52f002f93103c1270051c6b25668ad0c9f82ada885f7ef7efcd42"),
    "product(S64, S1)": (lambda: product(build_sphere(64), S1),
                         "07ad283c33c213452becb2cb125b56053e78bd8494a5871d65416d2145c189ff"),
    "J(S1, 4)": (lambda: james_truncation(S1, 4),
                 "a3c8411f48d4b62ed09c62dd1b9e8ec916eec19a0c23c8c941673e10fafd5294"),
    "J(S0, 50)": (lambda: james_truncation(S0, 50),
                  "8fe9128d0730c6e27a982d4828931d42a9c6ca3813901a30d2d9bb519f1988ea"),
    "J(S1 v S1, 3)": (lambda: james_truncation(W, 3),
                      "eef4e8fafd7c350be594f2e452dbdc8f2f54318fa66ac7131027514bec8c9ac7"),
    "target of james_hopf_map(S1, 4, 2)": (lambda: james_hopf_map(S1, 4, 2).target,
                                           "8b5c2b3f63f7cfed604766c8a9bcacafcb56a32ac5333cf500a1be654075ad06"),
    "smash_power(wedge of 8 circles, 3)": (lambda: smash_power(wedge(*[S1] * 8), 3),
                                           "26689e210e52409eb969e2393a283bf08d04e1122e54e65bb7a42f143d38e60d"),
    "target of james_hopf_map(S1 v S1, 2, 2)": (lambda: james_hopf_map(W, 2, 2).target,
                                                "8b02e6c6b59b9de9c61618ab2e108f9c6d0bc646cf40df62e008f3d59830f0b4"),
    # the smash powers a library session builds, each circle wedged on in turn;
    # recorded before the build read faces by position
    "smash_power(K2, 2)": (lambda: smash_power(circle_wedge(2), 2),
                           "2de2ba55507f1854a83ccbf03e5e95eceb4d7815c66ded6fa600d6f778b464e0"),
    "smash_power(K2, 3)": (lambda: smash_power(circle_wedge(2), 3),
                           "82968f6e41c1c23134d1e9a02fcadb0e2ac14954512fea7f5d99edae83dbbe8e"),
    "smash_power(K3, 2)": (lambda: smash_power(circle_wedge(3), 2),
                           "7bad89fa1405a682d9c93a733f97a2e5c95f6775db5dd1bd4e32f0931bcfec1b"),
    "smash_power(K3, 3)": (lambda: smash_power(circle_wedge(3), 3),
                           "da4eff74c2b0020ef2c7d434bee65f5e6059d06199cdead795571b771515aa1d"),
    "smash_power(K4, 2)": (lambda: smash_power(circle_wedge(4), 2),
                           "acc04a22ee15f80b2f1b866ed3e1bd6d6bcbfd45c5ab0c136ba34db11e79b4b1"),
    "smash_power(K4, 3)": (lambda: smash_power(circle_wedge(4), 3),
                           "6ae4a728c50bbbb353b7bd473c11570451be7895a04ec6d268baf6b15103c14e"),
    "smash_power(K5, 2)": (lambda: smash_power(circle_wedge(5), 2),
                           "c2696ffa9699579f1e58f85d63ba2b4abcb0e737c86dd11d5c16770efeb3c758"),
    "smash_power(K5, 3)": (lambda: smash_power(circle_wedge(5), 3),
                           "55fca0d6bf43c5e371df7cb69d384103f4f63e0d3102055e2f10c1f03cefb470"),
    "smash_power(K6, 2)": (lambda: smash_power(circle_wedge(6), 2),
                           "f1545b4b99ba5e2ffcbe41f47703f03c599cb8537d668818c987d03c05e3199b"),
    "smash_power(K6, 3)": (lambda: smash_power(circle_wedge(6), 3),
                           "daee601afaabe8a09dd84034e37340084405f382f7ccac9c30708fda34d180b3"),
    "smash_power(K7, 2)": (lambda: smash_power(circle_wedge(7), 2),
                           "755cc261facea329ab7a6ffda809aec5f1cd4d6ff2a5edf23d74601790cc3d38"),
    "smash_power(K7, 3)": (lambda: smash_power(circle_wedge(7), 3),
                           "842cbb55120651a6163c6a5deb82429ff1eecf6233530336a989da2d7fa34328"),
    "smash_power(K8, 2)": (lambda: smash_power(circle_wedge(8), 2),
                           "d3e6c5c6629d54a849fcf206d9127c3d9cb1d25b1e333350d9922a933328daa9"),
    "smash_power(K8, 3)": (lambda: smash_power(circle_wedge(8), 3),
                           "26689e210e52409eb969e2393a283bf08d04e1122e54e65bb7a42f143d38e60d"),
    # complexes built by SSet.build directly, recorded while each complex
    # still kept its generators and faces twice
    "wedge(S1, S2, S0)": (lambda: wedge(S1, S2, S0),
                          "2cc916092e174146dc9bb0a16dfac58dac577f70bb15b91f0c5bd1d70329cd35"),
    "collapse of the first circle of S1 x S1": (lambda: collapse(product(S1, S1), {"(e1,s0.*)"}),
                                                "ff89c8d62bb1823c0b48d00718f7229cc6226e46af7a05b5e8b15bd8c8dd8490"),
    "suspension(S2)": (lambda: suspension(S2),
                       "2d5142e6d2079da542894d04a9b03d588ff0ea7d0c612f9b03b62abb78ce9065"),
    "quotient of james_quotient(S1, 2)": (lambda: james_quotient(S1, 2)[0],
                                          "0193f2070f725269975c012f6db58cae4bc413d65729870b06addb57f9ce905b"),
    "parse_word('x|y|x').complex": (lambda: cli.parse_word("x|y|x").complex,
                                    "33c273873acdec11d1661fd0b68efefcdc94d2e37cd6f75953180501b58fd9e4"),
}


@pytest.mark.parametrize("case", BUILD_DIGESTS)
def test_tuple_complexes_dump_as_recorded(case):
    build, want = BUILD_DIGESTS[case]
    assert hashlib.sha256(sset_dumps(build()).encode()).hexdigest() == want


def test_each_factor_face_taken_once_per_build(monkeypatch):
    # a smash(P, K) build takes each face of a factor's simplex at most once;
    # names no other test uses, so no cache answers the build
    bp = Simplex("*", (), 0)
    K = SSet.build("*", {"*": 0, "once-u": 1, "once-v": 1}, {"once-u": (bp, bp), "once-v": (bp, bp)})
    P = smash(K, K)
    taken = Counter()

    def counting(L, x, i):
        if L is P or L is K:
            taken[id(L), x, i] += 1
        return simplicial_face(L, x, i)

    monkeypatch.setattr(simplicial, "face", counting)
    Q = smash(P, K)
    assert Q.n_generators == 1 + 8 * 13
    assert taken and max(taken.values()) == 1
    assert {L for L, _, _ in taken} == {id(P), id(K)}


class TestSmashPowerBudget:
    def test_counted_before_built(self):
        assert smash_power(S1, 6).n_generators == 4684
        with pytest.raises(CapExceeded, match="smash: 299713 generators, over the cap of 25000"):
            smash_power(W, 6)

    def test_power_reuses_the_power_before(self):
        # the fold builds K^3 as smash(K^2, K), from the K^2 already cached;
        # generator names no other test uses, so no power of K is cached before
        bp = Simplex("*", (), 0)
        K = SSet.build("*", {"*": 0, "reused-u": 1, "reused-v": 0}, {"reused-u": (bp, bp)})
        smash_power(K, 2)
        before = smash.cache_info()
        smash_power(K, 3)
        assert smash.cache_info().misses == before.misses + 1

    def test_classes_are_named_without_building(self):
        a, b = W.simplex("l.e1"), W.simplex("r.e1")
        built = smash.cache_info().currsize, smash_power.cache_info().currsize
        x = smash_power_class(W, 6, (a, b) * 3)
        assert (smash.cache_info().currsize, smash_power.cache_info().currsize) == built
        assert x == Simplex("(((((l.e1^r.e1)^l.e1)^r.e1)^l.e1)^r.e1)", (), 1)
        with pytest.raises(CapExceeded):
            smash_power(W, 6)

    def test_classes_over_a_basepoint_not_named_star(self):
        # the first smash is over the basepoint of K, the later ones over "*"
        K = product(S0, S0)  # four vertices, basepoint "(*,*)"
        for r in range(1, 4):
            classes = {smash_power_class(K, r, xs) for xs in itertools.product(K.simplices(0), repeat=r)}
            assert {x.generator for x in classes} == set(smash_power(K, r).generators())

    def test_a_vertex_named_star_is_not_the_collapsed_class(self):
        # K has basepoint "b" and a vertex named "*": its first smash is not
        # collapsed, but "*" after a basepoint factor is the collapsed class
        K = SSet.build("b", {"b": 0, "*": 0, "y": 0}, {})
        s, y, b = K.simplex("*"), K.simplex("y"), K.simplex("b")
        assert smash_power_class(K, 2, (s, y)) == Simplex("(*^y)", (), 0)
        assert smash_power_class(K, 4, (s, y, b, y)) == Simplex("*", (), 0)
        shared = functools.partial(james._power_class, "b", known={})
        for r in range(1, 5):
            for xs in itertools.product((s, y, b), repeat=r):
                assert shared(xs) == smash_power_class(K, r, xs)
            w = JamesWord(K, 0, (s, y, b, y, s, b))
            want = [smash_power_class(K, r, xs) for xs in itertools.combinations((s, y, y, s), r)]
            assert james_hopf_letters(w, r) == james_hopf_word(w, r).letters == tuple(want)
            assert {x.generator for x in want} <= set(smash_power(K, r).generators())

    def test_factor_cap(self):
        assert smash_power(S0, SMASH_FACTOR_CAP).n_generators == 2
        with pytest.raises(CapExceeded, match="smash power: 3000 factors exceed the cap of 1000"):
            smash_power(W, 3000)

    def test_smash_powers_match_the_recorded_digests(self):
        # SHA-256 of sset_dumps, or the refusal text, recorded for each
        # power: every power under the cap dumps the same, and every refusal
        # reads the same
        for K, digests in SMASH_POWER_DIGESTS:
            for r, want in enumerate(digests, start=1):
                if want.startswith("smash:"):
                    with pytest.raises(CapExceeded, match=f"^{re.escape(want)}$"):
                        smash_power(K, r)
                else:
                    assert hashlib.sha256(sset_dumps(smash_power(K, r)).encode()).hexdigest() == want


class TestPowerCensus:
    def test_census_convolution_is_the_nondegenerate_count(self):
        # each power's census {dim: cells} is the one before convolved with K's
        def convolved(K, r):
            census = power = dimension_census(K, basepoint=False)
            for _ in range(2, r + 1):
                power = pair_census(power, census, lambda total: None)
            return power

        cases = [(K, r) for K in (S0, S1, S2, build_sphere(3), W, product(S1, S1), wedge(S0, S2), MOORE)
                 for r in range(2, 5)] + [(build_sphere(256), 2)]
        for K, r in cases:
            census = dimension_census(K, basepoint=False)
            counts = {m: nondegenerate_count([census], m, power=r) for m in range(r * K.max_dim + 1)}
            assert convolved(K, r) == {m: c for m, c in counts.items() if c}, (K.gens, r)

    def test_power_refused_from_censuses_alone(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a smash power is counted from censuses")

        monkeypatch.setattr(simplicial, "_pair_rows", fail)
        monkeypatch.setattr(simplicial, "_tuple_complex", fail)
        text = ("smash: 342566584152323695893593004830544509200334195676583250434886946625772623388566088060"
                "131481474087365900788603897239792170063380018210065845972813057494514295615534095492070043"
                "781303829612478857218 generators, over the cap of 25000")
        with pytest.raises(CapExceeded, match=f"^{text}$"):
            smash_power(build_sphere(256), 2)


def _word_class(K, xs):
    word, core = word_normal_form(JamesWord(K, xs[0].dim, xs))
    return Simplex(word_token(core), word, xs[0].dim)


def _hopf_core(K, dim, xs):
    """Shared word and core of the r = 2 classes of xs, pairs of simplices,
    the pairs with a basepoint component dropped."""
    kept = tuple(x for k in range(0, len(xs), 2) if K.basepoint not in (xs[k].generator, xs[k + 1].generator)
                 for x in xs[k:k + 2])
    return reference_joint_normal_form((K,) * len(kept), kept, dim)


def _hopf_class(K, xs):
    word, core = _hopf_core(K, xs[0].dim, xs)
    token = "|".join(simplex_token(smash_power_class(K, 2, core[k:k + 2])) for k in range(0, len(core), 2))
    return Simplex(f"[{token}]" if token else "*", word, xs[0].dim)


class TestFacesNamedByClassRule:
    """Face i of each cell is the class rule applied to its entries' faces i."""

    def test_smash_powers(self):
        # S2^4 (23,918 cells) is left out for time; its dump is checked
        # against a recorded digest in TestSmashPowerBudget
        for K, top in ((S0, 4), (S1, 4), (S2, 3), (W, 4), (MOORE, 3)):
            for r in range(2, top + 1):
                cells = [(smash_power_class(K, r, xs).generator, xs)
                         for m in range(r * K.max_dim + 1) for xs in reference_cells(K, r, m)]
                assert_faces_follow_class_rule(smash_power(K, r), cells, (K,),
                                               functools.partial(smash_power_class, K, r))

    def test_truncations(self):
        for K in (S0, S1, S2, W, MOORE):
            for n in range(1, 5):
                try:
                    words = james_words(K, n)
                except CapExceeded:
                    continue
                cells = [(name, w.letters) for name, w in words.items()]
                assert_faces_follow_class_rule(james_truncation(K, n), cells, (K,),
                                               functools.partial(_word_class, K))

    def test_hopf_targets(self):
        for K in (S0, S1, S2, W, MOORE):
            for n in range(1, 4):
                H = james_hopf_map(K, n, 2)
                cores = (_hopf_core(K, w.dim, tuple(x for xy in itertools.combinations(w.letters, 2) for x in xy))
                         for w in james_words(K, n).values())
                cells = {_hopf_class(K, core).generator: core for _, core in cores if core}
                assert_faces_follow_class_rule(H.target, list(cells.items()), (K,), functools.partial(_hopf_class, K))


class TestQuotient:
    def test_level_one_is_the_space(self):
        Q, witness = james_quotient(S1, 1)
        assert witness == {"*": "*", "[e1]": "e1"}
        assert_generator_isomorphism(Q, S1, witness)

    def test_circle_level_two_is_the_smash_square(self):
        Q, witness = james_quotient(S1, 2)
        assert witness == {"*": "*", "[e1|e1]": "(e1^e1)", "[s0.e1|s1.e1]": "(s0.e1^s1.e1)",
                           "[s1.e1|s0.e1]": "(s1.e1^s0.e1)"}
        assert_generator_isomorphism(Q, smash_power(S1, 2), witness)

    def test_sphere_level_two_homology(self):
        Q, _ = james_quotient(S2, 2)
        assert reduced_homology(Q) == {4: HomologyGroup(1)}

    def test_shared_prefixes_named_once_per_call(self, monkeypatch):
        # the length-3 words of J_3(S1) share their 2-letter prefixes
        words = [w.letters for w in james_words(S1, 3).values() if len(w) == 3]
        smash_power(S1, 3)
        calls = []
        smash_class = james._smash_class
        monkeypatch.setattr(james, "_smash_class", lambda *args: calls.append(args) or smash_class(*args))
        james_quotient(S1, 3)
        assert len(calls) == len({xs[:2] for xs in words}) + len(words) < 2 * len(words)

    def test_factor_cap_refused_before_any_word_is_built(self, monkeypatch):
        def unreachable(K, n):
            raise AssertionError("a quotient past the factor cap built its truncation")

        monkeypatch.setattr(james, "_james_data", unreachable)
        with pytest.raises(CapExceeded, match="^smash power: 1999 factors exceed the cap of 1000$"):
            james_quotient(S0, 1999)
        with pytest.raises(DomainError, match="^truncation level must be >= 1$"):
            james_quotient(S0, 0)


# Spaces for the James splitting; MOORE brings Z/2 torsion through.
SPLITTING_SPACES = {"S0": S0, "S1": S1, "S2": S2, "S0+S1": wedge(S0, S1), "S1+S1": W,
                    "S1xS1": product(S1, S1), "M": MOORE}


def _levels_under_the_cap(K, top=6):
    """The levels up to top whose truncation is under the cap. Only S0 has
    more: its truncations stay under the cap to level 1999, where the build
    alone takes seconds."""
    for n in range(1, top + 1):
        try:
            james_census(K, n)
        except CapExceeded:
            return
        yield n


SPLITTING_CASES = [(name, n) for name, K in SPLITTING_SPACES.items() for n in _levels_under_the_cap(K)]


@pytest.mark.parametrize("name, n", SPLITTING_CASES, ids=[f"{name}-{n}" for name, n in SPLITTING_CASES])
def test_james_splitting_matches_the_built_truncation_and_quotient(name, n):
    """H(J_n K) = H(C + ... + C^(x)n) and H(Q(K,n)) = H(C^(x)n) for C the
    reduced chains of K (James 1955, Eilenberg-Zilber)."""
    K = SPLITTING_SPACES[name]
    C = reduced_chains(K)
    assert chain_homology(james_chains(C, n)) == reduced_homology(james_truncation(K, n))
    assert chain_homology(james_chains(C, n, quotient=True)) == reduced_homology(james_quotient(K, n)[0])


class TestCartan:
    def test_single_letter(self):
        assert cartan_word_check(S1, [S1.simplex("e1")])

    def test_three_distinct_letters(self):
        xs = [W.simplex("l.e1"), W.simplex("r.e1"), W.simplex("l.e1")]
        assert cartan_word_check(W, xs)

    def test_basepoint_letter_reduces_consistently(self):
        xs = [
            W.simplex("l.e1"),
            W.basepoint_simplex(1),
            W.simplex("r.e1"),
            W.simplex("r.e1"),
        ]
        assert cartan_word_check(W, xs)

    def test_mixed_dims_rejected(self):
        with pytest.raises(DomainError):
            cartan_word_check(S1, [S1.simplex("e1"), S1.basepoint_simplex(2)])

    def test_exhaustive_low_dim_letters(self):
        pool = [S1.simplex("e1"), S1.basepoint_simplex(1)]
        for q in range(1, 5):
            for xs in itertools.product(pool, repeat=q):
                assert cartan_word_check(S1, list(xs))
