"""Core simplicial machinery: operators, constructors, maps, round-trip.

Isomorphisms are checked as explicit witnesses, read off the pair tables
of products and smashes or the l./r. prefixes of wedges.
"""
from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ehpcalc import simplicial
from ehpcalc.errors import CapExceeded, DomainError, ExprParseError
from ehpcalc.james import james_truncation
from ehpcalc.simplicial import (
    SMap,
    SSet,
    Simplex,
    build_sphere,
    collapse,
    compose,
    degenerate,
    dimension_census,
    face,
    fold_map,
    identity_map,
    in_degeneracy_image,
    insert_degeneracy,
    joint_normal_form,
    nondegenerate_tuples,
    point,
    product,
    product_with_pairs,
    simplex_token,
    sset_dumps,
    sset_from_doc,
    sset_loads,
    smash,
    smash_census,
    smash_class,
    smash_with_pairs,
    suspension,
    wedge,
)

from oracles import (
    assert_faces_follow_class_rule,
    assert_generator_isomorphism,
    nondegenerate_count,
    reference_face,
    reference_in_degeneracy_image,
    reference_joint_normal_form,
    shuffle_count,
)
from test_homology import MOORE

S0, S1, S2 = build_sphere(0), build_sphere(1), build_sphere(2)
TEST_COMPLEXES = [point(), S0, S1, S2, wedge(S1, S1), smash(S1, S1), product(S1, S1)]


def first_components(pairs) -> dict[str, str]:
    """Each cell of a product or smash pair table to its first component,
    the witness of a unit law."""
    return {name: a.generator for name, (a, _) in pairs}


def all_simplices(K: SSet, extra: int = 2) -> list[Simplex]:
    out = []
    for d in range(K.max_dim + extra + 1):
        out.extend(K.simplices(d))
    return out


class TestWords:
    def test_insert_keeps_normal_form(self):
        word = ()
        for i in [0, 0, 1, 3, 0, 2]:
            word = insert_degeneracy(word, i)
            assert all(a > b for a, b in zip(word, word[1:]))

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=8))
    def test_insert_matches_left_fold(self, raw):
        # applying operators one at a time from the inside out stays normal
        word = ()
        dim = 0
        for i in raw:
            if i > dim:
                continue
            word = insert_degeneracy(word, i)
            dim += 1
        assert all(a > b for a, b in zip(word, word[1:]))
        assert len(word) == dim

    def test_simplex_rejects_bad_word(self):
        with pytest.raises(DomainError):
            Simplex("e1", (0, 1), 3)
        with pytest.raises(DomainError):
            Simplex("e1", (5,), 2)


class TestOperators:
    @pytest.mark.parametrize("K", TEST_COMPLEXES, ids=lambda K: f"{K.n_generators}gens")
    def test_simplicial_identities_exhaustive(self, K):
        # d_i d_j = d_{j-1} d_i for i < j, all simplices up to dim max+2
        for x in all_simplices(K):
            if x.dim < 2:
                continue
            for j in range(x.dim + 1):
                for i in range(j):
                    assert face(K, face(K, x, j), i) == face(K, face(K, x, i), j - 1)

    @pytest.mark.parametrize("K", TEST_COMPLEXES, ids=lambda K: f"{K.n_generators}gens")
    def test_face_degeneracy_identities(self, K):
        for x in all_simplices(K):
            for j in range(x.dim + 1):
                sx = degenerate(x, j)
                # d_j s_j = id = d_{j+1} s_j
                assert face(K, sx, j) == x
                assert face(K, sx, j + 1) == x
                for i in range(x.dim + 1):
                    if i < j:
                        assert face(K, sx, i) == degenerate(face(K, x, i), j - 1)
                    elif i > j + 1:
                        assert face(K, sx, i) == degenerate(face(K, x, i - 1), j)

    @pytest.mark.parametrize("K", TEST_COMPLEXES, ids=lambda K: f"{K.n_generators}gens")
    def test_degeneracy_exchange(self, K):
        for x in all_simplices(K, extra=1):
            for i in range(x.dim + 1):
                for j in range(i, x.dim + 1):
                    # s_i s_j = s_{j+1} s_i for i <= j
                    assert degenerate(degenerate(x, j), i) == degenerate(degenerate(x, i), j + 1)

    def test_degenerate_basepoint_faces(self):
        # d_i of the n-fold degenerate basepoint is the (n-1)-fold one
        for n in range(1, 5):
            b = S2.basepoint_simplex(n)
            for i in range(n + 1):
                assert face(S2, b, i) == S2.basepoint_simplex(n - 1)

    def test_sphere_top_cell_faces(self):
        assert face(S2, S2.simplex("e2"), 0) == Simplex("*", (0,), 1)

    def test_image_membership_matches_word(self):
        # x lies in the image of s_i exactly when i appears in its word
        for K in TEST_COMPLEXES:
            for x in all_simplices(K):
                for i in range(x.dim):
                    assert in_degeneracy_image(K, x, i) == (i in x.word)


class TestConstructors:
    def test_sphere_counts(self):
        assert build_sphere(0).generators() == ("*", "e0")
        assert [len(S1.generators(d)) for d in range(2)] == [1, 1]
        assert [len(S2.generators(d)) for d in range(3)] == [1, 0, 1]
        with pytest.raises(DomainError):
            build_sphere(-1)

    def test_sphere_dimension_cap(self):
        assert build_sphere(200).dim_of("e200") == 200
        with pytest.raises(CapExceeded, match=f"sphere: dimension 3000 exceeds the cap of {simplicial.SPHERE_DIM_CAP}"):
            build_sphere(3000)

    @pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "2", None])
    def test_sphere_dimension_must_be_an_int(self, n):
        with pytest.raises(DomainError) as info:
            build_sphere(n)
        assert str(info.value) == f"sphere dimension must be an integer, got {n!r}"

    def test_smash_size_counts_without_building(self):
        def dims(K):
            return [d for n, d in K.gens if n != K.basepoint]

        for A, B in itertools.product(TEST_COMPLEXES + [wedge(S0, S2)], repeat=2):
            expected = 1 + sum(shuffle_count(dims(A), dims(B), n) for n in range(A.max_dim + B.max_dim + 1))
            census = smash_census(dimension_census(A, True), dimension_census(B, True))
            assert sum(census.values()) == expected == smash(A, B).n_generators
            assert census == dimension_census(smash(A, B), True)

    def test_products_and_smashes_counted_before_built(self):
        S4, S12 = build_sphere(4), build_sphere(12)
        with pytest.raises(CapExceeded, match=f"smash: 251595970 generators, over the cap of {simplicial.SMASH_POWER_CAP}"):
            smash(S12, S12)
        S4xS4 = product(S4, S4)
        with pytest.raises(CapExceeded, match=f"product: 700088 generators, over the cap of {simplicial.SMASH_POWER_CAP}"):
            product(S4xS4, S4)
        da = [d for _, d in S4xS4.gens]
        assert sum(shuffle_count(da, [0, 4], n) for n in range(13)) == 700088
        assert product(product(S2, S2), S2).n_generators == sum(
            shuffle_count([d for _, d in product(S2, S2).gens], [0, 2], n) for n in range(7))

    def test_product_counts_match_shuffle_oracle(self):
        for A, B in [(S1, S1), (S1, S2), (S0, S0), (S2, S2)]:
            P = product(A, B)
            da = [d for _, d in A.gens]
            db = [d for _, d in B.gens]
            for n in range(P.max_dim + 1):
                assert len(P.generators(n)) == shuffle_count(da, db, n)

    def test_product_of_circles_cell_counts(self):
        # torus: 1 vertex, 3 edges, 2 triangles
        P = product(S1, S1)
        assert [len(P.generators(d)) for d in range(3)] == [1, 3, 2]

    def test_product_s0_s0(self):
        assert len(product(S0, S0).generators(0)) == 4

    def test_product_unit_law(self):
        P, pairs = product_with_pairs(S1, point())
        assert_generator_isomorphism(P, S1, first_components(pairs))

    def test_wedge_counts(self):
        W = wedge(S1, S1)
        assert len(W.generators(0)) == 1
        assert len(W.generators(1)) == 2

    def test_wedge_unit(self):
        W = wedge(S1, point())
        assert_generator_isomorphism(W, S1, {g: g.removeprefix("l.") for g in W.generators()})

    def test_wedge_of_many_parts_is_the_left_fold(self):
        # one build, named as the left fold of binary wedges names it
        parts = [S0, S1, point(), S2, wedge(S1, S1), MOORE, product(S1, S1)]
        for n in range(2, len(parts) + 1):
            assert sset_dumps(wedge(*parts[:n])) == sset_dumps(functools.reduce(wedge, parts[:n]))
        assert wedge(S2) is S2

    def test_smash_unit_s0(self):
        for K in [S1, S2, wedge(S1, S1)]:
            Sm, pairs = smash_with_pairs(K, S0)
            assert_generator_isomorphism(Sm, K, {"*": K.basepoint} | first_components(pairs))

    def test_smash_circle_counts(self):
        Sm = smash(S1, S1)
        assert [len(Sm.generators(d)) for d in range(3)] == [1, 1, 2]

    def test_suspension_point_and_s0(self):
        # the suspension is the smash with S1 on the left
        assert_generator_isomorphism(suspension(point()), point(), {"*": "*"})
        _, pairs = smash_with_pairs(S1, S0)
        assert_generator_isomorphism(suspension(S0), S1, {"*": "*"} | first_components(pairs))

    def test_collapse_requires_face_closed(self):
        P = product(S1, S1)
        diag = next(n for n in P.generators(2))
        with pytest.raises(DomainError):
            collapse(P, {diag})

    def test_smash_class_agrees_with_face_structure(self):
        A = B = S1
        Sm, pairs = smash_with_pairs(A, B)
        for name, (sa, sb) in pairs:
            assert smash_class(A, B, sa, sb) == Sm.simplex(name)
        # one collapsing example: (e, degenerate basepoint)
        x = A.simplex("e1")
        y = B.basepoint_simplex(1)
        assert smash_class(A, B, x, y) == Sm.basepoint_simplex(1)


class TestJointNormalForm:
    def test_strips_to_nondegenerate(self):
        A = B = S1
        for x in all_simplices(A, extra=1):
            for y in all_simplices(B, extra=1):
                if x.dim != y.dim:
                    continue
                word, (cx, cy) = joint_normal_form((x, y), x.dim)
                assert not set(cx.word) & set(cy.word)
                # rebuild: applying the word to the cores gives back the pair
                rx, ry = cx, cy
                for i in reversed(word):
                    rx, ry = degenerate(rx, i), degenerate(ry, i)
                assert (rx, ry) == (x, y)

    def test_empty_tuple_strips_to_dim_zero(self):
        word, cores = joint_normal_form((), 3)
        assert cores == ()
        assert word == (2, 1, 0)


REFERENCE_COMPLEXES = TEST_COMPLEXES + [smash(S1, S2), james_truncation(S1, 3)]


def _ref_id(K: SSet) -> str:
    return f"{K.n_generators}gens-dim{K.max_dim}"


def free_complex(dims: list[int]) -> SSet:
    """Basepoint plus one generator per entry of dims, every face at the basepoint."""
    names = {f"g{i}": d for i, d in enumerate(dims)}
    faces = {n: (point().basepoint_simplex(d - 1),) * (d + 1) for n, d in names.items() if d}
    return SSet.build("*", {"*": 0, **names}, faces)


class TestNondegenerateTuples:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=3),
           st.integers(0, 6), st.booleans())
    def test_count_matches_enumeration(self, factor_dims, m, basepoints):
        factors = [free_complex(dims) for dims in factor_dims]
        censuses = [dimension_census(K, basepoints) for K in factors]
        choices = [[x for x in K.simplices(m) if basepoints or x.generator != K.basepoint]
                   for K in factors]
        tuples = list(nondegenerate_tuples(choices, m))
        assert nondegenerate_count(censuses, m) == len(tuples)
        # the same tuples in the same order as the full product, filtered
        full = itertools.product(*choices)
        assert tuples == [xs for xs in full if not set.intersection(*(set(x.word) for x in xs))]
        assert nondegenerate_count(censuses, m, power=2) == nondegenerate_count(censuses * 2, m)
        assert list(nondegenerate_tuples(choices[:1], m, power=3)) == list(nondegenerate_tuples(choices[:1] * 3, m))


class TestNormalFormsAgainstReference:
    """The word-arithmetic normal forms against the recursive face-based
    references in oracles.py, on every simplex up to max_dim + 2."""

    @pytest.mark.parametrize("K", REFERENCE_COMPLEXES, ids=_ref_id)
    def test_face(self, K):
        for x in all_simplices(K):
            if x.dim == 0:
                continue
            for i in range(x.dim + 1):
                assert face(K, x, i) == reference_face(K, x, i), (x, i)

    @pytest.mark.parametrize("K", REFERENCE_COMPLEXES, ids=_ref_id)
    def test_in_degeneracy_image(self, K):
        for x in all_simplices(K):
            for i in range(x.dim + 1):
                assert in_degeneracy_image(K, x, i) == reference_in_degeneracy_image(K, x, i), (x, i)

    @pytest.mark.parametrize("K", REFERENCE_COMPLEXES, ids=_ref_id)
    def test_joint_normal_form_of_pairs(self, K):
        for d in range(K.max_dim + 3):
            xs = K.simplices(d)
            for x in xs:
                assert joint_normal_form((x,), d) == reference_joint_normal_form((K,), (x,), d)
            # in the top dimension of the larger complexes, every 7th partner
            partners = xs[::7] if d > K.max_dim + 1 and len(xs) > 50 else xs
            for x, y in itertools.product(xs, partners):
                got = joint_normal_form((x, y), d)
                assert got == reference_joint_normal_form((K, K), (x, y), d), (x, y)

    def test_joint_normal_form_of_triples_across_complexes(self):
        complexes = (S1, S2, product(S1, S1))
        for d in range(4):
            for xs in itertools.product(*(K.simplices(d) for K in complexes)):
                assert joint_normal_form(xs, d) == reference_joint_normal_form(complexes, xs, d)

    def test_empty_tuple(self):
        for d in range(5):
            assert joint_normal_form((), d) == reference_joint_normal_form((), (), d)


class TestHashedOnce:
    @staticmethod
    def fresh():
        # generator names no other test uses, so the first product is a cache miss
        bp = Simplex("*", (), 0)
        return SSet.build("*", {"*": 0, "hashed-u": 1, "hashed-v": 1},
                          {"hashed-u": (bp, bp), "hashed-v": (bp, bp)})

    def test_equal_complexes_share_hash_and_cache_entry(self):
        A, B = self.fresh(), self.fresh()
        assert A is not B and A == B and hash(A) == hash(B)
        before = product.cache_info()
        PA = product(A, A)
        mid = product.cache_info()
        PB = product(B, B)
        after = product.cache_info()
        assert (mid.misses, mid.currsize) == (before.misses + 1, before.currsize + 1)
        assert (after.hits, after.misses, after.currsize) == (mid.hits + 1, mid.misses, mid.currsize)
        assert PA is PB

    def test_round_trip_keeps_hash(self):
        for K in REFERENCE_COMPLEXES:
            L = sset_loads(sset_dumps(K))
            assert L == K and hash(L) == hash(K)


class TestOneCanonicalOrder:
    """A complex or map does not depend on the insertion order of the dicts
    it is built from: equal values, equal hashes, one cache entry."""

    BP = Simplex("*", (), 0)
    DIMS = {"*": 0, "order-v": 0, "order-b": 1, "order-a": 1, "order-t": 2}
    FACES = {"order-a": (BP, BP), "order-b": (BP, BP),
             "order-t": (Simplex("order-a", (), 1), Simplex("order-b", (), 1), Simplex("*", (0,), 1))}

    @classmethod
    def both_orders(cls):
        # generator names no other test uses, so the first product is a cache miss
        return (SSet.build("*", cls.DIMS, cls.FACES),
                SSet.build("*", dict(reversed(cls.DIMS.items())), dict(reversed(cls.FACES.items()))))

    def test_reordered_builds_are_one_complex(self):
        A, B = self.both_orders()
        assert A is not B and A == B and hash(A) == hash(B)
        assert sset_dumps(A) == sset_dumps(B)
        PA = product(A, S1)
        before = product.cache_info()
        assert product(B, S1) is PA
        after = product.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_gens_in_dim_name_order(self):
        A, B = self.both_orders()
        want = [("*", 0), ("order-v", 0), ("order-a", 1), ("order-b", 1), ("order-t", 2)]
        assert list(A.gens) == list(B.gens) == want
        assert A.generators() == tuple(n for n, _ in want)
        assert A.generators(1) == ("order-a", "order-b")
        assert A.generators(3) == ()

    def test_reordered_map_builds_are_one_map(self):
        A, B = self.both_orders()
        images = {n: A.simplex(n) for n in reversed(A.generators())}
        f, g = SMap.build(A, B, images), SMap.build(A, B, dict(reversed(images.items())))
        assert f == g and hash(f) == hash(g)
        assert f == identity_map(A) and hash(f) == hash(identity_map(B))
        assert dict(f.images) == images and {f, g} == {f}


class TestMaps:
    def test_identity_and_compose(self):
        ident = identity_map(S1)
        assert compose(ident, ident).images == ident.images

    def test_fold_map_is_simplicial(self):
        f = fold_map(S1)
        e = f.source.simplex("l.e1")
        assert f(e) == S1.simplex("e1")
        assert f(degenerate(e, 0)) == Simplex("e1", (0,), 2)

    def test_nonsimplicial_rejected(self):
        # sending the circle's edge to a nondegenerate edge with wrong faces
        W = wedge(S1, S1)
        with pytest.raises(DomainError):
            SMap.build(S1, W, {"*": W.basepoint_simplex(0), "e1": Simplex("l.e1", (), 2)})


class TestIsomorphism:
    def test_wedge_symmetry(self):
        swap = {"*": "*", "l.e1": "r.e1", "r.e2": "l.e2"}
        assert_generator_isomorphism(wedge(S1, S2), wedge(S2, S1), swap)


class TestSerialization:
    @pytest.mark.parametrize("K", TEST_COMPLEXES, ids=lambda K: f"{K.n_generators}gens")
    def test_round_trip(self, K):
        text = sset_dumps(K)
        back = sset_loads(text)
        assert back == K
        assert sset_dumps(back) == text

    def test_multi_digit_indices_unambiguous(self):
        # a face entry like "s11 s2 *" must parse back to the word (11, 2)
        dims = {"*": 0, "c": 13}
        faces = {"c": tuple(Simplex("*", tuple(range(11, -1, -1)), 12) for _ in range(14))}
        K = SSet.build("*", dims, faces)
        assert sset_loads(sset_dumps(K)) == K

    @pytest.mark.parametrize("faces, text", [
        (["d0 *", "*"], "bad degeneracy token 'd0' in face 'd0 *'"),
        (["x0 *", "*"], "bad degeneracy token 'x0' in face 'x0 *'"),
        (["s" + "9" * 5000 + " *", "*"], "degeneracy index: 5000 digits exceed the cap of 4300"),
        ([3, "*"], "faces of 'e1' must be a list of strings"),
        ("**", "faces of 'e1' must be a list of strings"),
        (None, "faces of 'e1' must be a list of strings"),
        (["", "*"], "empty face entry"),
        (["s0 y", "*"], "face 's0 y' references unknown generator 'y'"),
    ])
    def test_malformed_faces_are_parse_errors(self, faces, text):
        doc = {"basepoint": "*", "generators": [{"name": "*", "dim": 0},
                                                {"name": "e1", "dim": 1, "faces": faces}]}
        with pytest.raises(ExprParseError) as info:
            sset_loads(json.dumps(doc))
        assert str(info.value) == text

    @pytest.mark.parametrize("field, value, text", [
        ("basepoint", ["*"], "basepoint must be of type str, got ['*']"),
        ("basepoint", 0, "basepoint must be of type str, got 0"),
        ("name", 5, "generator name must be of type str, got 5"),
        ("name", ["e1"], "generator name must be of type str, got ['e1']"),
        ("dim", True, "dim of 'e1' must be of type int, got True"),
        ("dim", 1.5, "dim of 'e1' must be of type int, got 1.5"),
        ("dim", "1", "dim of 'e1' must be of type int, got '1'"),
    ])
    def test_malformed_fields_are_parse_errors(self, field, value, text):
        doc = json.loads(sset_dumps(S1))
        if field == "basepoint":
            doc["basepoint"] = value
        else:
            doc["generators"][1][field] = value
        with pytest.raises(ExprParseError) as info:
            sset_loads(json.dumps(doc))
        assert str(info.value) == text


class TestSimplex:
    def test_a_simplex_is_the_tuple_of_its_fields(self):
        x = Simplex("e1", (0,), 2)
        assert repr(x) == "Simplex(generator='e1', word=(0,), dim=2)"
        assert (x.generator, x.word, x.dim) == tuple(x) == ("e1", (0,), 2)
        assert x.is_degenerate and not Simplex("e1", (), 1).is_degenerate

    def test_equal_fields_hash_equal(self):
        x, y = Simplex("e1", (0,), 2), simplicial._simplex("e1", (0,), 2)
        assert x == y and hash(x) == hash(y) == hash(("e1", (0,), 2))
        assert type(y) is Simplex and {x: 1}[y] == 1
        assert Simplex("e1", (1,), 2) != x and Simplex("e1", (0,), 3) != x

    def test_bad_words_refused(self):
        with pytest.raises(DomainError, match="not strictly decreasing"):
            Simplex("e1", (0, 1), 3)
        with pytest.raises(DomainError, match="out of range for dim 2"):
            Simplex("e1", (5,), 2)


def _pair_token(A, B, xy):
    word, (x, y) = reference_joint_normal_form((A, B), xy, xy[0].dim)
    return Simplex(f"({simplex_token(x)},{simplex_token(y)})", word, xy[0].dim)


class TestFacesNamedByClassRule:
    def test_products_and_smashes(self):
        # face i of each cell of a product or smash is its class rule on the
        # entries' faces i; the product's basepoint is a cell as well
        for A, B in itertools.product((S0, S1, S2, wedge(S1, S1), MOORE), repeat=2):
            P, pairs = product_with_pairs(A, B)
            assert_faces_follow_class_rule(P, pairs, (A, B), lambda xy: _pair_token(A, B, xy))
            Q, pairs = smash_with_pairs(A, B)
            assert_faces_follow_class_rule(Q, pairs, (A, B), lambda xy: smash_class(A, B, *xy))

    def test_cells_not_closed_under_faces_refused(self):
        e = S1.simplex("e1")
        with pytest.raises(DomainError, match=r"face core \('\*', '\*'\) is not a cell"):
            simplicial._tuple_complex("(*,*)", (S1, S1), [("(e1,e1)", (e, e))], tuple)


class TestValidation:
    def test_identity_violation_rejected(self):
        # a 2-cell whose faces do not satisfy d_0 d_1 = d_0 d_0
        dims = {"*": 0, "v": 0, "a": 1, "c": 2}
        faces = {
            "a": (Simplex("v", (), 0), Simplex("*", (), 0)),
            "c": (Simplex("a", (), 1), Simplex("*", (0,), 1), Simplex("*", (0,), 1)),
        }
        with pytest.raises(DomainError):
            SSet.build("*", dims, faces)

    def test_missing_face_rejected(self):
        with pytest.raises(DomainError):
            SSet.build("*", {"*": 0, "a": 1}, {})

    # Hand-made face tables that each break one identity or face; every
    # error reads as it did when each generator was checked on its own.
    PT, V, W = (Simplex(name, (), 0) for name in "*vw")

    @staticmethod
    def refused(dims, faces, text):
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            SSet.build("*", {"*": 0, "v": 0, "w": 0} | dims, faces)

    def test_identity_broken_through_nondegenerate_faces(self):
        # c = (a, b, e), edges of the table: d_1 d_2 c = d_1 e = v, d_1 d_1 c = d_1 b = w
        edges = {"a": (self.V, self.PT), "b": (self.V, self.W), "e": (self.PT, self.V)}
        self.refused({"a": 1, "b": 1, "e": 1, "c": 2},
                     edges | {"c": tuple(Simplex(g, (), 1) for g in "abe")},
                     "simplicial identity fails at generator 'c' (i=1, j=2)")

    def test_identity_broken_through_degenerate_faces(self):
        # c = (s0 v, s0 v, s0 w): d_0 d_2 c = w, d_1 d_0 c = v
        sv, sw = Simplex("v", (0,), 1), Simplex("w", (0,), 1)
        self.refused({"c": 2}, {"c": (sv, sv, sw)}, "simplicial identity fails at generator 'c' (i=0, j=2)")

    def test_shared_face_tuple_names_the_first_generator(self):
        # y and x share one bad face tuple; m has a good one and comes first
        sv, sw = Simplex("v", (0,), 1), Simplex("w", (0,), 1)
        self.refused({"y": 2, "m": 2, "x": 2}, {"y": (sv, sv, sw), "m": (sv, sv, sv), "x": (sv, sv, sw)},
                     "simplicial identity fails at generator 'x' (i=0, j=2)")

    def test_unknown_face_reported_before_an_earlier_identity(self):
        # a breaks an identity, but b's faces are checked first
        sv, sw = Simplex("v", (0,), 1), Simplex("w", (0,), 1)
        self.refused({"a": 2, "b": 2}, {"a": (sv, sv, sw), "b": (sv, Simplex("q", (0,), 1), sv)},
                     "face 1 of 'b' references unknown generator 'q'")
        self.refused({"a": 2, "b": 2}, {"a": (sv, sv, sw), "b": (sv, sv, Simplex("v", (), 1))},
                     "face 2 of 'b' has inconsistent dimension")

    def test_faces_of_a_repeated_face_taken_once(self, monkeypatch):
        # the 257 faces of e256 are one degenerate basepoint simplex, whose
        # 256 faces the identity check needs once, not once per face
        calls = []

        def counting(K, x, i):
            calls.append(i)
            return face(K, x, i)

        monkeypatch.setattr(simplicial, "face", counting)
        build_sphere(256)
        assert len(calls) == 256


PT = Simplex("*", (), 0)


class TestBuildInputTypes:
    # badly typed names, dimensions and face entries are refused before any
    # other check reads them
    @pytest.mark.parametrize("dims, faces, text", [
        ({5: 0}, {}, "bad generator name 5"),
        ({"e": True}, {"e": (PT, PT)}, "dimension of 'e' must be of type int, got True"),
        ({"e": 1.0}, {"e": (PT, PT)}, "dimension of 'e' must be of type int, got 1.0"),
        ({"e": 1}, {"e": ("*", "*")}, "face 0 of 'e' is not a Simplex: '*'"),
        ({"e": 1}, {"e": (PT, ("*", (), 0))}, "face 1 of 'e' is not a Simplex: ('*', (), 0)"),
    ])
    def test_refused(self, dims, faces, text):
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            SSet.build("*", {"*": 0} | dims, faces)


V = Simplex("v", (), 0)
# an edge a from v to the basepoint: d_0 a = v, d_1 a = *
EDGE = SSet.build("*", {"*": 0, "v": 0, "a": 1}, {"a": (V, PT)})
E0 = S0.simplex("e0")

# the json decoder's text for a document nested past the recursion limit
DEEP_JSON = "not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"

# Refusals of the constructors, lookups, maps and loader, with their texts.
REFUSALS = [
    ("build: basepoint not a vertex", lambda: SSet.build("a", {"*": 0, "a": 1}, {"a": (PT, PT)}),
     "basepoint 'a' must be a dimension-0 generator"),
    ("build: the name s0", lambda: SSet.build("*", {"*": 0, "s0": 1}, {"s0": (PT, PT)}), "bad generator name 's0'"),
    ("build: negative dimension", lambda: SSet.build("*", {"*": 0, "a": -1}, {}),
     "generator 'a' has negative dimension"),
    ("build: vertex with faces", lambda: SSet.build("*", {"*": 0, "v": 0}, {"v": ()}),
     "dimension-0 generator 'v' cannot have faces"),
    ("dim_of: unknown", lambda: S1.dim_of("nope"), "unknown generator 'nope'"),
    ("faces_of: basepoint", lambda: S1.faces_of("*"), "dimension-0 generator '*' has no faces"),
    ("face: index past dim", lambda: face(S1, S1.simplex("e1"), 2), "face index 2 out of range for dim 1"),
    ("face: of a vertex", lambda: face(S1, PT, 0), "a 0-simplex has no faces"),
    ("degenerate: index past dim", lambda: degenerate(PT, 1), "degeneracy index 1 out of range for dim 0"),
    ("degenerate: negative index", lambda: degenerate(PT, -1), "degeneracy index -1 out of range for dim 0"),
    ("collapse: basepoint", lambda: collapse(S1, {"*"}), "cannot collapse the basepoint"),
    ("collapse: unknown", lambda: collapse(S1, {"zz", "yy"}), "cannot collapse unknown generators ['yy', 'zz']"),
    ("SMap.build: images do not cover", lambda: SMap.build(EDGE, S0, {"*": PT, "v": E0}),
     "images must cover exactly the source generators"),
    ("SMap.build: basepoint moved", lambda: SMap.build(EDGE, S0, {"*": E0, "v": E0, "a": degenerate(E0, 0)}),
     "a pointed map must send basepoint to basepoint"),
    # d_1 a = * goes to *, but d_1 s_0 e0 = e0
    ("SMap.build: not simplicial", lambda: SMap.build(EDGE, S0, {"*": PT, "v": E0, "a": degenerate(E0, 0)}),
     "not simplicial at generator 'a', face 1"),
    ("compose: middle mismatch", lambda: compose(identity_map(S1), identity_map(S2)),
     "compose needs matching middle complex"),
    ("SMap.build: image not a Simplex", lambda: SMap.build(S1, S1, {"*": PT, "e1": "junk"}),
     "image of 'e1' is not a Simplex: 'junk'"),
    ("insert_degeneracy: negative index", lambda: insert_degeneracy((), -1),
     "degeneracy index must be nonnegative, got -1"),
    ("smash_class: dimensions differ", lambda: smash_class(S1, S1, S1.simplex("e1"), S1.basepoint_simplex(2)),
     "component dimensions differ: 1 vs 2"),
    ("sset_from_doc: no basepoint", lambda: sset_from_doc({"generators": []}),
     "malformed simplicial-set document: 'basepoint'"),
    ("sset_loads: not JSON", lambda: sset_loads("{"),
     "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("sset_loads: lists nested 1,000 deep", lambda: sset_loads("[" * 1000 + "]" * 1000), DEEP_JSON),
    ("sset_loads: lists nested 100,000 deep", lambda: sset_loads("[" * 100_000 + "]" * 100_000), DEEP_JSON),
    ("sset_loads: deep list in a document",
     lambda: sset_loads('{"basepoint": "*", "generators": ' + "[" * 5000 + "]" * 5000 + "}"), DEEP_JSON),
]


@pytest.mark.parametrize("call, text", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_refused_with_its_text(call, text):
    with pytest.raises((DomainError, ExprParseError), match=f"^{re.escape(text)}$"):
        call()


class TestCollectorPause:
    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("build", [lambda K: smash(K, K), lambda K: product(K, K),
                                       lambda K: james_truncation(K, 3)], ids=["smash", "product", "james_truncation"])
    def test_paused_inside_and_left_as_it_was(self, collector, build, monkeypatch, request):
        # a circle no other test builds, so no cache answers the build
        name = f"pause-{request.node.callspec.id}"
        K = SSet.build("*", {"*": 0, name: 1}, {name: (PT, PT)})
        inside = []
        monkeypatch.setattr(simplicial, "face", lambda *args: inside.append(gc.isenabled()) or face(*args))
        build(K)
        assert inside and not any(inside)
        assert gc.isenabled() is collector

    def test_left_as_it_was_when_a_build_raises(self, collector):
        e = S1.simplex("e1")
        with pytest.raises(DomainError, match="is not a cell"):
            simplicial._tuple_complex("(*,*)", (S1, S1), [("(e1,e1)", (e, e))], tuple)
        assert gc.isenabled() is collector

    def test_each_entry_named_once_inside_the_pause(self, monkeypatch):
        calls, inside = [], []

        def counting(x):
            calls.append(x)
            inside.append(gc.isenabled())
            return simplex_token(x)

        monkeypatch.setattr(simplicial, "simplex_token", counting)
        pairs = list(simplicial._named_pairs(S2, wedge(S1, S1), ",", True))
        entries = {x for _, xy in pairs for x in xy}
        assert len(calls) == len(entries) < 2 * len(pairs) and set(calls) == entries
        # the names are taken lazily, while the build holds the collector
        inside.clear()
        product(S2, SSet.build("*", {"*": 0, "pause-named": 1}, {"pause-named": (PT, PT)}))
        assert inside and not any(inside)


# names the generator that collapse refuses, in a child with a given string hash seed
_COLLAPSE_OFFENDER = """
from ehpcalc.simplicial import build_sphere, collapse, product
P = product(build_sphere(1), build_sphere(1))
try:
    collapse(P, set(P.generators(2)))
except Exception as exc:
    print(exc)
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_collapse_names_the_first_offender_in_generator_order(hash_seed):
    """Both 2-cells of S1 x S1 have faces outside the kill set; the one named
    is the first in (dim, name) order, whatever the string hash seed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(simplicial.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", _COLLAPSE_OFFENDER], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "collapse set is not face-closed at '(s0.e1,s1.e1)'\n"
