"""Self-test of the benchmark's independent checks on cases known by hand.

    python3 perfbench/selftest.py

Exits 0 and prints the case count when every case holds, 1 otherwise.
"""
from __future__ import annotations

import sys

import checks
from checks import S


def main() -> int:
    count, failures = 0, []

    def expect(name, got, want):
        nonlocal count
        count += 1
        if got != want:
            failures.append(f"{name}: got {got!r}, expected {want!r}")

    def rejects(name, message):
        expect(name, message is not None, True)

    # reduced homology: James splitting, Kunneth, smash, quotients
    expect("H~(J_3(S1+S1)) = Z^2, Z^4, Z^8", checks.betti(("J", ("+", S(1), S(1)), 3)), {1: 2, 2: 4, 3: 8})
    expect("H~(S2 x S2)", checks.betti(("x", S(2), S(2))), {2: 2, 4: 1})
    expect("H~(S1 ^ S1)", checks.betti(("^", S(1), S(1))), {2: 1})
    expect("H~(Q(S1,3)) = H~(S3)", checks.betti(("Q", S(1), 3)), {3: 1})
    expect("H~(S0 + S0)", checks.betti(("+", S(0), S(0))), {0: 2})
    expect("H~(pt x S2)", checks.betti(("x", ("pt",), S(2))), {2: 1})

    # cell counts
    expect("cells of S1 ^ S1", checks.cells(("^", S(1), S(1))), {1: 1, 2: 2})
    expect("cells of S1 x S1", checks.cells(("x", S(1), S(1))), {1: 3, 2: 2})
    expect("cells of J_3(S1)", checks.james_cells({1: 1}, 3), {1: 3, 2: 8, 3: 6})
    expect("cells of J_2(S0)", checks.james_cells({0: 1}, 2), {0: 2})
    expect("generators of J(S1,5)", checks.generator_count(("J", S(1), 5)), 634)
    expect("generators of J(S2,3)", checks.generator_count(("J", S(2), 3)), 424)
    expect("render keeps the tree", checks.render(("^", S(1), ("+", S(2), S(1)))), "S1^(S2+S1)")
    expect("render of a left chain", checks.render(("x", ("x", S(2), S(2)), S(2))), "S2xS2xS2")
    doc = {"cells": {"0": 1, "1": 3, "2": 8, "3": 6}, "generators": 18}
    expect("census check", checks.check_james_census(S(1), 3, doc), None)
    rejects("census check sees a missing cell",
            checks.check_james_census(S(1), 3, {"cells": {"0": 1, "1": 3, "2": 7, "3": 6}, "generators": 17}))
    groups = {"groups": [{"degree": 2, "free_rank": 1, "torsion": []}]}
    expect("homology check", checks.check_homology(("^", S(1), S(1)), groups), None)
    rejects("homology check sees torsion", checks.check_homology(
        ("^", S(1), S(1)), {"groups": [{"degree": 2, "free_rank": 1, "torsion": [2]}]}))

    # Hopf words
    expect("H_2[a|b|c]", checks.hopf_tokens(["a", "b", "c"], 2), ["(a^b)", "(a^c)", "(b^c)"])
    expect("H_3[a|b|c|d]", checks.hopf_tokens(list("abcd"), 3),
           ["((a^b)^c)", "((a^b)^d)", "((a^c)^d)", "((b^c)^d)"])
    expect("H o E is trivial", checks.hopf_tokens(["a"], 2), [])

    # Smith certificates: diag(2, 4) = U [[2,4],[6,8]] V
    M, U, V = [[2, 4], [6, 8]], [[1, 0], [3, -1]], [[1, -2], [0, 1]]
    expect("Bareiss det", checks.bareiss_det(M), -8)
    expect("rational rank", checks.rational_rank([[1, 2], [2, 4]]), 1)
    expect("Smith certificate", checks.check_smith(M, [2, 4], U, V), None)
    rejects("Smith factors out of order", checks.check_smith([[4, 0], [0, 2]], [4, 2], [[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    rejects("Smith with a non-unimodular U", checks.check_smith([[1, 0], [0, 2]], [2, 2], [[2, 0], [0, 1]], [[1, 0], [0, 1]]))
    expect("singular Smith", checks.check_smith([[1, 2], [2, 4]], [1], [[1, 0], [-2, 1]], [[1, -2], [0, 1]]), None)

    # quadratic forms
    expect("Jacobi (2/7)", checks.jacobi(2, 7), 1)
    expect("Jacobi (3/7)", checks.jacobi(3, 7), -1)
    expect("Jacobi (-1/5)", checks.jacobi(-1, 5), 1)
    expect("Jacobi (-1/7)", checks.jacobi(-1, 7), -1)
    expect("squarefree(-72)", checks.squarefree(-72), -2)
    expect("3<1> + 2<g> - <-1> over F5", checks.gw_expected("f5", [(3, 1), (2, "g"), (-1, -1)]),
           {"rank": 4, "disc": "1", "signature": None, "element": "4<1>"})
    expect("3<2> + <-3> - 5<7> over Q",
           {k: v for k, v in checks.gw_expected("q", [(3, 2), (1, -3), (-5, 7)]).items() if k != "element"},
           {"rank": -1, "disc": "-42", "signature": -3})
    expect("3<2> + <-3> - 5<7> over R", checks.gw_expected("r", [(3, 2), (1, -3), (-5, 7)])["element"], "<-1> - 2<1>")
    expect("every unit is a square in F9", checks.square_rep("f9", 2), 1)
    expect("<1> - <g> normal form", checks.format_counts({1: -1, "g": 1}), "<g> - <1>")

    # EHP parity table, tensors, degrees
    hp = {"case": "h", "rank": 2, "signature": 0, "element": "<1> + <-1>"}
    expect("1 - eps over R at p=2, q=1 is h", checks.check_hp("r", 2, 1, hp), None)
    expect("1 - (-1)^3 eps^3 over F9 vanishes",
           checks.check_hp("f9", 3, 3, {"case": "1+eps", "rank": 0, "signature": 2, "element": "0"}), None)
    expect("exchange p=3, q=2 over Q", checks.exchange_expected("q", 3, 2), "-<1>")
    expect("KMW(2) (x) KMW(3)", checks.check_tensor([2, 3], 0, {"result": "KMW(5)"}), None)
    expect("contraction below degree 0", checks.check_tensor([1, 1], 3, {"result": "W"}), None)
    expect("Whitehead exchange degree", checks.check_degree(["whitehead_exchange_homotopy"], {"degree": -1}), None)
    rejects("degree +1 refused", checks.check_degree(["whitehead_exchange_homotopy"], {"degree": 1}))

    for line in failures:
        print("FAIL", line)
    print(f"{count - len(failures)}/{count} self-test cases hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
