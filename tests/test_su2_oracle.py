"""SU(2) Clebsch-Gordan coefficients against sympy's Condon-Shortley
values, an oracle that shares no code with liecg: the couplings of one
product, and the printed couplings of three-factor script chains."""

import ast
from functools import lru_cache
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")
from sympy.physics.quantum.cg import CG  # noqa: E402

from liecg.exactnum import field_sqrt  # noqa: E402
from liecg.liealg import LieAlgebra  # noqa: E402
from liecg.irrep import new_generic_irrep  # noqa: E402
from liecg import multitensor as mt  # noqa: E402
from liecg.tensor import Decomposition, decompose, product_scp  # noqa: E402

A1 = LieAlgebra("A", 1)


def _to_sympy(x):
    assert x.den.plain() == "1"
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(f)
         for f, c in x.terms.items()),
        sympy.Integer(0),
    )


def _half(n):
    return sympy.Rational(n, 2)


@lru_cache(maxsize=None)
def _cg(j1, m1, j2, m2, j, m):
    """<j1 m1; j2 m2 | j m>, every argument given doubled."""
    h = _half
    return CG(h(j1), h(m1), h(j2), h(m2), h(j), h(m)).doit()


def test_su2_coefficients_match_condon_shortley():
    # every entry of every coupling matrix for 2j1, 2j2 <= 6: the states
    # |J M> are the lowered highest-weight states at unit norm, so they
    # follow the Condon-Shortley phase convention
    checked = 0
    for m1 in range(7):
        for m2 in range(7):
            l, r = new_generic_irrep(A1, (m1,)), new_generic_irrep(A1, (m2,))
            pairs = [(a, b) for a in l.kets for b in r.kets]
            d = Decomposition(l, r)
            decompose(d)
            for p in d.found:
                J = _half(p.hw[0])
                for k, level in enumerate(p.levels):
                    (s,) = level
                    s = s.scaled(field_sqrt(product_scp(s, s, l, r)).invert())
                    M = J - k
                    for a, b in pairs:
                        want = _cg(m1, l.weight_of[a][0],
                                   m2, r.weight_of[b][0], p.hw[0], 2 * M)
                        got = _to_sympy(s.get((a, b)))
                        assert got == want or sympy.simplify(got - want) == 0, (
                            m1, m2, p.hw, k, a, b, got, want)
                        checked += 1
    assert checked == 19600


def _printed(node):
    """{state: {leaf tree: value}} read back from the node's print."""
    out = {}
    for lab, text in mt.untree(node):
        terms = ast.literal_eval(text.replace("; ", ", "))
        out[lab] = {ast.literal_eval(tree): sympy.sympify(c) for c, tree in terms}
    return out


def test_su2_three_factor_chains_match_condon_shortley():
    # ((j1 x j2)_J12 x j3)_J for 2j <= 3: the print of |J M> on the leaves
    # ((m1, m2), m3) is the sum over M12 of <j1 m1; j2 m2|J12 M12> *
    # <J12 M12; j3 m3|J M>, in which only M12 = m1 + m2 contributes.  That
    # holds with these phases because the middle node's own print shows
    # each of its states to be its Condon-Shortley state, sign and all, as
    # the two-factor test above shows for every product state.
    checked = 0
    for j1, j2, j3 in product(range(4), repeat=3):
        rs = [new_generic_irrep(A1, (j,)) for j in (j1, j2, j3)]
        m1, m2, m3 = ({a: w[0] for a, w in r.weight_of.items()} for r in rs)
        ts = [mt.wrap(r) for r in rs]
        for k12 in range(1, min(j1, j2) + 2):
            mid = mt.otimes(ts[0], ts[1], k12)
            J12 = mid.irrep.hw[0]
            cg1 = {(a, b): _cg(j1, m1[a], j2, m2[b], J12, m1[a] + m2[b])
                   for a in m1 for b in m2}
            for s, terms in _printed(mid).items():
                M12 = mid.irrep.weight_of[s][0]
                for (a, b), want in cg1.items():
                    want = want if m1[a] + m2[b] == M12 else 0
                    assert terms.get((a, b), 0) == want, (j1, j2, s, a, b)
            for k in range(1, min(J12, j3) + 2):
                top = mt.otimes(mid, ts[2], k)
                J = top.irrep.hw[0]
                for t, terms in _printed(top).items():
                    M = top.irrep.weight_of[t][0]
                    for (a, b), c1 in cg1.items():
                        for c in m3:
                            want = c1 * _cg(J12, m1[a] + m2[b], j3, m3[c], J, M)
                            got = terms.get(((a, b), c), 0)
                            assert got == want or sympy.simplify(got - want) == 0, (
                                j1, j2, j3, J12, J, t, a, b, c, got, want)
                            checked += 1
    assert checked == 27000
