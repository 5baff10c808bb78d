"""SU(2) Clebsch-Gordan coefficients against sympy's Condon-Shortley
values, an oracle that shares no code with liecg."""

import pytest

sympy = pytest.importorskip("sympy")
from sympy.physics.quantum.cg import CG  # noqa: E402

from liecg.exactnum import field_sqrt  # noqa: E402
from liecg.liealg import LieAlgebra  # noqa: E402
from liecg.irrep import new_generic_irrep  # noqa: E402
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


def test_su2_coefficients_match_condon_shortley():
    # every entry of every coupling matrix for 2j1, 2j2 <= 4: the states
    # |J M> are the lowered highest-weight states at unit norm, so they
    # follow the Condon-Shortley phase convention
    checked = 0
    for m1 in range(5):
        for m2 in range(5):
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
                        want = CG(
                            _half(m1), _half(l.weight_of[a][0]),
                            _half(m2), _half(r.weight_of[b][0]),
                            J, M,
                        ).doit()
                        got = _to_sympy(s.get((a, b)))
                        assert got == want or sympy.simplify(got - want) == 0, (
                            m1, m2, p.hw, k, a, b, got, want)
                        checked += 1
    assert checked == 3025
