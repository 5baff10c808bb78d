"""Oracle for the plan: Brauer-Klimyk in Racah-Speiser form (Klimyk 1967).

`tensor._plan` peels highest weights off the dominant-weight multiplicities
of the product.  Here the product is read off one factor's weight system
instead.  Each weight mu of V(b), taken with its multiplicity, gives the
signed term V(w(a + mu + rho) - rho), where the Weyl group element w takes
a + mu + rho into the dominant chamber and the sign is that of w.  A term on
a wall, with some label 0, drops out.  The weights and multiplicities come
from `oracle_freudenthal` of tests/test_liealg.py; the reflections read only
the Cartan matrix.  Nothing here is shared with `_plan`.
"""

import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from liecg import tensor
from liecg.irrep import new_generic_irrep
from liecg.liealg import LieAlgebra, cartan, weyl_dim

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_liealg import oracle_freudenthal  # noqa: E402


def brauer_klimyk(la, a, b):
    """The highest weights of V(a) x V(b), as a Counter of outer
    multiplicities."""
    A = cartan(la)
    out = Counter()
    for rec in oracle_freudenthal(la, b):
        v = [x + y + 1 for x, y in zip(a, rec.dynkin)]  # a + mu + rho
        sign = 1
        while any(x < 0 for x in v):
            i = next(i for i, x in enumerate(v) if x < 0)
            # the simple reflection s_i(v) = v - v_i alpha_i; the labels of
            # alpha_i are row i of the Cartan matrix
            c = v[i]
            v = [x - c * y for x, y in zip(v, A[i])]
            sign = -sign
        if 0 not in v:
            out[tuple(x - 1 for x in v)] += sign * rec.degeneracy
    assert all(n >= 0 for n in out.values()), out
    return +out


@lru_cache(maxsize=None)
def irrep(la, hw):
    return new_generic_irrep(la, hw)


def check(la, a, b):
    got = Counter(tensor._plan(irrep(la, a), irrep(la, b)))
    assert got == brauer_klimyk(la, a, b), (la.name, a, b)


# Every product the other tests decompose, by algebra (family, rank): their
# own, those of the CLI and acceptance runs, and those of every otimes.
TESTED = """
A 1  0x0 0x1 0x2 0x3 0x4 1x0 1x1 1x2 1x3 1x4 2x0 2x1 2x2 2x3 2x4 3x0 3x1
     3x2 3x3 3x4 4x0 4x1 4x2 4x3 4x4
A 2  01x01 01x02 01x10 01x11 01x20 02x01 02x02 02x10 02x11 02x20 03x02
     03x10 10x01 10x02 10x10 10x11 10x20 11x01 11x02 11x10 11x11 11x20
     12x11 12x20 13x10 20x01 20x02 20x10 20x11 20x20 21x10 21x11 21x20
     21x21 22x01 22x10 22x11 22x22 30x10 30x11 31x01 32x10 33x11 40x20
     41x10
A 3  000x101 001x010 001x101 010x010 010x100 011x001 020x010 020x101
     100x001 100x010 100x100 101x101 102x001 110x001 110x100 200x010
     200x101 210x101
B 2  01x01 01x02 01x10 02x01 02x02 02x10 10x01 10x02 10x10 11x11
B 3  001x101 101x101
C 2  11x01
C 3  010x010 200x100
D 4  1010x1001
D 5  00001x00010 00010x00001
E6 6  100000x000010
E7 7  0000010x0000010
E8 8  00000010x00000010
F4 4  0001x0001 1000x1000
G2 2  01x01 01x10 10x01 10x10 20x20
"""


def _tested():
    cases, la = [], None
    for line in TESTED.strip().splitlines():
        words = line.split()
        if not line.startswith(" "):
            la = LieAlgebra(words[0], int(words[1]))
            words = words[2:]
        for spec in words:
            a, b = (tuple(map(int, side)) for side in spec.split("x"))
            cases.append((la, a, b))
    return cases


@pytest.mark.parametrize(
    "la,a,b", _tested(), ids=lambda x: x.name if isinstance(x, LieAlgebra)
    else "".join(map(str, x)))
def test_plan_of_every_tested_product(la, a, b):
    check(la, a, b)


NINE = [
    LieAlgebra("A", 1), LieAlgebra("A", 3), LieAlgebra("A", 4),
    LieAlgebra("B", 3), LieAlgebra("B", 4), LieAlgebra("C", 3),
    LieAlgebra("C", 4), LieAlgebra("D", 4), LieAlgebra("D", 5),
    LieAlgebra("E6", 6), LieAlgebra("E7", 7), LieAlgebra("E8", 8),
    LieAlgebra("F4", 4), LieAlgebra("G2", 2),
]


def _small(la, max_dim):
    """The trivial irrep, the fundamentals, and the sums of two
    fundamentals, up to max_dim."""
    n = la.rank
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    hws = {(0,) * n} | set(units) | {
        tuple(x + y for x, y in zip(u, v))
        for u, v in combinations_with_replacement(units, 2)}
    return sorted(hw for hw in hws if weyl_dim(la, hw) <= max_dim)


@pytest.mark.parametrize("la", NINE, ids=lambda la: la.name)
def test_plan_of_small_products(la):
    # every pair of small irreps whose product has at most 20000 states
    hws = _small(la, 300)
    pairs = [(a, b) for a, b in combinations_with_replacement(hws, 2)
             if weyl_dim(la, a) * weyl_dim(la, b) <= 20000]
    assert len(pairs) >= 2
    for a, b in pairs:
        check(la, a, b)
