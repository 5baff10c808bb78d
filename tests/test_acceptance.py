"""Acceptance gate: one test per shipped guarantee, each timed against its
budget.  Every test finishes by printing a single PASS line (visible with
pytest -s); a failed assertion is the corresponding FAIL."""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import mpmath

from liecg.exactnum import (
    ONE,
    ZERO,
    FieldElem,
    field,
    field_sqrt,
    number,
    parse_field,
)
from liecg.liealg import (
    LieAlgebra,
    adjoint_hw,
    cartan,
    freudenthal,
    positive_roots,
    weyl_dim,
)
from liecg.irrep import new_generic_irrep, new_imported_irrep
from liecg.tensor import (
    Decomposition,
    check_dims,
    decompose,
    prepare,
    product_scp,
    render_states,
    result,
)
from liecg.multitensor import otimes, wrap

import random
import re


def _norm(text):
    """Whitespace-insensitive view: squeezed tokens, no blank lines."""
    return [" ".join(l.split()) for l in text.strip().splitlines() if l.strip()]


def _passed(n, label, elapsed, budget):
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {n} PASS  ({elapsed:.2f}s < {budget:.0f}s)  {label}")


# --------------------------------------------------------------------- 1

SU3_LISTING = """
Lie algebra   :   SU(3)
==================================
Highest weight:   (1,1)
Dim. of irrep :   8
==================================
1, Lev:0, Deg:1  (1,1),-2  (0,0)
2, Lev:1, Deg:1  (2,-1),-1  (0,1)
3, Lev:1, Deg:1  (-1,2),-1  (1,0)
4, Lev:2, Deg:2  (0,0),0  (1,1)
6, Lev:3, Deg:1  (1,-2),1  (1,2)
7, Lev:3, Deg:1  (-2,1),1  (2,1)
8, Lev:4, Deg:1  (-1,-1),2  (2,2)
"""

E6_LISTING = """
Lie algebra   :   E6
==================================
Highest weight:   (1,0,0,0,0,0)
Dim. of irrep :   27
==================================
1, Lev:0, Deg:1  (1,0,0,0,0,0),-1  (0,0,0,0,0,0)
2, Lev:1, Deg:1  (-1,1,0,0,0,0),-1  (1,0,0,0,0,0)
3, Lev:2, Deg:1  (0,-1,1,0,0,0),-1  (1,1,0,0,0,0)
4, Lev:3, Deg:1  (0,0,-1,1,0,1),-1  (1,1,1,0,0,0)
5, Lev:4, Deg:1  (0,0,0,1,0,-1),0  (1,1,1,0,0,1)
6, Lev:4, Deg:1  (0,0,0,-1,1,1),-1  (1,1,1,1,0,0)
7, Lev:5, Deg:1  (0,0,1,-1,1,-1),0  (1,1,1,1,0,1)
8, Lev:5, Deg:1  (0,0,0,0,-1,1),-1  (1,1,1,1,1,0)
9, Lev:6, Deg:1  (0,0,1,0,-1,-1),0  (1,1,1,1,1,1)
10, Lev:6, Deg:1  (0,1,-1,0,1,0),0  (1,1,2,1,0,1)
11, Lev:7, Deg:1  (0,1,-1,1,-1,0),0  (1,1,2,1,1,1)
12, Lev:7, Deg:1  (1,-1,0,0,1,0),0  (1,2,2,1,0,1)
13, Lev:8, Deg:1  (0,1,0,-1,0,0),0  (1,1,2,2,1,1)
14, Lev:8, Deg:1  (1,-1,0,1,-1,0),0  (1,2,2,1,1,1)
15, Lev:8, Deg:1  (-1,0,0,0,1,0),0  (2,2,2,1,0,1)
16, Lev:9, Deg:1  (1,-1,1,-1,0,0),0  (1,2,2,2,1,1)
17, Lev:9, Deg:1  (-1,0,0,1,-1,0),0  (2,2,2,1,1,1)
18, Lev:10, Deg:1  (1,0,-1,0,0,1),0  (1,2,3,2,1,1)
19, Lev:10, Deg:1  (-1,0,1,-1,0,0),0  (2,2,2,2,1,1)
20, Lev:11, Deg:1  (1,0,0,0,0,-1),1  (1,2,3,2,1,2)
21, Lev:11, Deg:1  (-1,1,-1,0,0,1),0  (2,2,3,2,1,1)
22, Lev:12, Deg:1  (-1,1,0,0,0,-1),1  (2,2,3,2,1,2)
23, Lev:12, Deg:1  (0,-1,0,0,0,1),0  (2,3,3,2,1,1)
24, Lev:13, Deg:1  (0,-1,1,0,0,-1),1  (2,3,3,2,1,2)
25, Lev:14, Deg:1  (0,0,-1,1,0,0),1  (2,3,4,2,1,2)
26, Lev:15, Deg:1  (0,0,0,-1,1,0),1  (2,3,4,3,1,2)
27, Lev:16, Deg:1  (0,0,0,0,-1,0),1  (2,3,4,3,2,2)
"""


def _lie_command():
    """The installed `lie` script, else `python -m liecg` (same entry point)
    run by this interpreter, so a bare checkout imports the same package."""
    exe = shutil.which("lie")
    return [exe] if exe else [sys.executable, "-m", "liecg"]


def _run_lie(args):
    t0 = time.perf_counter()
    proc = subprocess.run(_lie_command() + args, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, elapsed


def test_criterion_1_weight_listing_transcripts():
    out_su3, t_su3 = _run_lie(["-su", "3", "-rep", "11"])
    assert _norm(out_su3) == _norm(SU3_LISTING)
    assert t_su3 < 1.0
    out_e6, t_e6 = _run_lie(["-e6", "-rep", "100000"])
    assert _norm(out_e6) == _norm(E6_LISTING)
    assert t_e6 < 1.0
    _passed(1, "SU(3) adjoint and E6 27 listings", max(t_su3, t_e6), 1.0)


# --------------------------------------------------------------------- 2

def test_criterion_2_su3_triplet_antitriplet_singlet():
    t0 = time.perf_counter()
    la = LieAlgebra("A", 2)
    l = new_generic_irrep(la, (1, 0))
    r = new_generic_irrep(la, (0, 1))
    d = Decomposition(l, r)
    decompose(d)
    assert [p.hw for p in d.found] == [(1, 1), (0, 0)]
    assert [p.dim for p in d.found] == [8, 1]
    singlet = d.found[1].levels[0][0]
    c = number(1, 3, 3)  # 1/sqrt(3)
    want = [(c, (1, 3)), (-c, (2, 2)), (c, (3, 1))]
    flipped = [(-a, p) for a, p in want]
    assert singlet.terms in (want, flipped)
    _passed(2, "3 x 3bar singlet is (1,-1,1)/sqrt(3)",
            time.perf_counter() - t0, 1.0)


# --------------------------------------------------------------------- 3

# note the trailing space after "=" on the header line
E6_RESULT = "\n".join(
    [
        "Dimensions match.",
        "Clebsch-Gordan decomposition successfully done!",
        "E6: (1,0,0,0,0,0,)27 x (0,0,0,0,1,0,)27 = ",
        "(1,0,0,0,1,0,)650",
        "(0,0,0,0,0,1,)78",
        "(0,0,0,0,0,0,)1",
    ]
)


def test_criterion_3_e6_27_27bar_with_import():
    t0 = time.perf_counter()
    la = LieAlgebra("E6", 6)
    l = new_generic_irrep(la, (1, 0, 0, 0, 0, 0))
    r = new_generic_irrep(la, (0, 0, 0, 0, 1, 0))
    d = Decomposition(l, r)
    decompose(d)
    assert result(d) == E6_RESULT
    assert check_dims(d)
    data = prepare(d.found[0], l, r)  # the 650
    imp = new_imported_irrep(la, data)
    assert imp.dim == 650
    imp.check_consistency()
    _passed(3, "27 x 27bar = 650 + 78 + 1, imported 650 consistent",
            time.perf_counter() - t0, 600.0)


# --------------------------------------------------------------------- 4

E8_RESULT = "\n".join(
    [
        "Dimensions match.",
        "Clebsch-Gordan decomposition successfully done!",
        "E8: (0,0,0,0,0,0,1,0,)248 x (0,0,0,0,0,0,1,0,)248 = ",
        "(0,0,0,0,0,0,2,0,)27000",
        "(0,0,0,0,0,1,0,0,)30380",
        "(1,0,0,0,0,0,0,0,)3875",
        "(0,0,0,0,0,0,1,0,)248",
        "(0,0,0,0,0,0,0,0,)1",
    ]
)


def test_criterion_4_e8_adjoint_square():
    t0 = time.perf_counter()
    la = LieAlgebra("E8", 8)
    hw = (0, 0, 0, 0, 0, 0, 1, 0)
    assert adjoint_hw(la) == hw
    r248 = new_generic_irrep(la, hw)
    d = Decomposition(r248, r248)
    decompose(d)
    assert result(d) == E8_RESULT
    singlet = next(p for p in d.found if p.dim == 1)
    terms = singlet.levels[0][0].terms
    # the singlet is unit-normalized like every found state: its leading
    # coefficients are +-1/sqrt(248), alternating in sign
    lead = [c for c, _ in terms[:6]]
    assert all(c * c == field(Fraction(1, 248)) for c in lead)
    assert all(lead[i] == -lead[i + 1] for i in range(5))
    print(f"E8 decomposition finished in {time.perf_counter() - t0:.0f}s")
    _passed(4, "248 x 248 irreps and alternating singlet",
            time.perf_counter() - t0, float("inf"))


# --------------------------------------------------------------------- 5

TT1_TERMS = {
    "(((4,3),1),-1)": -1, "(((3,4),1),-1)": -1,
    "(((4,2),2),-1)": 1, "(((2,4),2),-1)": 1,
    "(((4,1),4),-1)": -1, "(((1,4),4),-1)": -1,
}
TT2_TERMS = {
    "(((1,3),5),-1)": 1, "(((3,1),5),-1)": -1,
    "(((1,2),6),-1)": -1, "(((2,1),6),-1)": 1,
    "(((3,4),1),-1)": 1, "(((4,3),1),-1)": -1,
    "(((2,4),2),-1)": -1, "(((4,2),2),-1)": 1,
    "(((1,4),4),-1)": 1, "(((4,1),4),-1)": -1,
    "(((2,3),3),-1)": -1, "(((3,2),3),-1)": 1,
}

SU4_SCRIPT = """\
algebra a 3
irrep r4 100
irrep r6 010
irrep r15 101
wrap t4 r4
wrap t6 r6
wrap t15 r15
otimes s1 t4 t4 1
otimes s2 s1 t6 2
otimes tt1 s2 t15 7
otimes a1 t4 t4 2
otimes a2 a1 t6 2
otimes tt2 a2 t15 7
is_sym tt1 1 2
is_sym tt2 1 2
vector sing r15 7:1 8:-2 9:3
normalize sing
basis tr r15 6 sing
filter f1 tt1 4 7,8,9
chbasis c1 f1 4 tr
filter v1 c1 4 -1
scale v1s v1 3*sqrt(10)
print v1s
filter f2 tt2 4 7,8,9
chbasis c2 f2 4 tr
filter v2 c2 4 -1
scale v2s v2 6*sqrt(5)
print v2s
"""

_TERM_RE = re.compile(r'\("(-?\d+)", "([^"]+)"\)')


def _terms_of(line):
    return {tree: int(c) for c, tree in _TERM_RE.findall(line)}


def _same_up_to_sign(got, want):
    return got == want or got == {k: -v for k, v in want.items()}


def test_criterion_5_su4_fourfold_product(tmp_path):
    t0 = time.perf_counter()
    la = LieAlgebra("A", 3)
    t4 = wrap(new_generic_irrep(la, (1, 0, 0)))
    t6 = wrap(new_generic_irrep(la, (0, 1, 0)))
    t15 = wrap(new_generic_irrep(la, (1, 0, 1)))
    # exactly two invariants in the whole fourfold product
    n_singlets = 0
    d1 = Decomposition(t4.irrep, t4.irrep)
    decompose(d1)
    for k1 in range(1, len(d1.found) + 1):
        n1 = otimes(t4, t4, k1)
        d2 = Decomposition(n1.irrep, t6.irrep)
        decompose(d2)
        for k2 in range(1, len(d2.found) + 1):
            n2 = otimes(n1, t6, k2)
            d3 = Decomposition(n2.irrep, t15.irrep)
            decompose(d3)
            n_singlets += sum(1 for p in d3.found if p.dim == 1)
    assert n_singlets == 2
    # the documented pipeline, run through the CLI script engine
    script = tmp_path / "su4.lie"
    script.write_text(SU4_SCRIPT)
    out, _ = _run_lie(["--script", str(script)])
    lines = out.splitlines()
    assert lines[0].endswith("= 1") and lines[1].endswith("= -1")
    assert _same_up_to_sign(_terms_of(lines[2]), TT1_TERMS)
    assert _same_up_to_sign(_terms_of(lines[3]), TT2_TERMS)
    _passed(5, "two singlets in 4x4x6x15, symmetry and vev couplings",
            time.perf_counter() - t0, 60.0)


# --------------------------------------------------------------------- 6

RANK_LE_4_AND_E6 = (
    [LieAlgebra("A", n) for n in (1, 2, 3, 4)]
    + [LieAlgebra("B", n) for n in (2, 3, 4)]
    + [LieAlgebra("C", n) for n in (2, 3, 4)]
    + [LieAlgebra("D", n) for n in (3, 4)]
    + [LieAlgebra("F4", 4), LieAlgebra("G2", 2), LieAlgebra("E6", 6)]
)


def test_criterion_6_dimension_and_multiplicity_suite():
    t0 = time.perf_counter()
    for la in RANK_LE_4_AND_E6:
        n = la.rank
        adj = adjoint_hw(la)
        hws = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        if adj not in hws:
            hws.append(adj)
        for hw in hws:
            recs = freudenthal(la, hw)
            assert sum(r.degeneracy for r in recs) == weyl_dim(la, hw), (la, hw)
        adj_dim = weyl_dim(la, adj)
        roots = positive_roots(la)
        assert len(roots) == (adj_dim - n) // 2, la
        A = cartan(la)
        pos = {
            tuple(sum(r[i] * A[i][j] for i in range(n)) for j in range(n))
            for r in roots
        }
        adj_recs = freudenthal(la, adj)
        nonzero = [r for r in adj_recs if any(r.dynkin)]
        assert all(r.degeneracy == 1 for r in nonzero), la
        assert {r.dynkin for r in nonzero} == pos | {
            tuple(-x for x in p) for p in pos
        }, la
        (zero,) = [r for r in adj_recs if not any(r.dynkin)]
        assert zero.degeneracy == n, la
    _passed(6, "Freudenthal sums, root counts, adjoint weight systems",
            time.perf_counter() - t0, 120.0)


# --------------------------------------------------------------------- 7

SMALL_IRREPS = {
    LieAlgebra("A", 1): [(1,), (2,), (3,), (4,)],
    LieAlgebra("A", 2): [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)],
    LieAlgebra("B", 2): [(1, 0), (0, 1), (0, 2)],
    LieAlgebra("G2", 2): [(1, 0), (0, 1)],
}


def test_criterion_7_tensor_product_property_suite():
    t0 = time.perf_counter()
    for la, hws in SMALL_IRREPS.items():
        reps = {hw: new_generic_irrep(la, hw) for hw in hws}
        assert all(r.dim <= 14 for r in reps.values())
        found_map = {}
        for hl in hws:
            for hr in hws:
                l, r = reps[hl], reps[hr]
                d = Decomposition(l, r)
                decompose(d)
                assert check_dims(d)
                assert sum(p.dim for p in d.found) == l.dim * r.dim
                found_map[hl, hr] = sorted(p.hw for p in d.found)
                # per-weight convolution of the factor multiplicities
                conv = {}
                for a in freudenthal(la, hl):
                    for b in freudenthal(la, hr):
                        w = tuple(x + y for x, y in zip(a.dynkin, b.dynkin))
                        conv[w] = conv.get(w, 0) + a.degeneracy * b.degeneracy
                got = {}
                for p in d.found:
                    for rec in freudenthal(la, p.hw):
                        got[rec.dynkin] = (
                            got.get(rec.dynkin, 0) + rec.degeneracy
                        )
                assert got == conv, (la, hl, hr)
                # highest-weight states of distinct irreps: exact zeros
                tops = [p.levels[0][0] for p in d.found]
                for i in range(len(tops)):
                    for j in range(i + 1, len(tops)):
                        assert product_scp(tops[i], tops[j], l, r) == ZERO
        for hl in hws:
            for hr in hws:
                assert found_map[hl, hr] == found_map[hr, hl], (la, hl, hr)
    _passed(7, "dimension sums, commutativity, convolution, orthogonality",
            time.perf_counter() - t0, 300.0)


# --------------------------------------------------------------------- 8

_RADS = [1, 2, 3, 5, 6, 7, 10, 11, 13]


def _mp_value(x, dps=60):
    with mpmath.workdps(dps):
        if not x.terms:
            return mpmath.mpf(0)
        return mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(f)
            for f, c in x.terms.items()
        )


def _rand_elem(rng):
    items = [
        (rng.choice(_RADS), Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
        for _ in range(rng.randint(1, 4))
    ]
    return FieldElem.make(items)


def test_criterion_8_exact_arithmetic_suite():
    t0 = time.perf_counter()
    rng = random.Random(1105)
    elems = [_rand_elem(rng) for _ in range(10**4)]
    for x in elems:
        s = x.sign()
        v = _mp_value(x)
        if s == 0:
            assert abs(v) < mpmath.mpf("1e-40")
        else:
            assert mpmath.sign(v) == s
        assert parse_field(x.plain()) == x  # canonical form round-trips
    for i in range(1000):
        a, b, c = elems[3 * i], elems[3 * i + 1], elems[3 * i + 2]
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        assert a - a == ZERO and a * ONE == a
    inverted = 0
    for x in elems:
        if inverted == 500:
            break
        if not x.is_zero():
            assert x * x.invert() == ONE
            inverted += 1
    g2_adj = new_generic_irrep(LieAlgebra("G2", 2), (0, 1))
    g2 = g2_adj.scalar_product(
        *g2_adj.labels_by_weight[(0, 0)]
    )
    assert g2 == field_sqrt(field(Fraction(3, 4)))  # sqrt(3)/2
    assert g2 == number(1, 2, 3)
    _passed(8, "field axioms, canonical forms, signs, G2 zero-weight scp",
            time.perf_counter() - t0, 60.0)
