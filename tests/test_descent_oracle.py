"""The integer descent, search and prepare of liecg.tensor against the
Fraction-valued versions they replaced (tests/fraction_oracle.py), on the
products whose factor tables hold fractional entries: F4 52x52 (two roots
with entries of 1/2), the imported SU(3) 27 (denominators 2, 3, 4 and 6)
against itself and the octet, and an SU(3) otimes chain whose factors are
prepared product irreps.  A type guard checks that no Fraction reaches the
lowering tables, the stored states or the tracked eliminations."""

import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from liecg import irrep as irrep_mod
from liecg import linalg, tensor
from liecg.exactnum import field, number
from liecg.irrep import new_generic_irrep, new_imported_irrep
from liecg.liealg import LieAlgebra
from liecg.tensor import (
    Decomposition,
    basis_product,
    decompose,
    prepare,
    prepare_with_states,
    product_lower,
    product_scp,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fraction_oracle  # noqa: E402
from fraction_oracle import (  # noqa: E402
    OracleIrrep,
    fraction_prepare,
    oracle_decompose,
    oracle_prepare,
    oracle_product_lower,
    oracle_product_scp,
    uncapped_descent,
)

A2 = LieAlgebra("A", 2)
E6 = LieAlgebra("E6", 6)
F4 = LieAlgebra("F4", 4)
G2 = LieAlgebra("G2", 2)


def _found(l, r, k):
    d = Decomposition(l, r)
    decompose(d)
    return d.found[k - 1]


def factors(case):
    if case == "f4-52x52":
        adj = new_generic_irrep(F4, (0, 0, 0, 1))
        return adj, adj
    if case == "e6-27x27bar":
        return (new_generic_irrep(E6, (1, 0, 0, 0, 0, 0)),
                new_generic_irrep(E6, (0, 0, 0, 0, 1, 0)))
    oc = new_generic_irrep(A2, (1, 1))
    if case in ("su3-27x27", "su3-27x8"):
        i27 = new_imported_irrep(A2, prepare(_found(oc, oc, 1), oc, oc))
        return i27, (i27 if case == "su3-27x27" else oc)
    # the chain 8 x 8 -> 27 (k=1), x 3 -> 24 (k=2), x 3, each factor the
    # prepared irrep of the step before
    tri = new_generic_irrep(A2, (1, 0))
    p27 = prepare_with_states(_found(oc, oc, 1), oc, oc)[0]
    if case == "su3-chain-step2":
        return p27, tri
    p24 = prepare_with_states(_found(p27, tri, 2), p27, tri)[0]
    return p24, tri


def same_unit_state(got, want):
    """sign*v/sqrt(N) is the same vector for both (v, sign, N)."""
    (v, sign, n), (ov, osign, on) = got, want
    if v.keys() != ov.keys():
        return False
    k0 = min(v)
    c = Fraction(ov[k0]) / v[k0]
    return (all(ov[k] == c * x for k, x in v.items())
            and on == c * c * n and osign * (1 if c > 0 else -1) == sign)


CASES = ["f4-52x52", "su3-27x27", "su3-27x8", "su3-chain-step2",
         "su3-chain-step3"]


@pytest.mark.parametrize("case", CASES)
def test_descent_and_prepare_match_fraction_oracle(case):
    l, r = factors(case)
    d = Decomposition(l, r)
    decompose(d)
    want = oracle_decompose(d)
    assert [p.hw for p in d.found] == [o.hw for o in want]
    for p, o in zip(d.found, want):
        assert p.weights == o.weights and p.descent == o.descent
        assert [list(lev) for lev in p.levels] == o.field_levels(), p.hw
        irrep, states = prepare_with_states(p, l, r)
        oirrep, ostates = oracle_prepare(o, l, r)
        assert irrep.kets == oirrep.kets
        assert irrep.rational_form() == oirrep.rational_form(), p.hw
        assert states.keys() == ostates.keys()
        for a, st in states.items():
            assert same_unit_state(st, ostates[a]), (p.hw, a)


def typed(form):
    """A rational form with the type of every entry beside it, so that an
    int and an equal Fraction differ."""
    return (
        form.r,
        {i: {a: tuple((t, q, type(q)) for t, q in row)
             for a, row in rows.items()}
         for i, rows in form.lower.items()},
        {a: tuple((b, g, type(g)) for b, g in row)
         for a, row in form.gram.items()},
    )


@pytest.mark.parametrize("case", CASES + ["e6-27x27bar"])
def test_prepare_entries_match_fraction_oracle(case):
    # the entries formed once from the integers are those of the Fraction
    # formation, entry by entry, ints where they are whole
    l, r = factors(case)
    d = Decomposition(l, r)
    decompose(d)
    for p in d.found:
        irrep, states = prepare_with_states(p, l, r)
        oirrep, ostates = fraction_prepare(p, l, r)
        assert irrep.kets == oirrep.kets
        assert typed(irrep.rational_form()) == typed(oirrep.rational_form()), p.hw
        assert states == ostates


def test_descent_from_a_given_state_matches_fraction_oracle():
    # a ProductIrrep built from a FieldElem state: the content of its
    # integer vector goes into the scale, the views stay the oracle's
    # (times sqrt(6) the state reads as scale 1, times 3/7*sqrt(2) not)
    l, r = factors("su3-27x8")
    for c in (field(6), number(3, 7, 2)):
        state = _found(l, r, 2).hw_state.scaled(c)
        q = tensor.descend_irrep(tensor.ProductIrrep(state), l, r)
        o = OracleIrrep.from_state(state, l, r)
        assert q.hw_state == state
        assert [list(lev) for lev in q.levels] == o.field_levels()


def test_product_lower_and_scp_on_mixed_radicals_match_oracle():
    # G2 7x7: each state of the product, plus two basis pairs of its
    # weight, with coefficients in sqrt(2), sqrt(3) and sqrt(6), so that a
    # state splits into several radical classes
    g = new_generic_irrep(G2, (1, 0))
    d = Decomposition(g, g)
    decompose(d)
    coeffs = [number(1, 2, 2), number(-2, 3, 3), number(3, 5, 6), field(1)]
    at = {}  # weight -> mixed states
    for p in d.found:
        for w, states in p.by_weight.items():
            pairs = basis_product(d, w)
            for k, s in enumerate(states):
                at.setdefault(w, []).append(
                    s.scaled(coeffs[k % 4])
                    + pairs[0].scaled(coeffs[(k + 1) % 4])
                    + pairs[-1].scaled(coeffs[(k + 2) % 4]))
    fl, fr = g.rational_form(), g.rational_form()
    classes = [len(fraction_oracle._split(s, fl.r, fr.r))
               for states in at.values() for s in states]
    assert len(classes) == 49 and max(classes) >= 3
    for states in at.values():
        for s in states:
            for i in (1, 2):
                assert product_lower(s, i, g, g) == \
                    oracle_product_lower(s, i, g, g)
            for s2 in states:
                assert product_scp(s, s2, g, g) == \
                    oracle_product_scp(s, s2, g, g)


def test_hot_path_holds_only_ints(monkeypatch):
    checked = {}  # id -> table, kept alive so that ids stay unique
    real_lower = tensor._lower

    def guarded_lower(v, low_l, low_r):
        for tab in (low_l, low_r):
            if id(tab) not in checked:
                assert all(type(q) is int for row in tab.values() for _, q in row)
                checked[id(tab)] = tab
        assert all(type(c) is int for c in v.values())
        return real_lower(v, low_l, low_r)

    made = []

    class Recording(linalg._Reducer):
        def __init__(self, track=False):
            super().__init__(track)
            made.append(self)

    # the consistency sweep's lowering tables and Gram blocks, scaled to
    # ints, and its inverse Gram blocks M/delta
    scaled, inverses = [], []
    real_scaled = irrep_mod._scaled_ints
    real_inverse = irrep_mod.Irrep._gram_inverse

    def recording_scaled(*tabs):
        scaled.append(real_scaled(*tabs))
        return scaled[-1]

    def recording_inverse(self, rf, weight):
        inverses.append(real_inverse(self, rf, weight))
        return inverses[-1]

    monkeypatch.setattr(tensor, "_lower", guarded_lower)
    monkeypatch.setattr(tensor, "_Reducer", Recording)
    monkeypatch.setattr(irrep_mod, "_Reducer", Recording)
    monkeypatch.setattr(irrep_mod, "_scaled_ints", recording_scaled)
    monkeypatch.setattr(irrep_mod.Irrep, "_gram_inverse", recording_inverse)
    l, r = factors("su3-27x8")
    assert [t[0] for t in tensor._int_tables(l.rational_form(),
                                             r.rational_form())] == [12, 12]
    d = Decomposition(l, r)
    decompose(d)
    for p in d.found:
        for lev in p._levels:
            for v, sigma in lev:
                assert all(type(c) is int for c in v.values())
                assert gcd(*v.values()) == 1 and sigma > 0
        prepared = prepare_with_states(p, l, r)[0]
        prepared.check_consistency()
    tracked = [red for red in made if red.combs is not None]
    assert tracked and any(len(red.combs) > 1 for red in tracked)
    for red in made:
        for _, row in red.rows:
            assert all(type(c) is int for c in row.values())
    for red in tracked:
        for s, comb in red.combs:
            assert type(s) is int and s > 0
            assert all(type(b) is int for b in comb.values())
            assert gcd(s, *comb.values()) == 1
    assert scaled and any(d > 1 for d, _ in scaled)
    for d, tab in scaled:
        assert type(d) is int and d > 0
        assert all(type(q) is int for row in tab.values() for _, q in row)
    assert inverses and any(len(ups) > 1 for ups, _, _ in inverses)
    for ups, m, delta in inverses:
        assert type(delta) is int and delta > 0
        assert len(m) == len(ups)
        assert all(type(x) is int for row in m for x in row)


# (family, rank, left, right): all nine families; A2 8x8, A3 15x15, A4
# 24x24, B2 16x16, D4 56x56 and G2 27x27 have outer multiplicity 2.  From
# rank 3 on, each algebra has orthogonal simple roots, whose commuting
# lowerings the descent skips
CAP_CASES = [
    ("A", 1, (3,), (2,)),
    ("A", 2, (1, 1), (1, 1)),
    ("A", 3, (1, 0, 1), (1, 0, 1)),
    ("A", 4, (1, 0, 0, 1), (1, 0, 0, 1)),
    ("B", 2, (1, 1), (1, 1)),
    ("B", 3, (0, 0, 1), (1, 0, 1)),
    ("B", 3, (0, 1, 0), (0, 1, 0)),
    ("C", 2, (1, 1), (0, 1)),
    ("C", 3, (0, 1, 0), (0, 1, 0)),
    ("D", 4, (1, 0, 1, 0), (1, 0, 0, 1)),
    ("D", 5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    ("G2", 2, (2, 0), (2, 0)),
    ("F4", 4, (0, 0, 0, 1), (0, 0, 0, 1)),
    ("E6", 6, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
    ("E7", 7, (0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1, 0)),
]


def assert_capped_equals_uncapped(l, r):
    d = Decomposition(l, r)
    decompose(d)
    for p in d.found:
        levels, weights, origins = uncapped_descent(p._hw_vec, l, r)
        assert p._levels == levels, p.hw
        assert p.weights == weights, p.hw
        assert p._origins == origins, p.hw


@pytest.mark.parametrize(
    "fam, rank, left, right", CAP_CASES,
    ids=[f"{f if len(f) > 1 else f + str(n)}-"
         f"{''.join(map(str, a))}x{''.join(map(str, b))}"
         for f, n, a, b in CAP_CASES],
)
def test_capped_descent_keeps_the_uncapped_states(fam, rank, left, right):
    # the cap only skips candidates that the elimination would have found
    # dependent (a full weight) or that lower to zero (a weight outside
    # the irrep): every kept (v, sigma), in order, is the uncapped one's
    la = LieAlgebra(fam, rank)
    assert_capped_equals_uncapped(new_generic_irrep(la, left),
                                  new_generic_irrep(la, right))


def test_capped_descent_keeps_the_uncapped_states_of_su3_27_squared():
    # the degenerate 27 x 27: 19 irreps, outer multiplicities up to 3, and
    # fractional factor tables
    l, r = factors("su3-27x27")
    assert_capped_equals_uncapped(l, r)
