"""Oracles for the consistency check: the dense relations walk and the
field sweep it replaced.

`Irrep.check_consistency` walks the defining relations [E_i, F_j] =
delta_ij H_i on the rational form in integers, over the pairs i <= j only,
with E_i the Gram-adjoint of F_i.  `dense_relations` (tests/fraction_oracle.py)
walks every ordered pair on dense Fraction matrices, sharing no code with
liecg.irrep; both must give the same verdict on every prepared irrep and on
seeded mutations of dumped tables, which pins the i <= j shortcut.

The field sweep is the string sum rule, the diagonal of [E_i, F_i] = H_i,
as it ran before the rational form: in the unit basis with `FieldElem` Gram
matrices inverted by dense Gaussian elimination, reading the FieldElem
tables of the dumped data the way the old `new_imported_irrep` read them.
It is a necessary condition: every table it refuses the check must refuse
too, and some it passes (a flipped sign) the check refuses.
"""

import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecg.exactnum import ONE, ZERO, field
from liecg.linalg import LabeledVector
from liecg.irrep import (
    ImportedIrrepData,
    InvalidImportError,
    new_generic_irrep,
    new_imported_irrep,
)
from liecg.liealg import ConsistencyError, LieAlgebra, cartan, weyl_dim
from liecg.tensor import Decomposition, decompose, prepare

sys.path.insert(0, str(Path(__file__).resolve().parent))

from export_dumps import dump_export_products  # noqa: E402
from fraction_oracle import dense_relations, fraction_sum_rule  # noqa: E402


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


# ------------------------------------------- dense elimination over the field

class NoSolutionError(ValueError):
    """The linear system is inconsistent."""


class SingularMatrixError(ValueError):
    """The matrix has no inverse."""


def gauss(m, rhs=None):
    """Row-echelon form by exact elimination, first non-zero pivot per
    column; the same row operations are applied to rhs.  Returns the pair
    (echelon, transformed rhs)."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rb = [list(r) for r in rhs] if rhs is not None else [[] for _ in range(nr)]
    r = 0
    for col in range(nc):
        piv = None
        for i in range(r, nr):
            if not rows[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            rb[r], rb[piv] = rb[piv], rb[r]
        prow, prb = rows[r], rb[r]
        pval = prow[col]
        for k in range(r + 1, nr):
            kval = rows[k][col]
            if kval.is_zero():
                continue
            f = kval / pval
            krow = rows[k]
            for j in range(col, nc):
                if not prow[j].is_zero():
                    krow[j] = krow[j] - f * prow[j]
            krb = rb[k]
            for j in range(len(krb)):
                if not prb[j].is_zero():
                    krb[j] = krb[j] - f * prb[j]
        r += 1
        if r == nr:
            break
    return rows, rb


def _pivot_col(row):
    for j, v in enumerate(row):
        if not v.is_zero():
            return j
    return None


def solve(echelon, rhs_col):
    """Back-substitute an echelon system (as returned by gauss); free
    variables are set to zero.  Raises NoSolutionError when inconsistent."""
    nr = len(echelon)
    nc = len(echelon[0]) if nr else 0
    x = [ZERO] * nc
    for i in range(nr - 1, -1, -1):
        p = _pivot_col(echelon[i])
        if p is None:
            if not rhs_col[i].is_zero():
                raise NoSolutionError("inconsistent system")
            continue
        acc = rhs_col[i]
        row = echelon[i]
        for j in range(p + 1, nc):
            if not row[j].is_zero() and not x[j].is_zero():
                acc = acc - row[j] * x[j]
        x[p] = acc / row[p]
    return x


def invert_matrix(m):
    """Exact inverse; raises SingularMatrixError when rank-deficient."""
    n = len(m)
    ident = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    ech, rb = gauss(m, ident)
    if any(_pivot_col(row) != i for i, row in enumerate(ech)):
        raise SingularMatrixError("matrix is singular")
    cols = []
    for j in range(n):
        cols.append(solve(ech, [rb[i][j] for i in range(n)]))
    # cols[j] is the j-th column of the inverse
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# ------------------------------------------------------ the field sweep

class FieldSweep:
    """The old `Irrep` tables and methods, over an ImportedIrrepData."""

    def __init__(self, data):
        self.algebra = data.algebra
        self.kets = data.kets
        self.weight_of = {lab: k.dynkin for lab, k in data.kets.items()}
        by_w = {}
        for lab in sorted(data.kets):
            by_w.setdefault(data.kets[lab].dynkin, []).append(lab)
        for labs in by_w.values():
            labs.sort(key=lambda l: data.kets[l].deg_index)
        self.labels_by_weight = {w: tuple(labs) for w, labs in by_w.items()}
        self._lowering = {}
        for key, terms in data.lowering.items():
            vec = LabeledVector(terms)
            if not vec.is_zero():
                self._lowering[key] = vec
        self._scp = {}
        for (a, b), v in data.scp.items():
            if a != b and not v.is_zero():
                self._scp[(a, b) if a < b else (b, a)] = v
        self._gram = {}
        self._gram_inv = {}

    def lower(self, root, state):
        return self._lowering.get((root, state), LabeledVector())

    def scalar_product(self, a, b):
        if a == b:
            return ONE
        if self.weight_of[a] != self.weight_of[b]:
            return ZERO
        return self._scp.get((a, b) if a < b else (b, a), ZERO)

    def vector_scp(self, u, v):
        acc = ZERO
        for cu, lu in u.terms:
            wu = self.weight_of[lu]
            for cv, lv in v.terms:
                if self.weight_of[lv] == wu:
                    s = self.scalar_product(lu, lv)
                    if not s.is_zero():
                        acc = acc + cu * cv * s
        return acc

    def gram(self, weight):
        """Gram matrix of the weight block, rows/cols in label order."""
        got = self._gram.get(weight)
        if got is None:
            labs = self.labels_by_weight[weight]
            got = [[self.scalar_product(a, b) for b in labs] for a in labs]
            self._gram[weight] = got
        return got

    def gram_inverse(self, weight):
        got = self._gram_inv.get(weight)
        if got is None:
            got = invert_matrix(self.gram(weight))
            self._gram_inv[weight] = got
        return got

    def check_consistency(self, labels=None, roots=None):
        """Verify the lowering/raising sum rule on the given states.

        For each state a of weight w and each simple root i, the contraction
        of E_-i|a> with itself must equal w_i plus the Gram-inverse
        contraction of the couplings from the weight above.  Raises
        ConsistencyError on the first violation.
        """
        A = cartan(self.algebra)
        n = self.algebra.rank
        for a in labels if labels is not None else self.kets:
            w = self.weight_of[a]
            for i in roots if roots is not None else range(1, n + 1):
                row = A[i - 1]
                v = self.lower(i, a)
                lhs = self.vector_scp(v, v)
                rhs = field(w[i - 1])
                ups = self.labels_by_weight.get(_vadd(w, row), ())
                if ups:
                    u = []
                    for g in ups:
                        s = ZERO
                        for c, lab in self.lower(i, g).terms:
                            p = self.scalar_product(lab, a)
                            if not p.is_zero():
                                s = s + c * p
                        u.append(s)
                    G = self.gram_inverse(_vadd(w, row))
                    m = len(ups)
                    acc = ZERO
                    for x in range(m):
                        if u[x].is_zero():
                            continue
                        for y in range(m):
                            if not u[y].is_zero():
                                acc = acc + u[x] * G[x][y] * u[y]
                    rhs = rhs + acc
                if lhs != rhs:
                    raise ConsistencyError(
                        f"string sum rule fails at state {a}, root {i}: "
                        f"{lhs.plain()} != {rhs.plain()}"
                    )


# ------------------------------------------------------------- verdicts

def field_verdict(data):
    try:
        FieldSweep(data).check_consistency()
    except (ConsistencyError, SingularMatrixError):
        return False
    return True


def rational_verdict(data):
    try:
        new_imported_irrep(data.algebra, data).check_consistency()
    except ConsistencyError:
        return False
    return True


def check_message(irrep):
    """The ConsistencyError text of Irrep.check_consistency, None when it
    passes."""
    try:
        irrep.check_consistency()
    except ConsistencyError as exc:
        return str(exc)
    return None


A2 = LieAlgebra("A", 2)
A3 = LieAlgebra("A", 3)
B2 = LieAlgebra("B", 2)
C3 = LieAlgebra("C", 3)
D5 = LieAlgebra("D", 5)
E6 = LieAlgebra("E6", 6)
G2 = LieAlgebra("G2", 2)

PRODUCTS = {
    "su3-8x8": (A2, (1, 1), (1, 1)),
    "su4-15x15": (A3, (1, 0, 1), (1, 0, 1)),
    "so5-10x10": (B2, (0, 2), (0, 2)),
    "sp6-21x6": (C3, (2, 0, 0), (1, 0, 0)),
    "g2-14x14": (G2, (0, 1), (0, 1)),
    "so10-16x16bar": (D5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    "e6-27x27bar": (E6, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
}

@lru_cache(maxsize=None)
def dumps(case):
    """The prepared tables of every irrep in the product, in found order;
    callers copy before they mutate."""
    la, left, right = PRODUCTS[case]
    l, r = new_generic_irrep(la, left), new_generic_irrep(la, right)
    d = Decomposition(l, r)
    decompose(d)
    return [(p.hw, prepare(p, l, r)) for p in d.found]


@pytest.mark.parametrize("case", sorted(PRODUCTS))
def test_sweeps_accept_every_prepared_irrep(case):
    la = PRODUCTS[case][0]
    for hw, data in dumps(case):
        assert data.algebra == la
        assert field_verdict(data) and rational_verdict(data), hw
        assert dense_relations(new_imported_irrep(la, data)) is None, hw


def _mutated(data, rng):
    """A copy of data with one lowering entry or one off-diagonal scalar
    product multiplied by a rational factor, which keeps a rational form."""
    lowering, scp = dict(data.lowering), dict(data.scp)
    q = field(rng.choice(
        [2, -1, Fraction(1, 2), Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4)]
    ))
    if scp and rng.random() < 0.4:
        key = rng.choice(sorted(scp))
        scp[key] = scp[key] * q
    else:
        key = rng.choice(sorted(lowering))
        terms = list(lowering[key])
        j = rng.randrange(len(terms))
        c, t = terms[j]
        terms[j] = (c * q, t)
        lowering[key] = tuple(terms)
    return ImportedIrrepData(data.algebra, dict(data.kets), lowering, scp)


MUTATED = [
    # (product, highest weight of the dumped irrep, seed)
    ("su3-8x8", (2, 2), 1),
    ("su3-8x8", (1, 1), 2),
    ("e6-27x27bar", (0, 0, 0, 0, 0, 1), 3),
    ("su4-15x15", (2, 0, 2), 4),
]


@pytest.mark.parametrize(
    "case,hw,seed", MUTATED, ids=["su3-27", "su3-8", "e6-78", "su4-84"]
)
def test_sweeps_agree_on_mutations(case, hw, seed):
    # the relations walk over i <= j and the dense walk over every ordered
    # pair give one verdict; the sum rule refuses no table they pass
    la = PRODUCTS[case][0]
    data = next(data for h, data in dumps(case) if h == hw)
    rng = random.Random(seed)
    refused = 0
    for _ in range(40):
        mutant = _mutated(data, rng)
        assert mutant.algebra == la
        imp = new_imported_irrep(la, mutant)
        msg = check_message(imp)
        assert (msg is None) == (dense_relations(imp) is None)
        if msg is None:
            assert field_verdict(mutant)
        refused += msg is not None
    # a rational factor on one entry is never a representation
    assert refused == 40


@pytest.fixture(scope="module")
def export_files(tmp_path_factory):
    return dump_export_products(tmp_path_factory.mktemp("dumps"))


def test_sweeps_pass_every_export_irrep(export_files):
    # every irrep the four export products dump, read back as --import
    # reads it, the E6 650 and the SO(10) 210 included
    dims = []
    for name, la, path in export_files:
        imp = new_imported_irrep(la, ImportedIrrepData.from_json(
            path.read_text()))
        assert check_message(imp) is None, (name, path.name)
        fraction_sum_rule(imp)
        dims.append(imp.dim)
    assert len(dims) == 6 + 3 + 3 + 7 + 8
    assert 650 in dims and 210 in dims


EXPORT_MUTATED = [
    # (product, dimension of its first dumped irrep, seed)
    ("e6-27x27bar", 650, 5),
    ("so10-16x16bar", 210, 6),
    ("su3-27x8", 64, 7),
]


@pytest.mark.parametrize("case, dim, seed", EXPORT_MUTATED,
                         ids=["e6-650", "so10-210", "su3-64"])
def test_sweeps_agree_on_export_mutations(export_files, case, dim, seed):
    # the tables of a file, once read, are the data the mutations change;
    # every mutation the sum rule refuses, the check refuses too
    la, path = next((la, path) for name, la, path in export_files
                    if name == case)
    data = ImportedIrrepData.from_json(path.read_text())
    assert len(data.kets) == dim
    rng = random.Random(seed)
    refused = by_sum_rule = 0
    for _ in range(20):
        imp = new_imported_irrep(la, _mutated(data, rng))
        msg = check_message(imp)
        try:
            fraction_sum_rule(imp)
        except ConsistencyError:
            by_sum_rule += 1
            assert msg is not None
        refused += msg is not None
    assert refused == 20 and by_sum_rule >= 10


def test_representation_check_refuses_every_mutation():
    # the defining relations see what the sum rule, their diagonal, misses:
    # of the 160 mutations the sum rule passes 6 (sign flips), the
    # check none; the unmutated tables pass both
    passed_sum_rule = 0
    for case, hw, seed in MUTATED:
        la = PRODUCTS[case][0]
        data = next(data for h, data in dumps(case) if h == hw)
        assert field_verdict(data) and rational_verdict(data)
        rng = random.Random(seed)
        for _ in range(40):
            mutant = _mutated(data, rng)
            passed_sum_rule += field_verdict(mutant)
            with pytest.raises(ConsistencyError):
                new_imported_irrep(la, mutant).check_consistency()
    assert passed_sum_rule == 6


def test_zero_block_overlap_of_one():
    # the octet's zero-weight states claimed parallel: every sweep refuses,
    # the check and the dense walk naming the singular block; the field
    # sweep finds it singular for states 6 and 7 below it
    data = next(data for h, data in dumps("su3-8x8") if h == (1, 1))
    (key,) = data.scp
    scp = {key: ONE}
    bad = ImportedIrrepData(data.algebra, dict(data.kets), dict(data.lowering), scp)
    assert not field_verdict(bad) and not rational_verdict(bad)
    with pytest.raises(SingularMatrixError):
        FieldSweep(bad).check_consistency(labels=[6])
    imp = new_imported_irrep(A2, bad)
    want = dense_relations(imp)
    assert want == "the Gram matrix of weight (0, 0) is singular"
    assert check_message(imp) == f"SU(3) irrep (1, 1): {want}"


# one algebra of each of the nine families; E7 and E8 fit the bound only
# with the trivial irrep as a factor
FAMILIES = [LieAlgebra(f, r) for f, r in (
    ("A", 2), ("B", 2), ("C", 3), ("D", 4), ("E6", 6), ("E7", 7), ("E8", 8),
    ("F4", 4), ("G2", 2))]
MAX_PRODUCT_DIM = 400


def _drawn_irrep(data, la, bound, label):
    """A highest weight drawn by raising one label at a time, skipping a
    raise past the dimension bound."""
    nodes = data.draw(st.lists(st.integers(0, la.rank - 1), max_size=4),
                      label=label)
    hw = [0] * la.rank
    for i in nodes:
        hw[i] += 1
        if weyl_dim(la, hw) > bound:
            hw[i] -= 1
    return tuple(hw)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_drawn_products_pass_the_check_after_a_round_trip(data):
    # every irrep found in a drawn product, written and read back as a
    # file, passes the check a file gets
    la = data.draw(st.sampled_from(FAMILIES), label="algebra")
    left = _drawn_irrep(data, la, MAX_PRODUCT_DIM, "left raises")
    right = _drawn_irrep(data, la, MAX_PRODUCT_DIM // weyl_dim(la, left),
                         "right raises")
    l, r = new_generic_irrep(la, left), new_generic_irrep(la, right)
    d = Decomposition(l, r)
    decompose(d)
    assert sum(p.dim for p in d.found) == l.dim * r.dim
    for p in d.found:
        text = prepare(p, l, r).to_json()
        imp = new_imported_irrep(la, ImportedIrrepData.from_json(text))
        assert check_message(imp) is None, (la.name, left, right, p.hw)


ROTATED = os.path.join(os.path.dirname(__file__), "data", "su3_octet_rotated.json")


def test_rotated_file_is_the_one_difference():
    # valid tables with no rational form: the field sweep accepts them, the
    # import refuses the file, which the rational sweep needs
    data = ImportedIrrepData.from_json(open(ROTATED).read())
    assert field_verdict(data)
    with pytest.raises(InvalidImportError, match="state 3 by root 2"):
        new_imported_irrep(A2, data)
