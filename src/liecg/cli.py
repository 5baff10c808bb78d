"""Command-line front ends.

Three modes share one executable (console script ``lie``, also reachable
as ``python -m liecg``):

* weight listing: an algebra flag plus ``-rep`` prints the weight system
  of one irrep, one line per weight;
* decomposition: ``--decompose AxB`` splits a tensor product into irreps
  and can dump coefficient tables and importable irrep data;
* batch scripts: ``--script FILE`` runs a sequence of multi-product
  operations (see the grammar in the README).

Exit codes: 0 success, 1 user error, 2 internal inconsistency.
"""

import argparse
import json
import os
import sys
from functools import lru_cache, partial
from itertools import chain

from .exactnum import FieldSqrtError, field_sqrt, parse_field
from .linalg import LabeledVector, SingularMatrixError, gram_orthogonalize
from .liealg import ConsistencyError, LieAlgebra, freudenthal, weyl_dim
from .irrep import (
    ImportedIrrepData,
    InvalidImportError,
    _PINNED_FIELDS,
    _format,
    _indent,
    _integer,
    _json_chunks,
    new_generic_irrep,
    new_imported_irrep,
)
from .tensor import (
    Decomposition,
    DecompositionError,
    _ket_str,
    _plan,
    _render_chunks,
    _result_text,
    _select,
    _state_texts,
    _tup,
    decompose,
    prepare,
)
from . import multitensor as mt

FORMATS = ("plain", "tex", "mathematica", "json")

# largest irrep dimension a listing or a --decompose factor may have
MAX_DIM = 10**6


class UsageError(Exception):
    """Bad flags or arguments; reported with the usage line, exit 1."""


class ScriptError(Exception):
    """A script step failed; carries file and line number."""

    def __init__(self, path, lineno, msg):
        super().__init__(f"{path}:{lineno}: {msg}")


# ------------------------------------------------------------ formatting

def _hdr(key, val):
    return f"{key:<14}:   {val}"


_RULE = "=" * 34


def _weight_fields(la, hw):
    """The fields of each weight record of the irrep, one tuple per record
    in the order both listings write them: running label, level,
    degeneracy, Dynkin labels, lowest-root label and descent, and an empty
    pad where that makes _PINNED_FIELDS fields (E8).  freudenthal runs
    before the first."""
    records = freudenthal(la, hw)
    pad = ("",) if 4 + 2 * la.rank == _PINNED_FIELDS else ()

    def fields():
        idx = 1
        for rec in records:
            deg = rec.degeneracy
            yield (idx, rec.level, deg, *rec.dynkin, rec.lowest_root_label,
                   *rec.descent, *pad)
            idx += deg

    return fields()


# the keys of a weight record in the JSON listing, one per field or list of
# fields of _weight_fields
_RECORD_KEYS = ("label", "level", "deg", "dynkin", "lowest_root", "descent")


@lru_cache(maxsize=None)
def _listing_formats(rank):
    """The %-formats that a tuple of _weight_fields fills, for a weight of
    that rank: its line in the text listing; its record in the top-level
    "weights" of the JSON listing when it is the first, after the "[" that
    opens them, and when it is not, after the separator.  The record is the
    format the writer (_json_chunks) gives a dict of its shape there."""
    labels = ",".join(["%d"] * rank)
    pad = "%s" if 4 + 2 * rank == _PINNED_FIELDS else ""
    line = "%d, Lev:%d, Deg:%d  (" + labels + "),%d  (" + labels + ")" + pad
    rows, sep = _indent(_indent("\n")[0])
    record = _format((dict, _RECORD_KEYS, (int, int, int, rank, int, rank)),
                     rows, pad)
    return line, "[" + rows + record, sep + record


def _listing_lines(la, hw):
    """The lines of weight_listing, formed as they are read; freudenthal
    and weyl_dim run before the first."""
    fields = _weight_fields(la, hw)
    head = [
        _hdr("Lie algebra", la.name),
        _RULE,
        _hdr("Highest weight", _tup(hw)),
        _hdr("Dim. of irrep", weyl_dim(la, hw)),
        _RULE,
    ]
    return chain(head, map(_listing_formats(la.rank)[0].__mod__, fields))


def weight_listing(la, hw):
    """The per-irrep weight table, one line per weight."""
    return "\n".join(_listing_lines(la, hw))


def _json_listing(la, hw):
    """The text of weights_to_json in pieces, one per weight record;
    freudenthal and weyl_dim run before the first.  The writer writes the
    document around an empty "weights", and the records take the place of
    its "[]"."""
    fields = _weight_fields(la, hw)
    *head, _, end = _json_chunks({
        "algebra": {"family": la.family, "rank": la.rank},
        "name": la.name,
        "highest_weight": list(hw),
        "dim": weyl_dim(la, hw),
        "weights": [],
    })
    _, first, rest = _listing_formats(la.rank)
    return chain(head, (first % next(fields),), map(rest.__mod__, fields),
                 (_indent("\n")[0] + "]" + end,))


def weights_to_json(la, hw):
    return "".join(_json_listing(la, hw))


def _listing_field(obj, key, where):
    """obj[key] of a document read by weights_from_json; where names obj."""
    if type(obj) is not dict:
        raise InvalidImportError(
            f"malformed weight listing: {where} is not a JSON object")
    if key not in obj:
        raise InvalidImportError(f"malformed weight listing: no {key!r}")
    return obj[key]


def weights_from_json(s):
    """Inverse of weights_to_json; returns (algebra, hw, weight dicts).  A
    document with a field missing, no such algebra, or a highest weight
    that is not rank JSON integers raises InvalidImportError naming the
    field."""
    doc = json.loads(s)
    alg = _listing_field(doc, "algebra", "the document")
    family = _listing_field(alg, "family", "algebra")
    if type(family) is not str:
        raise InvalidImportError(
            f"malformed weight listing: family {family!r} is not a string")
    rank = _integer(_listing_field(alg, "rank", "algebra"), "algebra rank",
                    "weight listing")
    try:
        la = LieAlgebra(family, rank)
    except ValueError as e:  # no such family, or not its rank
        raise InvalidImportError(f"malformed weight listing: {e}") from e
    labels = _listing_field(doc, "highest_weight", "the document")
    if type(labels) is not list or len(labels) != rank:
        raise InvalidImportError(
            f"malformed weight listing: highest_weight {labels!r} is not a "
            f"list of {rank} labels")
    hw = tuple(_integer(x, "highest weight label", "weight listing")
               for x in labels)
    return la, hw, _listing_field(doc, "weights", "the document")


def _states_doc(p, l, r):
    """The document of states_to_json, its "states" an iterator that renders
    one state at a time; _state_texts checks p before the first."""
    levels = _state_texts(p, "plain")

    def states():
        lab = 0
        for lev, level in enumerate(levels):
            for terms in level:
                lab += 1
                yield {
                    "state": lab,
                    "level": lev,
                    "terms": [{"coeff": c, "left": a, "right": b}
                              for c, a, b in terms],
                }

    return {
        "algebra": {"family": l.algebra.family, "rank": l.algebra.rank},
        "left": list(l.hw),
        "right": list(r.hw),
        "irrep": {"dynkin": list(p.hw), "dim": p.dim},
        "states": states(),
    }


def states_to_json(p, l, r):
    """CG coefficient table of one product irrep as JSON text."""
    return "".join(_json_chunks(_states_doc(p, l, r)))


def states_from_json(s):
    """Decode states_to_json output into exact product states."""
    doc = json.loads(s)
    out = []
    for st in doc["states"]:
        out.append(
            LabeledVector(
                (parse_field(t["coeff"]), (t["left"], t["right"]))
                for t in st["terms"]
            )
        )
    return doc, out


def print_list(r):
    """Compact one-line ket listing of an irrep."""
    body = "; ".join(
        f'({lab}, "{_ket_str(r.kets[lab])}")' for lab in sorted(r.kets)
    )
    return "[" + body + "]"


# --------------------------------------------------------------- parsing

def parse_rep(s, rank):
    """Dynkin labels from a digit string or a comma-separated list.

    The digit form assigns one label per character, so it only reaches
    labels <= 9; anything larger needs the comma form.
    """
    s = s.strip()
    try:
        if "," in s:
            labels = tuple(int(t) for t in s.split(","))
        elif len(s) == rank:
            labels = tuple(int(ch) for ch in s)
        elif rank == 1:
            labels = (int(s),)
        else:
            raise ValueError()
    except ValueError:
        raise UsageError(
            f"cannot read {s!r} as {rank} Dynkin labels "
            "(digit form needs one digit per label; use commas otherwise)"
        )
    if len(labels) != rank or any(x < 0 for x in labels):
        raise UsageError(
            f"expected {rank} non-negative Dynkin labels, got {s!r}"
        )
    return labels


# algebra names, as the flags and the script's algebra verb spell them, ->
# the LieAlgebra of a size (su, so, sp) or a rank (a-d); the exceptional
# algebras take neither
_EXCEPTIONAL = ("e6", "e7", "e8", "f4", "g2")
_ALGEBRAS = {
    "su": LieAlgebra.su,
    "so": LieAlgebra.so,
    "sp": LieAlgebra.sp,
    **{f: partial(LieAlgebra, f.upper()) for f in "abcd"},
    **{f: partial(LieAlgebra, f.upper(), int(f[1])) for f in _EXCEPTIONAL},
}


def _algebra_from_args(args):
    picked = [(kind, n) for kind in ("su", "so", "sp", "d")
              if (n := getattr(args, kind)) is not None]
    picked += [(kind,) for kind in _EXCEPTIONAL if getattr(args, kind)]
    if len(picked) != 1:
        raise UsageError("exactly one algebra flag is required")
    kind, *size = picked[0]
    try:
        return _ALGEBRAS[kind](*size)
    except ValueError as e:
        raise UsageError(str(e))


def _checked_rep(la, token):
    """parse_rep, refusing irreps above MAX_DIM before anything is built."""
    hw = parse_rep(token, la.rank)
    dim = weyl_dim(la, hw)
    if dim > MAX_DIM:
        raise UsageError(
            f"{la.name} irrep {_tup(hw)} has dimension {dim}, "
            f"above the limit of {MAX_DIM}"
        )
    return hw


def _import_irrep(la, path):
    """The irrep in an exported file, for --import, @FILE and the script
    verb alike.  Its tables must have a rational form, which a hand-edited
    file may have lost; every error names the file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}")
    try:
        r = new_imported_irrep(la, ImportedIrrepData.from_json(text))
    except InvalidImportError as e:
        raise InvalidImportError(f"{path}: {e}") from e
    return r


def _check_imported(r, path):
    """Refuse a file's irrep before its first product unless its tables are
    a representation (Irrep.check_consistency): the descent caps each
    weight at its Freudenthal multiplicity and so trusts its factors.  A
    failure is an inconsistency, exit 2, and names the file."""
    try:
        r.check_consistency()
    except ConsistencyError as e:
        raise ConsistencyError(f"{path}: {e}") from e


def _factor_irrep(la, token):
    """One side of --decompose: Dynkin labels or @FILE with imported data,
    checked as a representation."""
    if token.startswith("@"):
        r = _import_irrep(la, token[1:])
        _check_imported(r, token[1:])
        return r
    return new_generic_irrep(la, _checked_rep(la, token))


def _factor_key(la, token):
    """What one side of --decompose names: the resolved path of @FILE or the
    highest weight of Dynkin labels.  Sides with equal keys are the same
    irrep; a path never equals a weight, so a file is never taken for
    labels."""
    if token.startswith("@"):
        return os.path.realpath(token[1:])
    return _checked_rep(la, token)


# ----------------------------------------------------------------- modes

def _print_json(doc):
    """Write doc to stdout as its pieces come, then the newline print adds."""
    sys.stdout.writelines(_json_chunks(doc))
    sys.stdout.write("\n")


def run_weights(la, rep, fmt):
    hw = _checked_rep(la, rep)
    if fmt == "json":
        sys.stdout.writelines(_json_listing(la, hw))
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(line + "\n" for line in _listing_lines(la, hw))
    return 0


def run_import(la, path):
    """Read a file and check that its tables are a representation, the
    check a factor gets (Irrep.check_consistency).  A file whose tables
    fail it is refused like any other bad content, exit 1."""
    r = _import_irrep(la, path)
    try:
        r.check_consistency()
    except ConsistencyError as e:
        raise InvalidImportError(f"{path}: {e}") from e
    print(_hdr("Import file", path))
    print(weight_listing(la, r.hw))
    print(_hdr("Consistency", "OK"))
    return 0


_DYNKIN_CHARS = frozenset("0123456789, ")


def _decompose_sides(la, spec):
    """The two sides of --decompose AxB, cut at the one 'x' or '×' that
    has on each hand either Dynkin labels (digits, commas, spaces) or
    @FILE, so that a file path may hold an 'x' of its own.  A spec with one
    'x' and no such cut has a bad side, and parse_rep names it."""

    def side(text):
        return text.startswith("@") or (text != "" and set(text) <= _DYNKIN_CHARS)

    cuts = []
    for i, ch in enumerate(spec):
        if ch in "x×":
            left, right = spec[:i].strip(), spec[i + 1:].strip()
            if side(left) and side(right):
                cuts.append((left, right))
    if len(cuts) != 1:
        if sum(ch in "x×" for ch in spec) == 1:
            left, _, right = spec.replace("×", "x").partition("x")
            _factor_key(la, left.strip())
            _factor_key(la, right.strip())
        raise UsageError(
            f"--decompose wants 'AxB' with two irrep specs, got {spec!r}"
        )
    return cuts[0]


def run_decompose(la, spec, fmt, dump_dir=None, dump_singlet=None):
    left, right = _decompose_sides(la, spec)
    l = _factor_irrep(la, left)
    same = _factor_key(la, right) == _factor_key(la, left)
    r = l if same else _factor_irrep(la, right)
    if dump_dir is not None:
        # a bad path fails here, before the work
        try:
            os.makedirs(dump_dir, exist_ok=True)
        except OSError as e:
            raise UsageError(f"cannot create --dump directory {dump_dir}: "
                             f"{e.strerror}")
    if dump_singlet is not None:
        _check_singlet_target(la, l, r, dump_singlet)
    d = Decomposition(l, r)
    if dump_singlet is not None and dump_dir is None:
        # the result needs only the plan; the singlet alone is built
        plan = _plan(l, r)
        irreps = [(w, weyl_dim(la, w)) for w in plan]
        singlet = _select(d, plan, plan.index((0,) * la.rank) + 1)
    else:
        decompose(d)
        irreps = [(p.hw, p.dim) for p in d.found]
        singlet = next((p for p in d.found if p.dim == 1), None)
    if fmt == "json":
        doc = {
            "algebra": {"family": la.family, "rank": la.rank},
            "left": {"dynkin": list(l.hw), "dim": l.dim},
            "right": {"dynkin": list(r.hw), "dim": r.dim},
            "irreps": [{"dynkin": list(w), "dim": n} for w, n in irreps],
        }
        _print_json(doc)
    else:
        print(_result_text(l, r, irreps))
    if dump_dir is not None:
        _dump_all(d, l, r, fmt, dump_dir)
    if dump_singlet is not None:
        _write(dump_singlet, _states_chunks(singlet, l, r, fmt))
    return 0


_EXT = {"plain": "txt", "tex": "tex", "mathematica": "m", "json": "json"}


def _write(path, chunks):
    """Write the text pieces to path as they come."""
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}")


def _states_chunks(p, l, r, fmt):
    """The text of a states file in pieces, ending in a newline; p is
    checked before the first."""
    if fmt == "json":
        chunks = _json_chunks(_states_doc(p, l, r))
    else:
        chunks = _render_chunks(p, l, r, fmt)
    return chain(chunks, ("\n",))


def _dump_all(d, l, r, fmt, dump_dir):
    """Write irrep_k.json and states_k of every irrep found; each irrep's
    prepared data is written from its rational form and dropped before the
    next irrep is prepared."""
    for k, p in enumerate(d.found, 1):
        _write(os.path.join(dump_dir, f"irrep_{k}.json"),
               _json_chunks(prepare(p, l, r).json_doc()))
        _write(os.path.join(dump_dir, f"states_{k}.{_EXT[fmt]}"),
               _states_chunks(p, l, r, fmt))


def _check_singlet_target(la, l, r, path):
    """Refuse --dump-singlet before the work: the file's directory must
    exist, and l x r holds a singlet only if r is the dual of l, whose
    highest weight is minus the lowest weight of l."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write {path}: no directory {folder}")
    dual = tuple(-x for x in freudenthal(la, l.hw)[-1].dynkin)
    if r.hw != dual:
        raise UsageError(
            f"the product contains no singlet to dump: {_tup(r.hw)} is not "
            f"the dual {_tup(dual)} of {_tup(l.hw)}"
        )


# ---------------------------------------------------------------- script

def _parse_coeff(tok):
    try:
        return parse_field(tok)
    except ValueError as e:
        raise ValueError(f"cannot read coefficient {tok!r}: {e}")
    except ZeroDivisionError:
        raise ValueError(f"coefficient {tok!r} divides by zero")


class _Script:
    """State and verbs of the batch script language."""

    def __init__(self, fmt, out=None):
        self.fmt = fmt
        self.out = out
        self.la = None
        self.irreps = {}
        self.unchecked = {}  # imported Irrep -> its file, until a product
        self.vectors = {}  # name -> (irrep, LabeledVector)
        self.trafos = {}
        self.nodes = {}

    def emit(self, text):
        print(text, file=self.out if self.out is not None else sys.stdout)

    # every verb gets the argument tokens of its line
    def v_algebra(self, toks):
        kind, *size = toks or [""]
        kind = kind.lower()
        make = _ALGEBRAS.get(kind)
        if make is None:
            raise ValueError(f"unknown algebra {' '.join(toks)!r}")
        if kind in _EXCEPTIONAL:
            if size:
                raise ValueError(f"algebra {kind} takes no rank")
            self.la = make()
        elif len(size) != 1:
            raise ValueError("algebra a|b|c|d needs a rank" if kind in "abcd"
                             else f"algebra {kind} needs a size")
        else:
            self.la = make(int(size[0]))

    def _need_algebra(self):
        if self.la is None:
            raise ValueError("no algebra declared yet")
        return self.la

    def _get(self, table, name, what):
        if name not in table:
            raise ValueError(f"unknown {what} {name!r}")
        return table[name]

    def v_irrep(self, toks):
        la = self._need_algebra()
        name, labels = toks
        self.irreps[name] = new_generic_irrep(la, _checked_rep(la, labels))

    def v_import(self, toks):
        la = self._need_algebra()
        name, path = toks
        self.irreps[name] = r = _import_irrep(la, path)
        self.unchecked[r] = path

    def v_wrap(self, toks):
        name, rname = toks
        self.nodes[name] = mt.wrap(self._get(self.irreps, rname, "irrep"))

    def v_otimes(self, toks):
        name, ln, rn, k = toks
        a = self._get(self.nodes, ln, "node")
        b = self._get(self.nodes, rn, "node")
        for r in (a.irrep, b.irrep):
            if r in self.unchecked:
                _check_imported(r, self.unchecked.pop(r))
        self.nodes[name] = mt.otimes(a, b, int(k))

    def v_filter(self, toks):
        name, nn, factor, labels = toks
        keep = [int(t) for t in labels.split(",")]
        self.nodes[name] = mt.filter_factor(
            self._get(self.nodes, nn, "node"), int(factor), keep
        )

    def v_chbasis(self, toks):
        name, nn, factor, tn = toks
        node = mt.chbasis(
            self._get(self.nodes, nn, "node"),
            int(factor),
            self._get(self.trafos, tn, "trafo"),
        )
        # a label the transformation misses is reported on this line; the
        # states are memoized, so the nodes downstream read them for free
        for lab in node.irrep.kets:
            node._rational(lab)
        self.nodes[name] = node

    def v_scale(self, toks):
        name, nn, coeff = toks
        self.nodes[name] = mt.scale(
            self._get(self.nodes, nn, "node"), _parse_coeff(coeff)
        )

    def v_vector(self, toks):
        name, rname, *items = toks
        r = self._get(self.irreps, rname, "irrep")
        terms = []
        for t in items:
            lab, _, coeff = t.partition(":")
            if not coeff:
                raise ValueError(f"vector term {t!r} is not LABEL:COEFF")
            lab = int(lab)
            if lab not in r.kets:
                raise ValueError(f"no state labeled {lab} in {rname}")
            terms.append((_parse_coeff(coeff), lab))
        self.vectors[name] = (r, LabeledVector(terms))

    def v_normalize(self, toks):
        (name,) = toks
        r, v = self._get(self.vectors, name, "vector")
        nu = field_sqrt(mt.scp(r, v, v))
        if nu.is_zero():
            raise ValueError(f"vector {name!r} has norm 0")
        self.vectors[name] = (r, v.scaled(nu.invert()))

    def v_basis(self, toks):
        name, rname, offset, *vnames = toks
        offset = int(offset)
        r = self._get(self.irreps, rname, "irrep")
        seeds = []
        for vn in vnames:
            vr, v = self._get(self.vectors, vn, "vector")
            if vr is not r:
                raise ValueError(f"vector {vn!r} belongs to another irrep")
            seeds.append(v)
        if offset + 1 not in r.kets:
            raise ValueError(f"no state {offset + 1} in {rname}")
        block = r.labels_by_weight[r.weight_of[offset + 1]]
        if block[0] != offset + 1:
            raise ValueError(
                f"offset {offset} is not the start of a degenerate block"
            )
        basis = list(seeds)
        for lab in block:
            if len(basis) == len(block):
                break
            cand = gram_orthogonalize(
                lambda u, v: mt.scp(r, u, v), basis, [LabeledVector.unit(lab)]
            )[0]
            if not cand.is_zero():
                basis.append(cand)
        self.trafos[name] = mt.chbasis_list(basis, offset)

    def v_is_sym(self, toks):
        nn, f1, f2 = toks
        verdict = mt.is_sym(self._get(self.nodes, nn, "node"), int(f1), int(f2))
        self.emit(f"is_sym {nn} {f1} {f2} = {verdict}")

    def v_print(self, toks):
        (nn,) = toks
        node = self._get(self.nodes, nn, "node")
        for lab, text in mt.untree(node, self.fmt):
            if node.irrep.dim == 1:
                self.emit(text)
            else:
                self.emit(f"{lab}: {text}")

    def v_states(self, toks):
        (rname,) = toks
        self.emit(print_list(self._get(self.irreps, rname, "irrep")))

    def run_line(self, path, lineno, line):
        toks = line.split()
        verb, args = toks[0], toks[1:]
        handler = getattr(self, "v_" + verb, None)
        if handler is None:
            raise ScriptError(path, lineno, f"unknown verb {verb!r}")
        try:
            handler(args)
        except ScriptError:
            raise
        except (ValueError, TypeError, UsageError, InvalidImportError,
                SingularMatrixError, FieldSqrtError) as e:
            msg = str(e) or f"bad arguments for {verb!r}"
            raise ScriptError(path, lineno, f"{verb}: {msg}")


def run_script(path, fmt, out=None):
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}")
    sc = _Script(fmt, out)
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            sc.run_line(path, lineno, line)
    return 0


# ------------------------------------------------------------------ main

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    p = _Parser(
        prog="lie",
        description="Exact weight systems and Clebsch-Gordan decompositions "
        "for the simple Lie algebras A-G.",
        allow_abbrev=False,
    )
    g = p.add_argument_group("algebra")
    g.add_argument("-su", type=int, metavar="N", help="SU(N)")
    g.add_argument("-so", type=int, metavar="N", help="SO(N)")
    g.add_argument("-sp", type=int, metavar="N", help="SP(N), N even")
    g.add_argument("-d", type=int, metavar="N", help="D series of rank N")
    for f in _EXCEPTIONAL:
        g.add_argument(f"-{f}", action="store_true", help=f.upper())
    p.add_argument(
        "-rep",
        metavar="LABELS",
        help="Dynkin labels of the irrep (digit string or comma form)",
    )
    p.add_argument(
        "--decompose",
        metavar="AxB",
        help="tensor product of two irreps, each a label spec or @FILE",
    )
    p.add_argument(
        "--import",
        dest="import_",
        metavar="FILE",
        help="validate an exported irrep file and list its weights",
    )
    p.add_argument("--script", metavar="FILE", help="run a batch script")
    p.add_argument(
        "--dump",
        metavar="DIR",
        help="write coefficient tables and importable irrep data here",
    )
    p.add_argument(
        "--dump-singlet",
        metavar="PATH",
        help="write the singlet coefficients of the decomposition here",
    )
    p.add_argument(
        "--format",
        choices=FORMATS,
        default="plain",
        help="rendering of exact coefficients (default plain)",
    )
    return p


def _dispatch(args):
    modes = [
        m
        for m, on in (
            ("script", args.script),
            ("decompose", args.decompose),
            ("import", args.import_),
            ("weights", args.rep),
        )
        if on
    ]
    if not modes:
        raise UsageError(
            "nothing to do: give -rep, --decompose, --import or --script"
        )
    if len(modes) > 1:
        raise UsageError(f"choose one of {', '.join(modes)}")
    mode = modes[0]
    if mode == "script":
        return run_script(args.script, args.format)
    la = _algebra_from_args(args)
    if (args.dump or args.dump_singlet) and mode != "decompose":
        raise UsageError("--dump/--dump-singlet only apply to --decompose")
    if mode == "weights":
        return run_weights(la, args.rep, args.format)
    if mode == "import":
        return run_import(la, args.import_)
    return run_decompose(
        la, args.decompose, args.format, args.dump, args.dump_singlet
    )


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except BrokenPipeError:
        # the reader closed stdout (lie ... | head): point it at devnull,
        # as the Python docs' SIGPIPE note does, so the flush at exit stays
        # quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ScriptError, InvalidImportError) as e:
        print(f"lie: error: {e}", file=sys.stderr)
        if isinstance(e, UsageError):
            print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    except (ConsistencyError, DecompositionError, FieldSqrtError) as e:
        print(f"lie: internal inconsistency: {e}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
