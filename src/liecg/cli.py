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

from .exactnum import FieldSqrtError, field_sqrt, parse_field
from .linalg import LabeledVector, SingularMatrixError, gram_orthogonalize
from .liealg import ConsistencyError, LieAlgebra, freudenthal, weyl_dim
from .irrep import (
    ImportedIrrepData,
    InvalidImportError,
    new_generic_irrep,
    new_imported_irrep,
)
from .tensor import (
    Decomposition,
    DecompositionError,
    decompose,
    prepare,
    render_states,
    result,
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

def _tup(w):
    return "(" + ",".join(str(x) for x in w) + ")"


def _ket_str(k):
    # trailing comma before the closing paren, then the degeneracy index
    return "(" + "".join(f"{x}," for x in k.dynkin) + ")" + str(k.deg_index)


def _hdr(key, val):
    return f"{key:<14}:   {val}"


_RULE = "=" * 34


def weight_listing(la, hw):
    """The per-irrep weight table, one line per weight."""
    lines = [
        _hdr("Lie algebra", la.name),
        _RULE,
        _hdr("Highest weight", _tup(hw)),
        _hdr("Dim. of irrep", weyl_dim(la, hw)),
        _RULE,
    ]
    idx = 1
    for rec in freudenthal(la, hw):
        lines.append(
            f"{idx}, Lev:{rec.level}, Deg:{rec.degeneracy}  "
            f"{_tup(rec.dynkin)},{rec.lowest_root_label}  {_tup(rec.descent)}"
        )
        idx += rec.degeneracy
    return "\n".join(lines)


def weights_to_json(la, hw):
    recs = [
        {
            "label": None,
            "level": r.level,
            "deg": r.degeneracy,
            "dynkin": list(r.dynkin),
            "lowest_root": r.lowest_root_label,
            "descent": list(r.descent),
        }
        for r in freudenthal(la, hw)
    ]
    idx = 1
    for r in recs:
        r["label"] = idx
        idx += r["deg"]
    doc = {
        "algebra": {"family": la.family, "rank": la.rank},
        "name": la.name,
        "highest_weight": list(hw),
        "dim": weyl_dim(la, hw),
        "weights": recs,
    }
    return json.dumps(doc, indent=1)


def weights_from_json(s):
    """Inverse of weights_to_json; returns (algebra, hw, weight dicts)."""
    doc = json.loads(s)
    la = LieAlgebra(doc["algebra"]["family"], doc["algebra"]["rank"])
    return la, tuple(doc["highest_weight"]), doc["weights"]


def states_to_json(p, l, r):
    """CG coefficient table of one product irrep as JSON text."""
    states = []
    lab = 0
    for lev, level in enumerate(p.levels):
        for s in level:
            lab += 1
            states.append(
                {
                    "state": lab,
                    "level": lev,
                    "terms": [
                        {"coeff": c.plain(), "left": a, "right": b}
                        for c, (a, b) in s.terms
                    ],
                }
            )
    doc = {
        "algebra": {"family": l.algebra.family, "rank": l.algebra.rank},
        "left": list(l.hw),
        "right": list(r.hw),
        "irrep": {"dynkin": list(p.hw), "dim": p.dim},
        "states": states,
    }
    return json.dumps(doc, indent=1)


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


def _algebra_from_args(args):
    picked = []
    if args.su is not None:
        picked.append(("su", args.su))
    if args.so is not None:
        picked.append(("so", args.so))
    if args.sp is not None:
        picked.append(("sp", args.sp))
    if args.d is not None:
        picked.append(("d", args.d))
    for f in ("e6", "e7", "e8", "f4", "g2"):
        if getattr(args, f):
            picked.append((f, None))
    if len(picked) != 1:
        raise UsageError("exactly one algebra flag is required")
    kind, n = picked[0]
    try:
        if kind == "su":
            return LieAlgebra.su(n)
        if kind == "so":
            return LieAlgebra.so(n)
        if kind == "sp":
            return LieAlgebra.sp(n)
        if kind == "d":
            return LieAlgebra("D", n)
        return LieAlgebra(kind.upper(), int(kind[1]))
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


def _factor_irrep(la, token):
    """One side of --decompose: Dynkin labels or @FILE with imported data."""
    if token.startswith("@"):
        return _import_irrep(la, token[1:])
    return new_generic_irrep(la, _checked_rep(la, token))


# ----------------------------------------------------------------- modes

def run_weights(la, rep, fmt):
    hw = _checked_rep(la, rep)
    if fmt == "json":
        print(weights_to_json(la, hw))
    else:
        print(weight_listing(la, hw))
    return 0


def run_import(la, path):
    r = _import_irrep(la, path)
    try:
        r.check_consistency()
    except ConsistencyError as e:
        # the file is well-formed but its tables violate the sum rule
        raise UsageError(f"{path}: {e}")
    print(_hdr("Import file", path))
    print(weight_listing(la, r.hw))
    print(_hdr("Consistency", "OK"))
    return 0


def run_decompose(la, spec, fmt, dump_dir=None, dump_singlet=None):
    sides = spec.replace("×", "x").split("x")
    if len(sides) != 2:
        raise UsageError(
            f"--decompose wants 'AxB' with two irrep specs, got {spec!r}"
        )
    l = _factor_irrep(la, sides[0].strip())
    r = _factor_irrep(la, sides[1].strip())
    d = Decomposition(l, r)
    decompose(d)
    if fmt == "json":
        doc = {
            "algebra": {"family": la.family, "rank": la.rank},
            "left": {"dynkin": list(l.hw), "dim": l.dim},
            "right": {"dynkin": list(r.hw), "dim": r.dim},
            "irreps": [
                {"dynkin": list(p.hw), "dim": p.dim} for p in d.found
            ],
        }
        print(json.dumps(doc, indent=1))
    else:
        print(result(d))
    if dump_dir is not None:
        _dump_all(d, l, r, fmt, dump_dir)
    if dump_singlet is not None:
        _dump_singlet(d, l, r, fmt, dump_singlet)
    return 0


_EXT = {"plain": "txt", "tex": "tex", "mathematica": "m", "json": "json"}


def _dump_all(d, l, r, fmt, dump_dir):
    os.makedirs(dump_dir, exist_ok=True)
    for k, p in enumerate(d.found, 1):
        data = prepare(p, l, r)
        with open(os.path.join(dump_dir, f"irrep_{k}.json"), "w") as fh:
            fh.write(data.to_json())
        if fmt == "json":
            text = states_to_json(p, l, r)
        else:
            text = render_states(p, l, r, fmt)
        name = f"states_{k}.{_EXT[fmt]}"
        with open(os.path.join(dump_dir, name), "w") as fh:
            fh.write(text + "\n")


def _dump_singlet(d, l, r, fmt, path):
    for p in d.found:
        if p.dim == 1:
            text = (
                states_to_json(p, l, r)
                if fmt == "json"
                else render_states(p, l, r, fmt)
            )
            with open(path, "w") as fh:
                fh.write(text + "\n")
            return
    raise UsageError("the product contains no singlet to dump")


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
        self.vectors = {}  # name -> (irrep, LabeledVector)
        self.trafos = {}
        self.nodes = {}

    def emit(self, text):
        print(text, file=self.out if self.out is not None else sys.stdout)

    # every verb gets the argument tokens of its line
    def v_algebra(self, toks):
        kind = toks[0].lower() if toks else ""
        if kind in ("a", "b", "c", "d"):
            if len(toks) != 2:
                raise ValueError("algebra a|b|c|d needs a rank")
            self.la = LieAlgebra(kind.upper(), int(toks[1]))
        elif kind in ("e6", "e7", "e8", "f4", "g2"):
            if len(toks) != 1:
                raise ValueError(f"algebra {kind} takes no rank")
            self.la = LieAlgebra(kind.upper(), int(kind[1]))
        elif kind in ("su", "so", "sp"):
            if len(toks) != 2:
                raise ValueError(f"algebra {kind} needs a size")
            self.la = getattr(LieAlgebra, kind)(int(toks[1]))
        else:
            raise ValueError(f"unknown algebra {' '.join(toks)!r}")

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
        self.irreps[name] = _import_irrep(la, path)

    def v_wrap(self, toks):
        name, rname = toks
        self.nodes[name] = mt.wrap(self._get(self.irreps, rname, "irrep"))

    def v_otimes(self, toks):
        name, ln, rn, k = toks
        self.nodes[name] = mt.otimes(
            self._get(self.nodes, ln, "node"),
            self._get(self.nodes, rn, "node"),
            int(k),
        )

    def v_filter(self, toks):
        name, nn, factor, labels = toks
        keep = [int(t) for t in labels.split(",")]
        self.nodes[name] = mt.filter_factor(
            self._get(self.nodes, nn, "node"), int(factor), keep
        )

    def v_chbasis(self, toks):
        name, nn, factor, tn = toks
        self.nodes[name] = mt.chbasis(
            self._get(self.nodes, nn, "node"),
            int(factor),
            self._get(self.trafos, tn, "trafo"),
        )

    def v_scale(self, toks):
        name, nn, coeff = toks
        self.nodes[name] = mt.scale(
            self._get(self.nodes, nn, "node"), _parse_coeff(coeff)
        )

    def v_vector(self, toks):
        name, rname = toks[0], toks[1]
        r = self._get(self.irreps, rname, "irrep")
        terms = []
        for t in toks[2:]:
            lab, _, coeff = t.partition(":")
            if not coeff:
                raise ValueError(f"vector term {t!r} is not LABEL:COEFF")
            terms.append((_parse_coeff(coeff), int(lab)))
        self.vectors[name] = (r, LabeledVector(terms))

    def v_normalize(self, toks):
        (name,) = toks
        r, v = self._get(self.vectors, name, "vector")
        nu = field_sqrt(mt.scp(r, v, v))
        if nu.is_zero():
            raise ValueError(f"vector {name!r} has norm 0")
        self.vectors[name] = (r, v.scaled(nu.invert()))

    def v_basis(self, toks):
        name, rname, offset = toks[0], toks[1], int(toks[2])
        r = self._get(self.irreps, rname, "irrep")
        seeds = []
        for vn in toks[3:]:
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
    for f in ("e6", "e7", "e8", "f4", "g2"):
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
