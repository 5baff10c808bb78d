"""Command-line behavior: transcripts, exit codes, dumps, scripts."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout

import pytest

from liecg import cli
from liecg.exactnum import parse_field
from liecg.irrep import new_generic_irrep
from liecg.linalg import LabeledVector
from liecg.liealg import ConsistencyError, LieAlgebra, freudenthal
from liecg.tensor import Decomposition, decompose, result

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

SU3_OCTET_LISTING = """\
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


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# --------------------------------------------------------------- weights

def test_su3_octet_listing(capsys):
    rc, out, err = run(capsys, "-su", "3", "-rep", "11")
    assert rc == 0 and err == ""
    assert out == SU3_OCTET_LISTING


def test_comma_form_is_equivalent(capsys):
    _, a, _ = run(capsys, "-su", "3", "-rep", "11")
    _, b, _ = run(capsys, "-su", "3", "-rep", "1,1")
    assert a == b


def test_e6_27_listing(capsys):
    rc, out, _ = run(capsys, "-e6", "-rep", "100000")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 32
    assert lines[0] == "Lie algebra   :   E6"
    assert lines[3] == "Dim. of irrep :   27"
    assert lines[5] == "1, Lev:0, Deg:1  (1,0,0,0,0,0),-1  (0,0,0,0,0,0)"
    assert lines[-1] == "27, Lev:16, Deg:1  (0,0,0,0,-1,0),1  (2,3,4,3,2,2)"


def oracle_listing(la, hw):
    """The -rep listing built straight from the freudenthal records: each
    number through str(), each weight through ",".join, the dimension as
    the sum of the multiplicities."""
    records = freudenthal(la, hw)

    def tup(xs):
        return "(" + ",".join(str(x) for x in xs) + ")"

    lines = []
    label = 1
    for rec in records:
        lines.append(str(label) + ", Lev:" + str(rec.level) + ", Deg:"
                     + str(rec.degeneracy) + "  " + tup(rec.dynkin) + ","
                     + str(rec.lowest_root_label) + "  " + tup(rec.descent))
        label += rec.degeneracy
    rule = "=" * 34
    head = ["Lie algebra   :   " + la.name, rule,
            "Highest weight:   " + tup(hw),
            "Dim. of irrep :   " + str(label - 1), rule]
    return "\n".join(head + lines)


def oracle_document(la, hw):
    """The document of the -rep JSON listing built straight from the
    freudenthal records, each record a dict with its running label."""
    weights = []
    label = 1
    for rec in freudenthal(la, hw):
        weights.append({"label": label, "level": rec.level,
                        "deg": rec.degeneracy, "dynkin": list(rec.dynkin),
                        "lowest_root": rec.lowest_root_label,
                        "descent": list(rec.descent)})
        label += rec.degeneracy
    return {"algebra": {"family": la.family, "rank": la.rank},
            "name": la.name, "highest_weight": list(hw), "dim": label - 1,
            "weights": weights}


LISTING_CASES = [
    ("A", 3, (1, 0, 2)), ("B", 3, (1, 0, 1)),
    ("C", 3, (0, 1, 1)), ("D", 4, (0, 1, 0, 0)), ("E6", 6, (0, 0, 0, 0, 0, 1)),
    ("E7", 7, (1, 0, 0, 0, 0, 0, 0)), ("E8", 8, (0, 0, 0, 0, 0, 0, 1, 0)),
    ("F4", 4, (0, 0, 1, 0)), ("G2", 2, (2, 1)),
    ("E8", 8, (1, 0, 0, 0, 0, 0, 0, 0)),  # 3875
]

# the E8 30380, whose records have _PINNED_FIELDS fields; rank 1; and the
# trivial irrep, one record; each in both formats
ORACLE_CASES = [(*case, fmt) for fmt in ("plain", "json") for case in
                LISTING_CASES + [("E8", 8, (0, 0, 0, 0, 0, 1, 0, 0)),
                                 ("A", 1, (4,)), ("A", 1, (0,))]]


@pytest.mark.parametrize("family, rank, hw, fmt", ORACLE_CASES,
                         ids=[f"{f}{n}-{''.join(map(str, hw))}"
                              + ("-json" if fmt == "json" else "")
                              for f, n, hw, fmt in ORACLE_CASES])
def test_listing_matches_records_oracle(capsys, family, rank, hw, fmt):
    la = LieAlgebra(family, rank)
    assert cli.run_weights(la, ",".join(map(str, hw)), fmt) == 0
    out = capsys.readouterr().out
    records = len(freudenthal(la, hw))
    if fmt == "plain":
        want = oracle_listing(la, hw)
        assert cli.weight_listing(la, hw) == want
        assert out == want + "\n"
        assert want.count("\n") == 4 + records
    else:
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=1) + "\n"
        assert doc == oracle_document(la, hw)
        assert len(doc["weights"]) == records


def test_su2_listing_oracle(capsys):
    # rank 1: every weight has a single Dynkin label and descent entry
    rc, out, _ = run(capsys, "-su", "2", "-rep", "4")
    assert rc == 0
    assert out == oracle_listing(LieAlgebra("A", 1), (4,)) + "\n"
    assert out.splitlines()[-1] == "5, Lev:4, Deg:1  (-4),4  (4)"


def test_rank_one_label_above_nine(capsys):
    rc, out, _ = run(capsys, "-su", "2", "-rep", "11")
    assert rc == 0
    assert "Highest weight:   (11)" in out
    assert "Dim. of irrep :   12" in out


def test_weights_json_roundtrip():
    doc = json.loads(cli.weights_to_json(LieAlgebra("A", 2), (1, 1)))
    assert doc["algebra"] == {"family": "A", "rank": 2}
    assert doc["highest_weight"] == [1, 1] and doc["dim"] == 8
    assert len(doc["weights"]) == 7
    assert doc["weights"][3] == {
        "label": 4,
        "level": 2,
        "deg": 2,
        "dynkin": [0, 0],
        "lowest_root": 0,
        "descent": [1, 1],
    }


class Discard:
    """A stdout that drops what it is given."""

    def write(self, text):
        return len(text)

    def writelines(self, pieces):
        for _ in pieces:
            pass


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_listing_is_written_in_flat_memory(fmt):
    # E8 30380: 2.1 MB of JSON from the cached records; written as it is
    # rendered, the listing holds one record's text at a time
    la = LieAlgebra("E8", 8)
    freudenthal(la, (0, 0, 0, 0, 0, 1, 0, 0))
    tracemalloc.start()
    try:
        with redirect_stdout(Discard()):
            assert cli.run_weights(la, "00000100", fmt) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


LEFTOVER = """
import contextlib, sys, tracemalloc
from liecg import cli
from liecg.liealg import LieAlgebra, freudenthal

class Discard:
    def write(self, text):
        return len(text)

    def writelines(self, pieces):
        for _ in pieces:
            pass

la = LieAlgebra("E8", 8)
freudenthal(la, (1, 0, 0, 0, 0, 0, 0, 0))
tracemalloc.start()
with contextlib.redirect_stdout(Discard()):
    cli.run_weights(la, "10000000", sys.argv[1])
print(tracemalloc.get_traced_memory()[0])
"""


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_listing_leaves_nothing_allocated(fmt):
    # E8 3875 in a fresh interpreter, whose tuple free lists are empty: a
    # record of 20 fields filled through a 20-tuple would leave 2000 of
    # them (0.4 MB) allocated on CPython 3.11
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LEFTOVER, fmt],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2**16


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_inconsistency_writes_nothing(capsys, monkeypatch, fmt):
    # freudenthal runs before the first byte of a listing
    def broken(la, hw):
        raise ConsistencyError(f"{la.name} irrep {hw}: no multiplicities")

    monkeypatch.setattr(cli, "freudenthal", broken)
    rc, out, err = run(capsys, "-su", "3", "-rep", "11", "--format", fmt)
    assert (rc, out) == (2, "")
    assert "internal inconsistency: SU(3) irrep (1, 1)" in err


BOOL_LABELS = """
import sys
from liecg import cli
from liecg.liealg import LieAlgebra, freudenthal

try:
    freudenthal(LieAlgebra("A", 2), (True, False))
except ValueError:
    pass
else:
    print("bool labels accepted", file=sys.stderr)
sys.exit(cli.main(["-su", "3", "-rep", "10", "--format", "json"]))
"""


def test_bool_labels_leave_the_cache_clean():
    # bool is an int subclass and hashes as one: accepted, (True, False)
    # would fill the lru_cache entry of (1, 0) with bool labels, and the
    # JSON listing of the 3 after it would stop half-written
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    after = subprocess.run([sys.executable, "-c", BOOL_LABELS],
                           capture_output=True, text=True, env=env)
    fresh = subprocess.run(
        [sys.executable, "-m", "liecg", "-su", "3", "-rep", "10", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert (after.returncode, after.stderr) == (0, "")
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert after.stdout == fresh.stdout


def test_usage_errors(capsys):
    for argv in (
        [],
        ["-rep", "11"],  # no algebra
        ["-su", "3", "-e6", "-rep", "11"],  # two algebras
        ["-su", "3", "-rep", "111"],  # wrong label count
        ["-su", "3", "-rep", "11", "--format", "yaml"],
        ["-su", "3", "-rep", "11", "--dump", "/tmp/x"],  # dump sans decompose
        ["-sp", "5", "-rep", "11"],  # odd symplectic size
        ["-su", "3", "-rep", "11", "--decompose", "10x01"],  # two modes
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 1, argv
        assert "usage:" in err


def test_huge_irrep_fails_fast(capsys):
    # Weyl dimension about 1.3e36: refused before any weight is built
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "-e8", "-rep", "11111111")
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1 and out == ""
    assert "1329227995784915872903807060280344576" in err
    assert str(cli.MAX_DIM) in err and "usage:" in err


# ------------------------------------------------------------- decompose

def test_decompose_result_block(capsys):
    rc, out, _ = run(capsys, "-su", "3", "--decompose", "10x01")
    assert rc == 0
    assert out == (
        "Dimensions match.\n"
        "Clebsch-Gordan decomposition successfully done!\n"
        "SU(3): (1,0,)3 x (0,1,)3 = \n"
        "(1,1,)8\n"
        "(0,0,)1\n"
    )


def test_decompose_json(capsys):
    rc, out, _ = run(capsys, "-su", "3", "--decompose", "10x01",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["irreps"] == [
        {"dynkin": [1, 1], "dim": 8},
        {"dynkin": [0, 0], "dim": 1},
    ]


def test_dump_singlet(capsys, tmp_path):
    path = tmp_path / "singlet.txt"
    rc, _, _ = run(capsys, "-su", "3", "--decompose", "10x01",
                   "--dump-singlet", str(path))
    assert rc == 0
    text = path.read_text()
    assert '("1/3*sqrt(3)", ("(1,0,)1", "(-1,0,)1"))' in text
    assert '("-1/3*sqrt(3)", ("(-1,1,)1", "(1,-1,)1"))' in text


def test_dump_singlet_formats(capsys, tmp_path):
    tex = tmp_path / "s.tex"
    run(capsys, "-su", "3", "--decompose", "10x01", "--format", "tex",
        "--dump-singlet", str(tex))
    assert "\\sqrt{3}" in tex.read_text()
    mma = tmp_path / "s.m"
    run(capsys, "-su", "3", "--decompose", "10x01", "--format", "mathematica",
        "--dump-singlet", str(mma))
    assert "Sqrt[3]/3" in mma.read_text()


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_dump_singlet_descends_only_the_singlet(capsys, tmp_path, monkeypatch,
                                                fmt):
    # the result comes from the plan; of E6 27 x 27bar = 650 + 78 + 1 only
    # the singlet is searched and descended
    from liecg import tensor

    path = tmp_path / "s.txt"
    rc, want, _ = run(capsys, "-e6", "--decompose", "100000x000010",
                      "--format", fmt, "--dump-singlet", str(path))
    assert rc == 0
    singlet = path.read_bytes()
    descended = []
    real = tensor.descend_irrep
    monkeypatch.setattr(tensor, "descend_irrep",
                        lambda p, l, r: descended.append(p) or real(p, l, r))
    monkeypatch.setattr(cli, "decompose", refuse_decompose)
    rc, out, _ = run(capsys, "-e6", "--decompose", "100000x000010",
                     "--format", fmt, "--dump-singlet", str(path))
    assert rc == 0 and out == want and path.read_bytes() == singlet
    assert [(p.hw, p.dim) for p in descended] == [((0,) * 6, 1)]
    monkeypatch.undo()
    # the same lines as the full decomposition prints, and with --dump the
    # same singlet file
    rc, full, _ = run(capsys, "-e6", "--decompose", "100000x000010",
                      "--format", fmt, "--dump", str(tmp_path / "all"),
                      "--dump-singlet", str(path))
    assert rc == 0 and full == want and path.read_bytes() == singlet


def refuse_decompose(d):
    raise AssertionError("decompose ran before the arguments were checked")


def assert_no_singlet(capsys, tmp_path, monkeypatch, algebra, spec, dual):
    monkeypatch.setattr(cli, "decompose", refuse_decompose)
    rc, out, err = run(capsys, *algebra.split(), "--decompose", spec,
                       "--dump-singlet", str(tmp_path / "s.txt"))
    assert rc == 1 and out == ""
    assert "no singlet" in err and f"is not the dual {dual} of" in err
    assert not (tmp_path / "s.txt").exists()


def test_dump_singlet_absent(capsys, tmp_path, monkeypatch):
    assert_no_singlet(capsys, tmp_path, monkeypatch, "-su 3", "10x10", "(0,1)")


@pytest.mark.parametrize("algebra, spec, dual", [
    ("-su 4", "100x010", "(0,0,1)"),
    ("-e6", "100000x100000", "(0,0,0,0,1,0)"),
    ("-f4", "0001x1000", "(0,0,0,1)"),
    ("-so 10", "00010x00010", "(0,0,0,0,1)"),
])
def test_dump_singlet_absent_fails_before_the_work(capsys, tmp_path,
                                                  monkeypatch, algebra, spec,
                                                  dual):
    assert_no_singlet(capsys, tmp_path, monkeypatch, algebra, spec, dual)


@pytest.mark.parametrize("algebra, spec", [
    ("-su 3", "10x01"), ("-su 4", "100x001"), ("-g2", "10x10"),
    ("-e6", "100000x000010"), ("-so 10", "00010x00001"),
])
def test_dump_singlet_of_dual_pairs(capsys, tmp_path, algebra, spec):
    # the dual is minus the lowest weight: G2 is self-dual, A, D5 and E6
    # swap the ends of their Dynkin diagrams
    path = tmp_path / "s.txt"
    rc, _, err = run(capsys, *algebra.split(), "--decompose", spec,
                     "--dump-singlet", str(path))
    assert rc == 0 and err == ""
    assert path.read_text().strip()


def assert_missing_directory(capsys, tmp_path, monkeypatch, algebra, spec):
    monkeypatch.setattr(cli, "decompose", refuse_decompose)
    path = tmp_path / "no" / "s.txt"
    rc, out, err = run(capsys, *algebra.split(), "--decompose", spec,
                       "--dump-singlet", str(path))
    assert rc == 1 and out == ""
    assert f"cannot write {path}: no directory {tmp_path / 'no'}" in err
    assert "Traceback" not in err


def test_dump_singlet_to_missing_directory(capsys, tmp_path, monkeypatch):
    assert_missing_directory(capsys, tmp_path, monkeypatch, "-su 3", "10x01")


def test_dump_singlet_to_missing_directory_fails_before_the_work(
        capsys, tmp_path, monkeypatch):
    # F4 26 x 26 holds a singlet, but its decomposition takes most of a
    # second, all of it wasted on a path that cannot be written
    assert_missing_directory(capsys, tmp_path, monkeypatch, "-f4", "0001x0001")


@pytest.mark.parametrize("where", ["file", "under_file"])
def test_dump_to_bad_path_fails_before_the_work(capsys, tmp_path, monkeypatch,
                                                where):
    f = tmp_path / "f"
    f.write_text("")
    path = f if where == "file" else f / "d"

    def refuse(d):
        raise AssertionError("decompose ran before the dump path was made")

    monkeypatch.setattr(cli, "decompose", refuse)
    rc, out, err = run(capsys, "-su", "3", "--decompose", "10x01",
                       "--dump", str(path))
    assert rc == 1 and out == ""
    assert f"cannot create --dump directory {path}: " in err
    assert "Traceback" not in err


def test_equal_factors_are_built_once(capsys, tmp_path, monkeypatch):
    # a factor named twice, under the same or another spec ("1,1",
    # "./FILE"), is built once; the references build both factors
    rc, _, _ = run(capsys, "-su", "3", "--decompose", "10x01",
                   "--dump", str(tmp_path))
    assert rc == 0
    path = tmp_path / "irrep_1.json"
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    oc = LieAlgebra.su(3)
    d = Decomposition(new_generic_irrep(oc, (1, 1)),
                      new_generic_irrep(oc, (1, 1)))
    decompose(d)
    generic = result(d) + "\n"

    def count(spec, *names):
        calls = {name: [] for name in names}
        for name in names:
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name,
                lambda *a, real=real, log=calls[name]: log.append(a) or real(*a))
        rc, out, _ = run(capsys, "-su", "3", "--decompose", spec)
        assert rc == 0
        monkeypatch.undo()
        return out, [len(calls[name]) for name in names]

    imported, n = count(f"@{path} x @{copy}", "_import_irrep")
    assert n == [2]
    for spec in ("11x11", "11x1,1", "1,1 x 11"):
        assert count(spec, "new_generic_irrep") == (generic, [1]), spec
    for spec in (f"@{path} x @{path}", f"@{path} x @{tmp_path}/./irrep_1.json"):
        assert count(spec, "_import_irrep") == (imported, [1]), spec
    # a file holding the octet is not taken for the labels 11
    _, n = count(f"@{path} x 11", "_import_irrep", "new_generic_irrep")
    assert n == [1, 1]


def test_dump_and_import_roundtrip(capsys, tmp_path):
    d = tmp_path / "out"
    rc, _, _ = run(capsys, "-su", "3", "--decompose", "11x11",
                   "--dump", str(d))
    assert rc == 0
    assert sorted(p.name for p in d.iterdir()) == sorted(
        [f"irrep_{k}.json" for k in range(1, 7)]
        + [f"states_{k}.txt" for k in range(1, 7)]
    )
    assert (d / "states_1.txt").read_text().startswith("[[[(")
    rc, out, _ = run(capsys, "-su", "3", "--import", str(d / "irrep_4.json"))
    assert rc == 0
    assert "Highest weight:   (1,1)" in out
    assert "Consistency   :   OK" in out


def test_import_rejects_corrupt_tables(capsys, tmp_path):
    d = tmp_path / "out"
    run(capsys, "-su", "3", "--decompose", "10x01", "--dump", str(d))
    doc = json.loads((d / "irrep_1.json").read_text())
    state, root, terms = doc["lowering"][0]
    doc["lowering"][0] = [state, root, [["7/3", t] for _, t in terms]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "-su", "3", "--import", str(bad))
    assert rc == 1 and "bad.json" in err


def test_import_relation_error_names_irrep_state_and_roots(capsys, tmp_path):
    # the octet's zero-weight states 4 and 5 overlap by 1/2; claiming 1/3
    # keeps the lowering table, so the Serre relations hold and the
    # commutator names the failure.  A well-formed file that fails the
    # check is refused like any bad content: one error line, no usage
    d = tmp_path / "out"
    run(capsys, "-su", "3", "--decompose", "10x01", "--dump", str(d))
    doc = json.loads((d / "irrep_1.json").read_text())
    assert doc["scp"] == [[4, 5, "1/2"]]
    doc["scp"] = [[4, 5, "1/3"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "-su", "3", "--import", str(bad))
    assert rc == 1 and out == ""
    assert err == (
        f"lie: error: {bad}: SU(3) irrep (1, 1): E_i F_j - F_j E_i == "
        "delta_ij w_i fails at state 3 of weight (-1, 2), roots i=1, j=2\n"
    )


def test_import_huge_claimed_irrep_fails_fast(capsys, tmp_path):
    # one ket claiming the E8 irrep 11111111: refused on its dimension,
    # before the weights of that irrep are enumerated
    doc = {
        "format": "liecg-irrep-v1",
        "algebra": {"family": "E8", "rank": 8},
        "kets": [[1, [1] * 8, 1]],
        "lowering": [],
        "scp": [],
    }
    f = tmp_path / "one.json"
    f.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "-e8", "--import", str(f))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1 and out == ""
    assert f"{f}: 1 kets, but the E8 irrep (1, 1, 1, 1, 1, 1, 1, 1) has " in err


def _octet_doc(capsys, tmp_path):
    d = tmp_path / "out"
    run(capsys, "-su", "3", "--decompose", "10x01", "--dump", str(d))
    return json.loads((d / "irrep_1.json").read_text())


@pytest.mark.parametrize("where, value", [
    (("kets", 0, 2), 1.5),  # the degeneracy index of state 1
    (("kets", 0, 2), 1.0),
    (("kets", 0, 2), True),
    (("kets", 0, 1, 0), "1"),  # a weight component
    (("kets", 0, 0), 1.0),  # a ket label
    (("lowering", 0, 1), 1.5),  # a root
    (("lowering", 0, 2, 0, 1), "2"),  # a target
    (("scp", 0, 0), 4.0),  # a state of a scalar product
    (("algebra", "rank"), True),  # would read as SU(2)
    (("algebra", "rank"), 2.0),
])
def test_import_refuses_non_integer_fields(capsys, tmp_path, where, value):
    # floats, bools and strings are refused, not truncated to an integer
    doc = _octet_doc(capsys, tmp_path)
    *path, last = where
    node = doc
    for key in path:
        node = node[key]
    node[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "-su", "3", "--import", str(bad))
    assert rc == 1 and out == ""
    assert f"{bad}: malformed irrep data: " in err
    assert f"{value!r} is not an integer" in err


def test_import_refuses_repeated_degeneracy_index(capsys, tmp_path):
    doc = _octet_doc(capsys, tmp_path)
    zero = [k for k in doc["kets"] if k[1] == [0, 0]]
    assert [k[2] for k in zero] == [1, 2]
    zero[1][2] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "-su", "3", "--import", str(bad))
    assert rc == 1 and out == ""
    assert f"{bad}: degeneracy indices at (0, 0) not 1..2" in err


def _octet_of_8x8(capsys, tmp_path):
    """The octet of SU(3) 8 x 8, irrep 4 of its dump, as a document."""
    rc, _, _ = run(capsys, "-su", "3", "--decompose", "11x11",
                   "--dump", str(tmp_path / "octets"))
    assert rc == 0
    return json.loads((tmp_path / "octets" / "irrep_4.json").read_text())


@pytest.mark.parametrize("where, value, message", [
    (("kets",), [], "no kets"),
    (("kets", 0, 1), [1, 1, 0], "weights must have 2 components"),
    (("kets", 0, 1), [-1, 2], "state 1 is not a highest weight: highest "
                              "weight must be non-negative integers: (-1, 2)"),
    (("lowering", 0, 1), 0, "bad lowering key (1, 0)"),
    (("scp",), [[4, 5, "1/2"], [4, 99, "1"]],
     "scalar product of unknown labels (4,99)"),
    (("scp",), [[4, 5, "1/2"], [5, 4, "1/3"]],
     "asymmetric scalar product at (4, 5)"),
    (("lowering", 0, 2, 0, 0), "1*sqrt(2)",
     "no rational form: lowering state 5 by root 1 gives state 7 the "
     "radical class 1, another path gave it 2"),
    (("scp", 0, 2), "1*sqrt(5)",
     "no rational form: the scalar product 1*sqrt(5) of states 4 and 5 is "
     "not rational in the rescaled basis"),
    (("lowering", 0, 0), "1",
     "malformed irrep data: state '1' is not an integer"),
    (("scp", 0, 0), "4", "malformed irrep data: state '4' is not an integer"),
], ids=["no-kets", "third-label", "not-highest", "root-0", "scp-label-99",
        "scp-asymmetric", "radical-class", "scp-irrational",
        "lowering-string-state", "scp-string-label"])
def test_import_refuses_an_edited_octet(capsys, tmp_path, where, value,
                                        message):
    doc = _octet_of_8x8(capsys, tmp_path)
    assert doc["lowering"][0] == [1, 1, [["1", 3]]]
    assert doc["scp"] == [[4, 5, "1/2"]]
    *path, last = where
    node = doc
    for key in path:
        node = node[key]
    node[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "-su", "3", "--import", str(bad))
    assert rc == 1 and out == ""
    assert err.splitlines()[0] == f"lie: error: {bad}: {message}"


def test_huge_radicand_fails_fast(capsys, tmp_path):
    # factoring a 50-digit radicand would not finish; it is refused
    huge = "sqrt(" + "9" * 50 + ")"
    doc = _octet_doc(capsys, tmp_path)
    doc["lowering"][0][2][0][0] = huge
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "-su", "3", "--import", str(bad))
    assert rc == 1 and out == ""
    assert f"{bad}: malformed irrep data: radicand " in err
    script = tmp_path / "s.lie"
    script.write_text(f"algebra a 2\nirrep r 10\nwrap t r\nscale s t {huge}\n")
    rc, out, err = run(capsys, "--script", str(script))
    assert time.perf_counter() - t0 < 5.0
    assert rc == 1 and out == ""
    assert f"{script}:4: scale: cannot read coefficient '{huge}': " in err
    assert "radicand" in err


def test_import_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "-su", "3", "--import", str(tmp_path / "no.json"))
    assert rc == 1 and "cannot read" in err


@pytest.mark.parametrize("fmt, message", [
    (None, 'not a liecg-irrep-v1 file: it has no "format"'),
    ("x", "unknown format 'x'"),
], ids=["none", "wrong"])
def test_import_names_a_file_of_another_format(capsys, tmp_path, fmt,
                                               message):
    # a -rep JSON listing has no "format"; a wrong one is named
    rc, listing, _ = run(capsys, "-su", "3", "-rep", "11", "--format", "json")
    assert rc == 0
    doc = json.loads(listing)
    if fmt is not None:
        doc["format"] = fmt
    path = tmp_path / "listing.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "-su", "3", "--import", str(path))
    assert (rc, out) == (1, "")
    assert err == f"lie: error: {path}: {message}\n"


def test_degenerate_factor_decomposes(capsys):
    # the 27 of SU(3) is built from scratch, no dump and re-import needed
    rc, out, err = run(capsys, "-su", "3", "--decompose", "22x10")
    assert rc == 0 and err == ""
    assert out.splitlines() == [
        "Dimensions match.",
        "Clebsch-Gordan decomposition successfully done!",
        "SU(3): (2,2,)27 x (1,0,)3 = ",
        "(3,2,)42",
        "(1,3,)24",
        "(2,1,)15",
    ]


def test_huge_factor_fails_fast(capsys):
    rc, out, err = run(capsys, "-su", "3", "--decompose", "10x200,200")
    assert rc == 1 and out == ""
    assert "SU(3) irrep (200,200) has dimension 8120601" in err


def test_imported_factor_in_decompose(capsys, tmp_path):
    d = tmp_path / "out"
    run(capsys, "-su", "3", "--decompose", "10x01", "--dump", str(d))
    rc, out, _ = run(capsys, "-su", "3", "--decompose",
                     f"@{d / 'irrep_1.json'} x 10")
    assert rc == 0
    assert "SU(3): (1,1,)8 x (1,0,)3 = " in out
    assert "Dimensions match." in out


def test_decompose_file_paths_holding_x(capsys, tmp_path):
    # --decompose cuts at the one 'x' with Dynkin labels or @FILE on each
    # hand, so a path may hold an 'x' of its own
    box = tmp_path / "box_x"
    run(capsys, "-su", "3", "--decompose", "10x10", "--dump", str(box))
    six, bar = box / "irrep_1.json", box / "irrep_2.json"  # 6, 3bar
    copies = {}
    for name, src in [("six_x", six), ("bar_x", bar), ("six.json", six),
                      ("bar.json", bar)]:
        copies[name] = tmp_path / name
        copies[name].write_text(src.read_text())
    for spec, plain in [
        (f"@{six} x 10", f"@{copies['six.json']} x 10"),
        (f"@{copies['six_x']} x @{copies['bar_x']}",
         f"@{copies['six.json']} x @{copies['bar.json']}"),
    ]:
        got = run(capsys, "-su", "3", "--decompose", spec)
        want = run(capsys, "-su", "3", "--decompose", plain)
        assert got == want and got[0] == 0 and got[2] == "", spec
        assert "Dimensions match." in got[1]


@pytest.mark.parametrize("spec", ["10x01x10", "10", "@a x @b x @c"])
def test_decompose_spec_without_one_cut(capsys, spec):
    rc, out, err = run(capsys, "-su", "3", "--decompose", spec)
    assert rc == 1 and out == ""
    assert "--decompose wants 'AxB' with two irrep specs" in err


@pytest.mark.parametrize("spec", ["1ax01", "11x1a", "1a × 01"])
def test_decompose_names_the_bad_side(capsys, spec):
    # one 'x' but no cut with a valid side on each hand: the side that is
    # not Dynkin labels is named
    rc, out, err = run(capsys, "-su", "3", "--decompose", spec)
    assert rc == 1 and out == ""
    assert "cannot read '1a' as 2 Dynkin labels" in err
    assert "--decompose wants" not in err


ROTATED = os.path.join(os.path.dirname(__file__), "data", "su3_octet_rotated.json")


def test_factor_without_rational_form_is_refused(capsys):
    # an octet file whose zero-weight block was rotated by hand out of the
    # rational form: the consistency sweep and products both refuse it
    for argv in (["--import", ROTATED], ["--decompose", f"@{ROTATED} x 10"]):
        rc, out, err = run(capsys, "-su", "3", *argv)
        assert rc == 1 and out == ""
        assert "su3_octet_rotated.json: no rational form" in err
        assert "lowering state 3 by root 2 gives state 4" in err


def test_script_import_without_rational_form_is_refused(capsys, tmp_path):
    script = tmp_path / "rot.lie"
    script.write_text(f"algebra su 3\nimport r8 {ROTATED}\n")
    rc, _, err = run(capsys, "--script", str(script))
    assert rc == 1 and "rot.lie:2" in err and "no rational form" in err


# sha256 of every irrep_K.json of five dumps, K = 1, 2, ..., with the
# algebra flags and the product; the G2 one has sqrt(3) classes, the third
# an imported factor (the first dump's 27), and SO(7) and SU(4) orthogonal
# simple roots, whose commuting lowerings the descent skips
DUMP_GOLDENS = {
    "su3-8-8": (["-su", "3"], "11x11", [
        "ac086551d6ddf274c06741124317461fbebab7c83367ea39c8565edaeaa48826",
        "3694750427c34042fba69661a229104c0a8ea07a8b124f2ff00e59baac364cce",
        "2f309eef9df423de32415e93d3a279b717a65769da9852b110c337c1ab6c8b30",
        "e078d21dcdceb1a3d2d6c07311740bb0b5e2508a7d84e4216f3dccfbed7c3740",
        "7d61817022982524cff97f7fb9d30a8b2d68a65b9334f65ac9781d3f22fe0d5e",
        "50d38b16a427c08796745c13ead2deab3b01699559ad5f33c9930b6ae31e6936",
    ]),
    "g2-14-14": (["-g2"], "01x01", [
        "23beb477a8fa95d2cecb37bbdb982527faf1710d977985291239d799e464ccf8",
        "375aa9e1d659e318b7abca0289d9eafbc7a2a77f4fcba2e39f00c603722730e7",
        "5fc14d1b09d5f5eae07ca6b267e2e3813646f6eeaa2f8b73033ded63c41724ee",
        "d464846739ce7c61b97377b476a00dc40b57a4e857c1c6f65ca9130d492afd52",
        "d33b7d00e93934c37d89cc1a415481704c74d92ded1327b8dee8c3ad1a7396a0",
    ]),
    "su3-27-8": (["-su", "3"], "@su3-8-8/irrep_1.json x 11", [
        "b395a2ff5170e04334a635af105ba7d7000e841035758d288caef0dfc1d79950",
        "e9c14436f07dd1badbe34eaa5d8656066e10382f08eecb72fbf036406967a936",
        "730bbf596784737a913ee515d462a6412d3f18eeda98b067a57e4246183e2507",
        "246a7358b4fdafb3f0be9bda52ba1b70900a7ef5a1f3e556c2ca4cfc6847848a",
        "6e6d97783b3ddf9c9468f7502ccee8e43c00394fdab4c3c82ff601c5982ab85c",
        "3694750427c34042fba69661a229104c0a8ea07a8b124f2ff00e59baac364cce",
        "4130a6dd1da1111a1a373efbe255310ead7fc2004427c9847a71a772dc2b66ae",
        "c5f814b21aa71d1e6c2f1e27c0b2f706508eb13b2d423f480fc311247d04282b",
    ]),
    "so7-21-21": (["-so", "7"], "010x010", [
        "0be4f965c433e72ec6e96dcbf84db3d2163a5d1c08d4f713345da113ac38054c",
        "6f7a7e9e0c4e9dd9807f8c55cbb68f47490aca216b1e4e87637b8b4de60b55c6",
        "5e3991c8ff4e76645df83cf10d4c19307a3d4e5a7f189ce0f4c7d65d83feb9e6",
        "bc096041f4b33f7f847249fbe48f9795d12edcae6aca2d8fd81b5ea15d4075c7",
        "c250924934a2f529732d6607e3053088fe6cc4325ba2c91cf65c1e09534700fb",
        "6f7d4087a82d1727ece53a31e8880a05bfab8da40c8ef14ad56aa44c1ab280e2",
    ]),
    "su4-15-15": (["-su", "4"], "101x101", [
        "fa42d20538f83a608c23e5687f2cc6369700751991d9847a50fbd508ac853361",
        "1b16cf2e673739cc15108ed3a267b69a2191b0ccc3f01c8fe4a02dbda167b9e7",
        "daab2a02086d5934c9854defdf325608be09726b27c306e3f230bcb964f340f8",
        "0f772a98d1f396453b09ccdc27961c336fbb5536718ab773f18d4def928d88f6",
        "0cd7c5333b0918781ef9b0fd18be984fa66b5e95c521b9403cc3b3e94c93fe0d",
        "caad9be363e5d464dcbfa925d1bd48a32f0dd8a01e804f6374e578b79f029392",
        "1a0f424c9cdd00d1c55fe471601a8d53d1b9833b48e0e70b6823202259c54fe7",
    ]),
}


def test_dump_goldens(capsys, tmp_path, monkeypatch):
    # relative names
    monkeypatch.chdir(tmp_path)
    for name, (flags, spec, want) in DUMP_GOLDENS.items():
        rc, _, err = run(capsys, *flags, "--decompose", spec, "--dump", name)
        assert rc == 0 and err == ""
        got = [
            hashlib.sha256((tmp_path / name / f"irrep_{k}.json").read_bytes())
            .hexdigest()
            for k in range(1, len(want) + 1)
        ]
        assert got == want, name
        assert not (tmp_path / name / f"irrep_{len(want) + 1}.json").exists()


def test_dump_goldens_are_representations(capsys, tmp_path, monkeypatch):
    # the check an imported factor gets before its first product passes on
    # every irrep of the golden dumps
    monkeypatch.chdir(tmp_path)
    for name, (flags, spec, want) in DUMP_GOLDENS.items():
        la = cli._algebra_from_args(
            cli.build_parser().parse_args([*flags, "-rep", "0"]))
        rc, _, _ = run(capsys, *flags, "--decompose", spec, "--dump", name)
        assert rc == 0
        for k in range(1, len(want) + 1):
            r = cli._import_irrep(la, f"{name}/irrep_{k}.json")
            r.check_consistency()


# the products of the benchmark's export workload, one format each, and the
# octet square in all four formats; the first dump gives the imported 27.
# Each product but 27 x 8 holds a singlet, dumped with --dump-singlet too.
RENDERED_DUMPS = [
    (["-su", "3"], "11x11", fmt) for fmt in ("plain", "tex", "mathematica",
                                             "json")] + [
    (["-e6"], "100000x000010", "json"),
    (["-so", "10"], "00010x00001", "plain"),
    (["-su", "4"], "101x101", "tex"),
    (["-su", "3"], "@d0/irrep_1.json x 11", "mathematica"),
]
# the coefficient of each term of a states file
STATE_COEFF = {"json": re.compile(r'"coeff": "([^"]*)"')}
STATE_COEFF.update(dict.fromkeys(("plain", "tex", "mathematica"),
                                 re.compile(r'\("([^"]*)", \("')))


def test_states_files_render_each_coefficient_once(capsys, tmp_path,
                                                   monkeypatch):
    # every states file, of --dump and of --dump-singlet, renders each
    # distinct coefficient once: the rendering calls made while one file
    # is written are as many as the distinct coefficients in it
    from liecg import tensor

    calls = []
    render = tensor._render_terms

    def spy(*args):
        calls.append(args)
        return render(*args)

    monkeypatch.setattr(tensor, "_render_terms", spy)
    rendered = {}  # path -> rendering calls while it was written
    write = cli._write

    def counted(path, chunks):
        before = len(calls)
        write(path, chunks)
        rendered[path] = len(calls) - before

    monkeypatch.setattr(cli, "_write", counted)
    monkeypatch.chdir(tmp_path)
    repeats = 0
    for k, (algebra, spec, fmt) in enumerate(RENDERED_DUMPS):
        argv = [*algebra, "--decompose", spec, "--dump", f"d{k}",
                "--format", fmt]
        if not spec.startswith("@"):
            argv += ["--dump-singlet", f"singlet{k}.{fmt}"]
        rc, _, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        states = [p for p in rendered if "states_" in p or "singlet" in p]
        assert states
        for path in states:
            coeffs = STATE_COEFF[fmt].findall(open(path).read())
            assert coeffs, path
            assert rendered.pop(path) == len(set(coeffs)), path
            repeats += len(coeffs) - len(set(coeffs))
        rendered.clear()
    assert repeats > 1000


@pytest.fixture
def flipped_octet(capsys, tmp_path):
    """The octet of SU(3) 8 x 8 (irrep 4 of its dump) with the sign of the
    root-1 lowering of state 6 flipped.  The file keeps a rational form and
    every norm, so it passes the string sum rule, but it is not a
    representation; before the descent was capped, its products overflowed
    a weight."""
    doc = _octet_of_8x8(capsys, tmp_path)
    for entry in doc["lowering"]:
        if entry[:2] == [6, 1]:
            entry[2] = [[c[1:] if c.startswith("-") else "-" + c, t]
                        for c, t in entry[2]]
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


FLIP_ERROR = ("SU(3) irrep (1, 1): the Serre relation fails at state 2 of "
              "weight (2, -1), roots i=1, j=2")


def test_flipped_octet_import_is_refused(capsys, flipped_octet):
    # --import runs the check a factor gets, and names the same failure
    rc, out, err = run(capsys, "-su", "3", "--import", str(flipped_octet))
    assert rc == 1 and out == ""
    assert err == f"lie: error: {flipped_octet}: {FLIP_ERROR}\n"


@pytest.mark.parametrize("spec", ["@F x 10", "@F x 11", "11 x @F", "@F x @F"])
def test_flipped_octet_factor_is_refused(capsys, flipped_octet, spec):
    rc, out, err = run(capsys, "-su", "3", "--decompose",
                       spec.replace("F", str(flipped_octet)))
    assert rc == 2 and out == ""
    assert f"lie: internal inconsistency: {flipped_octet}: {FLIP_ERROR}" in err


def test_script_checks_an_imported_factor_at_its_first_product(
        capsys, tmp_path, flipped_octet):
    # listing the file's states takes no product and needs no check
    script = tmp_path / "flip.lie"
    lines = ["algebra su 3", f"import f {flipped_octet}", "states f"]
    script.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "--script", str(script))
    assert rc == 0 and out.startswith('[(1, "(1,1,)1")')
    lines += ["irrep r8 11", "wrap t8 r8", "wrap tf f", "otimes p t8 tf 1"]
    script.write_text("\n".join(lines) + "\n")
    rc, _, err = run(capsys, "--script", str(script))
    assert rc == 2
    assert f"lie: internal inconsistency: {flipped_octet}: {FLIP_ERROR}" in err


def test_imported_factor_is_checked_once(capsys, tmp_path, monkeypatch):
    from liecg.irrep import Irrep

    rc, _, _ = run(capsys, "-su", "3", "--decompose", "11x11",
                   "--dump", str(tmp_path))
    assert rc == 0
    checked = []
    real = Irrep.check_consistency
    monkeypatch.setattr(Irrep, "check_consistency",
                        lambda self: checked.append(self) or real(self))
    path = tmp_path / "irrep_4.json"
    for spec, n in ((f"@{path} x @{path}", 1), (f"@{path} x 11", 1),
                    ("11 x 11", 0)):
        checked.clear()
        assert run(capsys, "-su", "3", "--decompose", spec)[0] == 0
        assert len(checked) == n, spec
    script = tmp_path / "s.lie"
    script.write_text(f"algebra su 3\nimport f {path}\nwrap t f\n"
                      "otimes p t t 1\notimes q t t 2\n")
    checked.clear()
    assert run(capsys, "--script", str(script))[0] == 0
    assert len(checked) == 1


# sha256 of every states_K file of the G2 14 x 14 dump, K = 1..5, per
# format: its coefficients carry the sqrt(2), sqrt(3) and sqrt(6) classes
G2_STATES_GOLDENS = {
    "plain": [
        "b06462df18d06d837be53716cbc41cbc05c043f9f4fe1221b3a8d0dd0d87029d",
        "ba1c60c4d221221ad5d0e9eb19d010a27e80079efd4f9f4357e5c223a224bab3",
        "bf09fd89857b73867aabf2d9f2a92c627cdf998121af32ef9f2b37cb548de9e8",
        "63c502f17ba013f2b350e60d74d61175d3a4cedc1745cd6f755b072a33949195",
        "b361148d86990f07ccb9f67e9e9951c241ae1f841c72917522a6214a6888cf4c",
    ],
    "tex": [
        "4a10aac86e3296a1e428375cb5b4a614cad84180d255e79956301a1d0ab93b82",
        "7319cb43b943f227aed0ec62a5794616a669473c77b723221bbadb15b9bad126",
        "ed4f6d21b13739117bfff5e757025905e886350cb1fa36ac9d615d101eeb1997",
        "8335dbbbc46f4101ed83014452c67d831c984f47c5d62ad019f38708c67ae862",
        "41632c1e18532348dd736cb6d081b015003daa7712792ba5cd5a1861d8bf164d",
    ],
    "mathematica": [
        "e371163e884c4f1434dfdf98badc9a1bd01a34f1cdb01265e49a5c4f9c886380",
        "3f98e6169084478c6014930310b7642e06fbc1f8dad10da96d63bdaf2c6d5d47",
        "bd783cd6a812611e4bc3685ca0bb0ce9870574be48f11c4cfd17a17ce2083e59",
        "bb8f8e6534b07c3721905e074c46c89494f817bb1ece201a620a842bfb339ef7",
        "b69a07f5143cfc402d3796b4185a8ca9cbf48358bf4b2c16c6b1c07a365f35a2",
    ],
    "json": [
        "9453de05117d757524bf5242d9880db6e38145e22d1f7d0f72ca6739ccf13178",
        "b391350d0530f09fe473f12aa84b0d0eecaa050dcd29c7f9b832ff0a762f40a8",
        "a9a9d497a4d2967d95ba83c9593117af583a0dad67e33d5bd142b5cc9569da4b",
        "33a3fd66d196a7dc2d81628552414461ce5ef8fe0a44bfe46df7589ef65d819d",
        "7cc5f3c6afdc9906b608ebb79f7b83c953e29bcca56c1f271a629d9300cf173f",
    ],
}


@pytest.mark.parametrize("fmt", sorted(G2_STATES_GOLDENS))
def test_g2_states_goldens(capsys, tmp_path, fmt):
    want = G2_STATES_GOLDENS[fmt]
    ext = cli._EXT[fmt]
    rc, _, err = run(capsys, "-g2", "--decompose", "01x01", "--dump",
                     str(tmp_path), "--format", fmt)
    assert rc == 0 and err == ""
    got = [
        hashlib.sha256((tmp_path / f"states_{k}.{ext}").read_bytes())
        .hexdigest()
        for k in range(1, len(want) + 1)
    ]
    assert got == want
    assert not (tmp_path / f"states_{len(want) + 1}.{ext}").exists()


def _bad_import_files(tmp_path):
    """name -> path of a file that from_json_dict must refuse: a top level
    that is not an object, and zero denominators or a coefficient that is
    not a string in lowering and scp."""
    d = tmp_path / "out"
    assert cli.main(["-su", "3", "--decompose", "10x01", "--dump", str(d)]) == 0
    good = json.loads((d / "irrep_1.json").read_text())
    docs = {"list": []}
    for name, coeff in [("zero", "(1)/(0)"), ("cancel", "(1)/(1-1)"),
                        ("number", 1)]:
        doc = json.loads(json.dumps(good))
        doc["lowering"][0][2][0][0] = coeff
        docs[f"lowering-{name}"] = doc
        doc = json.loads(json.dumps(good))
        doc["scp"][0][2] = coeff
        docs[f"scp-{name}"] = doc
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("how", ["import", "factor", "script"])
def test_malformed_import_file_exits_1(capsys, tmp_path, monkeypatch, how):
    # relative names
    paths = {k: p.name for k, p in _bad_import_files(tmp_path).items()}
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert len(paths) == 7
    for name, path in paths.items():
        if how == "import":
            argv = ["-su", "3", "--import", path]
        elif how == "factor":
            argv = ["-su", "3", "--decompose", f"@{path} x 10"]
        else:
            script = tmp_path / "imp.lie"
            script.write_text(f"algebra su 3\nimport r {path}\n")
            argv = ["--script", str(script)]
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == "", (name, err)
        assert path in err and "Traceback" not in err, name
        if how == "script":
            assert "imp.lie:2" in err
        want = {"list": "not a JSON object", "number": "is not a string"}
        assert want.get(name.split("-")[-1], "divides by zero") in err, err


def _repeated_entry_files(tmp_path):
    """name -> (path, error) of a file that repeats one entry of a dumped
    SU(3) irrep of 8 x 8, the bogus copy ahead of the true one, so a read
    that kept the last copy would pass every check; and one whose lowering
    row names a target twice, which a read that summed the row would pass
    too."""
    d = tmp_path / "out"
    assert cli.main(["-su", "3", "--decompose", "11x11", "--dump", str(d)]) == 0
    dumped = {k: (d / f"irrep_{k}.json").read_text() for k in (1, 2)}
    ten, big = json.loads(dumped[2]), json.loads(dumped[1])  # 10 and 27
    assert [len(ten["kets"]), len(big["kets"])] == [10, 27]
    state, root, terms = ten["lowering"][0]
    ten["lowering"].insert(0, [state, root, [["7/3", t] for _, t in terms]])
    lowering = f"lowering of state {state} by root {root} is listed twice"
    a, b, _ = big["scp"][0]
    big["scp"].insert(0, [a, b, "5/7"])
    scp = f"scalar product ({a},{b}) is listed twice"
    kets = json.loads(dumped[2])
    assert kets["kets"][1][0] == 2
    kets["kets"].insert(1, [2, [5, 5], 1])
    target = json.loads(dumped[2])
    state, root, terms = target["lowering"][0]
    ((_, t),) = terms
    target["lowering"][0][2] = terms + [["0", t]]
    docs = {
        "lowering": (ten, lowering),
        "scp": (big, scp),
        "ket": (kets, "ket 2 is listed twice"),
        "target": (target, f"lowering of state {state} by root {root} "
                           f"names state {t} twice"),
    }
    paths = {}
    for name, (doc, err) in docs.items():
        path = tmp_path / f"repeated-{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = (path, err)
    return paths


@pytest.mark.parametrize("how", ["import", "factor", "script"])
def test_repeated_entries_are_refused(capsys, tmp_path, how):
    files = _repeated_entry_files(tmp_path)
    capsys.readouterr()
    for name, (path, want) in files.items():
        if how == "import":
            argv = ["-su", "3", "--import", str(path)]
        elif how == "factor":
            argv = ["-su", "3", "--decompose", f"@{path} x 10"]
        else:
            script = tmp_path / "imp.lie"
            script.write_text(f"algebra su 3\nimport r {path}\n")
            argv = ["--script", str(script)]
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == "", (name, err)
        assert f"{path}: {want}" in err and "Traceback" not in err, name


def test_states_json_roundtrip():
    la = LieAlgebra("A", 2)
    l = new_generic_irrep(la, (1, 0))
    r = new_generic_irrep(la, (0, 1))
    d = Decomposition(l, r)
    decompose(d)
    p = d.found[0]
    doc = json.loads(cli.states_to_json(p, l, r))
    assert doc["irrep"] == {"dynkin": [1, 1], "dim": 8}
    vecs = [
        LabeledVector(
            (parse_field(t["coeff"]), (t["left"], t["right"]))
            for t in st["terms"]
        )
        for st in doc["states"]
    ]
    flat = [s for level in p.levels for s in level]
    assert vecs == flat


# ---------------------------------------------------------------- script

SU4_SCRIPT = """\
# four-fold product with the last factor pointed at an invariant direction
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
states r4
states r6
"""

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

_TERM_RE = re.compile(r'\("(-?\d+)", "([^"]+)"\)')


def parse_terms(line):
    return {tree: int(c) for c, tree in _TERM_RE.findall(line)}


def matches_up_to_global_sign(got, want):
    return got == want or got == {k: -v for k, v in want.items()}


def test_su4_script_pipeline(capsys, tmp_path):
    path = tmp_path / "su4.lie"
    path.write_text(SU4_SCRIPT)
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "is_sym tt1 1 2 = 1"
    assert lines[1] == "is_sym tt2 1 2 = -1"
    assert matches_up_to_global_sign(parse_terms(lines[2]), TT1_TERMS)
    assert matches_up_to_global_sign(parse_terms(lines[3]), TT2_TERMS)
    assert lines[4] == (
        '[(1, "(1,0,0,)1"); (2, "(-1,1,0,)1"); (3, "(0,-1,1,)1"); '
        '(4, "(0,0,-1,)1")]'
    )
    assert lines[5] == (
        '[(1, "(0,1,0,)1"); (2, "(1,-1,1,)1"); (3, "(1,0,-1,)1"); '
        '(4, "(-1,0,1,)1"); (5, "(-1,1,-1,)1"); (6, "(0,-1,0,)1")]'
    )


def test_is_sym_refuses_one_irrep_in_two_bases(capsys, tmp_path):
    # the dumped octet of 8 x 8 is the 8 in a basis of its own: swapping
    # its leaves with the generic octet's would compare unrelated
    # coefficients.  Two copies of one basis are accepted.
    d = tmp_path / "oct"
    assert cli.main(["-su", "3", "--decompose", "11x11", "--dump", str(d)]) == 0
    path = tmp_path / "bases.lie"
    path.write_text(
        "algebra su 3\nirrep r8 11\nirrep s8 11\n"
        f"import m8 {d / 'irrep_4.json'}\nimport n8 {d / 'irrep_4.json'}\n"
        "wrap a r8\nwrap a2 s8\nwrap b m8\nwrap b2 n8\n"
        "otimes q a a2 1\notimes u b b2 1\notimes p a b 1\n"
        "is_sym q 1 2\nis_sym u 1 2\nis_sym p 1 2\n"
    )
    capsys.readouterr()
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1
    assert out == "is_sym q 1 2 = 1\nis_sym u 1 2 = 1\n"
    assert err.strip().endswith(
        "bases.lie:15: is_sym: factors 1 and 2 carry the irrep (1, 1) "
        "in different bases")


def test_is_sym_refuses_a_basis_change_on_one_position(capsys, tmp_path):
    # the zero-weight block of both octets is rotated on position 2 alone:
    # swapping would compare coefficients of two bases.  The same chbasis
    # on both positions decides.
    path = tmp_path / "rotated.lie"
    path.write_text(
        "algebra su 3\nirrep r8 11\nwrap a r8\notimes q a a 1\n"
        "filter g q 1 4,5\nfilter h g 2 4,5\nvector v r8 4:1 5:1\n"
        "normalize v\nbasis tr r8 3 v\nchbasis k h 2 tr\n"
        "chbasis both k 1 tr\nis_sym both 1 2\nis_sym k 1 2\n"
    )
    capsys.readouterr()
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1
    assert out == "is_sym both 1 2 = 1\n"
    assert err.strip().endswith(
        "rotated.lie:13: is_sym: factors 1 and 2 carry the irrep (1, 1) "
        "in different bases")


def test_is_sym_refuses_one_factor_named_twice(capsys, tmp_path):
    # swapping a position with itself would print 1, or 0 on a node whose
    # states all vanish
    path = tmp_path / "twice.lie"
    path.write_text(
        "algebra su 3\nirrep r8 11\nwrap a r8\notimes q a a 1\n"
        "scale z q 0\nis_sym q 1 2\nis_sym z 2 2\n"
    )
    capsys.readouterr()
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1
    assert out == "is_sym q 1 2 = 1\n"
    assert err.strip().endswith(
        "twice.lie:7: is_sym: factor 2 is named twice: nothing to swap")


# SU(3) 8 x 8 x 8 x 8 down to the 125, the largest print of the benchmark
OCTET4_SCRIPT = """\
algebra a 2
irrep r8 11
wrap t8 r8
otimes a t8 t8 1
otimes b a t8 1
otimes c b t8 1
print c
"""
OCTET4_CHARS = 385433
OCTET4_SHA256 = "1fe2e8e3367be0cd926d0743c1a84030084734e60b16a78648f00bba47f15528"


@pytest.mark.parametrize("hashseed", ["0", "2718"])
def test_octet4_print_golden(tmp_path, hashseed):
    # a fresh interpreter per string-hash seed, so that an expansion whose
    # listing leaned on dict or set order would show
    path = tmp_path / "octet4.lie"
    path.write_text(OCTET4_SCRIPT)
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "liecg", "--script", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=pythonpath),
        timeout=600,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout) == OCTET4_CHARS
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == OCTET4_SHA256


# the README script, also printing the rotated nodes before the rescaling,
# so that radicals reach the printed coefficients
README_SU4_PRINTS = SU4_SCRIPT.split("filter f2")[0] + "print v1\nprint c1\n"

# SU(3) (3 x 8)_15 x 3 with the octet's zero-weight block rotated to the
# reserved labels -1, -2 and then scaled by a two-radical literal
CHBASIS_SCALE_SCRIPT = """\
algebra a 2
irrep r8 11
irrep r3 10
wrap t8 r8
wrap t3 r3
otimes p t3 t8 1
otimes q p t3 2
vector v r8 4:1 5:1
normalize v
basis tr r8 3 v
filter f q 2 4,5
chbasis c f 2 tr
scale s c 1+sqrt(2)
print c
print s
"""

# (characters, sha256) of the print output per script and format
PRINT_GOLDENS = {
    ("readme", "tex"): (
        1656,
        "374a9bd541f9bf0c53130c850040802ba2c77695f62e0d37ab7d7dd5c7a66eb9"),
    ("readme", "mathematica"): (
        1336,
        "4c7f5229148f404b71c9ee47aa92c00cbf6d1165831a7ed4b9464a90d2aee2db"),
    ("chbasis_scale", "tex"): (
        2712,
        "6196ad7f86c364c65ff5028cd246506cdcde949c9e278b5fd724123f3b0c8ee9"),
    ("chbasis_scale", "mathematica"): (
        1960,
        "ff6abb7312991d2dd1228bb2e4d5240ba9eb61132f28a215fa7a1be1cb5de231"),
}


@pytest.mark.parametrize("name, fmt", sorted(PRINT_GOLDENS))
def test_print_golden_formats(capsys, tmp_path, name, fmt):
    script = {"readme": README_SU4_PRINTS,
              "chbasis_scale": CHBASIS_SCALE_SCRIPT}[name]
    path = tmp_path / "s.lie"
    path.write_text(script)
    rc, out, err = run(capsys, "--script", str(path), "--format", fmt)
    assert rc == 0 and err == ""
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == \
        PRINT_GOLDENS[name, fmt]


def test_script_unknown_verb(capsys, tmp_path):
    path = tmp_path / "s.lie"
    path.write_text("algebra a 2\nirrep r 10\nwrap t r\nfrobnicate t\n")
    rc, _, err = run(capsys, "--script", str(path))
    assert rc == 1 and f"{path}:4" in err and "frobnicate" in err


def test_script_otimes_out_of_range(capsys, tmp_path):
    path = tmp_path / "s.lie"
    path.write_text("algebra a 2\nirrep r 10\nwrap t r\notimes s t t 9\n")
    rc, _, err = run(capsys, "--script", str(path))
    assert rc == 1 and "otimes" in err and "out of range" in err


def test_script_huge_irrep_fails_fast(capsys, tmp_path):
    path = tmp_path / "s.lie"
    path.write_text("algebra e8\nirrep r 11111111\n")
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "--script", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1 and out == "" and f"{path}:2" in err
    assert "1329227995784915872903807060280344576" in err
    assert str(cli.MAX_DIM) in err


@pytest.mark.parametrize("toks, la", [
    ("a 2", LieAlgebra("A", 2)), ("B 3", LieAlgebra("B", 3)),
    ("c 3", LieAlgebra("C", 3)), ("d 4", LieAlgebra("D", 4)),
    ("su 3", LieAlgebra("A", 2)), ("so 7", LieAlgebra("B", 3)),
    ("so 8", LieAlgebra("D", 4)), ("SP 6", LieAlgebra("C", 3)),
    ("e6", LieAlgebra("E6", 6)), ("E7", LieAlgebra("E7", 7)),
    ("e8", LieAlgebra("E8", 8)), ("f4", LieAlgebra("F4", 4)),
    ("g2", LieAlgebra("G2", 2)),
])
def test_script_algebra_names(toks, la):
    sc = cli._Script("plain")
    sc.v_algebra(toks.split())
    assert sc.la == la


@pytest.mark.parametrize("argv, la", [
    (["-su", "3"], LieAlgebra("A", 2)), (["-so", "7"], LieAlgebra("B", 3)),
    (["-so", "8"], LieAlgebra("D", 4)), (["-sp", "6"], LieAlgebra("C", 3)),
    (["-d", "4"], LieAlgebra("D", 4)), (["-e6"], LieAlgebra("E6", 6)),
    (["-e7"], LieAlgebra("E7", 7)), (["-e8"], LieAlgebra("E8", 8)),
    (["-f4"], LieAlgebra("F4", 4)), (["-g2"], LieAlgebra("G2", 2)),
])
def test_algebra_flags(argv, la):
    args = cli.build_parser().parse_args(argv + ["-rep", "0"])
    assert cli._algebra_from_args(args) == la


# the error texts of the script's algebra verb and of the algebra flags
@pytest.mark.parametrize("toks, msg", [
    ("", "unknown algebra ''"),
    ("x 3", "unknown algebra 'x 3'"),
    ("e9", "unknown algebra 'e9'"),
    ("a", "algebra wants a|b|c|d RANK"),
    ("B 2 3", "algebra wants a|b|c|d RANK"),
    ("e6 6", "algebra e6 takes no rank"),
    ("G2 1", "algebra g2 takes no rank"),
    ("su", "algebra wants su|so|sp SIZE"),
    ("sp 4 4", "algebra wants su|so|sp SIZE"),
    ("so 4", "SO(n) needs odd n >= 5 or even n >= 6"),
    ("su 1", "SU(n) needs n >= 2"),
    ("sp 5", "SP(n) needs even n >= 4"),
    ("c 1", "family C needs integer rank >= 2"),
    ("d 2", "family D needs integer rank >= 3"),
    ("a x", "RANK 'x' is not an integer"),
    ("su x", "SIZE 'x' is not an integer"),
    ("A X", "RANK 'X' is not an integer"),
])
def test_script_algebra_errors(capsys, tmp_path, toks, msg):
    path = tmp_path / "s.lie"
    path.write_text(f"algebra {toks}\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert err == f"lie: error: {path}:1: algebra: {msg}\n"


@pytest.mark.parametrize("argv, msg", [
    (["-su", "1"], "SU(n) needs n >= 2"),
    (["-so", "4"], "SO(n) needs odd n >= 5 or even n >= 6"),
    (["-so", "0"], "SO(n) needs odd n >= 5 or even n >= 6"),
    (["-sp", "5"], "SP(n) needs even n >= 4"),
    (["-d", "2"], "family D needs integer rank >= 3"),
    (["-d", "0"], "family D needs integer rank >= 3"),
    (["-su", "3", "-d", "4"], "exactly one algebra flag is required"),
    (["-e6", "-g2"], "exactly one algebra flag is required"),
    (["-su", "0", "-e8"], "exactly one algebra flag is required"),
])
def test_algebra_flag_errors(capsys, argv, msg):
    rc, out, err = run(capsys, *argv, "-rep", "1")
    assert rc == 1 and out == ""
    assert err.splitlines()[0] == f"lie: error: {msg}"


@pytest.mark.parametrize(
    "verb", sorted(v[2:] for v in dir(cli._Script) if v.startswith("v_")))
def test_script_verb_without_arguments(capsys, tmp_path, verb):
    path = tmp_path / "s.lie"
    path.write_text(f"algebra a 2\n{verb}\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert f"{path}:2: {verb}: " in err
    assert "Traceback" not in err


def test_script_signatures_are_the_readme_verbs():
    # every verb but algebra, which checks its own arguments, has its
    # README line as its signature
    verbs = {v[2:] for v in dir(cli._Script) if v.startswith("v_")}
    assert set(cli._SIGNATURES) == verbs - {"algebra"}
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        readme = fh.read()
    for verb, sig in cli._SIGNATURES.items():
        assert re.search(rf"^{verb} {re.escape(sig)}  ", readme, re.M), verb


def _wrong_arities():
    # one argument too few and, unless the last is a list, one too many
    for verb, sig in cli._SIGNATURES.items():
        n = len(sig.split())
        if sig.endswith("..."):
            yield verb, n - 2
        else:
            yield verb, n - 1
            yield verb, n + 1


@pytest.mark.parametrize("verb, n", list(_wrong_arities()))
def test_script_verb_with_wrong_arity(capsys, tmp_path, verb, n):
    path = tmp_path / "s.lie"
    args = "".join(f" x{i}" for i in range(n))
    path.write_text(f"algebra a 2\n{verb}{args}\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert err == (f"lie: error: {path}:2: {verb}: {verb} wants "
                   f"{cli._SIGNATURES[verb]}\n")


@pytest.mark.parametrize("labels, token", [
    ("1,,2", ""), ("1,x", "x"), ("2,", ""), ("1.5", "1.5")])
def test_script_filter_names_the_bad_label(capsys, tmp_path, labels, token):
    path = tmp_path / "s.lie"
    path.write_text(f"algebra a 2\nirrep r 11\nwrap n r\nfilter f n 1 {labels}\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert err == (f"lie: error: {path}:4: filter: label {token!r} in "
                   f"{labels!r} is not an integer\n")


def test_script_refuses_json_before_it_runs(capsys, tmp_path):
    # the first statement would fail if the script ran: the refusal of
    # the format comes first, with the usage text
    path = tmp_path / "s.lie"
    path.write_text("nonsense\nalgebra a 2\nirrep r 11\nwrap n r\nprint n\n")
    rc, out, err = run(capsys, "--script", str(path), "--format", "json")
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert lines[0] == ("lie: error: --script prints plain, tex or "
                        "mathematica, not json")
    assert lines[1].startswith("usage: lie")


@pytest.mark.parametrize("use", ["normalize v", "basis b r 3 v"])
def test_script_vector_label_outside_irrep(capsys, tmp_path, use):
    path = tmp_path / "s.lie"
    path.write_text(f"algebra a 2\nirrep r 11\nvector v r 99:1\n{use}\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert f"{path}:3: vector: no state labeled 99 in r" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lines, message", [
    (["print nope"], "2: print: unknown node 'nope'"),
    (["irrep r 11", "vector v r 4"],
     "3: vector: vector term '4' is not LABEL:COEFF"),
    (["irrep r 11", "irrep s 10", "vector v s 1:1", "basis b r 3 v"],
     "5: basis: vector 'v' belongs to another irrep"),
    (["irrep r 11", "basis b r 4"],
     "3: basis: offset 4 is not the start of a degenerate block"),
    (["irrep r 11", "basis b r 8"], "3: basis: no state 9 in r"),
    (["irrep r 11", "vector u r 4:1", "vector v r 4:2", "basis b r 3 u v"],
     "5: basis: seed 'v' is zero or a combination of the seeds before it"),
    (["irrep r 11", "vector u r 4:0", "basis b r 3 u"],
     "4: basis: seed 'u' is zero or a combination of the seeds before it"),
    (["irrep r 11", "vector u r 4:1", "basis b r 3 u u u"],
     "4: basis: 3 seeds for the 2 states of the block at state 4"),
    (["irrep r 11", "wrap t r", "otimes p t t x"],
     "4: otimes: K 'x' is not an integer"),
    (["irrep r 11", "wrap t r", "filter f t one 1"],
     "4: filter: FACTOR 'one' is not an integer"),
    (["irrep r 11", "wrap t r", "chbasis c t one tr"],
     "4: chbasis: FACTOR 'one' is not an integer"),
    (["irrep r 11", "wrap t r", "otimes p t t 1", "is_sym p one 2"],
     "5: is_sym: F1 'one' is not an integer"),
    (["irrep r 11", "wrap t r", "otimes p t t 1", "is_sym p 1 2.0"],
     "5: is_sym: F2 '2.0' is not an integer"),
    (["irrep r 11", "basis b r x"], "3: basis: OFFSET 'x' is not an integer"),
    (["irrep r 11", "vector v r x:1"],
     "3: vector: label 'x' in 'x:1' is not an integer"),
], ids=["print-unknown-node", "vector-term-without-colon",
        "basis-seed-of-another-irrep", "basis-offset-inside-a-block",
        "basis-offset-past-the-irrep", "basis-dependent-seeds",
        "basis-zero-seed", "basis-more-seeds-than-states", "otimes-k",
        "filter-factor", "chbasis-factor", "is_sym-f1", "is_sym-f2",
        "basis-offset", "vector-label"])
def test_script_refusals(capsys, tmp_path, lines, message):
    path = tmp_path / "s.lie"
    path.write_text("\n".join(["algebra su 3", *lines]) + "\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert err.splitlines() == [f"lie: error: {path}:{message}"]


def test_script_basis_completes_independent_seeds(capsys, tmp_path):
    # s1 and s2 are independent but not orthogonal in the three-state
    # zero-weight block of the SU(4) 15; the seeds keep the labels -1, -2
    path = tmp_path / "s.lie"
    path.write_text("algebra a 3\nirrep r15 101\nvector s1 r15 7:1\n"
                    "vector s2 r15 7:1 8:1\nbasis tr r15 6 s1 s2\n"
                    "wrap t r15\nfilter f t 1 7,8,9\nchbasis c f 1 tr\n"
                    "print c\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[6] == '7: [("1", "-1")]'
    assert lines[7] == '8: [("1", "-2"); ("-1", "-1")]'


def test_rep_with_too_many_labels(capsys):
    rc, out, err = run(capsys, "-su", "3", "-rep", "1,2,3")
    assert rc == 1 and out == ""
    assert err.splitlines()[0] == (
        "lie: error: expected 2 non-negative Dynkin labels, got '1,2,3'")


def test_script_chbasis_missing_label_names_its_line(capsys, tmp_path):
    # the transformation covers label 4 only; the chbasis line, not the
    # print that reads the node, reports the missing label 1
    path = tmp_path / "s.lie"
    path.write_text("algebra su 3\nirrep r8 11\nwrap t r8\n"
                    "vector v r8 4:1\nbasis tr r8 3 v\n"
                    "chbasis c t 1 tr\nprint c\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert (f"{path}:6: chbasis: label 1 at factor 1 has no image in the "
            "basis transformation") in err
    assert "Traceback" not in err


def test_script_filter_refuses_a_label_its_factor_lacks(capsys, tmp_path):
    # the triplet has states 1..3: label 99 would keep nothing and print
    # 15 empty states as if the couplings vanished
    path = tmp_path / "s.lie"
    path.write_text("algebra su 3\nirrep r8 11\nirrep r3 10\nwrap t8 r8\n"
                    "wrap t3 r3\notimes p t8 t3 1\nfilter f p 2 99\n"
                    "print f\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert (f"{path}:7: filter: label 99 is not a state of factor 2 "
            "(dimension 3)") in err
    assert "Traceback" not in err


def test_script_filter_refuses_a_reserved_label_no_chbasis_made(capsys,
                                                                 tmp_path):
    # the basis change of the octet's zero-weight block introduces -1 and
    # -2 at factor 2; -7 would keep nothing and print 15 empty states
    path = tmp_path / "s.lie"
    head = ("algebra a 2\nirrep r3 10\nirrep r8 11\nwrap t3 r3\n"
            "wrap t8 r8\notimes g0 t3 t8 1\nvector v r8 4:1\nnormalize v\n"
            "basis tr r8 3 v\nfilter fz g0 2 4,5\nchbasis c fz 2 tr\n")
    path.write_text(head + "filter g c 2 -7\nprint g\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert (f"{path}:12: filter: label -7 is not a reserved label of "
            "factor 2") in err
    assert "Traceback" not in err
    # before the basis change no reserved label exists; after it, the
    # labels it introduced are kept at their factor only
    for line, bad in [("filter g fz 2 -1", -1), ("filter g c 1 -1", -1)]:
        path.write_text(head + line + "\nprint g\n")
        rc, out, err = run(capsys, "--script", str(path))
        assert rc == 1 and out == ""
        assert f"label {bad} is not a reserved label of factor" in err
    path.write_text(head + "filter g c 2 -1,-2\nprint g\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 0 and err == ""
    assert out.count("\n") == 15 and "-1)" in out


def test_script_normalize_zero_vector(capsys, tmp_path):
    path = tmp_path / "s.lie"
    path.write_text("algebra a 2\nirrep r8 11\nvector v r8 1:0\nnormalize v\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert f"{path}:4: normalize: vector 'v' has norm 0" in err
    assert "Traceback" not in err



def test_script_normalize_huge_radicand_fails_fast(tmp_path):
    # the norm of v is 1 + c*c with a 31-digit c: factoring it would not
    # finish, so normalize refuses it
    path = tmp_path / "s.lie"
    path.write_text("algebra a 2\nirrep r 10\n"
                    "vector v r 1:1000000000000000000000000000057 2:1\n"
                    "normalize v\n")
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "liecg", "--script", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=30,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert f"{path}:4: normalize: square root of " in proc.stderr
    assert "radicand exceeds" in proc.stderr
    assert "Traceback" not in proc.stderr

@pytest.mark.parametrize("coeff", ["1/0", "(1)/(0)"])
def test_script_coefficient_divides_by_zero(capsys, tmp_path, coeff):
    path = tmp_path / "s.lie"
    path.write_text(
        f"algebra a 2\nirrep r 10\nwrap t r\nscale s t {coeff}\nprint s\n"
    )
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert f"{path}:4: scale: coefficient '{coeff}' divides by zero" in err
    assert "Traceback" not in err


def test_script_needs_algebra_first(capsys, tmp_path):
    path = tmp_path / "s.lie"
    path.write_text("irrep r 10\n")
    rc, _, err = run(capsys, "--script", str(path))
    assert rc == 1 and "no algebra" in err


def test_empty_script(capsys, tmp_path):
    path = tmp_path / "s.lie"
    path.write_text("\n# only a comment\n\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 0 and out == "" and err == ""


def test_script_mixed_with_flags(capsys, tmp_path):
    path = tmp_path / "s.lie"
    path.write_text("algebra a 2\n")
    rc, _, err = run(capsys, "--script", str(path), "-rep", "11")
    assert rc == 1 and "usage:" in err


# ----------------------------------------------------------- entry point

def test_python_m_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "liecg", "-su", "3", "-rep", "11"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == SU3_OCTET_LISTING


def test_closed_stdout_pipe_exits_quietly():
    # the reader takes one line of the 2 MB E8 30380 listing and closes the
    # pipe; the rest of the write fails with EPIPE
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "liecg", "-e8", "-rep", "00000100",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_listing_is_byte_stable():
    a = cli.weight_listing(LieAlgebra("G2", 2), (1, 0))
    b = cli.weight_listing(LieAlgebra("G2", 2), (1, 0))
    assert a == b and a.count("\n") == 5 + 6  # header + 7 weights - 1
