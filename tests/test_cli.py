"""Command-line behavior: transcripts, exit codes, dumps, scripts."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

from liecg import cli
from liecg.liealg import LieAlgebra

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


def test_rank_one_label_above_nine(capsys):
    rc, out, _ = run(capsys, "-su", "2", "-rep", "11")
    assert rc == 0
    assert "Highest weight:   (11)" in out
    assert "Dim. of irrep :   12" in out


def test_weights_json_roundtrip():
    la = LieAlgebra("A", 2)
    emitted = cli.weights_to_json(la, (1, 1))
    la2, hw2, recs = cli.weights_from_json(emitted)
    assert la2 == la and hw2 == (1, 1)
    assert recs == json.loads(emitted)["weights"]
    assert recs[3] == {
        "label": 4,
        "level": 2,
        "deg": 2,
        "dynkin": [0, 0],
        "lowest_root": 0,
        "descent": [1, 1],
    }


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


def test_dump_singlet_absent(capsys, tmp_path):
    rc, _, err = run(capsys, "-su", "3", "--decompose", "10x10",
                     "--dump-singlet", str(tmp_path / "s.txt"))
    assert rc == 1 and "no singlet" in err


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


def test_import_sum_rule_error_names_irrep_state_and_root(capsys, tmp_path):
    # the octet's zero-weight states 4 and 5 overlap by 1/2; claiming 1
    # breaks the sum rule at state 4 first
    d = tmp_path / "out"
    run(capsys, "-su", "3", "--decompose", "10x01", "--dump", str(d))
    doc = json.loads((d / "irrep_1.json").read_text())
    assert doc["scp"] == [[4, 5, "1/2"]]
    doc["scp"] = [[4, 5, "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "-su", "3", "--import", str(bad))
    assert rc == 1 and out == ""
    assert (
        f"lie: error: {bad}: SU(3) irrep (1, 1): string sum rule fails at "
        "state 4 of weight (0, 0), root 1: 1/2 != 2\n"
    ) in err


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


# sha256 of every irrep_K.json of three dumps, K = 1, 2, ...; the G2 one has
# sqrt(3) classes, the last one an imported factor (the first dump's 27)
DUMP_GOLDENS = {
    "su3-8-8": ("11x11", [
        "ac086551d6ddf274c06741124317461fbebab7c83367ea39c8565edaeaa48826",
        "3694750427c34042fba69661a229104c0a8ea07a8b124f2ff00e59baac364cce",
        "2f309eef9df423de32415e93d3a279b717a65769da9852b110c337c1ab6c8b30",
        "e078d21dcdceb1a3d2d6c07311740bb0b5e2508a7d84e4216f3dccfbed7c3740",
        "7d61817022982524cff97f7fb9d30a8b2d68a65b9334f65ac9781d3f22fe0d5e",
        "50d38b16a427c08796745c13ead2deab3b01699559ad5f33c9930b6ae31e6936",
    ]),
    "g2-14-14": ("01x01", [
        "23beb477a8fa95d2cecb37bbdb982527faf1710d977985291239d799e464ccf8",
        "375aa9e1d659e318b7abca0289d9eafbc7a2a77f4fcba2e39f00c603722730e7",
        "5fc14d1b09d5f5eae07ca6b267e2e3813646f6eeaa2f8b73033ded63c41724ee",
        "d464846739ce7c61b97377b476a00dc40b57a4e857c1c6f65ca9130d492afd52",
        "d33b7d00e93934c37d89cc1a415481704c74d92ded1327b8dee8c3ad1a7396a0",
    ]),
    "su3-27-8": ("@su3-8-8/irrep_1.json x 11", [
        "b395a2ff5170e04334a635af105ba7d7000e841035758d288caef0dfc1d79950",
        "e9c14436f07dd1badbe34eaa5d8656066e10382f08eecb72fbf036406967a936",
        "730bbf596784737a913ee515d462a6412d3f18eeda98b067a57e4246183e2507",
        "246a7358b4fdafb3f0be9bda52ba1b70900a7ef5a1f3e556c2ca4cfc6847848a",
        "6e6d97783b3ddf9c9468f7502ccee8e43c00394fdab4c3c82ff601c5982ab85c",
        "3694750427c34042fba69661a229104c0a8ea07a8b124f2ff00e59baac364cce",
        "4130a6dd1da1111a1a373efbe255310ead7fc2004427c9847a71a772dc2b66ae",
        "c5f814b21aa71d1e6c2f1e27c0b2f706508eb13b2d423f480fc311247d04282b",
    ]),
}


def test_dump_goldens(capsys, tmp_path, monkeypatch):
    # relative names without an 'x', at which --decompose splits
    monkeypatch.chdir(tmp_path)
    for name, (spec, want) in DUMP_GOLDENS.items():
        algebra = ["-g2"] if name.startswith("g2") else ["-su", "3"]
        rc, _, err = run(capsys, *algebra, "--decompose", spec, "--dump", name)
        assert rc == 0 and err == ""
        got = [
            hashlib.sha256((tmp_path / name / f"irrep_{k}.json").read_bytes())
            .hexdigest()
            for k in range(1, len(want) + 1)
        ]
        assert got == want, name
        assert not (tmp_path / name / f"irrep_{len(want) + 1}.json").exists()


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
    # relative names: --decompose splits its argument at every 'x'
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


def test_states_json_roundtrip():
    from liecg.irrep import new_generic_irrep
    from liecg.tensor import Decomposition, decompose

    la = LieAlgebra("A", 2)
    l = new_generic_irrep(la, (1, 0))
    r = new_generic_irrep(la, (0, 1))
    d = Decomposition(l, r)
    decompose(d)
    p = d.found[0]
    doc, vecs = cli.states_from_json(cli.states_to_json(p, l, r))
    assert doc["irrep"] == {"dynkin": [1, 1], "dim": 8}
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


def test_script_normalize_zero_vector(capsys, tmp_path):
    path = tmp_path / "s.lie"
    path.write_text("algebra a 2\nirrep r8 11\nvector v r8 1:0\nnormalize v\n")
    rc, out, err = run(capsys, "--script", str(path))
    assert rc == 1 and out == ""
    assert f"{path}:4: normalize: vector 'v' has norm 0" in err
    assert "Traceback" not in err


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


def test_listing_is_byte_stable():
    a = cli.weight_listing(LieAlgebra("G2", 2), (1, 0))
    b = cli.weight_listing(LieAlgebra("G2", 2), (1, 0))
    assert a == b and a.count("\n") == 5 + 6  # header + 7 weights - 1
