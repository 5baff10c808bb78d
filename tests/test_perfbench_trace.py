"""What the benchmark's traced runs read of liecg: the wrappers of
perfbench/tracing.py around one small job, and the exact-arithmetic probe of
perfbench/passrun.py on coefficients of every shape.  A change to a traced
function or to FieldElem that would break `perfbench/run.py --trace 1`
fails here."""

import contextlib
import io
import sys
from pathlib import Path

import liecg
import liecg.exactnum
import liecg.multitensor as mt
from liecg import cli
from liecg.exactnum import parse_field
from liecg.irrep import new_generic_irrep
from liecg.liealg import LieAlgebra

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import passrun  # noqa: E402
import tracing  # noqa: E402


def test_traced_job_records_spans_and_restores(tmp_path):
    parse_field = liecg.exactnum.parse_field
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert liecg.exactnum.parse_field is not parse_field
        tracer.job = 0
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["-su", "3", "--decompose", "10x01",
                           "--dump", str(tmp_path / "out")])
    finally:
        tracing.uninstall(undo)
    assert rc == 0
    assert liecg.exactnum.parse_field is parse_field
    assert liecg.parse_field is parse_field
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    prof = tracing.Profile(str(path))
    for name in ("cli.main", "tensor.decompose", "tensor.prepare"):
        assert prof.calls.get(name), name
    coeffs = passrun.irrep_coeffs(str(tmp_path / "out" / "irrep_1.json"))
    assert coeffs and passrun.check_roundtrip(parse_field, coeffs) == []


def test_traced_import_sweeps_every_state(tmp_path):
    # an import job of the export workload: perfbench/run.py reads
    # irrep.consistency_s off this span and irrep.consistency_states off
    # its count, which is every state of the 27
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["-su", "3", "--decompose", "11x11",
                         "--dump", str(out)]) == 0
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        tracer.job = 0
        with contextlib.redirect_stdout(io.StringIO()) as text:
            rc = cli.main(["-su", "3", "--import", str(out / "irrep_1.json")])
    finally:
        tracing.uninstall(undo)
    assert rc == 0 and "Consistency   :   OK" in text.getvalue()
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    prof = tracing.Profile(str(path))
    assert prof.calls.get("irrep.Irrep.check_consistency") == 1
    assert prof.counts["irrep.consistency_states"] == 27


PRINT_SCRIPT = """\
algebra a 2
irrep r8 11
irrep r3 10
wrap t8 r8
wrap t3 r3
otimes p t3 t8 1
otimes q p t8 2
filter f q 2 4,5,6
scale s f 1+sqrt(2)
print q
print s
"""


def test_traced_script_prints_every_term(tmp_path):
    path = tmp_path / "s.lie"
    path.write_text(PRINT_SCRIPT)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["--script", str(path)])
        return rc, out.getvalue()

    plain = run()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        tracer.job = 0
        traced = run()
    finally:
        tracing.uninstall(undo)
    assert traced == plain and plain[0] == 0
    # the terms the benchmark harvests are every term of both printed nodes
    la = LieAlgebra("A", 2)
    t8 = mt.wrap(new_generic_irrep(la, (1, 1)))
    t3 = mt.wrap(new_generic_irrep(la, (1, 0)))
    q = mt.otimes(mt.otimes(t3, t8, 1), t8, 2)
    s = mt.scale(mt.filter_factor(q, 2, [4, 5, 6]), parse_field("1+sqrt(2)"))
    want = sum(len(mt.expand(n, lab)) for n in (q, s) for lab in n.irrep.kets)
    assert want > 100
    assert len(passrun.TREE_TERM.findall(traced[1])) == want
    trace = tmp_path / "trace.jsonl"
    tracer.write_jsonl(trace)
    assert tracing.Profile(str(trace)).calls.get("multitensor.untree") == 2


def test_probe_reads_every_exactnum_metric():
    coeffs = ["1", "-1/2*sqrt(3)", "1/3*sqrt(6)", "1+sqrt(2)",
              "(1)/(1+sqrt(2))", "2/3-1/5*sqrt(10)"]
    got = passrun.probe(liecg.exactnum, coeffs)
    assert set(got) == {"mul_us", "add_us", "div_us", "sqrt_us", "parse_us",
                        "single_term_ratio", "max_coeff_bits"}
    assert got["single_term_ratio"] == 0.5
    assert got["max_coeff_bits"] == 4  # the radicand 10
    for key in ("mul_us", "add_us", "div_us", "sqrt_us", "parse_us"):
        assert got[key] > 0, key
    assert passrun.check_roundtrip(liecg.exactnum.parse_field, coeffs) == []
