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
from liecg import cli

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
