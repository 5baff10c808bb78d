"""One set-up or one pass of a workload, in a fresh interpreter.

    python3 perfbench/passrun.py SPEC.json

SPEC names the mode ("setup" or "pass"), the work directory, the liecg
source directory, the jobs and what to record; the result goes to the JSON
file SPEC names.  run.py starts one of these per set-up and per pass, so
the caches inside liecg start cold every time, as they do for a user
running ``lie``.

A pass runs its jobs one at a time through ``liecg.cli.main``.  Only the
call itself is timed, and the speed kernel runs between calls (speed.py).
Afterwards each job's stdout and dumped files are hashed, its output
items counted and, when asked, its invariants checked.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

TREE_TERM = re.compile(r'\("([^"]*)", "[^"]*"\)')


def monotonic():
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its own reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_job(cli, argv, sampler=None):
    """(seconds, exit code or error text, stdout, kernel samples) of one
    cli.main call; the seconds exclude the kernel samples taken during it."""
    out, err = io.StringIO(), io.StringIO()
    if sampler:
        sampler.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:  # the job failed; the pass goes on
        rc = f"{type(e).__name__}: {e}"
    except SystemExit as e:
        rc = f"SystemExit: {e.code}"
    dt = time.perf_counter() - t0
    samples = sampler.stop() if sampler else []
    if rc != 0 and not isinstance(rc, str):
        lines = err.getvalue().strip().splitlines() or [""]
        rc = f"exit {rc}: {lines[0][:300]}"
    return dt - sum(samples), rc, out.getvalue(), samples


def dump_files(path):
    return sorted(os.listdir(path)) if os.path.isdir(path) else []


def digest(stdout, dump_dir):
    h = hashlib.sha256(stdout.encode())
    if dump_dir:
        for name in dump_files(dump_dir):
            h.update(b"\0" + name.encode() + b"\0")
            with open(os.path.join(dump_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------- counting

def product_terms(decomps):
    """Nonzero terms over all product states of the captured decompositions."""
    return sum(len(s) for d in decomps for p in d.found
               for level in p.levels for s in level)


def irrep_coeffs(path):
    """Coefficient strings of a dumped irrep: lowering entries, then scp."""
    with open(path) as fh:
        doc = json.load(fh)
    out = [c for _, _, terms in doc["lowering"] for c, _ in terms]
    out += [v for _, _, v in doc["scp"]]
    return out


def weight_records(stdout):
    if stdout.lstrip().startswith("{"):
        return len(json.loads(stdout)["weights"])
    return sum(1 for line in stdout.splitlines() if ", Lev:" in line)


# -------------------------------------------------------------- invariants

def check_product(stdout):
    """The irrep dimensions add up to the product dimension."""
    if stdout.lstrip().startswith("{"):
        doc = json.loads(stdout)
        want = doc["left"]["dim"] * doc["right"]["dim"]
        got = [p["dim"] for p in doc["irreps"]]
    else:
        lines = stdout.splitlines()
        if "Dimensions match." not in lines:
            return ["no 'Dimensions match.' line"]
        head = next(l for l in lines if l.endswith(" = "))
        m = re.search(r"\)(\d+) x \(.*\)(\d+) = $", head)
        want = int(m.group(1)) * int(m.group(2))
        got = [int(re.match(r"\(.*\)(\d+)$", l).group(1))
               for l in lines[lines.index(head) + 1:]]
    if sum(got) != want:
        return [f"irrep dimensions {got} sum to {sum(got)}, product is {want}"]
    return []


def check_weights(stdout):
    """The Freudenthal multiplicities add up to the Weyl dimension."""
    if stdout.lstrip().startswith("{"):
        doc = json.loads(stdout)
        dim, total = doc["dim"], sum(w["deg"] for w in doc["weights"])
    else:
        dim = int(re.search(r"Dim\. of irrep\s*:\s*(\d+)", stdout).group(1))
        total = sum(int(d) for d in re.findall(r", Deg:(\d+) ", stdout))
    if dim != total:
        return [f"multiplicities sum to {total}, Weyl dimension is {dim}"]
    return []


def check_job(job, rc, stdout):
    """Invariants of one job's output; a failed job is reported by its rc."""
    if rc != 0:
        return []
    kind = job["kind"]
    if kind in ("decompose", "dump"):
        problems = check_product(stdout)
        if kind == "dump":
            n, ext = job["irreps"], job["ext"]
            names = dump_files(job["dump"])
            want = sorted([f"irrep_{k}.json" for k in range(1, n + 1)]
                          + [f"states_{k}.{ext}" for k in range(1, n + 1)])
            if names != want:
                problems.append(f"dump holds {names}, expected {n} irreps")
        return problems
    if kind == "import":
        # the CLI ran the full consistency sweep on the re-imported irrep
        if not stdout.rstrip().endswith("OK"):
            return ["import did not end with the consistency OK line"]
        return []
    if kind == "weights":
        return check_weights(stdout)
    for line in stdout.splitlines():
        if line.startswith("is_sym ") and line.split()[-1] not in ("1", "-1", "0"):
            return [f"bad is_sym line {line!r}"]
    return []


def check_roundtrip(parse_field, coeffs):
    bad = []
    for s in coeffs:
        x = parse_field(s)
        if parse_field(x.plain()) != x:
            bad.append(s)
    return [f"parse_field(x.plain()) != x for {len(bad)} coefficients, "
            f"first {bad[0]!r}"] if bad else []


# ------------------------------------------------------------------ probe

def _per_op_us(fn, items, budget=0.04):
    """Median over three rounds of the time per fn call on the items."""
    rounds = []
    for _ in range(3):
        reps, t0 = 0, time.perf_counter()
        while True:
            for a in items:
                fn(a)
            reps += 1
            dt = time.perf_counter() - t0
            if dt >= budget:
                break
        rounds.append(dt / (reps * len(items)) * 1e6)
    return statistics.median(rounds)


def probe(exactnum, coeffs, limit=1500):
    """Time exact arithmetic on the pass's own coefficients."""
    out = {k: 0.0 for k in ("mul_us", "add_us", "div_us", "sqrt_us",
                            "parse_us", "single_term_ratio")}
    out["max_coeff_bits"] = 0
    if not coeffs:
        return out
    xs = [exactnum.parse_field(s) for s in coeffs]
    one = exactnum.ONE.num.terms
    single = sum(1 for x in xs if x.den.terms == one and len(x.num.terms) == 1)
    out["single_term_ratio"] = single / len(xs)
    bits = 0
    for x in xs:
        for part in (x.num, x.den):
            for f, c in part.terms.items():
                bits = max(bits, f.bit_length(), abs(c.numerator).bit_length(),
                           c.denominator.bit_length())
    out["max_coeff_bits"] = bits
    strs = list(dict.fromkeys(coeffs))[:limit]
    vals = [exactnum.parse_field(s) for s in strs]
    pairs = list(zip(vals, vals[1:] + vals[:1]))
    squares = []
    for x in vals:
        try:
            exactnum.field_sqrt(x * x)
            squares.append(x * x)
        except exactnum.FieldSqrtError:
            pass
    out["mul_us"] = _per_op_us(lambda p: p[0] * p[1], pairs)
    out["add_us"] = _per_op_us(lambda p: p[0] + p[1], pairs)
    out["div_us"] = _per_op_us(lambda p: p[0] / p[1], pairs)
    out["sqrt_us"] = _per_op_us(exactnum.field_sqrt, squares) if squares else 0.0
    out["parse_us"] = _per_op_us(exactnum.parse_field, strs)
    return out


# ------------------------------------------------------------------ modes

def setup(spec, cli):
    """Make the imported-factor fixtures the workload needs."""
    fixture = None
    if spec["workload"] in workloads.FIXTURE_WORKLOADS:
        shutil.rmtree("inputs", ignore_errors=True)
        argv = workloads.FIXTURE_ARGV
        _, rc, stdout, _ = run_job(cli, argv)
        if rc != 0:
            raise SystemExit(f"fixture job {argv} failed: {rc}")
        fixture = digest(stdout, argv[-1])
    cal = speed.sample()
    return {"ready": monotonic() - cal - spec["cal_start"], "fixture": fixture,
            "cal": (cal + spec["cal_start"]) / 2}


def run_pass(spec, cli):
    import liecg.exactnum as exactnum

    jobs = spec["jobs"]
    shutil.rmtree("out", ignore_errors=True)
    os.makedirs("out")
    for j in jobs:
        for path, text in j["files"].items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
    tracer = undo = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
    # keep each Decomposition the CLI builds, to count its product states
    decomps = []
    real_decompose = cli.decompose

    def capture(d):
        decomps.append(d)
        return real_decompose(d)

    cli.decompose = capture
    results, coeffs = [], []
    # no kernel runs inside spans: a traced pass samples between jobs only
    sampler = None if tracer else speed.Sampler()
    for n, j in enumerate(jobs):
        if tracer:
            tracer.job = n
        dump_dir = j.get("dump")
        if dump_dir:
            shutil.rmtree(dump_dir, ignore_errors=True)
        before = speed.sample()
        dt, rc, stdout, during = run_job(cli, j["argv"], sampler)
        cal = [before] + during + [speed.sample()]
        rec = {"key": j["key"], "kind": j["kind"], "t": dt,
               "cal": sum(cal) / len(cal), "samples": len(cal),
               "rc": rc if isinstance(rc, str) else None,
               "digest": digest(stdout, dump_dir),
               "coeffs": product_terms(decomps), "weights": 0}
        decomps.clear()
        harvested = []
        if rc == 0:
            if j["kind"] == "weights":
                rec["weights"] = weight_records(stdout)
            elif j["kind"] == "script":
                harvested = TREE_TERM.findall(stdout)
            elif j["kind"] == "dump":
                for k in range(1, j["irreps"] + 1):
                    harvested += irrep_coeffs(f"{dump_dir}/irrep_{k}.json")
            rec["coeffs"] += len(harvested)
        if spec["check"]:
            rec["problems"] = check_job(j, rc, stdout)
        coeffs += harvested
        results.append(rec)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cli.decompose = real_decompose
    if tracer:
        tracing.uninstall(undo)
        tracer.write_jsonl(spec["trace_out"])
    if spec["workload"] in workloads.FIXTURE_WORKLOADS and not coeffs:
        # no dumps of its own: use the fixture dumped at set-up
        for name in dump_files(os.path.dirname(workloads.SU3_27)):
            if name.startswith("irrep_"):
                coeffs += irrep_coeffs(os.path.join(
                    os.path.dirname(workloads.SU3_27), name))
    out = {"jobs": results, "rss_mb": rss_mb}
    if spec["check"]:
        out["problems"] = check_roundtrip(exactnum.parse_field, coeffs)
    if spec["probe"]:
        cal = speed.sample()
        out["probe"] = probe(exactnum, coeffs)
        out["probe"]["cal"] = (cal + speed.sample()) / 2
    return out


def main():
    cal_start = speed.sample()
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    spec["cal_start"] = cal_start
    sys.path.insert(0, spec["src"])
    os.chdir(spec["work"])
    import liecg.cli as cli

    if spec["mode"] == "setup":
        result = setup(spec, cli)
    else:
        result = run_pass(spec, cli)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
