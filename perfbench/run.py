"""Benchmark of the ``lie`` workloads: end-to-end figures, or per-layer
figures from a traced run.  Standard library only; run from the root of a
checkout:

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick          # one small job per workload
    python3 perfbench/run.py --write-refs     # re-record reference checksums

Each set-up and each pass runs in a fresh interpreter (passrun.py) with
PYTHONPATH=src, one at a time.  Passes repeat until --seconds are used up.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  A failed job, a checksum that differs from the reference or
from the first pass, or a broken invariant makes the command exit 1.
See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFS = os.path.join(HERE, "refs.json")
SETUPS = 5
CHILD_TIMEOUT = 150


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """Work directory, child processes and collected results of one run."""

    def __init__(self, root, workload, seed, jobs):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.work = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.n_spawned = 0
        self.problems = []
        self.hash_seed = seed % 2**32 if isinstance(seed, int) else 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, mode, **spec):
        """Run passrun.py on a spec; returns (start clock, end clock, result)."""
        self.n_spawned += 1
        name = f"{mode}{self.n_spawned}"
        spec.update(mode=mode, workload=self.workload, work=self.work,
                    src=self.src, result=os.path.join(self.work, name + ".json"))
        spec_path = os.path.join(self.work, name + ".spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # one hash seed per run: passes of a run lay out dicts alike, and
        # other seeds still check that the output does not depend on it
        env["PYTHONHASHSEED"] = str(self.hash_seed)
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "passrun.py"), spec_path],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        t1 = monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} process failed:\n{proc.stderr[-2000:]}")
        with open(spec["result"]) as fh:
            return t0, t1, json.load(fh)

    def setup(self, refs, count=SETUPS):
        """Set up count times; returns [(seconds, kernel seconds)] of each."""
        times, fixtures = [], set()
        for _ in range(count):
            t0, _, res = self.spawn("setup")
            # "ready" excludes the child's own two kernel samples
            times.append((res["ready"] - t0, res["cal"]))
            fixtures.add(res["fixture"])
        if len(fixtures) != 1:
            self.problems.append("set-ups wrote different fixtures")
        fixture = fixtures.pop()
        if fixture is not None and refs and fixture != refs.get("fixture"):
            self.problems.append("fixture checksum differs from the reference")
        return times

    def run_pass(self, n, traced, check, probe):
        spec = {"jobs": self.jobs, "trace": traced, "check": check,
                "probe": probe,
                "trace_out": os.path.join(self.work, f"trace{n}.jsonl")}
        t0, t1, res = self.spawn("pass", **spec)
        res["clock"] = t1 - t0
        res["traced"] = traced
        for j in res["jobs"]:
            j["adj"] = adjusted(j["t"], j["cal"])
        res["wall"] = sum(j["adj"] for j in res["jobs"])
        res["raw_wall"] = sum(j["t"] for j in res["jobs"])
        if traced:
            res["profile"] = tracing.Profile(spec["trace_out"])
            keep = os.path.join(self.root, ".perfbench_out",
                                f"trace-{self.workload}-{self.seed}.jsonl")
            os.makedirs(os.path.dirname(keep), exist_ok=True)
            shutil.copyfile(spec["trace_out"], keep)
        return res


def measure(run, seconds, trace, refs):
    """Set up, then passes until the time is used; returns (setups, passes)."""
    setups = run.setup(refs)
    passes = []
    start = monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        first = not any(p["traced"] == traced for p in passes)
        passes.append(run.run_pass(len(passes), traced,
                                   check=first and not traced,
                                   probe=first and traced))
        modes = {p["traced"] for p in passes}
        if trace and len(modes) < 2:
            continue
        est = statistics.median(p["clock"] for p in passes[-4:])
        if monotonic() - start + est > seconds:
            return setups, passes


def verify(run, passes, refs):
    """Count failed jobs: errors, broken invariants, checksum mismatches."""
    first = {}
    attempted = failed = 0
    checked = 0
    for p in passes:
        run.problems += p.get("problems", [])
        for j in p["jobs"]:
            attempted += 1
            bad = list(j.get("problems", []))
            if j["rc"]:
                bad.append(j["rc"])
            want = first.setdefault(j["key"], j["digest"])
            if j["digest"] != want:
                bad.append("output differs from the first pass")
            ref = refs.get("jobs", {}).get(j["key"])
            if ref is not None:
                checked += 1
                if j["digest"] != ref:
                    bad.append("output differs from the reference checksum")
            if bad:
                failed += 1
                run.problems.append(f"job {j['key']}: {'; '.join(bad)}")
    return attempted, failed, checked


# ----------------------------------------------------------------- metrics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def adjusted(seconds, kernel_seconds):
    """Seconds at the reference interpreter speed (speed.py)."""
    return seconds * speed.REF_S / kernel_seconds


def end_to_end(setups, passes):
    walls = [p["wall"] for p in passes]
    times = [j["adj"] for p in passes for j in p["jobs"]]
    items = sum(j["coeffs"] + j["weights"] for j in passes[0]["jobs"])
    wall = median(walls)
    m = {
        "setup_s": (median([adjusted(t, c) for t, c in setups]), "s"),
        "wall_s": (wall, "s"),
        "job_p50_s": (median(times), "s"),
        "items_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (median([p["rss_mb"] for p in passes]), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _layer(prof, probe):
    incl = prof.incl.get
    calls = prof.calls.get
    counts = prof.counts.get
    candidates = counts("tensor.descend_candidates", 0)
    searches = prof.pair_calls.get(("tensor.decompose", "tensor.descend_irrep"), 0)
    return {
        "tensor.prepare_s": (incl("tensor.prepare_with_states", 0.0), "s"),
        "linalg.gauss_s": (incl("linalg.gauss", 0.0), "s"),
        "linalg.gauss_calls": (calls("linalg.gauss", 0), "count"),
        "linalg.solve_s": (incl("linalg.solve", 0.0), "s"),
        "linalg.max_matrix_cells": (prof.maxima.get("linalg.max_matrix_cells", 0), "count"),
        "tensor.descend_s": (incl("tensor.descend_irrep", 0.0), "s"),
        "tensor.product_lower_calls": (calls("tensor.product_lower", 0), "count"),
        "tensor.descend_kept_ratio": (
            counts("tensor.descend_kept", 0) / candidates if candidates else 0.0, "ratio"),
        "tensor.decompose_self_s": (
            incl("tensor.decompose", 0.0)
            - prof.under.get(("tensor.decompose", "tensor.descend_irrep"), 0.0), "s"),
        "tensor.hw_searches": (max(0, searches - calls("tensor.decompose", 0)), "count"),
        "tensor.product_scp_calls": (calls("tensor.product_scp", 0), "count"),
        "tensor.render_s": (incl("tensor.render_states", 0.0), "s"),
        "exactnum.mul_us": (probe["mul_us"], "us"),
        "exactnum.add_us": (probe["add_us"], "us"),
        "exactnum.div_us": (probe["div_us"], "us"),
        "exactnum.sqrt_us": (probe["sqrt_us"], "us"),
        "exactnum.parse_us": (probe["parse_us"], "us"),
        "exactnum.single_term_ratio": (probe["single_term_ratio"], "ratio"),
        "exactnum.max_coeff_bits": (probe["max_coeff_bits"], "bits"),
        "liealg.freudenthal_s": (incl("liealg.freudenthal", 0.0), "s"),
        "liealg.freudenthal_calls": (calls("liealg.freudenthal", 0), "count"),
        "liealg.weyl_dim_s": (incl("liealg.weyl_dim", 0.0), "s"),
        "irrep.build_s": (incl("irrep.new_generic_irrep", 0.0), "s"),
        "irrep.import_s": (incl("irrep.new_imported_irrep", 0.0), "s"),
        "irrep.from_json_s": (incl("irrep.ImportedIrrepData.from_json", 0.0), "s"),
        "irrep.to_json_s": (incl("irrep.ImportedIrrepData.to_json", 0.0), "s"),
        "irrep.consistency_s": (incl("irrep.Irrep.check_consistency", 0.0), "s"),
        "irrep.consistency_states": (counts("irrep.consistency_states", 0), "count"),
        "multitensor.otimes_self_s": (prof.self_.get("multitensor.otimes", 0.0), "s"),
        "multitensor.expand_s": (incl("multitensor.TensorNode.expand", 0.0), "s"),
        "multitensor.expanded_terms": (counts("multitensor.expanded_terms", 0), "count"),
        "multitensor.untree_s": (incl("multitensor.untree", 0.0), "s"),
        "cli.main_self_s": (prof.self_.get("cli.main", 0.0), "s"),
        "cli.listing_s": (incl("cli.weight_listing", 0.0)
                          + incl("cli.weights_to_json", 0.0), "s"),
    }


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    probe = dict(next(p["probe"] for p in traced if "probe" in p))
    for k in ("mul_us", "add_us", "div_us", "sqrt_us", "parse_us"):
        probe[k] = adjusted(probe[k], probe["cal"])
    rows = [_layer(p["profile"], probe) for p in traced]
    m = {}
    for name, (_, unit) in rows[0].items():
        vals = [r[name][0] for r in rows]
        if unit == "s":
            # span times at the pass's own speed, adjusted like the jobs
            m[name] = (median([v * p["wall"] / p["raw_wall"]
                               for v, p in zip(vals, traced)]), unit)
        else:
            m[name] = (vals[0], unit)  # counts repeat exactly
    jobs = passes[0]["jobs"]
    m["output.coeffs"] = (sum(j["coeffs"] for j in jobs), "count")
    m["output.weight_records"] = (sum(j["weights"] for j in jobs), "count")
    m["trace.overhead_ratio"] = (
        median([p["wall"] for p in traced]) / median([p["wall"] for p in plain]) - 1,
        "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# -------------------------------------------------------------- reporting

def git_commit(root):
    """HEAD of the checkout, read without git; None outside a repository."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def source_digest(src):
    """sha256 over the liecg sources, naming the code even without git."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "liecg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def meta(root, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def job_summary(passes):
    """Sample count and p90 of the pooled job times, as the text report."""
    times = sorted(j["adj"] for p in passes for j in p["jobs"])
    n = len(times)
    line = f"job times: {n} samples over {len(passes)} passes, p50 {median(times):.4f} s"
    # p90 is shown only when at least 10 samples lie above it
    if n - int(0.9 * n) - 1 >= 10:
        line += f", p90 {times[int(0.9 * n)]:.4f} s"
    return line


def load_refs():
    try:
        with open(REFS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def benchmark(root, args):
    refs = load_refs()
    jobs = workloads.make_jobs(args.workload, args.seed)
    run = Run(root, args.workload, args.seed, jobs)
    try:
        setups, passes = measure(run, args.seconds, bool(args.trace), refs)
    finally:
        run.close()
    # a traced pass must repeat the first (untraced) pass's checksums too
    attempted, failed, checked = verify(run, passes, refs)
    metrics = per_layer(passes) if args.trace else end_to_end(setups, passes)
    info = meta(root, args)
    info.update(passes=len(passes), jobs_per_pass=len(jobs),
                jobs_checked_against_refs=checked,
                fail_ratio=failed / attempted, problems=run.problems[:20])
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-"
                           f"{args.trace}.json"), "w") as fh:
        json.dump({"meta": info, "metrics": metrics, "setups": setups,
                   "passes": [{k: v for k, v in p.items() if k != "profile"}
                              for p in passes]}, fh, indent=1)
    print(job_summary(passes))
    for problem in run.problems[:20]:
        print("problem:", problem)
    print(json.dumps(info))
    correct = not run.problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ------------------------------------------------------- quick and refs

def quick(root):
    """One small job per workload with every check, traced and untraced."""
    refs = load_refs()
    status = 0
    for w in workloads.WORKLOADS:
        run = Run(root, w, "quick", workloads.quick_jobs(w))
        try:
            run.setup(refs, count=1)
            passes = [run.run_pass(0, False, check=True, probe=False),
                      run.run_pass(1, True, check=False, probe=True)]
        finally:
            run.close()
        attempted, failed, checked = verify(run, passes, refs)
        per_layer(passes)  # the trace must be readable
        ok = not run.problems and failed == 0 and checked == attempted
        print(f"{w:13s} {'ok' if ok else 'FAILED'}  {attempted} jobs, "
              f"{checked} against references, "
              f"{sum(p['wall'] for p in passes):.2f} s")
        for problem in run.problems:
            print("  problem:", problem)
        status |= not ok
    return status


def write_refs(root):
    """Record the checksum of every job a seed can draw, and of the
    default seed's and the quick mode's jobs, from the current program."""
    refs = {"fixture": None, "jobs": {}}
    for w in workloads.WORKLOADS:
        jobs = (workloads.pool_jobs(w) + workloads.make_jobs(w, workloads.DEFAULT_SEED)
                + workloads.quick_jobs(w))
        unique = list({j["key"]: j for j in jobs}.values())
        run = Run(root, w, "refs", unique)
        try:
            _, _, res = run.spawn("setup")
            if res["fixture"]:
                refs["fixture"] = res["fixture"]
            p = run.run_pass(0, False, check=True, probe=False)
        finally:
            run.close()
        verify(run, [p], {})
        if run.problems:
            print("\n".join(run.problems))
            return 1
        refs["jobs"].update((j["key"], j["digest"]) for j in p["jobs"])
        print(f"{w}: {len(unique)} jobs recorded")
    with open(REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--write-refs", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "liecg", "__init__.py")):
        print("perfbench: run from the root of a liecg checkout "
              "(src/liecg not found)", file=sys.stderr)
        return 2
    if args.quick:
        return quick(root)
    if args.write_refs:
        return write_refs(root)
    if not args.workload:
        ap.error("--workload is required")
    return benchmark(root, args)


if __name__ == "__main__":
    sys.exit(main())
