"""Seeded job lists for the four benchmark workloads.

A job is one argv for ``liecg.cli.main`` plus the script files it reads.
Every workload is a fixed set of anchor jobs plus jobs drawn by the seed
from a fixed pool.  Pool entries were picked inside a narrow cost band, so
a pass costs about the same under any seed; the seed changes which inputs
the program sees, not how much work they are.  The anchors run last, in a
fixed order, so the peak memory of a pass does not depend on the seed, and
the small drawn jobs run before the anchors fill the heap.

All paths in argv are relative to the run's work directory:
``inputs/`` holds the imported-factor fixtures made at set-up, ``out/`` the
dumps of the current pass and ``scripts/`` the script files.
"""

import hashlib
import json
import random

WORKLOADS = ("decompose", "export", "multiproduct", "weights")
DEFAULT_SEED = 0
FORMATS = ("plain", "tex", "mathematica", "json")
# file extension of the dumped state tables, per format
EXT = {"plain": "txt", "tex": "tex", "mathematica": "m", "json": "json"}

# The SU(3) 27 = (2,2) is degenerate, so it cannot be built from scratch:
# set-up dumps the irreps of 8 x 8 and the first one is the 27.
FIXTURE_ARGV = ["-su", "3", "--decompose", "11x11", "--dump", "inputs/su3_octets"]
SU3_27 = "inputs/su3_octets/irrep_1.json"
FIXTURE_WORKLOADS = ("decompose", "export")


def job(argv, kind, files=None, **meta):
    """A job record; its key names the exact input the program sees."""
    files = files or {}
    blob = json.dumps([argv, sorted(files.items())], sort_keys=True)
    return {
        "key": hashlib.sha256(blob.encode()).hexdigest()[:20],
        "argv": argv,
        "kind": kind,
        "files": files,
        **meta,
    }


# ------------------------------------------------------------ decompose

DECOMPOSE_ANCHORS = (
    ["-e7", "--decompose", "0000010x0000010"],  # 56 x 56, 4 irreps
    ["-f4", "--decompose", "0001x0001"],  # adjoint 52 x 52
    ["-su", "3", "--decompose", f"@{SU3_27} x @{SU3_27}"],  # 19 irreps
)

# mid-size products of generic irreps, 0.3-0.5 s each, all cheaper than
# the smallest anchor; the seed picks two, the order of the factors and the
# output format
DECOMPOSE_POOL = (
    ("-e6", "100000", "000010"),  # 27 x 27bar
    ("-e6", "100000", "100000"),  # 27 x 27
    ("-so", "10", "00010", "01000"),  # 16 x 45
    ("-sp", "6", "200", "200"),  # 21 x 21, adjoint
    ("-so", "7", "010", "010"),  # 21 x 21, adjoint
    ("-su", "5", "1001", "1001"),  # 24 x 24, adjoint
)


def _pool_decompose(entry, swap, fmt):
    *alg, a, b = entry
    if swap:
        a, b = b, a
    return job(alg + ["--decompose", f"{a}x{b}", "--format", fmt], "decompose")


def decompose_jobs(rng):
    jobs = [
        _pool_decompose(entry, rng.random() < 0.5, rng.choice(("plain", "json")))
        for entry in rng.sample(DECOMPOSE_POOL, 2)
    ]
    return jobs + [job(list(a), "decompose") for a in DECOMPOSE_ANCHORS]


# --------------------------------------------------------------- export

# (algebra flags, product, number of irreps in the product)
EXPORT_PAIRS = (
    (["-e6"], "100000x000010", 3),  # 27 x 27bar = 650 + 78 + 1
    (["-so", "10"], "00010x00001", 3),  # 16 x 16bar = 210 + 45 + 1
    (["-su", "4"], "101x101", 7),  # 15 x 15
    (["-su", "3"], f"@{SU3_27} x 11", 8),  # imported 27 x 8
)


def export_group(i, fmt):
    """Dump pair i in one format, then import every dumped irrep."""
    alg, spec, n = EXPORT_PAIRS[i]
    out = f"out/x{i}"
    jobs = [
        job(alg + ["--decompose", spec, "--dump", out, "--format", fmt],
            "dump", dump=out, irreps=n, ext=EXT[fmt])
    ]
    for k in range(1, n + 1):
        jobs.append(job(alg + ["--import", f"{out}/irrep_{k}.json"], "import"))
    return jobs


def export_jobs(rng):
    fmts = list(FORMATS)
    rng.shuffle(fmts)
    return [j for i, fmt in enumerate(fmts) for j in export_group(i, fmt)]


# --------------------------------------------------------- multiproduct

README_SCRIPT = """\
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
"""

# SU(3) 8 x 8 x 8 x 8 down to the 125; its print is ~385k characters
OCTET4_SCRIPT = """\
algebra a 2
irrep r8 11
wrap t8 r8
otimes a t8 t8 1
otimes b a t8 1
otimes c b t8 1
print c
"""

# algebra -> (script declaration, {labels: (dim, zero-weight block)}); the
# block (offset, size) is given for the adjoint, the only generic irrep
# with a degenerate weight
ALGEBRAS = {
    "su3": ("a 2", {"10": (3, None), "01": (3, None), "20": (6, None),
                    "11": (8, (3, 2))}),
    "su4": ("a 3", {"100": (4, None), "001": (4, None), "010": (6, None),
                    "101": (15, (6, 3))}),
    "g2": ("g2", {"10": (7, None), "01": (14, (6, 2))}),
}

# chain skeletons (algebra, factors, k of each otimes) whose scripts take
# 0.17-0.31 s and whose last node expands to 640-1200 terms
CHAIN_POOL = (
    ("su3", "20 10 11 01", "2 1 1"),
    ("su3", "11 11 10 10", "1 2 1"),
    ("su3", "11 01 20 10", "1 1 1"),
    ("su3", "10 11 20 10", "1 1 2"),
    ("su3", "11 20 01 10", "1 1 1"),
    ("su3", "10 20 20 11", "2 2 2"),
    ("su3", "10 01 20 11", "1 2 1"),
    ("su3", "20 20 11 20", "2 2 1"),
    ("su3", "10 10 11 11", "1 2 2"),
    ("su4", "010 100 100 010", "1 2 2"),
    ("su4", "100 010 001 101", "1 2 1"),
    ("su4", "010 100 101 001", "2 1 1"),
    ("su4", "001 010 001 010", "1 2 2"),
    ("g2", "01 10 01", "3 2"),
    ("g2", "10 01 01", "3 1"),
    ("g2", "10 10 01", "3 1"),
)


def chain_script(rng, alg, factors, ks):
    """One chain with random is_sym, filter and chbasis steps; prints the
    filtered node, the rotated one if any, and the last node."""
    decl, irreps = ALGEBRAS[alg]
    factors, ks = factors.split(), ks.split()
    lines = [f"algebra {decl}"]
    for lab in sorted(set(factors)):
        lines += [f"irrep r{lab} {lab}", f"wrap w{lab} r{lab}"]
    node = f"w{factors[0]}"
    for i, (lab, k) in enumerate(zip(factors[1:], ks), 2):
        lines.append(f"otimes n{i} {node} w{lab} {k}")
        node = f"n{i}"
    top = node
    prints = []
    pairs = [
        (i, j)
        for i in range(len(factors))
        for j in range(i + 1, len(factors))
        if factors[i] == factors[j]
    ]
    if pairs and rng.random() < 0.7:
        i, j = rng.choice(pairs)
        lines.append(f"is_sym {top} {i + 1} {j + 1}")
    pos = rng.randrange(len(factors))
    dim = irreps[factors[pos]][0]
    keep = sorted(rng.sample(range(1, dim + 1), max(1, dim // 2)))
    lines.append(f"filter fl {top} {pos + 1} {','.join(map(str, keep))}")
    prints.append("fl")
    adj = [p for p, lab in enumerate(factors) if irreps[lab][1]]
    if adj and rng.random() < 0.6:
        pos = rng.choice(adj)
        lab = factors[pos]
        offset, size = irreps[lab][1]
        block = range(offset + 1, offset + size + 1)
        if alg == "g2":
            # G2 zero-weight states overlap by sqrt(3)/2; a single label
            # keeps the norm a rational square
            terms = [f"{rng.choice(block)}:1"]
        else:
            terms = [f"{b}:{rng.choice((1, 2, -1, 3))}" for b in block]
        lines += [
            f"vector v r{lab} {' '.join(terms)}",
            "normalize v",
            f"basis tr r{lab} {offset} v",
            f"filter fb {top} {pos + 1} {','.join(map(str, block))}",
            f"chbasis cb fb {pos + 1} tr",
            f"filter vb cb {pos + 1} -1",
        ]
        prints.append("vb")
    # the last node is always printed, so the printed terms per script stay
    # within the pool's band
    prints.append(top)
    lines += [f"print {p}" for p in prints]
    return "\n".join(lines) + "\n"


def script_job(name, text):
    path = f"scripts/{name}.lie"
    return job(["--script", path], "script", {path: text})


def multiproduct_jobs(rng):
    jobs = []
    for alg in ALGEBRAS:
        entries = [e for e in CHAIN_POOL if e[0] == alg]
        for n, entry in enumerate(rng.sample(entries, 3)):
            jobs.append(script_job(f"{alg}_{n}", chain_script(rng, *entry)))
    return jobs + [script_job("readme_su4", README_SCRIPT),
                   script_job("octet4", OCTET4_SCRIPT)]


# -------------------------------------------------------------- weights

WEIGHTS_ANCHORS = (
    ["-e8", "-rep", "10000000"],  # 3875
    ["-e8", "-rep", "00000020"],  # 27000
    ["-e8", "-rep", "00000100", "--format", "json"],  # 30380
)

# one listing per family, the format fixed per family.  Where the Dynkin
# diagram has a symmetry the seed picks one of the images (conjugates, or
# triality for D4); those listings are the cheapest, and the median job is
# one of the fixed SO(7) and E7 listings between them and the rest.
WEIGHTS_POOL = (
    (["-g2"], ("22",), "json"),
    (["-sp", "6"], ("021",), "plain"),
    (["-su", "5"], ("0210", "0120"), "plain"),
    (["-so", "8"], ("1000", "0010", "0001"), "json"),
    (["-e6"], ("100000", "000010"), "plain"),
    (["-so", "7"], ("030",), "json"),
    (["-e7"], ("1000000",), "json"),
    (["-f4"], ("1001",), "plain"),
    (["-e8"], ("00000010",), "plain"),
)


def _listing(alg, labels, fmt):
    argv = alg + ["-rep", labels]
    if fmt == "json":
        argv += ["--format", "json"]
    return job(argv, "weights")


def weights_jobs(rng):
    jobs = [_listing(alg, rng.choice(labels), fmt)
            for alg, labels, fmt in WEIGHTS_POOL]
    return jobs + [job(list(a), "weights") for a in WEIGHTS_ANCHORS]


# ---------------------------------------------------------------- entry

_MAKERS = {
    "decompose": decompose_jobs,
    "export": export_jobs,
    "multiproduct": multiproduct_jobs,
    "weights": weights_jobs,
}


def make_jobs(workload, seed):
    """The job list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng)


# one small job per workload, for the quick mode
QUICK_JOBS = {
    "decompose": lambda: [job(["-su", "3", "--decompose", f"@{SU3_27} x 10"],
                              "decompose")],
    "export": lambda: export_group(1, "plain"),
    "multiproduct": lambda: [script_job(
        "quick", chain_script(random.Random(DEFAULT_SEED), *CHAIN_POOL[0]))],
    "weights": lambda: [job(["-e6", "-rep", "100000"], "weights")],
}


def quick_jobs(workload):
    return QUICK_JOBS[workload]()


def pool_jobs(workload):
    """Every job the seed can draw, for workloads with a finite pool.

    Reference checksums are stored for all of them, so any seed is checked
    against references; multiproduct scripts vary too much for that and
    are covered by their anchors and the default seed.
    """
    if workload == "decompose":
        jobs = [job(list(a), "decompose") for a in DECOMPOSE_ANCHORS]
        for entry in DECOMPOSE_POOL:
            for swap in (False, True):
                for fmt in ("plain", "json"):
                    jobs.append(_pool_decompose(entry, swap, fmt))
        return jobs
    if workload == "export":
        return [j for i in range(len(EXPORT_PAIRS)) for f in FORMATS
                for j in export_group(i, f)]
    if workload == "weights":
        jobs = [job(list(a), "weights") for a in WEIGHTS_ANCHORS]
        for alg, labels, fmt in WEIGHTS_POOL:
            jobs.extend(_listing(alg, lab, fmt) for lab in labels)
        return jobs
    return []
