"""The benchmark jobs whose arithmetic runs through the integer descent,
search and prepare, checked against perfbench/refs.json: the set-up
fixture (SU(3) 8x8 dumped), the decompose anchors F4 52x52 and imported
SU(3) 27x27, and every export group (E6 27x27bar, SO(10) 16x16bar,
SU(4) 15x15 and the imported SU(3) 27x8, each in every format), so a byte
change in any dumped irrep or state table fails here first.
perfbench/workloads.py and passrun.py are imported read-only, as
test_perfbench_trace.py does, so the jobs and their digests are exactly
the benchmark's."""

import json
import shutil
import sys
from pathlib import Path

import pytest

from liecg import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import passrun  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads((ROOT / "perfbench" / "refs.json").read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A work directory holding the set-up fixture."""
    path = tmp_path_factory.mktemp("perfbench")
    mp = pytest.MonkeyPatch()
    mp.chdir(path)
    try:
        argv = workloads.FIXTURE_ARGV
        _, rc, stdout, _ = passrun.run_job(cli, argv)
        assert rc == 0, rc
        assert passrun.digest(stdout, argv[-1]) == REFS["fixture"]
    finally:
        mp.undo()
    return path


def run_checked(job):
    """Run one job as a pass does and compare its digest with the ref."""
    dump = job.get("dump")
    if dump:
        shutil.rmtree(dump, ignore_errors=True)
    _, rc, stdout, _ = passrun.run_job(cli, job["argv"])
    assert rc == 0, (job["argv"], rc)
    assert passrun.digest(stdout, dump) == REFS["jobs"][job["key"]], job["argv"]


@pytest.mark.parametrize("anchor", [1, 2], ids=["f4-52x52", "su3-27x27"])
def test_decompose_anchor_matches_reference(workdir, monkeypatch, anchor):
    monkeypatch.chdir(workdir)
    run_checked(workloads.job(list(workloads.DECOMPOSE_ANCHORS[anchor]),
                              "decompose"))


def run_export_group(workdir, monkeypatch, i, fmt):
    """Dump export pair i in one format and import every dumped irrep."""
    monkeypatch.chdir(workdir)
    (workdir / "out").mkdir(exist_ok=True)
    jobs = workloads.export_group(i, fmt)
    for job in jobs:
        run_checked(job)
    return jobs


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_export_imported_27x8_matches_reference(workdir, monkeypatch, fmt):
    jobs = run_export_group(workdir, monkeypatch, 3, fmt)
    assert jobs[0]["argv"][3] == f"@{workloads.SU3_27} x 11"


# the other export pairs, built from generic factors
GENERIC_PAIRS = {"e6-27x27bar": 0, "so10-16x16bar": 1, "su4-15x15": 2}


@pytest.mark.parametrize("fmt", workloads.FORMATS)
@pytest.mark.parametrize("pair", sorted(GENERIC_PAIRS))
def test_export_group_matches_reference(workdir, monkeypatch, pair, fmt):
    i = GENERIC_PAIRS[pair]
    assert len(workloads.EXPORT_PAIRS) == len(GENERIC_PAIRS) + 1
    jobs = run_export_group(workdir, monkeypatch, i, fmt)
    assert len(jobs) == 1 + workloads.EXPORT_PAIRS[i][2]
