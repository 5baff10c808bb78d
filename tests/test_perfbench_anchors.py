"""The benchmark jobs whose arithmetic runs through the integer descent,
search and prepare, checked against perfbench/refs.json: the set-up
fixture (SU(3) 8x8 dumped), the decompose anchors F4 52x52 and imported
SU(3) 27x27, and the export group of the imported 27x8 in every format.
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


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_export_imported_27x8_matches_reference(workdir, monkeypatch, fmt):
    monkeypatch.chdir(workdir)
    (workdir / "out").mkdir(exist_ok=True)
    jobs = workloads.export_group(3, fmt)
    assert jobs[0]["argv"][3] == f"@{workloads.SU3_27} x 11"
    for job in jobs:
        run_checked(job)
