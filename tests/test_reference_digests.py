"""Every benchmark job reproduces its reference output byte for byte.

Each job of ``pipebench/jobs.py`` runs at seed 0 (the shipped corpus names,
unchanged) through ``cli.main(argv + ["--json"])``; the sha256 of its
output must equal the digest stored in ``pipebench/reference.json``.  The
``tensor-power`` jobs, whose ``hh`` streams its top level, must also print
the same output when that level is stored.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hhx import cli, loday

BENCH = Path(__file__).resolve().parent.parent / "pipebench"


def load_workloads() -> dict:
    # run the file's source, so no bytecode cache is written next to it
    path = BENCH / "jobs.py"
    namespace = {"__name__": "pipebench_jobs"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["WORKLOADS"]


DIGESTS = json.loads((BENCH / "reference.json").read_text())["digests"]
JOBS = [job for jobs in load_workloads().values() for job in jobs]


@pytest.mark.parametrize("job", JOBS)
def test_job_output_matches_reference_digest(job, capsys):
    assert cli.main(job.split() + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[job]


@pytest.mark.parametrize("job", load_workloads()["tensor-power"])
def test_streamed_hh_matches_the_stored_path(job, capsys, monkeypatch):
    # hh streams its top level; with loday_complex made to store it, the
    # top differential is ranked whole and the output is the same
    assert cli.main(job.split() + ["--json"]) == 0
    streamed = capsys.readouterr().out
    build = loday.loday_complex
    stored = []

    def store(A, X, N, base=None, stream=False):
        L = build(A, X, N, base)
        stored.append(L.complex)
        return L

    monkeypatch.setattr(loday, "loday_complex", store)
    assert cli.main(job.split() + ["--json"]) == 0
    assert capsys.readouterr().out == streamed
    assert [C.stream for C in stored] == [None]
