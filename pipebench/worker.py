"""One workload process: set up the seeded inputs, then run timed passes.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path, the
pure-Python kernel pinned (``HHX_PURE_PYTHON=1``) and a fixed hash seed.
A pass runs every job of the workload once, one after another, through
``hhx.cli.main([..., "--json"])``; each output is hashed and checked
against the reference digest.  Passes repeat until the next one would end
past the time budget.  With ``--trace 1`` the first half of the budget is
run untraced and the second half under the outside-in tracer.

A fixed pure-Python loop (``calibrate``) is timed before the first job
and after every job, outside the job times.  It does the same work on
every commit, so its time tracks the speed of the host: a job bracketed
by slow calibrations ran on a slow host.  The host's speed changes within
seconds, so a reading per job follows it much more closely than one per
pass.

``--setup-only`` stops once ``hhx.cli`` is imported and the inputs are
written, and prints the ``time.monotonic()`` reading of that moment;
``run.py`` subtracts its own reading from just before the spawn.

Prints one JSON document with the raw measurements on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from jobs import WORKLOADS, bind, input_names, job_order, write_inputs  # noqa: E402

SELF_CHECK_JOB = "hh --algebra dual --space circle:min --smax 3"


def calibrate() -> float:
    """Seconds taken by a fixed loop of the operations hhx spends its time
    in: sparse rows as dicts with tuple keys, Fraction elimination steps,
    sorting.  The work never changes, so the time measures the host.  The
    cyclic collector is off meanwhile: a full collection would walk the
    workload's heap and tie the time to the program's memory use."""
    gc.disable()
    t0 = perf_counter()
    pivots: dict = {}
    for i in range(100):
        row = {(j * 7 % 61, j % 5): Fraction(i + j + 1, j % 4 + 1) for j in range(i % 13, 40)}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            f = row[col] / piv[col]
            for k, v in piv.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
        sorted(row.items())
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


def capture(cli, argv):
    """(exit code or None if it raised, the JSON output) of one CLI call.

    ``cli.main`` is looked up on every call, so a traced run reaches the
    tracer's wrapper.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv + ["--json"])
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue()


def run_job(cli, argv):
    """(exit code or None if it raised, sha256 of the JSON output)."""
    rc, text = capture(cli, argv)
    return rc, hashlib.sha256(text.encode("utf-8")).hexdigest()


def one_pass(cli, jobs, inputs, digests, tracer, before):
    """Every job once; ``before`` is the calibration time just before the
    first job.  Pass wall and CPU time are sums over the jobs, so the
    calibrations between jobs are not in them."""
    out = []
    for job in jobs:
        if tracer is not None:
            tracer.start_job(job)
        c0 = process_time()
        j0 = perf_counter()
        rc, digest = run_job(cli, bind(job, inputs))
        rec = {"id": job, "rc": rc, "wall": perf_counter() - j0,
               "cpu": process_time() - c0}
        rec["ok"] = rc == 0 and digest == digests.get(job)
        if not rec["ok"]:
            print(f"FAILED {job}: exit {rc}, digest {digest}", file=sys.stderr)
        if tracer is not None:
            rec.update(tracer.end_job())
        after = calibrate()
        rec["calibration"] = [before, after]
        before = after
        out.append(rec)
    return {
        "wall": sum(j["wall"] for j in out),
        "cpu": sum(j["cpu"] for j in out),
        "jobs": out,
    }


def run_passes(cli, jobs, inputs, digests, budget, tracer=None):
    """At least one pass; another only if it should end within the budget."""
    passes = []
    t0 = perf_counter()
    before = calibrate()
    while True:
        p = one_pass(cli, jobs, inputs, digests, tracer, before)
        passes.append(p)
        before = p["jobs"][-1]["calibration"][1]
        typical = statistics.median(q["wall"] for q in passes)
        if perf_counter() - t0 + typical > budget:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here")
    args = ap.parse_args(argv)

    import hhx
    import hhx._kernel
    import hhx.cli as cli

    src = (ROOT / "src").resolve()
    if src not in Path(hhx.__file__).resolve().parents:
        print(f"hhx imported from {hhx.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = BENCH / "out" / "inputs"
    jobs = job_order(WORKLOADS[args.workload], args.seed)
    inputs = write_inputs(ROOT, input_names(jobs), args.seed, work / f"seed-{args.seed}")
    if args.setup_only:
        print(repr(monotonic()))
        return 0

    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    tag = hhx._kernel.KERNEL_TAG
    if tag != ref["kernel_tag"]:
        print(
            f"kernel {tag!r} is loaded but the references were made with "
            f"{ref['kernel_tag']!r}; refusing to measure",
            file=sys.stderr,
        )
        return 3
    digests = ref["digests"]

    # the shipped basis and a permuted one must give the same output
    moved = write_inputs(ROOT, ["dual"], max(args.seed, 1), work / "self-check")
    shipped = run_job(cli, SELF_CHECK_JOB.split())
    permuted = run_job(cli, bind(SELF_CHECK_JOB, moved))
    self_check = shipped[0] == 0 and shipped == permuted

    result = {"kernel_tag": tag, "jobs": jobs, "self_check": self_check}
    if args.trace:
        half = args.seconds / 2
        result["passes"] = run_passes(cli, jobs, inputs, digests, half)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["traced_passes"] = run_passes(
            cli, jobs, inputs, digests, half, tracer
        )
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "parent", "key", "start", "end", "job"],
                           "spans": tracer.spans}, fh)
    else:
        result["passes"] = run_passes(cli, jobs, inputs, digests, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
