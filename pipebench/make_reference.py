"""Write pipebench/reference.json: one output digest per job.

    python3 pipebench/make_reference.py

Runs every job of every workload once for each of the seeds 0, 1 and 2
on the pure-Python kernel and requires the canonical ``--json`` outputs
to be byte-identical across the seeds.  Before writing, it cross-checks
overlapping pipelines once: each ``hh`` job on a circle against
``oracle-hh`` on the shared window, and ``hh-bar --sphere 2`` against
``hh --space sphere:2``.  Any disagreement exits with code 1 and writes nothing.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
os.environ["HHX_PURE_PYTHON"] = "1"

from jobs import WORKLOADS, bind, input_names, write_inputs  # noqa: E402
from worker import capture, run_job  # noqa: E402

SEEDS = (0, 1, 2)


def table(cli, argv) -> tuple:
    """Betti table of one CLI call as {(s, t): dim} plus its s_valid."""
    rc, text = capture(cli, argv)
    if rc != 0:
        raise SystemExit(f"cross-check call failed with {rc}: {' '.join(argv)}")
    doc = json.loads(text)
    return {(e["s"], e["t"]): e["dim"] for e in doc["entries"]}, doc["s_valid"]


def agree(cli, left, right) -> bool:
    (a, sa), (b, sb) = table(cli, left), table(cli, right)
    w = min(sa, sb)
    keys = {k for k in (*a, *b) if k[0] <= w}
    ok = all(a.get(k, 0) == b.get(k, 0) for k in keys)
    print(f"{'agree' if ok else 'MISMATCH'} through s={w}: "
          f"{' '.join(left)}  vs  {' '.join(right)}")
    return ok


def cross_checks(cli) -> bool:
    ok = True
    for job in WORKLOADS["tensor-power"]:
        argv = job.split()
        if argv[0] == "hh" and "--algebra" in argv and "circle" in job:
            alg = argv[argv.index("--algebra") + 1]
            smax = argv[argv.index("--smax") + 1]
            ok &= agree(cli, argv, ["oracle-hh", "--algebra", alg, "--smax", smax])
    for job in WORKLOADS["spectral"]:
        argv = job.split()
        if argv[0] == "hh-bar" and argv[argv.index("--sphere") + 1] == "2":
            alg = argv[argv.index("--algebra") + 1]
            smax = argv[argv.index("--smax") + 1]
            ok &= agree(cli, argv, [
                "hh", "--algebra", alg, "--space", "sphere:2", "--smax", smax,
            ])
    return ok


def main() -> int:
    import hhx._kernel
    import hhx.cli as cli

    if not cross_checks(cli):
        return 1
    digests: dict = {}
    for workload, jobs in WORKLOADS.items():
        for seed in SEEDS:
            work = BENCH / "out" / "inputs" / f"seed-{seed}"
            inputs = write_inputs(ROOT, input_names(jobs), seed, work)
            for job in jobs:
                rc, digest = run_job(cli, bind(job, inputs))
                if rc != 0:
                    print(f"exit {rc} at seed {seed}: {job}", file=sys.stderr)
                    return 1
                if digests.setdefault(job, digest) != digest:
                    print(f"seed {seed} changes the output of {job}", file=sys.stderr)
                    return 1
                print(f"seed {seed} {digest[:12]} {job}")
    ref = {
        "kernel_tag": hhx._kernel.KERNEL_TAG,
        "seeds_checked": list(SEEDS),
        "digests": dict(sorted(digests.items())),
    }
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
