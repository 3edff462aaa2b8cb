"""Pipeline benchmark: timed hhx CLI workloads, checked against references.

    python3 pipebench/run.py --workload tensor-power --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  On ``--trace 0`` runs, set-up time is
measured over several fresh interpreters that import ``hhx.cli`` and write
the seeded inputs.  Then one fresh worker process (``worker.py``) runs the workload's jobs in
a closed loop with one client, pass after pass, for ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, the
times at a reference host speed (see ``adjusted``); ``--trace 1`` reports its per-layer metrics from a
traced run (see README.md).  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  The full record, with the
kernel tag, the source revision and the host calibration, goes to
``pipebench/out/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from jobs import WORKLOADS  # noqa: E402
from tracer import COUNT_KEYS, SELF_KEYS, layer_of, self_metric  # noqa: E402

SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150
# wall_s and cpu_s are given at the host speed where worker.calibrate takes
# this long: about its median on the 2-core x86-64 container the benchmark
# was tuned on
REFERENCE_CALIBRATION_S = 0.08


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), HHX_PURE_PYTHON="1", PYTHONHASHSEED="0")
    return env


def worker_cmd(args, *extra) -> list:
    return [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]


def measure_setup(args) -> list:
    """Spawn to ready time of fresh set-up processes; the first one only
    warms caches.  Both readings come from the system-wide monotonic clock.
    """
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = monotonic()
        proc = subprocess.run(
            worker_cmd(args, "--setup-only"), env=worker_env(), cwd=ROOT,
            check=True, timeout=60, stdout=subprocess.PIPE, text=True,
        )
        if i:
            times.append(float(proc.stdout) - t0)
    return times


def git_revision():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return rev.stdout.strip() if rev.returncode == 0 else None


def end_to_end(raw: dict, setup: list) -> dict:
    passes = raw["passes"]
    return {
        "wall_s": adjusted(passes, "wall"),
        "cpu_s": adjusted(passes, "cpu"),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }


def adjusted(passes: list, key: str) -> float:
    """Job time ``key`` ("wall" or "cpu") of one pass, in seconds at the
    reference host speed.  Each job's time is divided by the mean of the
    calibrations just before and after it (see ``worker.calibrate``) and
    scaled to REFERENCE_CALIBRATION_S; the median over passes is taken per
    job and summed over the jobs."""
    per_job: dict = {}
    for p in passes:
        for j in p["jobs"]:
            per_job.setdefault(j["id"], []).append(j[key] / (sum(j["calibration"]) / 2))
    return REFERENCE_CALIBRATION_S * sum(statistics.median(v) for v in per_job.values())


def host_speed(passes: list) -> dict:
    """The median calibration time around a job, and the raw (unadjusted)
    median pass wall and CPU times, for the record."""
    return {
        "calibration_s": statistics.median(
            c for p in passes for j in p["jobs"] for c in j["calibration"]
        ),
        "raw_wall_s": statistics.median(p["wall"] for p in passes),
        "raw_cpu_s": statistics.median(p["cpu"] for p in passes),
    }


def pass_layers(p: dict) -> dict:
    """Per-layer metrics of one traced pass: sums over its jobs."""
    self_s = dict.fromkeys(SELF_KEYS, 0.0)
    count = dict.fromkeys(COUNT_KEYS, 0)
    solvers = 0
    for job in p["jobs"]:
        for k, v in job["self"].items():
            self_s[k] += v
        for k, v in job["count"].items():
            count[k] += v
        solvers += job["solvers"]
    out = {self_metric(k): v for k, v in self_s.items()}
    out.update(count)
    built = count["loday.generators_built"]
    out["loday.kept_ratio"] = count["loday.generators_kept"] / built if built else 0.0
    solves = count["matrix.solve.calls"]
    out["matrix.solve.calls_per_solver"] = solves / solvers if solvers else 0.0
    rows = count["kernel.rows_in"]
    out["kernel.yield"] = count["kernel.rank_out"] / rows if rows else 0.0
    return out


def job_coverage(job: dict) -> float:
    """Share of a traced job's wall time in a named layer: not the CLI and
    not a pipeline driver, whose self time is what no builder claimed."""
    named = sum(
        v for k, v in job["self"].items() if layer_of(k) not in ("cli", "driver")
    )
    return named / job["wall"]


def per_layer(raw: dict) -> dict:
    traced = raw["traced_passes"]
    per_pass = [pass_layers(p) for p in traced]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    # host-speed adjusted, so that a change of host speed between the
    # untraced and the traced half does not show as overhead
    out["trace.overhead_ratio"] = adjusted(traced, "wall") / adjusted(raw["passes"], "wall")
    out["trace.coverage"] = min(job_coverage(j) for p in traced for j in p["jobs"])
    return out


def layer_shares(raw: dict) -> dict:
    """Self time per layer as a share of traced job wall time: the time
    split column of the workload table in README.md."""
    totals: dict = {}
    wall = 0.0
    for p in raw["traced_passes"]:
        for job in p["jobs"]:
            wall += job["wall"]
            for k, v in job["self"].items():
                totals[layer_of(k)] = totals.get(layer_of(k), 0.0) + v
    return {k: v / wall for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "hhx" / "cli.py").is_file():
        print(f"no hhx sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]

    setup = []
    if not args.trace:
        try:
            setup = measure_setup(args)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 1
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(OUT / f"spans-{stem}.json")]
    try:
        proc = subprocess.run(
            worker_cmd(args, *extra), env=worker_env(), cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"workload process ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    all_passes = raw["passes"] + raw.get("traced_passes", [])
    attempted = sum(len(p["jobs"]) for p in all_passes)
    failed = sum(not j["ok"] for p in all_passes for j in p["jobs"])
    values = per_layer(raw) if args.trace else end_to_end(raw, setup)
    values["failed_ratio"] = failed / attempted
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }
    correct = failed == 0 and raw["self_check"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel_tag": raw["kernel_tag"], "revision": git_revision(),
        "job_order": raw["jobs"], "self_check": raw["self_check"],
        "host": host_speed(raw["passes"]), "setup_samples_s": setup, "correct": correct, "attempted": attempted,
        "failed": failed, "metrics": metrics, "raw": raw,
    }
    if args.trace:
        record["layer_shares"] = layer_shares(raw)
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    walls = ", ".join(f"{p['wall']:.3f}" for p in raw["passes"])
    print(f"{args.workload} seed {args.seed}: kernel {raw['kernel_tag']}, "
          f"passes [{walls}] s, self-check {'ok' if raw['self_check'] else 'FAILED'}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in record["layer_shares"].items())
        print(f"layer shares of traced job time: {shares}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
