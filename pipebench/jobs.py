"""Workload job lists and the seeded relabelling of their inputs.

A job is the argument list of one ``hhx`` CLI call, written with the
shipped corpus names.  Its id is that argument list joined by spaces, and
the reference digest of its ``--json`` output is stored under the id.

The seed picks, for every corpus algebra a workload reads, a permutation
of its basis (carried through the names, degrees, unit and structure
constants), writes the permuted algebra as the input file the CLI reads,
and picks the job order.  Betti tables and page dimensions are invariant
under a change of basis, so one digest per job serves every seed.  Seed 0
passes the shipped names and the listed order unchanged.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = {
    # Tensor-power functor over simplicial sets: Loday assembly and the
    # degenerate-part quotient carry the time, elimination is small.  Q and
    # F_2, odd-degree signs (exterior) and the relative path.
    "tensor-power": [
        "hh --algebra dual --space circle:2 --smax 3",
        "hh --algebra qxq --space circle:2 --smax 3",
        "hh --algebra exterior --space circle:2 --smax 3",
        "hh --algebra gf4 --space circle:2 --smax 3",
        "hh --algebra exterior --space sphere:2 --smax 4",
        "hh --base relative_pair --space circle:min --smax 4",
    ],
    # One filtered complex per job, reduced page by page: thousands of
    # small rref/solve/mul_vec calls, no Loday work except inside hh-bar.
    "spectral": [
        "sseq --algebra dual --pmax 4",
        "sseq --algebra qxq --pmax 4",
        "sseq --algebra gf4 --pmax 4",
        "sseq --algebra exterior --sphere 2 --pmax 4",
        "hh-bar --algebra dual --sphere 2 --smax 3",
    ],
    # Few, large rank calls on nerve, cobar and cyclic complexes, over F_p
    # and Q side by side.
    "elimination": [
        "poset-hh --algebra dual --field Fp:3 --marks 3 --smax 6",
        "cohomology --algebra q3 --nmax 3",
        "oracle-hh --algebra mat2 --smax 5",
    ],
}

INPUT_FLAGS = ("--algebra", "--base")
CORPUS_DIR = Path("src") / "hhx" / "corpus"


def permute_algebra(obj: dict, perm: list) -> dict:
    """The same algebra in the basis e'_k = e_perm[k]."""
    table = obj["table"]
    out = dict(obj)
    out["basis"] = [obj["basis"][p] for p in perm]
    out["unit"] = [obj["unit"][p] for p in perm]
    out["table"] = [[[table[a][b][c] for c in perm] for b in perm] for a in perm]
    return out


def _permutation(rng: random.Random, n: int) -> list:
    """A random permutation of range(n), never the identity when n > 1."""
    perm = list(range(n))
    rng.shuffle(perm)
    if n > 1 and perm == sorted(perm):
        perm = perm[1:] + perm[:1]
    return perm


def relabel(obj: dict, rng: random.Random) -> dict:
    """Permute the basis of an algebra file, or both bases of a map file."""
    if "matrix" not in obj:
        return permute_algebra(obj, _permutation(rng, len(obj["basis"])))
    ps = _permutation(rng, len(obj["source"]["basis"]))
    pt = _permutation(rng, len(obj["target"]["basis"]))
    m = obj["matrix"]
    return {
        "source": permute_algebra(obj["source"], ps),
        "target": permute_algebra(obj["target"], pt),
        "matrix": [[m[a][b] for b in ps] for a in pt],
    }


def input_names(jobs) -> list:
    names = set()
    for job in jobs:
        argv = job.split()
        for flag, value in zip(argv, argv[1:]):
            if flag in INPUT_FLAGS:
                names.add(value)
    return sorted(names)


def write_inputs(root: Path, names, seed: int, out_dir: Path) -> dict:
    """Map each corpus name to the input the CLI gets under this seed."""
    if seed == 0:
        return {name: name for name in names}
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        with open(root / CORPUS_DIR / f"{name}.json", encoding="utf-8") as fh:
            obj = json.load(fh)
        path = out_dir / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(relabel(obj, rng), fh)
        paths[name] = str(path)
    return paths


def bind(job: str, inputs: dict) -> list:
    """The job's argument list with corpus names replaced by the inputs."""
    argv = job.split()
    return [
        inputs[tok] if i and argv[i - 1] in INPUT_FLAGS else tok
        for i, tok in enumerate(argv)
    ]


def job_order(jobs, seed: int) -> list:
    jobs = list(jobs)
    if seed:
        random.Random(seed).shuffle(jobs)
    return jobs
