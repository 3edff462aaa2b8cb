"""End-to-end gate: the eleven headline checks with their time budgets.

Each test prints one pass or fail line with the measured wall time, so
running this file with -v -s gives the full scorecard.  All arithmetic is
exact; every equality is entrywise equality of integer dimension tables.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hhx
from hhx.algebra import is_etale
from hhx.bar import (
    augmentation_module,
    circle_bar,
    hh_via_suspension,
    loday_model,
    two_sided_bar,
)
from hhx.catalog import (
    dual_numbers,
    dual_pair,
    exterior_line,
    gf4,
    ground,
    pair_into_dual_pair,
    split_pair,
    split_triple,
)
from hhx.chains import e_infinity, total_complex
from hhx.cobar import cobar, hochschild_cohomology, regular_module
from hhx.loday import hh, oracle_hh
from hhx.poset import arc_functor, cyclic_cech_poset, edge_map, poset_homology
from hhx.simplicial import circle_min, disjoint_union, point, sphere_min

CIRCLE_SIX = [
    ("ground", ground),
    ("dual", dual_numbers),
    ("qxq", split_pair),
    ("q3", split_triple),
    ("exterior", exterior_line),
    ("gf4", gf4),
]

ETALE_TRIO = [("qxq", split_pair), ("q3", split_triple), ("gf4", gf4)]


def _report(num: int, budget, body) -> None:
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"criterion {num}: FAIL ({dt:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    within = budget is None or dt < budget
    tag = f"{dt:.1f}s" if budget is None else f"{dt:.1f}s, budget {budget}s"
    print(f"criterion {num}: {'PASS' if within else 'FAIL'} ({tag})")
    assert within, f"criterion {num} blew its budget: {dt:.1f}s >= {budget}s"


def _profile(A) -> dict:
    out: dict = {}
    for t in A.degrees:
        out[(0, t)] = out.get((0, t), 0) + 1
    return out


def test_criterion_01_oracle_equivalence():
    def body():
        for name, build in CIRCLE_SIX:
            A = build()
            left = hh(A, circle_min(), 4)
            right = oracle_hh(A, 4)
            assert left.entries == right.entries, name
    _report(1, 60, body)


def test_criterion_02_bar_path_matches():
    def body():
        for name, build in CIRCLE_SIX:
            A = build()
            want = {
                k: v for k, v in hh(A, circle_min(), 3).entries.items()
            }
            got = total_complex(circle_bar(A, 4)).homology(3)
            table = {k: v for k, v in got.entries.items()}
            assert table == want, name
    _report(2, 60, body)


def test_criterion_03_suspension_recursion():
    def body():
        for name, build in [("dual", dual_numbers), ("qxq", split_pair)]:
            A = build()
            left = hh_via_suspension(A, 2, 2)
            right = hh(A, sphere_min(2), 2)
            assert left.entries == right.entries, name
    _report(3, 600, body)


def test_criterion_04_etale_descent():
    def body():
        for name, build in ETALE_TRIO:
            A = build()
            prof = _profile(A)
            assert hh(A, circle_min(), 3).entries == prof, (name, 1)
            assert hh(A, sphere_min(2), 2).entries == prof, (name, 2)
    _report(4, 300, body)


def _periodic_rank(m) -> int:
    # tiny dense elimination over Q, kept separate from the library kernels
    m = [row[:] for row in m]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [inv * v for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
    return rank


def test_criterion_05_dual_numbers_profile():
    def body():
        table = hh(dual_numbers(), circle_min(), 4)
        assert table.entries == {
            (0, 0): 2, (1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1,
        }
        # independent check: the two-periodic resolution of x*x = 0 gives
        # boundary maps alternating between 0 and multiplication by 2x
        zero = [[Fraction(0)] * 2 for _ in range(2)]
        twox = [[Fraction(0), Fraction(0)], [Fraction(2), Fraction(0)]]
        maps = [zero if n % 2 else twox for n in range(1, 7)]

        def dim_h(n):
            incoming = maps[n] if n < len(maps) else None
            outgoing = maps[n - 1] if n >= 1 else None
            dim = 2
            k = dim - (_periodic_rank(outgoing) if outgoing else 0)
            return k - (_periodic_rank(incoming) if incoming else 0)

        oracle = [dim_h(n) for n in range(5)]
        assert oracle == [2, 1, 1, 1, 1]
        assert [table.total(s) for s in range(5)] == oracle
    _report(5, None, body)


def test_criterion_06_kunneth_convolution():
    def body():
        cases = [
            (dual_numbers(), circle_min(), point()),
            (split_pair(), circle_min(), circle_min()),
        ]
        for A, X, Y in cases:
            lhs = hh(A, disjoint_union(X, Y), 3)
            rhs = hh(A, X, 3).convolve(hh(A, Y, 3))
            assert lhs.entries == rhs.entries
    _report(6, None, body)


def test_criterion_07_poset_model_and_edge():
    def body():
        P = cyclic_cech_poset(2)
        expected_iso = {
            "ground": True, "dual": False, "qxq": True,
            "q3": True, "exterior": False, "gf4": True,
        }
        for name, build in CIRCLE_SIX:
            A = build()
            F = arc_functor(A, P)
            got = poset_homology(P, F, 1)
            want = {
                k: v for k, v in hh(A, circle_min(), 1).entries.items()
            }
            assert got.entries == want, name
            E = edge_map(P, F, "0")
            assert E.iso is expected_iso[name], name
        for name, build in CIRCLE_SIX:
            if name in ("exterior",):
                continue  # trace form needs degree zero
            assert is_etale(build()) is expected_iso[name], name
    _report(7, 60, body)


def test_criterion_08_convergence():
    def body():
        doubles = [circle_bar(build(), 4) for _, build in CIRCLE_SIX]
        for build in (dual_numbers, split_pair):
            A = build()
            B = loday_model(A, sphere_min(1), 3)
            M = augmentation_module(B, A, "right")
            N = augmentation_module(B, A, "left")
            doubles.append(two_sided_bar(M, B, N, 3))
        for D in doubles:
            page, _ = e_infinity(D)
            tab = total_complex(D).homology(page.n_valid)
            for n in range(page.n_valid + 1):
                assert page.total(n) == tab.total(n)
    _report(8, 60, body)


def test_criterion_09_cohomology():
    def body():
        # identity collapse for three pairs
        for build in (dual_numbers, split_pair, exterior_line):
            A = build()
            M = regular_module(A)
            table = cobar(M, A, M, 3)
            assert table.entries == _profile(A), build.__name__
        # level zero counts the center, for every corpus algebra
        from hhx.algebra import center
        from hhx.catalog import mat2
        for build in (ground, dual_numbers, split_pair, split_triple,
                      gf4, exterior_line, mat2, dual_pair):
            A = build()
            table = hochschild_cohomology(A, 3)
            h0 = sum(v for (n, _), v in table.entries.items() if n == 0)
            assert h0 == len(center(A)), build.__name__
        # etale means nothing above level zero
        for name, build in ETALE_TRIO:
            A = build()
            table = hochschild_cohomology(A, 3)
            assert all(n == 0 for (n, _) in table.entries), name
    _report(9, 120, body)


def test_criterion_10_etale_base_change():
    def body():
        A = dual_pair()
        base = pair_into_dual_pair()
        absolute = hh(A, circle_min(), 3)
        relative = hh(A, circle_min(), 3, base=base)
        assert absolute.entries == relative.entries
    _report(10, None, body)


SUITE = [
    ["hh", "--algebra", "dual.json", "--space", "circle:min", "--smax", "3",
     "--out", "hh_dual.json"],
    ["oracle-hh", "--algebra", "dual.json", "--smax", "3",
     "--out", "oracle_dual.json"],
    ["hh-bar", "--algebra", "qxq.json", "--sphere", "2", "--smax", "2",
     "--out", "bar_qxq.json"],
    ["cohomology", "--algebra", "dual.json", "--nmax", "3",
     "--out", "hc_dual.json"],
    ["rhom", "--algebra", "exterior.json", "--nmax", "2",
     "--out", "rhom_ext.json"],
    ["poset-hh", "--algebra", "dual.json", "--edge", "0",
     "--out", "poset_dual.json"],
    ["sseq", "--algebra", "dual.json", "--pmax", "3",
     "--out", "sseq_dual.json"],
    ["etale-check", "--algebra", "qxq.json", "--sphere", "1", "--smax", "3",
     "--out", "etale_qxq.json"],
    ["compare", "--left", "loday", "--right", "oracle", "--algebra",
     "dual.json", "--smax", "3", "--out", "cmp_dual.json"],
]


# child processes import hhx from the same source tree, installed or not
SRC = str(Path(hhx.__file__).resolve().parents[1])
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
)


def _run_suite(outdir: Path) -> None:
    outdir.mkdir()
    for argv in SUITE:
        argv = list(argv)
        argv[argv.index("--out") + 1] = str(outdir / argv[argv.index("--out") + 1])
        proc = subprocess.run(
            [sys.executable, "-m", "hhx.cli", *argv],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0, (argv, proc.stderr)


def test_criterion_11_determinism(tmp_path):
    def body():
        one = tmp_path / "run1"
        two = tmp_path / "run2"
        _run_suite(one)
        _run_suite(two)
        names = sorted(p.name for p in one.glob("*.json"))
        assert names == sorted(p.name for p in two.glob("*.json"))
        assert len(names) == len(SUITE)
        for name in names:
            a = (one / name).read_bytes()
            b = (two / name).read_bytes()
            assert a == b, name
            json.loads(a)
    _report(11, None, body)
