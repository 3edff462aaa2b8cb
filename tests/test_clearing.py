"""Clearing: each differential is ranked only on the generators that the
level below left unpaired, and the tables, pairs and pages stay those of
ranking every block whole."""

import json
from pathlib import Path

import pytest

from helpers import column_pairs
from hhx import _kernel
from hhx.algebra import map_from_json
from hhx.bar import suspension_bar
from hhx.catalog import (
    dual_numbers,
    exterior_line,
    gf4,
    mat2,
    split_pair,
    split_triple,
)
from hhx.chains import ChainComplex, _pairs, e_infinity, total_complex
from hhx.cobar import CobarComplex, cobar, hochschild_cohomology, regular_module
from hhx.fields import GF, QQ
from hhx.loday import hh, loday_complex, oracle_hh
from hhx.matrix import SMat
from hhx.poset import _full_nerve, arc_functor, cyclic_cech_poset, edge_map, poset_homology
from hhx.simplicial import circle_min, parse_space

CORPUS = Path(__file__).resolve().parents[1] / "src" / "hhx" / "corpus"

# the corpus algebras qxq and q3 are split_pair and split_triple
PAIR_CASES = [
    (dual_numbers, QQ), (dual_numbers, GF(3)),
    (split_pair, QQ), (split_pair, GF(3)),
    (gf4, None),
    (exterior_line, QQ), (exterior_line, GF(3)),
    (split_triple, QQ), (split_triple, GF(3)),
]
PAIR_IDS = [f"{make.__name__}-{field or 'F2'}" for make, field in PAIR_CASES]


@pytest.mark.parametrize("make, field", PAIR_CASES, ids=PAIR_IDS)
def test_pairs_match_column_reduction(make, field):
    # reducing rows from the last one up, with the rows that the level below
    # paired left out, pairs what the textbook column reduction pairs
    A = make() if field is None else make(field)
    for d in (1, 2, 3):
        for p_max in (2, 3, 4):
            T = total_complex(suspension_bar(A, d, p_max))
            want = [{}] + [column_pairs(T.diffs[n]) for n in range(1, T.top + 1)]
            assert _pairs(T, T.top) == want, (d, p_max)


# ------------------------------------------------- tables from whole blocks


def whole_block_table(levels, n_max, block) -> dict:
    """{(n, t): dimension} from the rank of every t block on its own copy.

    block(n, rows, cols) is the map between levels n and n + 1 cut down to
    the level-n indices rows and the level-(n + 1) indices cols.
    """
    def rank(n, t):
        if n < 0 or n + 1 >= len(levels):
            return 0
        rows = [i for i, (_, s) in enumerate(levels[n]) if s == t]
        cols = [j for j, (_, s) in enumerate(levels[n + 1]) if s == t]
        return block(n, rows, cols).rank() if rows and cols else 0

    out = {}
    for n in range(n_max + 1):
        for t in {t for _, t in levels[n]}:
            h = sum(1 for _, s in levels[n] if s == t) - rank(n - 1, t) - rank(n, t)
            if h:
                out[(n, t)] = h
    return out


def recorded(monkeypatch, cls, method):
    """Every (complex, table) that cls.method hands out while it is patched."""
    seen = []
    original = getattr(cls, method)

    def record(self, *args, **kwargs):
        table = original(self, *args, **kwargs)
        seen.append((self, table))
        return table

    monkeypatch.setattr(cls, method, record)
    return seen


def relative_pair():
    base = map_from_json(json.loads((CORPUS / "relative_pair.json").read_text()))
    return base.target, circle_min(), 4, base


def poset_morse():
    P = cyclic_cech_poset(3)
    return poset_homology(P, arc_functor(dual_numbers(GF(3)), P))


def poset_with_edge():
    P = cyclic_cech_poset(3)
    F = arc_functor(split_pair(), P)
    assert edge_map(P, F, "0")
    return poset_homology(P, F)


# (A, X, s_max, base) of hh runs: hh streams level s_max + 1, so the oracle
# reads the stored complex loday_complex(..., s_max + 1), whose top level is
# built whole
LODAY_RUNS = {
    "loday-circle2": lambda: (dual_numbers(), parse_space("circle:2"), 3, None),
    "loday-sphere3": lambda: (exterior_line(), parse_space("sphere:3"), 4, None),
    "loday-relative-pair": relative_pair,
}

HOMOLOGY_RUNS = {
    "oracle-mat2-Q": lambda: oracle_hh(mat2(), 4),
    "oracle-mat2-F2": lambda: oracle_hh(mat2(GF(2)), 4),
    "oracle-mat2-F3": lambda: oracle_hh(mat2(GF(3)), 4),
    "poset-morse-m3": poset_morse,
    "poset-edge-cone": poset_with_edge,
}


@pytest.mark.parametrize("name", [*LODAY_RUNS, *HOMOLOGY_RUNS])
def test_cleared_tables_match_whole_blocks(monkeypatch, name):
    if name in LODAY_RUNS:
        A, X, s_max, base = LODAY_RUNS[name]()
        seen = [(loday_complex(A, X, s_max + 1, base).complex, hh(A, X, s_max, base))]
    else:
        seen = recorded(monkeypatch, ChainComplex, "homology")
        HOMOLOGY_RUNS[name]()
        assert seen
    for C, table in seen:
        def block(n, rows, cols, C=C):
            return C.diffs[n + 1].restrict(rows, cols)

        assert table.entries == whole_block_table(C.levels, table.s_valid, block)


def test_edge_map_ranks_d1_beside_its_units(monkeypatch):
    # F(x0) is onto H_0 = C_0 / im d_1 when d_1's columns and F(x0)'s unit
    # columns span C_0: one plain rank call, beside the paired ranks above
    plain = []
    rank = SMat.rank

    def spy(self, *args, **kwargs):
        if not args and not kwargs:
            plain.append(self)
        return rank(self, *args, **kwargs)

    monkeypatch.setattr(SMat, "rank", spy)
    poset_with_edge()
    P = cyclic_cech_poset(3)
    F = arc_functor(split_pair(), P)
    C = _full_nerve(P, F, top=1)
    at = next(k for k, ((ch, _nm), _t) in enumerate(C.levels[0]) if ch == ("0",))
    units = [{at + j: QQ.one} for j in range(F.dim("0"))]
    [M] = plain
    assert (M.nrows, M.cols) == (C.level_dim(0), C.diffs[1].cols + units)


def rhom_dual():
    A = dual_numbers()
    M = regular_module(A)
    return cobar(M, A, M, 4)


@pytest.mark.parametrize(
    "run",
    [
        lambda: hochschild_cohomology(split_triple(), 4),
        lambda: hochschild_cohomology(exterior_line(GF(3)), 5),
        rhom_dual,
    ],
    ids=["hochschild-q3", "hochschild-exterior-F3", "rhom-dual"],
)
def test_cleared_cohomology_matches_whole_blocks(monkeypatch, run):
    seen = recorded(monkeypatch, CobarComplex, "cohomology")
    run()
    assert seen
    for C, table in seen:
        def block(n, rows, cols, C=C):
            return C.diffs[n + 1].restrict(rows, cols)

        assert table.entries == whole_block_table(C.levels, table.s_valid, block)


def test_cleared_table_with_a_block_missing_at_one_end(monkeypatch):
    # t = 0 runs through every level, and b, the pivot column of its d_1
    # block, is cleared from the rows of its d_2 block; t = 3 has no level
    # 1, t = 5 no level 0 and t = 7 no level 1
    levels = [
        [("a", 0), ("u", 3)],
        [("b", 0), ("c", 0), ("y", 5)],
        [("e", 0), ("f", 0), ("z", 5), ("w", 7)],
    ]
    d1 = SMat.from_dense([[1, 1, 0], [0, 0, 0]], QQ)
    d2 = SMat.from_dense([[1, 2, 0, 0], [-1, -2, 0, 0], [0, 0, 3, 0]], QQ)
    C = ChainComplex(QQ, levels, [None, d1, d2], s_valid=2).validate()
    seen = kernel_rank_calls(monkeypatch)
    table = C.homology()
    # d_1 on its one nonzero row a, then d_2 on rows c and y (b cleared)
    assert seen == [(1, 1), (2, 2)]
    assert table.entries == {(0, 3): 1, (2, 0): 1, (2, 7): 1}
    assert table.entries == whole_block_table(
        C.levels, 2, lambda n, rows, cols: C.diffs[n + 1].restrict(rows, cols)
    )


class ListStream:
    """A streamed top level from (name, t, column) triples; built records
    the names whose columns were asked for."""

    def __init__(self, gens):
        self.gens = gens
        self.built = []

    def __iter__(self):
        return ((name, t) for name, t, _ in self.gens)

    def column(self, name):
        self.built.append(name)
        return next(dict(col) for n, _, col in self.gens if n == name)


def test_streamed_top_with_blocks_missing_at_either_end():
    # the complex above with level 2 streamed and a row x (t = 9) added at
    # level 1: t = 9 has rows and no columns, t = 7 a column w and no rows
    levels = [
        [("a", 0), ("u", 3)],
        [("b", 0), ("c", 0), ("y", 5), ("x", 9)],
        [("e", 0), ("f", 0), ("z", 5), ("w", 7)],
    ]
    cols = [{0: 1, 1: -1}, {0: 2, 1: -2}, {2: 3}, {}]
    d1 = SMat.from_dense([[1, 1, 0, 0], [0, 0, 0, 0]], QQ)
    d2 = SMat(4, 4, QQ, [dict(c) for c in cols])
    stored = ChainComplex(QQ, levels, [None, d1, d2], s_valid=2).validate()
    stream = ListStream([(n, t, c) for (n, t), c in zip(levels[2], cols)])
    C = ChainComplex(QQ, levels[:2], [None, d1], stream=stream)
    assert C.s_valid == 1
    assert C.homology().entries == stored.homology(1).entries == {(0, 3): 1, (1, 9): 1}
    # b is cleared, so the t = 0 block has one row and is full after e; the
    # t = 9 block never fills, so the walk reads to the end
    assert stream.built == ["e", "z"]


# ------------------------------------------------------- the work it saves


def kernel_rank_calls(monkeypatch) -> list:
    """(rows handed in, rank) of every kernel rank call while patched."""
    seen = []
    for name in ("rank_int", "rank_fp"):
        rank = getattr(_kernel, name)

        def counted(rows, *args, rank=rank):
            out = rank(rows, *args)
            seen.append((len(rows), len(out[0])))
            return out

        monkeypatch.setattr(_kernel, name, counted)
    return seen


def kernel_row_clears(monkeypatch) -> dict:
    """{regime: rows cleared} by the kernel's clearing steps while patched,
    in forward elimination and back-substitution alike."""
    cleared = {"int": 0, "fp": 0}
    clear_int, clear_fp = _kernel._clear_int, _kernel._clear_fp

    def counted_int(row, c, others):
        cleared["int"] += len(others)
        clear_int(row, c, others)

    def counted_fp(p):
        clear = clear_fp(p)

        def counted(row, c, others):
            cleared["fp"] += len(others)
            clear(row, c, others)

        return counted

    monkeypatch.setattr(_kernel, "_clear_int", counted_int)
    monkeypatch.setattr(_kernel, "_clear_fp", counted_fp)
    return cleared


def test_clearing_pins_the_rows_the_kernel_ranks(monkeypatch):
    # without clearing the oracle hands the kernel 1,456 rows, 364 of them
    # dependent, and the pages reduce 1,360 columns, 1,088 of them to zero;
    # the rows cleared pin the arithmetic, not just the ranks
    seen = kernel_rank_calls(monkeypatch)
    cleared = kernel_row_clears(monkeypatch)
    assert oracle_hh(mat2(), 5).entries == {(0, 0): 1}
    assert (sum(r for r, _ in seen), sum(k for _, k in seen)) == (1093, 1092)
    assert cleared == {"int": 904, "fp": 0}
    seen.clear()
    cleared.update(int=0, fp=0)
    assert oracle_hh(mat2(GF(3)), 5).entries == {(0, 0): 1}
    assert (sum(r for r, _ in seen), sum(k for _, k in seen)) == (1093, 1092)
    assert cleared == {"int": 0, "fp": 901}
    seen.clear()
    cleared.update(int=0, fp=0)
    e_infinity(suspension_bar(gf4(), 1, 4))
    assert (sum(r for r, _ in seen), sum(k for _, k in seen)) == (274, 272)
    assert cleared == {"int": 0, "fp": 151}
