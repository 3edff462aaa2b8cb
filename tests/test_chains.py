"""Chain complexes, cones, tensors, double complexes, page extraction."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhx import chains
from hhx.chains import (
    BettiTable,
    ChainComplex,
    ChainError,
    ChainMap,
    DoubleComplex,
    cone,
    e_infinity,
    r_stable,
    sseq_pages,
    total_complex,
)
from hhx.bar import circle_bar, suspension_bar
from hhx.catalog import dual_numbers, exterior_line, gf4, mat2
from hhx.cobar import CobarComplex
from hhx.fields import GF, QQ
from hhx.loday import cyclic_bar_oracle
from hhx.matrix import SMat

from helpers import block_square_faults, convolve, from_commuting, window_equal


def cx(levels, dense_diffs, field=QQ, exact=True):
    """levels: list of lists of (name, t); dense_diffs[s] for s >= 1;
    exact complexes are trusted to their top level."""
    diffs = [None]
    for s in range(1, len(levels)):
        rows = dense_diffs[s - 1]
        if rows == 0:
            diffs.append(SMat(len(levels[s - 1]), len(levels[s]), field))
        else:
            diffs.append(SMat.from_dense(rows, field))
    s_valid = len(levels) - 1 if exact else None
    return ChainComplex(field, levels, diffs, s_valid=s_valid).validate()


def field_complex(t=0, field=QQ):
    return cx([[("k", t)]], [], field=field)


# ------------------------------------------------------------- betti table


def test_betti_json_round_trip():
    b = BettiTable({(0, 0): 2, (1, 1): 1}, 3, "loday")
    obj = b.to_json()
    assert obj == {
        "provenance": "loday",
        "s_valid": 3,
        "entries": [
            {"s": 0, "t": 0, "dim": 2},
            {"s": 1, "t": 1, "dim": 1},
        ],
    }
    c = BettiTable.from_json(obj)
    assert c == b and c.s_valid == 3 and c.provenance == "loday"


def test_betti_rejects_bad_entries():
    with pytest.raises(ChainError, match="negative"):
        BettiTable({(0, 0): -1}, 2, "x")
    with pytest.raises(ChainError, match="beyond"):
        BettiTable({(3, 0): 1}, 2, "x")
    with pytest.raises(ChainError, match="beyond"):
        BettiTable({(-1, 0): 1}, 2, "x")
    with pytest.raises(ChainError, match="s_valid"):
        BettiTable({}, -1, "x")
    with pytest.raises(ChainError, match="provenance"):
        BettiTable({}, 2, 5)


def test_betti_window_and_convolve():
    a = BettiTable({(0, 0): 1, (1, 0): 2}, 2, "a")
    b = BettiTable({(0, 0): 1, (1, 0): 2, (2, 0): 5}, 5, "b")
    assert window_equal(a, b, 1)
    assert not window_equal(a, b, 2)
    with pytest.raises(ChainError, match="window"):
        window_equal(a, b, 3)
    c = convolve(a, a)
    assert c.entries == {(0, 0): 1, (1, 0): 4, (2, 0): 4}
    assert c.s_valid == 2
    assert a.total(1) == 2 and a.dim(0, 0) == 1
    assert "1" in a.render()


# -------------------------------------------------------------- homology


def test_zero_differentials_betti_is_generator_count():
    C = cx(
        [[("a", 0), ("b", 2)], [("c", 1)], [("d", 0)]],
        [0, 0],
    )
    assert C.homology().entries == {(0, 0): 1, (0, 2): 1, (1, 1): 1, (2, 0): 1}


def test_two_term_identity_acyclic():
    C = cx([[("a", 0)], [("b", 0)]], [[[1]]])
    assert C.homology().entries == {}


def test_homology_refuses_beyond_validity():
    C = cx([[("a", 0)], [("b", 0)]], [0], exact=False)
    assert C.s_valid == 0
    C.homology(0)
    with pytest.raises(ChainError, match="trusted"):
        C.homology(1)


def test_validate_rejects_d_squared():
    levels = [[("a", 0)], [("b", 0)], [("c", 0)]]
    with pytest.raises(ChainError, match="d\\^2"):
        cx(levels, [[[1]], [[1]]])


def test_validate_rejects_t_mixing():
    levels = [[("a", 0)], [("b", 1)]]
    with pytest.raises(ChainError, match="internal degrees"):
        cx(levels, [[[1]]])


def _mixed_degree_builders():
    # each builds a map whose one entry sends ("a", t=0) to ("b", t=1)
    one = SMat.from_dense([[1]], QQ)
    src = ChainComplex(QQ, [[("a", 0)]], [None], s_valid=0)
    tgt = ChainComplex(QQ, [[("b", 1)]], [None], s_valid=0)
    a, b = [("a", 0)], [("b", 1)]
    return {
        "chain-map": lambda: ChainMap(src, tgt, [one]),
        # a double complex checks t on its total
        "horizontal": lambda: total_complex(
            DoubleComplex(QQ, {(0, 0): b, (1, 0): a}, {(1, 0): one}, {})
        ),
        "vertical": lambda: total_complex(
            DoubleComplex(QQ, {(0, 0): b, (0, 1): a}, {}, {(0, 1): one})
        ),
        # stored as the transpose of a coboundary sending b to a
        "cobar": lambda: CobarComplex(QQ, [b, a], [None, one]).validate(),
    }


@pytest.mark.parametrize("which", sorted(_mixed_degree_builders()))
def test_maps_reject_t_mixing(which):
    with pytest.raises(ChainError, match="mixes internal degrees.*'a'.*'b'"):
        _mixed_degree_builders()[which]()


def _other_field_builders():
    # each holds a QQ map with one F_3 entry, which the holder refuses by name
    three = SMat.from_dense([[2]], GF(3))
    C = ChainComplex(QQ, [[("a", 0)]], [None], s_valid=0)
    D = DoubleComplex(QQ, {(0, 0): [("a", 0)], (1, 0): [("b", 0)]}, {(1, 0): three}, {})
    return {
        "chain-map": (lambda: ChainMap(C, C, [three]), "level 0 matrix is over the wrong field"),
        "horizontal": (
            lambda: total_complex(D), "horizontal map at \\(1, 0\\) is over the wrong field"
        ),
    }


@pytest.mark.parametrize("which", sorted(_other_field_builders()))
def test_maps_over_another_field_refused(which):
    build, message = _other_field_builders()[which]
    with pytest.raises(ChainError, match=message):
        build()


def _malformed_complexes():
    # each builds a complex that the constructor or validate refuses
    one = SMat.from_dense([[1]], QQ)
    a, b, c = [("a", 0)], [("b", 0)], [("c", 0)]
    return {
        "slot-count": (lambda: ChainComplex(QQ, [a, b], [None]), "one differential slot"),
        "s_valid-past-top": (
            lambda: ChainComplex(QQ, [a, b], [None, one], s_valid=2), "beyond top level"
        ),
        "no-levels": (lambda: ChainComplex(QQ, [], []), "at least one level"),
        # a trust bound below 0, given or the top - 1 default of one level
        "s_valid-negative": (
            lambda: ChainComplex(QQ, [a, b], [None, one], s_valid=-3), "at least 0, got -3"
        ),
        "one-level-inexact": (lambda: ChainComplex(QQ, [a], [None]), "at least 0, got -1"),
        "diffs0": (lambda: ChainComplex(QQ, [a, b], [one, one]), "diffs\\[0\\] must be None"),
        "shape": (
            lambda: ChainComplex(QQ, [a, b], [None, SMat(2, 1, QQ)]), "shape 2x1, expected 1x1"
        ),
        "field": (
            lambda: ChainComplex(QQ, [a, b], [None, SMat.from_dense([[1]], GF(2))]),
            "wrong field",
        ),
        # cochains are stored as the transposes of their coboundaries
        "cochain-d-squared": (
            lambda: CobarComplex(QQ, [a, b, c], [None, one, one]).validate(), "d\\^2 != 0"
        ),
        "cochain-shape": (
            lambda: CobarComplex(QQ, [a, b], [None, SMat(1, 2, QQ)]), "shape 1x2, expected 1x1"
        ),
    }


@pytest.mark.parametrize("which", sorted(_malformed_complexes()))
def test_malformed_complex_refused(which):
    build, message = _malformed_complexes()[which]
    with pytest.raises(ChainError, match=message):
        build()


def test_homology_mod_p_differs():
    # multiplication by 2 is invertible over Q, zero over GF(2)
    over_q = cx([[("a", 0)], [("b", 0)]], [[[2]]])
    over_2 = cx([[("a", 0)], [("b", 0)]], [[[2]]], field=GF(2))
    assert over_q.homology().entries == {}
    assert over_2.homology().entries == {(0, 0): 1, (1, 0): 1}


def test_homology_basis_order_invariant():
    levels = [[("a", 0), ("b", 0)], [("c", 0), ("d", 0)], [("e", 0)]]
    d1 = [[1, 1], [1, 1]]
    d2 = [[1], [-1]]
    C = cx(levels, [d1, d2])
    perm_levels = [[("b", 0), ("a", 0)], [("d", 0), ("c", 0)], [("e", 0)]]
    d1p = [[1, 1], [1, 1]]
    d2p = [[-1], [1]]
    P = cx(perm_levels, [d1p, d2p])
    assert C.homology() == P.homology()


def test_per_t_blocks_are_independent():
    levels = [[("a", 0), ("x", 5)], [("b", 0), ("y", 5)]]
    d = [[1, 0], [0, 0]]
    C = cx(levels, [d])
    assert C.homology().entries == {(0, 5): 1, (1, 5): 1}


def test_whole_level_block_is_ranked_in_place(monkeypatch):
    # mat2 sits in degree 0, so each level of its cyclic complex is one t
    # block: homology ranks the differentials themselves, with no restricted
    # copy
    C = cyclic_bar_oracle(mat2(), 4)

    def refuse(*args):
        raise AssertionError("a block was copied")

    monkeypatch.setattr(SMat, "restrict", refuse)
    assert C.homology(3).entries == {(0, 0): 1}
    # a level of several t blocks is ranked in place too
    D = cx([[("a", 0), ("x", 5)], [("b", 0), ("y", 5)]], [[[1, 0], [0, 0]]])
    assert D.homology().entries == {(0, 5): 1, (1, 5): 1}


# ------------------------------------------------------------------ maps


def two_term(val, field=QQ):
    return cx([[("a", 0)], [("b", 0)]], [[[val]]], field=field)


def test_chain_map_validation():
    C = two_term(1)
    with pytest.raises(ChainError, match="commute"):
        ChainMap(C, C, [SMat.from_dense([[1]], QQ), SMat.from_dense([[2]], QQ)])
    f = ChainMap(C, C, [SMat.from_dense([[3]], QQ), SMat.from_dense([[3]], QQ)])
    assert f.mats[0].entry(0, 0) == QQ(3)


def test_chain_map_rejects_t_mixing():
    C = cx([[("a", 0)], [("b", 0)]], [0])
    D = cx([[("a", 1)], [("b", 1)]], [0])
    with pytest.raises(ChainError, match="internal"):
        ChainMap(C, D, [SMat.from_dense([[1]], QQ), SMat.from_dense([[0]], QQ)])


def test_chain_map_rejects_mismatched_ends():
    C = two_term(1)
    one = SMat.from_dense([[1]], QQ)
    with pytest.raises(ChainError, match="common field"):
        ChainMap(C, two_term(1, field=GF(2)), [one, one])
    with pytest.raises(ChainError, match="one matrix per level"):
        ChainMap(C, C, [one])
    with pytest.raises(ChainError, match="one matrix per level"):
        ChainMap(C, cx([[("a", 0)]], []), [one, one])
    with pytest.raises(ChainError, match="level 1 matrix has the wrong shape"):
        ChainMap(C, C, [one, SMat(2, 1, QQ)])


def test_cone_of_identity_acyclic():
    C = cx([[("a", 0), ("b", 1)], [("c", 0)]], [[[1], [0]]])
    ident = ChainMap(C, C, [SMat.identity(2, QQ), SMat.identity(1, QQ)])
    K = cone(ident).validate()
    assert K.homology().entries == {}


def test_quasi_iso_zero_map_between_acyclic():
    C = two_term(1)
    D = two_term(2)
    z = ChainMap(C, D, [SMat(1, 1, QQ), SMat(1, 1, QQ)])
    assert cone(z).homology(1).entries == {}


def test_not_quasi_iso_detected():
    C = cx([[("a", 0)]], [])
    D = cx([[("b", 0)]], [])
    z = ChainMap(C, D, [SMat(1, 1, QQ)])
    assert cone(z).homology(0).entries != {}


def test_quasi_iso_respects_validity():
    C = cx([[("a", 0)], [("b", 0)]], [0], exact=False)
    z = ChainMap(C, C, [SMat.identity(1, QQ), SMat.identity(1, QQ)])
    with pytest.raises(ChainError, match="trusted"):
        cone(z).homology(1)


# ---------------------------------------------------------------- tensor


def test_tensor_with_field_is_identity_on_betti():
    C = cx(
        [[("a", 0), ("b", 1)], [("c", 1)], [("d", 2)]],
        [[[0], [0]], [[0]]],
    )
    T = total_complex(dc_from_tensor(C, field_complex())).validate()
    assert T.homology() == C.homology()
    T2 = total_complex(dc_from_tensor(field_complex(), C)).validate()
    assert T2.homology() == C.homology()


def test_tensor_of_acyclics_is_acyclic():
    T = total_complex(dc_from_tensor(two_term(1), two_term(3))).validate()
    assert T.homology().entries == {}


# piece-built complexes with known homology, for Kunneth fuzzing

piece = st.tuples(
    st.sampled_from(["free", "pair"]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-1, max_value=1),
)


def build_from_pieces(pieces, field=QQ):
    top = max((s + (1 if kind == "pair" else 0) for kind, s, _ in pieces), default=0)
    levels = [[] for _ in range(top + 1)]
    wires = []  # (level, src_index, tgt_index)
    for k, (kind, s, t) in enumerate(pieces):
        if kind == "free":
            levels[s].append((f"f{k}", t))
        else:
            levels[s + 1].append((f"p{k}+", t))
            levels[s].append((f"p{k}-", t))
            wires.append((s + 1, len(levels[s + 1]) - 1, len(levels[s]) - 1))
    diffs = [None]
    for s in range(1, top + 1):
        diffs.append(SMat(len(levels[s - 1]), len(levels[s]), field))
    for s, j, i in wires:
        diffs[s].add_at(i, j, field.one)
    C = ChainComplex(field, levels, diffs, s_valid=top)
    expected = {}
    for kind, s, t in pieces:
        if kind == "free":
            expected[(s, t)] = expected.get((s, t), 0) + 1
    return C.validate(), BettiTable(expected, C.s_valid, "expected")


@settings(max_examples=40, deadline=None)
@given(st.lists(piece, min_size=1, max_size=5), st.lists(piece, min_size=1, max_size=5))
def test_kunneth_convolution(p1, p2):
    C, bc = build_from_pieces(p1)
    D, bd = build_from_pieces(p2)
    assert C.homology() == bc
    T = total_complex(dc_from_tensor(C, D)).validate()
    conv = convolve(bc, bd)
    assert T.homology(conv.s_valid) == conv


# ----------------------------------------------------------- double side


def dc_from_tensor(C, D):
    """Commuting-square double complex with columns C_p tensor D_q."""
    field = C.field
    gens = {}
    d_h = {}
    d_v = {}
    for p in range(C.top + 1):
        for q in range(D.top + 1):
            gens[(p, q)] = [
                ((cn, dn), ct + dt) for cn, ct in C.levels[p] for dn, dt in D.levels[q]
            ]
            nD = D.level_dim(q)
            if p >= 1:
                m = SMat(C.level_dim(p - 1) * nD, C.level_dim(p) * nD, field)
                for j, col in enumerate(C.diffs[p].cols):
                    for i, v in col.items():
                        for jd in range(nD):
                            m.add_at(i * nD + jd, j * nD + jd, v)
                d_h[(p, q)] = m
            if q >= 1:
                nDm = D.level_dim(q - 1)
                m = SMat(C.level_dim(p) * nDm, C.level_dim(p) * nD, field)
                for jd, col in enumerate(D.diffs[q].cols):
                    for idd, v in col.items():
                        for jc in range(C.level_dim(p)):
                            m.add_at(jc * nDm + idd, jc * nD + jd, v)
                d_v[(p, q)] = m
    return from_commuting(field, gens, d_h, d_v).validate()


def _malformed_double_complexes():
    # one generator per block; the shapes are refused by validate, the
    # squares by the d^2 check of the total, naming the generator (p, q, name)
    one = SMat.from_dense([[1]], QQ)
    g = [("g", 0)]
    line = {(0, 0): g, (1, 0): g, (2, 0): g}
    column = {(0, 0): g, (0, 1): g, (0, 2): g}
    square = {(p, q): g for p in (0, 1) for q in (0, 1)}
    return {
        "horizontal-shape": (
            DoubleComplex(QQ, line, {(1, 0): SMat(2, 1, QQ)}, {}),
            "horizontal map at \\(1, 0\\) has the wrong shape",
        ),
        "vertical-shape": (
            DoubleComplex(QQ, column, {}, {(0, 1): SMat(1, 2, QQ)}),
            "vertical map at \\(0, 1\\) has the wrong shape",
        ),
        "d_h-squared": (
            DoubleComplex(QQ, line, {(1, 0): one, (2, 0): one}, {}),
            "d\\^2 != 0 between levels 2 and 0 at generator \\(2, 0, 'g'\\)",
        ),
        "d_v-squared": (
            DoubleComplex(QQ, column, {}, {(0, 1): one, (0, 2): one}),
            "d\\^2 != 0 between levels 2 and 0 at generator \\(0, 2, 'g'\\)",
        ),
        # commuting squares, stored without the sign twist
        "commuting": (
            DoubleComplex(QQ, square, {(1, 0): one, (1, 1): one}, {(0, 1): one, (1, 1): one}),
            "d\\^2 != 0 between levels 2 and 0 at generator \\(1, 1, 'g'\\)",
        ),
    }


@pytest.mark.parametrize("which", sorted(_malformed_double_complexes()))
def test_malformed_double_complex_refused(which):
    D, message = _malformed_double_complexes()[which]
    if which.endswith("-shape"):
        with pytest.raises(ChainError, match=message):
            D.validate()
    else:
        D.validate()
    with pytest.raises(ChainError, match=message):
        total_complex(D)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([QQ, GF(2), GF(3)]),
    st.lists(piece, min_size=1, max_size=3),
    st.lists(piece, min_size=1, max_size=3),
    st.sampled_from(["d_h", "d_v"]),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([1, -1, 2]),
)
def test_total_refuses_exactly_where_a_block_square_fails(field, p1, p2, which, pick, c):
    # one entry joining generators of equal t is perturbed, so only d^2 can fail
    D = dc_from_tensor(build_from_pieces(p1, field)[0], build_from_pieces(p2, field)[0])
    step = (1, 0) if which == "d_h" else (0, 1)
    spots = []
    for (p, q), m in sorted(getattr(D, which).items()):
        src, tgt = D.gens.get((p, q), ()), D.gens.get((p - step[0], q - step[1]), ())
        spots += [
            (m, i, j) for j in range(m.ncols) for i in range(m.nrows) if src[j][1] == tgt[i][1]
        ]
    if spots:
        m, i, j = spots[pick % len(spots)]
        m.add_at(i, j, c)
    faults = block_square_faults(D)
    if not faults:
        total_complex(D)
        return
    with pytest.raises(ChainError, match="d\\^2 != 0") as refused:
        total_complex(D)
    assert any(f"at generator ({p}, {q}, " in str(refused.value) for p, q in faults)


def test_one_square_zero_check():
    """ChainComplex.validate streams d_{s-1} over the columns of d_s, with
    no product matrix, and a double complex keeps no block accessors: its
    squares are checked on the total complex."""
    tree = ast.parse(Path(chains.__file__).read_text())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    methods = {
        cls: {f.name: f for f in node.body if isinstance(f, ast.FunctionDef)}
        for cls, node in classes.items()
    }
    products = [
        node.lineno
        for node in ast.walk(methods["ChainComplex"]["validate"])
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Attribute) and node.attr == "matmul")
    ]
    assert products == []
    assert {"h", "v", "_mat"} & methods["DoubleComplex"].keys() == set()


def test_double_complex_single_column_pages():
    C = cx([[("a", 0)], [("b", 0)], [("c", 0)]], [[[0]], [[1]]])
    D = dc_from_tensor(field_complex(), C)
    # concentrated in p = 0: total complex is the column, E^1 = E^infty
    T = total_complex(D).validate()
    assert T.homology() == C.homology()
    pages = sseq_pages(D, 3)
    col_h = C.homology()
    for r in (1, 2, 3):
        got = {
            (q, t): v for (p, q, t), v in pages[r].entries.items() if p == 0
        }
        assert got == {(s, t): v for (s, t), v in col_h.entries.items()}
        assert all(p == 0 for (p, _, _) in pages[r].entries)


def test_double_complex_single_row():
    C = cx([[("a", 0)], [("b", 0)], [("c", 0)]], [[[2]], [[0]]])
    D = dc_from_tensor(C, field_complex())
    T = total_complex(D).validate()
    assert T.homology() == C.homology()


def test_double_complex_unit_square_acyclic():
    field = QQ
    gens = {
        (0, 0): [("w", 0)],
        (1, 0): [("y", 0)],
        (0, 1): [("z", 0)],
        (1, 1): [("x", 0)],
    }
    one = SMat.from_dense([[1]], field)
    d_h = {(1, 0): one, (1, 1): one}
    d_v = {(0, 1): one, (1, 1): one}
    D = from_commuting(field, gens, d_h, d_v).validate()
    T = total_complex(D).validate()
    assert T.homology().entries == {}
    page, _ = e_infinity(D)
    assert not page.entries


def transpose_double(D):
    """Swap the two directions; anticommutation is preserved verbatim."""
    gens = {(q, p): v for (p, q), v in D.gens.items()}
    d_h = {(q, p): m for (p, q), m in D.d_v.items()}
    d_v = {(q, p): m for (p, q), m in D.d_h.items()}
    return DoubleComplex(D.field, gens, d_h, d_v)


def test_exact_rows_kill_positive_columns_after_transpose():
    # horizontal complexes are exact at p > 0; run the transposed filtration
    C = two_term(1)  # exact everywhere
    R = cx([[("m", 0)], [("n", 0)]], [0])  # two free generators
    D = dc_from_tensor(C, R)
    flipped = transpose_double(D).validate()
    pages = sseq_pages(flipped, 1)
    assert pages[1].entries == {}


def test_page_dimensions_weakly_decrease():
    C, _ = build_from_pieces([("free", 0, 0), ("pair", 0, 0), ("free", 2, 1)])
    D, _ = build_from_pieces([("pair", 1, 0), ("free", 1, 0)])
    dd = dc_from_tensor(C, D)
    pages = sseq_pages(dd, 4)
    for r in range(1, 5):
        for key, v in pages[r].entries.items():
            assert pages[r - 1].entries.get(key, 0) >= v


def test_e2_of_tensor_double_is_kunneth_product():
    C, bc = build_from_pieces([("free", 0, 0), ("pair", 0, 1), ("free", 1, 0)])
    D, bd = build_from_pieces([("free", 0, 0), ("free", 1, 1), ("pair", 1, 0)])
    dd = dc_from_tensor(C, D)
    pages = sseq_pages(dd, 2)
    want = {}
    for (p, t1), v1 in bc.entries.items():
        for (q, t2), v2 in bd.entries.items():
            key = (p, q, t1 + t2)
            want[key] = want.get(key, 0) + v1 * v2
    assert pages[2].entries == want


def test_convergence_to_total_homology():
    C, _ = build_from_pieces([("free", 0, 0), ("pair", 0, 0), ("free", 1, 1)])
    D, _ = build_from_pieces([("free", 0, 0), ("pair", 1, -1)])
    dd = dc_from_tensor(C, D)
    T = total_complex(dd).validate()
    table = T.homology()
    page, r_stab = e_infinity(dd)
    for n in range(T.top + 1):
        assert page.total(n) == table.total(n), n
    assert r_stab >= 2


def test_nontrivial_d2_zigzag():
    field = QQ
    gens = {
        (2, 0): [("x", 0)],
        (1, 0): [("y", 0)],
        (1, 1): [("z", 0)],
        (0, 1): [("w", 0)],
    }
    one = SMat.from_dense([[1]], field)
    d_h = {(2, 0): one, (1, 1): one}
    d_v = {(1, 1): one}
    D = from_commuting(field, gens, d_h, d_v).validate()
    T = total_complex(D).validate()
    assert T.homology().entries == {}
    pages = sseq_pages(D, 3)
    assert pages[2].entries == {(2, 0, 0): 1, (0, 1, 0): 1}
    assert pages[3].entries == {}


def test_truncation_masks_pages_and_total():
    C = cx([[("a", 0)], [("b", 0)], [("c", 0)]], [0, 0])
    D2 = dc_from_tensor(C, field_complex())
    D2.s_valid = 1
    T = total_complex(D2)
    assert T.s_valid == 1
    pages = sseq_pages(D2, 2)
    assert all(p + q <= 1 for (p, q, _) in pages[2].entries)
    assert all(page.n_valid == 1 for page in pages)


def test_pages_stop_at_the_total_bound():
    # s_valid past top - 1 is capped by total_complex, and the pages follow
    # it instead of listing the untrusted top level
    C = cx([[("a", 0)], [("b", 0)], [("c", 0)]], [0, 0])
    D = dc_from_tensor(C, field_complex())
    D.s_valid = 5
    T = total_complex(D)
    assert (T.top, T.s_valid) == (2, 1)
    for page in sseq_pages(D, 2):
        assert page.n_valid == 1
        assert page.entries == {(0, 0, 0): 1, (1, 0, 0): 1}


@pytest.mark.parametrize("d", [1, 2], ids=["circle", "sphere2"])
@pytest.mark.parametrize("p_max", [1, 2, 3])
def test_bar_trust_bound_is_one_number(d, p_max):
    # d = 1 builds over the exact one-level model, d = 2 over the Loday
    # model of the circle stored to level max(p_max - 1, 1), which holds
    # every level the totals through degree p_max read
    D = suspension_bar(dual_numbers(), d, p_max)
    assert D.s_valid == p_max - 1
    assert total_complex(D).s_valid == p_max - 1
    assert {page.n_valid for page in sseq_pages(D, r_stable(D))} == {p_max - 1}


def test_total_complex_block_signs_anticommute():
    # the from_commuting twist must make the total differential square to zero
    C, _ = build_from_pieces([("pair", 0, 0), ("free", 1, 0)])
    D, _ = build_from_pieces([("pair", 0, 0), ("pair", 1, 0)])
    dd = dc_from_tensor(C, D)
    T = total_complex(dd)
    T.validate()


def koszul_tensor(C, D):
    """Tensor complex built directly: d(x@y) = dx@y + (-1)^a x@dy."""
    field = C.field
    top = C.top + D.top
    offsets = [{} for _ in range(top + 1)]
    levels = []
    for s in range(top + 1):
        gens = []
        for a in range(max(0, s - D.top), min(s, C.top) + 1):
            offsets[s][a] = len(gens)
            gens += [((a, cn, dn), ct + dt)
                     for cn, ct in C.levels[a] for dn, dt in D.levels[s - a]]
        levels.append(gens)
    diffs = [None]
    for s in range(1, top + 1):
        d = SMat(len(levels[s - 1]), len(levels[s]), field)
        for a, base in offsets[s].items():
            b = s - a
            nD = D.level_dim(b)
            if a >= 1:
                for jc, col in enumerate(C.diffs[a].cols):
                    for ic, v in col.items():
                        for jd in range(nD):
                            d.add_at(offsets[s - 1][a - 1] + ic * nD + jd,
                                     base + jc * nD + jd, v)
            if b >= 1:
                nDm = D.level_dim(b - 1)
                sign = field(-1) if a % 2 else field.one
                for jd, col in enumerate(D.diffs[b].cols):
                    for idd, v in col.items():
                        for jc in range(C.level_dim(a)):
                            d.add_at(offsets[s - 1][a] + jc * nDm + idd,
                                     base + jc * nD + jd, sign * v)
        diffs.append(d)
    return ChainComplex(field, levels, diffs, s_valid=top).validate()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(piece, min_size=1, max_size=4),
    st.lists(piece, min_size=1, max_size=4),
)
def test_double_tensor_total_matches_tensor_complex(p1, p2):
    C, _ = build_from_pieces(p1)
    D, _ = build_from_pieces(p2)
    T1 = total_complex(dc_from_tensor(C, D))
    T2 = koszul_tensor(C, D)
    assert T1.homology() == T2.homology()
    page, _ = e_infinity(dc_from_tensor(C, D))
    table = T1.homology()
    for n in range(T1.top + 1):
        assert page.total(n) == table.total(n)
    assert_pages_match_ranks(dc_from_tensor(C, D))


# -------------------------------------------------------- bar pages

BAR_BUILDS = [
    lambda: circle_bar(dual_numbers(), 3),
    lambda: circle_bar(dual_numbers(GF(3)), 3),
    lambda: suspension_bar(exterior_line(), 2, 3),
    lambda: circle_bar(gf4(), 3),
]
BAR_IDS = ["dual-Q", "dual-F3", "exterior-sphere2", "gf4-circle"]


# -------------------------------------------- page dimensions from ranks
#
# Independent of the column reduction: the number of pairs of D_n from
# filtration b down to a is r(a, b) - r(a+1, b) - r(a, b-1) + r(a+1, b-1),
# where r(a, b) is the rank of the t-block of D_n with rows of filtration
# >= a and columns of filtration <= b.  A generator at (p, n) survives to
# E^r unless it is paired with gap < r, as a column of D_n or a row of
# D_{n+1}.


def rank_pages(D, r_max):
    T = total_complex(D)
    n_valid = T.s_valid
    by_block = [{} for _ in T.levels]  # (t, p) -> level indices
    for n, level in enumerate(T.levels):
        for k, ((p, _, _), t) in enumerate(level):
            by_block[n].setdefault((t, p), []).append(k)

    def pairs(n, t, a, b):
        """Pairs of D_n from filtration b (columns) down to a (rows)."""
        if not 1 <= n <= T.top:
            return 0

        def rank(lo, hi):
            rows = [k for (tt, p), ks in by_block[n - 1].items()
                    if tt == t and p >= lo for k in ks]
            cols = [k for (tt, p), ks in by_block[n].items()
                    if tt == t and p <= hi for k in ks]
            return T.diffs[n].restrict(sorted(rows), sorted(cols)).rank()

        return rank(a, b) - rank(a + 1, b) - rank(a, b - 1) + rank(a + 1, b - 1)

    pages = []
    for r in range(r_max + 1):
        entries = {}
        for n in range(n_valid + 1):
            for (t, p), ks in by_block[n].items():
                dim = len(ks)
                dim -= sum(pairs(n, t, a, p) for a in range(p - r + 1, p + 1))
                dim -= sum(pairs(n + 1, t, p, b) for b in range(p, p + r))
                if dim:
                    entries[(p, n - p, t)] = dim
        pages.append(entries)
    return pages


def assert_pages_match_ranks(D):
    r_max = r_stable(D)
    pages = sseq_pages(D, r_max)
    assert [page.entries for page in pages] == rank_pages(D, r_max)


# a reduction that picks the sparsest row as pivot gets E^2 of gf4 wrong
@pytest.mark.parametrize("build", BAR_BUILDS, ids=BAR_IDS)
def test_pages_match_rank_counts(build):
    assert_pages_match_ranks(build())
