"""Structure-constant algebra layer: validation, products, tensor, center."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhx import catalog
from hhx.algebra import (
    AlgebraError,
    AlgebraMap,
    algebra_from_json,
    algebra_to_json,
    center,
    is_etale,
    make_algebra,
    map_from_json,
    map_to_json,
    opposite,
    tensor_algebras,
    unit_adapted,
)
from hhx.catalog import (
    dual_into_square,
    dual_numbers,
    dual_pair,
    dual_square,
    exterior_line,
    gf4,
    mat2,
    split_pair,
    split_triple,
)
from hhx.fields import GF, QQ
from hhx.matrix import SMat

from helpers import canonical, scaled_pair


def dense_nullspace_dim(rows):
    """Plain Gaussian elimination over Fractions, no package code."""
    rows = [[Fraction(v) for v in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return ncols - rank


# ---------------------------------------------------------------- validation


def test_dual_numbers_builds():
    A = dual_numbers()
    assert A.dim == 2
    assert A.names == ("1", "x")
    assert A.commutative


def test_rejects_degree_violation():
    # x in degree 1 with x*x = 1 lands in degree 0, not 2
    with pytest.raises(AlgebraError, match="degree"):
        make_algebra(
            QQ,
            [("1", 0), ("x", 1)],
            [1, 0],
            [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            False,
        )


def test_rejects_broken_associativity():
    # u*u = v, everything else with v gives 0, so (u*u)*u = 0 but u*(u*u) = 0;
    # break it instead via u*v = 1 which makes (u*u)*u = u while u*(u*u) = 1*...
    with pytest.raises(AlgebraError, match=r"associativity fails at triple \(u, u, u\)"):
        make_algebra(
            QQ,
            [("1", 0), ("u", 0), ("v", 0)],
            [1, 0, 0],
            [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                [[0, 0, 1], [0, 1, 0], [0, 0, 0]],
            ],
            False,
        )


def test_rejects_broken_unit():
    with pytest.raises(AlgebraError, match="unit law"):
        make_algebra(
            QQ,
            [("1", 0), ("x", 0)],
            [1, 0],
            [[[1, 0], [0, 2]], [[0, 1], [0, 0]]],
            False,
        )


def test_rejects_false_commutative_claim():
    with pytest.raises(AlgebraError, match="sign rule"):
        mat2_table = mat2(QQ)
        make_algebra(
            QQ,
            list(zip(mat2_table.names, mat2_table.degrees)),
            [1, 0, 0, 1],
            [[[mat2_table.mul_basis(i, j).get(k, 0) for k in range(4)] for j in range(4)]
             for i in range(4)],
            True,
        )


def test_sign_rule_odd_degrees():
    # anticommuting degree-one generator passes the graded check
    A = exterior_line()
    assert A.commutative
    # but a genuinely symmetric product on an odd generator fails it
    with pytest.raises(AlgebraError, match="sign rule"):
        make_algebra(
            QQ,
            [("1", 0), ("x", 1), ("x2", 2)],
            [1, 0, 0],
            [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            ],
            True,
        )


def test_rejects_shape_and_name_problems():
    with pytest.raises(AlgebraError, match="distinct"):
        make_algebra(QQ, [("a", 0), ("a", 0)], [1, 0], [[[1, 0]] * 2] * 2, False)
    with pytest.raises(AlgebraError, match="non-negative"):
        make_algebra(QQ, [("a", -1)], [1], [[[1]]], False)
    with pytest.raises(AlgebraError, match="2x2"):
        make_algebra(QQ, [("a", 0), ("b", 0)], [1, 0], [[[1, 0]]], False)
    with pytest.raises(AlgebraError, match="length"):
        make_algebra(QQ, [("a", 0)], [1, 0], [[[1]]], False)
    with pytest.raises(AlgebraError, match="empty"):
        make_algebra(QQ, [], [], [], False)


# ---------------------------------------------------------------- products


def test_multiply_dual_numbers():
    A = dual_numbers()
    # (2 + 3x)(5 + 7x) = 10 + 29x
    got = A.multiply({0: QQ(2), 1: QQ(3)}, {0: QQ(5), 1: QQ(7)})
    assert got == {0: QQ(10), 1: QQ(29)}


def test_multiply_respects_characteristic():
    A = dual_numbers(GF(5))
    got = A.multiply({0: 2, 1: 3}, {0: 4, 1: 1})
    assert got == {0: 3, 1: 4}  # 8 = 3, 2 + 12 = 14 = 4 mod 5


def test_product_chain():
    A = mat2()
    one = QQ.one
    # E12 * E21 * E11 = E11
    assert A.product_chain([1, 2, 0]) == {0: one}
    # empty chain is the unit
    assert A.product_chain([]) == {0: one, 3: one}
    # E12 * E12 = 0
    assert A.product_chain([1, 1]) == {}


def test_element_degree_and_show():
    A = exterior_line()
    assert A.element_degree({1: QQ.one}) == 1
    assert A.element_degree({}) is None
    with pytest.raises(AlgebraError, match="homogeneous"):
        A.element_degree({0: QQ.one, 1: QQ.one})
    assert A.show_element({0: QQ(2), 1: QQ(-1)}) == "2*1 + -1*x"
    assert A.show_element({}) == "0"


# ---------------------------------------------------------------- tensor


def test_tensor_split_pairs_is_split_quadruple():
    # hand-built comparison: four orthogonal idempotents, unit the full sum
    T = tensor_algebras(split_pair(), split_pair())
    assert T.dim == 4
    assert T.names == ("e1⊗e1", "e1⊗e2", "e2⊗e1", "e2⊗e2")
    assert T.unit == {0: 1, 1: 1, 2: 1, 3: 1}
    for i in range(4):
        for j in range(4):
            expect = {i: QQ.one} if i == j else {}
            assert T.mul_basis(i, j) == expect, (i, j)


def test_tensor_koszul_sign():
    E = exterior_line()
    T = tensor_algebras(E, E)
    i_x1 = T.names.index("x⊗1")
    i_1x = T.names.index("1⊗x")
    i_xx = T.names.index("x⊗x")
    assert T.mul_basis(i_x1, i_1x) == {i_xx: QQ.one}
    assert T.mul_basis(i_1x, i_x1) == {i_xx: QQ(-1)}
    assert T.degrees[i_xx] == 2


def test_tensor_matches_monomial_presentation():
    T = tensor_algebras(dual_numbers(), dual_numbers())
    S = dual_square()
    assert T.degrees == S.degrees
    assert T.unit == S.unit
    assert T.table == S.table


def test_tensor_associative_on_structure_constants():
    A, B, C = split_pair(), dual_numbers(), exterior_line()
    left = tensor_algebras(tensor_algebras(A, B), C)
    right = tensor_algebras(A, tensor_algebras(B, C))
    assert left.names == right.names
    assert left.degrees == right.degrees
    assert left.unit == right.unit
    assert left.table == right.table


def test_tensor_field_mismatch():
    with pytest.raises(AlgebraError, match="field"):
        tensor_algebras(dual_numbers(QQ), dual_numbers(GF(3)))


# ---------------------------------------------------------------- opposite


def test_opposite_mat2():
    A = mat2()
    B = opposite(A)
    # E12 *op E21 = E21 * E12 = E22
    assert B.mul_basis(1, 2) == {3: QQ.one}
    assert A.mul_basis(1, 2) == {0: QQ.one}


def test_opposite_involution_and_commutative_fixed():
    for A in [mat2(), exterior_line(), dual_square()]:
        assert opposite(opposite(A)) == A
    E = exterior_line()
    assert opposite(E) == E  # graded-commutative, odd sign cancels the swap


# ---------------------------------------------------------------- etale


def test_gf4_trace_matrix_frozen():
    # by hand: L_1 has trace 0 over GF(2), L_w has matrix [[0,1],[1,1]], trace 1,
    # L_{w^2} = L_{1+w} trace 1, so the pairing matrix is [[0,1],[1,1]], rank 2
    A = gf4()
    f2 = A.field
    tr = []
    for k in range(2):
        tr.append(sum(A.mul_basis(k, m).get(m, 0) for m in range(2)) % 2)
    assert tr == [0, 1]
    gram = [[0, 0], [0, 0]]
    for i in range(2):
        for j in range(2):
            gram[i][j] = sum(c * tr[k] for k, c in A.mul_basis(i, j).items()) % 2
    assert gram == [[0, 1], [1, 1]]
    assert is_etale(A)
    del f2


def test_etale_values():
    assert is_etale(split_pair())
    assert is_etale(split_triple())
    assert not is_etale(dual_numbers())
    assert not is_etale(dual_square())
    assert is_etale(gf4())


def test_etale_rejects_graded_and_noncommutative():
    with pytest.raises(AlgebraError, match="degree zero"):
        is_etale(exterior_line())
    with pytest.raises(AlgebraError, match="commutative"):
        is_etale(mat2())


def test_etale_multiplicative_over_tensor():
    pool = [split_pair(), split_triple(), dual_numbers()]
    for A in pool:
        for B in pool:
            T = tensor_algebras(A, B)
            assert is_etale(T) == (is_etale(A) and is_etale(B))


def test_dual_numbers_not_etale_mod_p_either():
    assert not is_etale(dual_numbers(GF(7)))
    assert is_etale(split_pair(GF(7)))


# ---------------------------------------------------------------- center


def center_dim_oracle(A):
    """Dense, Fraction-only computation of the graded center dimension."""
    d = A.dim
    total = 0
    for delta in sorted(set(A.degrees)):
        idxs = [i for i in range(d) if A.degrees[i] == delta]
        rows = []
        for j in range(d):
            for k in range(d):
                row = []
                for i in idxs:
                    v = Fraction(A.mul_basis(i, j).get(k, 0)) - (
                        Fraction(A.mul_basis(j, i).get(k, 0))
                        if (delta * A.degrees[j]) % 2 == 0
                        else -Fraction(A.mul_basis(j, i).get(k, 0))
                    )
                    row.append(v)
                rows.append(row)
        total += dense_nullspace_dim(rows) if idxs else 0
    return total


def test_center_mat2_is_scalars():
    zs = center(mat2())
    assert len(zs) == 1
    assert zs[0] == {0: QQ.one, 3: QQ.one}


def test_center_split_pair_tensor_mat2():
    A = tensor_algebras(split_pair(), mat2())
    zs = center(A)
    assert len(zs) == 2
    assert len(zs) == center_dim_oracle(A)


def test_center_exterior_is_everything():
    E = exterior_line()
    zs = center(E)
    assert len(zs) == 2
    assert center_dim_oracle(E) == 2


def test_center_matches_oracle_on_catalog():
    for A in [dual_numbers(), split_triple(), mat2(), dual_square()]:
        assert len(center(A)) == center_dim_oracle(A)


def test_center_elements_commute():
    A = tensor_algebras(split_pair(), mat2())
    for z in center(A):
        for j in range(A.dim):
            u = {j: A.field.one}
            assert A.multiply(z, u) == A.multiply(u, z)


# ---------------------------------------------------------------- maps


def test_base_map_validates():
    f = dual_into_square()
    img = f.matrix.mul_vec({1: QQ.one})
    assert img == {1: QQ.one}


def test_map_rejects_nonmultiplicative():
    src = dual_numbers()
    m = SMat.from_dense([[1, 1], [0, 1]], QQ)  # x -> 1 + x
    with pytest.raises(AlgebraError, match="multiplicative"):
        AlgebraMap(src, src, m)


def test_map_rejects_unit_violation():
    src = split_pair()
    m = SMat.from_dense([[1, 0], [0, 0]], QQ)  # e2 -> 0 kills the unit
    with pytest.raises(AlgebraError, match="unit"):
        AlgebraMap(src, src, m)


def test_map_rejects_degree_violation():
    src = exterior_line()
    tgt = dual_numbers()
    m = SMat.from_dense([[1, 0], [0, 1]], QQ)
    with pytest.raises(AlgebraError, match="degree"):
        AlgebraMap(src, tgt, m)


def test_map_rejects_shape_and_field_mismatch():
    with pytest.raises(AlgebraError, match="shape"):
        AlgebraMap(dual_numbers(), dual_numbers(), SMat.from_dense([[1, 0]], QQ))
    with pytest.raises(AlgebraError, match="field"):
        AlgebraMap(
            dual_numbers(),
            dual_numbers(GF(3)),
            SMat.from_dense([[1, 0], [0, 1]], GF(3)),
        )


# ---------------------------------------------------------------- json


def test_algebra_json_round_trip():
    for A in [dual_numbers(), gf4(), exterior_line(), mat2(), dual_square()]:
        assert algebra_from_json(algebra_to_json(A)) == A


def test_algebra_json_field_override():
    obj = algebra_to_json(dual_numbers())
    B = algebra_from_json(obj, GF(3))
    assert B.field is GF(3)
    assert B.multiply({0: 1, 1: 1}, {0: 1, 1: 1}) == {0: 1, 1: 2}


def test_algebra_json_rejects_garbage():
    with pytest.raises(AlgebraError, match="lacks keys"):
        algebra_from_json({"field": "Q"})
    obj = algebra_to_json(dual_numbers())
    obj["commutative"] = "yes"
    with pytest.raises(AlgebraError, match="boolean"):
        algebra_from_json(obj)


@pytest.mark.parametrize(
    "make, key, value, message",
    [
        (exterior_line, "degree", True, "degree of 'x'"),
        (dual_numbers, "unit", [True, False], "unit vector: cannot coerce True"),
    ],
    ids=["degree", "unit"],
)
def test_algebra_json_refuses_booleans(make, key, value, message):
    obj = algebra_to_json(make())
    if key == "degree":
        obj["basis"][1]["degree"] = value
    else:
        obj["unit"] = value
    with pytest.raises(AlgebraError, match=message):
        algebra_from_json(obj)


def test_map_json_round_trip():
    f = dual_into_square()
    g = map_from_json(map_to_json(f))
    assert g.source == f.source
    assert g.target == f.target
    assert g.matrix == f.matrix


def test_map_json_field_override():
    f = dual_into_square()
    g = map_from_json(map_to_json(f), GF(5))
    assert g.source.field is GF(5)


# ---------------------------------------------------------------- properties


diag_entries = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda v: True),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=4))
def test_split_algebra_always_etale(pattern):
    # any product of copies of k built degreewise from idempotents is etale
    n = len(pattern)
    table = [
        [[QQ.one if i == j == k else QQ.zero for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    A = make_algebra(
        QQ, [(f"e{i}", 0) for i in range(n)], [1] * n, table, True
    )
    assert is_etale(A)
    del pattern


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["dual", "pair", "ext"]),
    st.sampled_from(["dual", "pair", "ext"]),
)
def test_tensor_dimension_and_degrees(a, b):
    build = {"dual": dual_numbers, "pair": split_pair, "ext": exterior_line}
    A, B = build[a](), build[b]()
    T = tensor_algebras(A, B)
    assert T.dim == A.dim * B.dim
    degs = sorted(T.degrees)
    want = sorted(da + db for da in A.degrees for db in B.degrees)
    assert degs == want


def _is_unit(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "unit"


def test_elements_stay_sparse():
    """Past make_algebra an element, the unit included, is a sparse dict.

    No hhx module builds a dense basis vector, looks the unit up in a
    dense vector with .unit.index, or enumerates a .unit as a dense
    vector.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "hhx"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "basis_vector":
                found.append(f"{path.name}:{node.lineno} calls basis_vector")
            elif name == "index" and _is_unit(func.value):
                found.append(f"{path.name}:{node.lineno} calls .unit.index")
            elif name == "enumerate" and node.args and _is_unit(node.args[0]):
                found.append(f"{path.name}:{node.lineno} enumerates a .unit")
    assert found == []


def stored_algebras():
    """Every catalog algebra, map ends included, and what tensor_algebras,
    opposite and unit_adapted build from them."""
    out = []
    for name in catalog.__all__:
        made = getattr(catalog, name)()
        out += [made.source, made.target] if isinstance(made, AlgebraMap) else [made]
    # over F_3 a sign left unreduced would show as a negative coefficient
    odd = tensor_algebras(exterior_line(GF(3)), exterior_line(GF(3)))
    out += [odd, tensor_algebras(dual_numbers(), exterior_line())]
    out += [tensor_algebras(mat2(), mat2())]
    out += [opposite(A) for A in (odd, mat2(), dual_pair(GF(3)))]
    out += [unit_adapted(A).source for A in (scaled_pair(), split_pair(GF(5)), dual_pair())]
    return out


def test_table_is_the_sparse_product():
    """table[i][j] is the very dict mul_basis(i, j) returns, with no zero
    and every coefficient in its canonical form."""
    for A in stored_algebras():
        for i in range(A.dim):
            for j in range(A.dim):
                ab = A.table[i][j]
                assert type(ab) is dict and ab is A.mul_basis(i, j), (A, i, j)
                for c in ab.values():
                    assert c != A.field.zero and canonical(c) and A.field(c) == c, (A, i, j)
