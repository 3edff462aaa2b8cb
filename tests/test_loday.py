"""Tensor-power chain models: construction, normalization, products, oracle."""

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import convolve, fold_map, window_equal
from hhx.algebra import (
    AlgebraError,
    AlgebraMap,
    algebra_from_json,
    change_basis,
    make_algebra,
    tensor_algebras,
    unit_adapted,
)
from hhx.catalog import (
    dual_numbers,
    dual_pair,
    dual_into_square,
    dual_square,
    exterior_line,
    gf4,
    ground,
    mat2,
    pair_into_dual_pair,
    split_pair,
    split_triple,
)
from hhx.chains import ChainComplex, ChainError, cone
from hhx.fields import GF, QQ
from hhx.loday import (
    _Push,
    _TopLevel,
    _shuffle_chain,
    cyclic_bar_oracle,
    hh,
    induced_map,
    loday_complex,
    oracle_hh,
    unnormalized_complex,
)
from hhx.matrix import SMat
from hhx.simplicial import (
    Simp,
    SimplicialMap,
    circle_min,
    circle_subdiv,
    disjoint_union,
    interval,
    point,
    sphere_min,
)


CORPUS = Path(__file__).resolve().parent.parent / "src" / "hhx" / "corpus"


def dense(rows, field):
    return SMat.from_dense([[field(v) for v in r] for r in rows], field)


# ---------------------------------------------------------------- oracle


def test_cyclic_oracle_level_dims():
    # normalized: A (x) Abar^(x)n, and Abar of the dual numbers is the line of x
    O = cyclic_bar_oracle(dual_numbers(), 3)
    assert [len(lv) for lv in O.levels] == [2, 2, 2, 2]
    O.validate()


def test_circle_model_matches_cyclic_bar():
    # Position k of circle level n is the fully degenerate vertex (k = 0)
    # or the edge word missing index n - k, which lines the level up with
    # tensor slots 0..n.  Under that identification face i of the circle
    # merges the reversed slot pair, so the differentials agree up to the
    # global sign (-1)^n.  Both are normalized in the unit-adapted basis,
    # on the same generators.
    X = circle_min()
    for n in range(1, 5):
        lv = X.level(n)
        assert lv[0].base == "v" and len(lv[0].word) == n
        for k in range(1, n + 1):
            assert lv[k].base == "e"
            assert set(range(n)) - set(lv[k].word) == {n - k}
    for A in [dual_numbers(), split_pair(), exterior_line(), dual_square()]:
        C = loday_complex(A, X, 4).complex
        O = cyclic_bar_oracle(A, 4)
        assert C.levels == O.levels
        for n in range(1, 5):
            want = O.diffs[n] if n % 2 == 0 else O.diffs[n].scale(-1)
            assert C.diffs[n] == want


def test_circle_oracle_chain_iso_scaling():
    # eps_n = (-1)^(n(n+1)/2) conjugates one differential into the other.
    A = dual_numbers()
    C = loday_complex(A, circle_min(), 4).complex
    O = cyclic_bar_oracle(A, 4)
    eps = [1 if (n * (n + 1) // 2) % 2 == 0 else -1 for n in range(5)]
    for n in range(1, 5):
        lhs = C.diffs[n].scale(QQ(eps[n - 1]))
        rhs = O.diffs[n].scale(QQ(eps[n]))
        assert lhs == rhs


def test_oracle_agreement_corpus():
    cases = [
        ground(),
        dual_numbers(),
        split_pair(),
        split_triple(),
        exterior_line(),
        gf4(),
    ]
    for A in cases:
        a = hh(A, circle_min(), 4)
        b = oracle_hh(A, 4)
        assert window_equal(a, b, 4), (A.names, a.entries, b.entries)
        assert a.provenance == "loday" and b.provenance == "oracle"


def test_mat2_oracle_trace_quotient():
    # separable, so nothing above degree zero (Morita invariance); commutators
    # span a rank-3 subspace of the four-dimensional algebra
    for field in (QQ, GF(2), GF(3)):
        assert oracle_hh(mat2(field), 4).entries == {(0, 0): 1}
        assert cyclic_bar_oracle(mat2(field), 2).diffs[1].rank() == 3


CATALOG = [
    ground, dual_numbers, split_pair, split_triple, gf4, exterior_line,
    mat2, dual_square, dual_pair,
]


@pytest.mark.parametrize("make", CATALOG, ids=lambda f: f.__name__)
def test_oracle_is_normalized(make):
    # a return to the full tensor power A^(x)(n+1) fails on the count
    A = make()
    O = cyclic_bar_oracle(A, 4)
    assert [len(lv) for lv in O.levels] == [A.dim * (A.dim - 1) ** n for n in range(5)]
    O.validate()


def _unit_off_basis():
    B = change_basis(dual_numbers(), [{0: 1, 1: 1}, {1: 1}], ["1+x", "x"]).source
    assert B.unit == {0: 1, 1: -1}
    return B


@pytest.mark.parametrize(
    "make",
    [pytest.param(f, id=f.__name__) for f in CATALOG if f is not mat2]
    + [
        pytest.param(lambda: dual_numbers(GF(3)), id="dual_numbers-F3"),
        pytest.param(_unit_off_basis, id="unit_off_basis"),
    ],
)
def test_oracle_matches_unnormalized_circle(make):
    # the unnormalized model keeps the basis A comes with, so this check does
    # not go through unit_adapted
    A = make()
    assert oracle_hh(A, 4) == unnormalized_complex(A, circle_min(), 5).homology(4)


def test_oracle_rejects_bad_bound():
    with pytest.raises(ValueError):
        cyclic_bar_oracle(dual_numbers(), 0)
    with pytest.raises(ValueError):
        oracle_hh(dual_numbers(), -1)


# ---------------------------------------------------------------- profiles


def test_dual_numbers_profile_against_periodic_resolution():
    # Free bimodule resolution of k[x]/(x^2): rank-one modules with the
    # boundary alternating between 0 and multiplication by 2x.  Over Q that
    # gives dims (2, 1, 1, 1, 1); over F_2 nothing cancels.
    A = dual_numbers()
    two_x = dense([[0, 0], [2, 0]], QQ)
    zero = SMat(2, 2, QQ)
    levels = [[("1", 0), ("x", 0)]] * 6
    diffs = [None, zero, two_x, zero, two_x, zero]
    resolution = ChainComplex(QQ, levels, diffs).validate()
    expected = resolution.homology(4)
    got = hh(A, circle_min(), 4)
    assert window_equal(got, expected, 4)
    assert [got.total(s) for s in range(5)] == [2, 1, 1, 1, 1]

    f2 = GF(2)
    got2 = hh(dual_numbers(f2), circle_min(), 3)
    assert [got2.total(s) for s in range(4)] == [2, 2, 2, 2]


def test_point_gives_back_the_algebra():
    for A in [dual_numbers(), exterior_line(), split_triple()]:
        t = hh(A, point(), 3)
        by_t: dict = {}
        for d in A.degrees:
            by_t[d] = by_t.get(d, 0) + 1
        assert t.entries == {(0, d): n for d, n in by_t.items()}


def test_ground_circle_trivial():
    t = hh(ground(), circle_min(), 5)
    assert t.entries == {(0, 0): 1}


def test_unnormalized_circle_dims():
    A = split_triple()
    C = unnormalized_complex(A, circle_min(), 3)
    assert [len(lv) for lv in C.levels] == [3, 9, 27, 81]
    C.validate()


# ---------------------------------------------------------------- descent


def test_etale_descent_spheres():
    for A in [split_pair(), split_triple(), gf4()]:
        dims: dict = {}
        for d in A.degrees:
            dims[d] = dims.get(d, 0) + 1
        t1 = hh(A, sphere_min(1), 3)
        t2 = hh(A, sphere_min(2), 2)
        assert t1.entries == {(0, d): n for d, n in dims.items()}, A.names
        assert t2.entries == {(0, d): n for d, n in dims.items()}, A.names


def test_non_etale_does_not_concentrate():
    t = hh(dual_numbers(), sphere_min(1), 2)
    assert any(s > 0 for (s, _) in t.entries)


# ---------------------------------------------------------------- models


def test_model_independence_subdivided_circles():
    # same table from the one-vertex circle and its subdivisions; window
    # graded by algebra size to keep the level dimensions in check
    for A in [dual_numbers(), split_pair()]:
        base = hh(A, circle_min(), 3)
        assert window_equal(hh(A, circle_subdiv(3), 3), base, 3), A.names
    for A in [exterior_line(), gf4()]:
        base = hh(A, circle_min(), 2)
        assert window_equal(hh(A, circle_subdiv(3), 2), base, 2), A.names
    base = hh(dual_numbers(), circle_min(), 2)
    assert window_equal(hh(dual_numbers(), circle_subdiv(4), 2), base, 2)
    base3 = hh(split_triple(), circle_min(), 1)
    assert window_equal(hh(split_triple(), circle_subdiv(3), 1), base3, 1)


def test_collapse_map_is_quasi_iso():
    sub = circle_subdiv(3)
    v = Simp((), "v")
    assign = {
        "v0": v,
        "v1": v,
        "v2": v,
        "e0": Simp((), "e"),
        "e1": Simp((0,), "v"),
        "e2": Simp((0,), "v"),
    }
    f = SimplicialMap(sub, circle_min(), assign)
    cm = induced_map(f, dual_numbers(), 4)
    assert cone(cm).homology(3).entries == {}


def test_induced_map_unnormalized_commutes():
    f = fold_map(circle_min(), 2)
    cm = induced_map(f, dual_numbers(), 2)
    # ChainMap construction already checked the squares; spot the shapes:
    # a level-1 monomial is degenerate when both edge positions hold the unit
    assert cm.mats[0].ncols == 4 and cm.mats[0].nrows == 2
    assert cm.mats[1].ncols == 12 and cm.mats[1].nrows == 2


def test_fold_map_level_zero_is_multiplication():
    for A in [dual_numbers(), split_pair()]:
        f = fold_map(point(), 2)
        cm = induced_map(f, A, 1)
        # level 0 of the normalized model is every monomial, in the
        # unit-adapted copy of A the model is written in
        B = loday_complex(A, point(), 1).algebra
        m = cm.mats[0]
        for j, (i1, i2) in enumerate(itertools.product(range(B.dim), repeat=2)):
            assert m.cols[j] == B.mul_basis(i1, i2)


# ---------------------------------------------------------------- pushes


def _naive_push(A, tp, m, phi):
    """The image of phi under the push along tp, term by term."""
    field = A.field
    # each target fiber multiplies its factors in source order; an empty
    # fiber is the product of nothing, the unit
    expansions = [
        A.product_chain([phi[k] for k in range(len(tp)) if tp[k] == p])
        for p in range(m)
    ]
    odd = [A.degrees[i] % 2 for i in phi]
    flips = sum(
        odd[k] and odd[l]
        for k in range(len(tp))
        for l in range(k + 1, len(tp))
        if tp[k] > tp[l]
    )
    out: dict = {}
    for combo in itertools.product(*(e.items() for e in expansions)):
        c = field(-1) if flips % 2 else field.one
        for _, cv in combo:
            c = c * cv
        field.add_into(out, tuple(i for i, _ in combo), c)
    return out


PUSH_ALGEBRAS = [
    pytest.param(exterior_line, id="exterior"),
    # (x@1)(1@y) = x@y but (1@y)(x@1) = -x@y: one-term products with
    # coefficient -1, and odd factors that collide without vanishing
    pytest.param(lambda: tensor_algebras(exterior_line(), exterior_line()), id="exterior^2"),
    pytest.param(dual_numbers, id="dual"),
    pytest.param(lambda: dual_numbers(GF(3)), id="dual-F3"),
    pytest.param(split_pair, id="QxQ"),
    pytest.param(gf4, id="F4"),
    pytest.param(_unit_off_basis, id="unit_off_basis"),
]


@pytest.mark.parametrize("make", PUSH_ALGEBRAS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_push_column_matches_naive_product(make, data):
    # position maps with empty, lone and 2-3-source fibers
    A = make()
    m = data.draw(st.integers(1, 4))
    fibers = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    tp = [p for p, size in enumerate(fibers) for _ in range(size)]
    tp = data.draw(st.permutations(tp))
    basis = st.integers(0, A.dim - 1)
    phi = tuple(data.draw(st.lists(basis, min_size=len(tp), max_size=len(tp))))
    assert _Push(A, tp, m).column(phi) == _naive_push(A, tp, m, phi)


# ---------------------------------------------------------------- kunneth


def test_kunneth_dual_circle_point():
    A = dual_numbers()
    direct = hh(A, disjoint_union(circle_min(), point()), 3)
    conv = convolve(hh(A, circle_min(), 3), hh(A, point(), 3))
    assert window_equal(direct, conv, 3)
    assert conv.provenance == "convolution"


def test_kunneth_pair_two_circles():
    A = split_pair()
    direct = hh(A, disjoint_union(circle_min(), circle_min()), 3)
    conv = convolve(hh(A, circle_min(), 3), hh(A, circle_min(), 3))
    assert window_equal(direct, conv, 3)


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from(["point", "interval", "circle", "sphere1"]),
    st.sampled_from(["point", "interval", "circle", "sphere1"]),
)
def test_kunneth_fuzz_spaces(xa, xb):
    spaces = {
        "point": point,
        "interval": interval,
        "circle": circle_min,
        "sphere1": lambda: sphere_min(1),
    }
    A = dual_numbers()
    X, Y = spaces[xa](), spaces[xb]()
    direct = hh(A, disjoint_union(X, Y), 2)
    conv = convolve(hh(A, X, 2), hh(A, Y, 2))
    assert window_equal(direct, conv, 2)


# ---------------------------------------------------------------- normalize


def test_normalized_circle_dims():
    for A, per in [(dual_numbers(), [2, 2, 2, 2]), (split_triple(), [3, 6, 12, 24])]:
        L = loday_complex(A, circle_min(), 3)
        C = L.complex
        assert [len(lv) for lv in C.levels] == per
        C.validate()


def test_normalization_preserves_homology():
    for A in [dual_numbers(), exterior_line()]:
        L = loday_complex(A, circle_min(), 4)
        raw = unnormalized_complex(A, circle_min(), 4).homology(3)
        assert window_equal(L.complex.homology(3), raw, 3)
    L = loday_complex(dual_numbers(), circle_subdiv(2), 3)
    raw = unnormalized_complex(dual_numbers(), circle_subdiv(2), 3).homology(2)
    assert window_equal(L.complex.homology(2), raw, 2)


@pytest.mark.parametrize(
    "make, X, N",
    [
        (split_pair, circle_subdiv(2), 3),
        (split_triple, circle_subdiv(2), 2),
        (split_pair, sphere_min(2), 4),
        (split_triple, sphere_min(2), 4),
    ],
    ids=["qxq-circle2", "q3-circle2", "qxq-sphere2", "q3-sphere2"],
)
def test_direct_normalization_without_unit_basis_vector(make, X, N):
    # the unit is a sum of idempotents, so the complex is built in the
    # unit-adapted basis; the unnormalized complex in the given basis is
    # the oracle
    A = make()
    C = loday_complex(A, X, N).complex
    C.validate()
    raw = unnormalized_complex(A, X, N)
    assert window_equal(C.homology(N - 1), raw.homology(N - 1), N - 1)
    assert all(C.level_dim(n) < raw.level_dim(n) for n in range(1, N + 1))


def test_nondegenerate_counts_dual_subdivided_circle():
    L = loday_complex(dual_numbers(), circle_subdiv(3), 3)
    assert [len(lv) for lv in L.complex.levels] == [8, 56, 392, 2744]


def _permuted(A, perm):
    """A in the basis e'_k = e_perm[k]."""
    table = [[[A.mul_basis(a, b).get(c, 0) for c in perm] for b in perm] for a in perm]
    basis = [(A.names[p], A.degrees[p]) for p in perm]
    unit = [A.unit.get(p, A.field.zero) for p in perm]
    return make_algebra(A.field, basis, unit, table, A.commutative)


@pytest.mark.parametrize("make", [dual_numbers, split_pair], ids=["dual", "qxq"])
def test_basis_permutation_keeps_table(make):
    # both algebras have dimension two, so the seeded draw is the swap: the
    # unit of the permuted dual numbers is the second basis vector
    A = make()
    perm = list(range(A.dim))
    rng = random.Random(7)
    while perm == sorted(perm):
        rng.shuffle(perm)
    B = _permuted(A, perm)
    assert window_equal(hh(B, circle_subdiv(2), 2), hh(A, circle_subdiv(2), 2), 2)


@pytest.mark.parametrize(
    "A",
    [dual_numbers(), split_pair(), split_triple(), dual_pair(), split_pair(GF(5))],
    ids=["dual", "qxq", "q3", "dual-pair", "qxq-F5"],
)
def test_unit_adapted_is_an_isomorphism(A):
    f = unit_adapted(A)
    assert isinstance(f, AlgebraMap) and f.target is A
    assert f.matrix.rank() == A.dim
    assert f.source.degrees == A.degrees
    assert list(f.source.unit.values()) == [A.field.one]
    if list(A.unit.values()) == [A.field.one]:
        assert f.source is A


def test_normalized_data_is_cached():
    L = loday_complex(dual_numbers(), circle_min(), 2)
    assert L.normalized_data() is L.normalized_data()


# ---------------------------------------------------------------- base


def test_relative_dims_double_the_base_rank():
    # free of rank r = 2 over the base, so the tensor power over the base on
    # m factors has dim(A) * r^(m - 1) = 4 * 2^(m - 1) monomials t (x) g..g
    # before the degeneracy filter: level 0 of m points, where nothing is
    # degenerate
    A, base = dual_pair(), pair_into_dual_pair()
    for m in range(1, 5):
        L = loday_complex(A, disjoint_union(*[point()] * m), 1, base=base)
        assert len(L.complex.levels[0]) == 4 * 2 ** (m - 1)
    # on the circle, 2 non-degenerate tuples of generators per level, each
    # times the 2 base basis vectors
    L = loday_complex(A, circle_min(), 4, base=base)
    assert [len(lv) for lv in L.complex.levels] == [4, 4, 4, 4, 4]
    L.complex.validate()


def test_base_change_shadow_split_pair():
    A = dual_pair()
    absolute = hh(A, circle_min(), 3)
    relative = hh(A, circle_min(), 3, base=pair_into_dual_pair())
    assert window_equal(absolute, relative, 3)
    assert [absolute.total(s) for s in range(4)] == [4, 2, 2, 2]


def test_relative_base_dual_square_periodic():
    # over the non-split base k[x]/(x^2) the relative answer follows the
    # rank-one periodic resolution in y: (4, 2, 2); the absolute answer is
    # the convolution square of the dual-numbers table, (4, 4, 5).  The two
    # must differ: collapsing to the base is an exact shortcut only over a
    # split (etale) base.
    A = dual_square()
    absolute = hh(A, circle_min(), 2)
    relative = hh(A, circle_min(), 2, base=dual_into_square())
    one_factor = hh(dual_numbers(), circle_min(), 2)
    assert window_equal(absolute, convolve(one_factor, one_factor), 2)

    two_y = SMat.from_entries(4, 4, QQ, [(2, 0, QQ(2)), (3, 1, QQ(2))])
    zero = SMat(4, 4, QQ)
    names = [("1", 0), ("x", 0), ("y", 0), ("xy", 0)]
    resolution = ChainComplex(
        QQ, [names] * 4, [None, zero, two_y, zero]
    ).validate()
    assert window_equal(relative, resolution.homology(2), 2)
    assert not window_equal(absolute, relative, 2)


def _unit_map(A):
    """The unit map k -> A."""
    return AlgebraMap(ground(A.field), A, SMat(A.dim, 1, A.field, [dict(A.unit)]))


@pytest.mark.parametrize("name", ["dual", "qxq", "q3", "exterior", "gf4"])
def test_relative_over_the_ground_field_is_absolute(name):
    # over the unit map k -> A every tensor product over the base is the
    # one over k; qxq and q3 have no unit basis vector, exterior has odd
    # degrees and gf4 lives over F_2
    A = algebra_from_json(json.loads((CORPUS / f"{name}.json").read_text()))
    for X, s in [(circle_min(), 3), (sphere_min(2), 2)]:
        assert hh(A, X, s, base=_unit_map(A)).entries == hh(A, X, s).entries, name


def _with_shifted_copy(table) -> dict:
    """The entries of a Betti table, once at t and once more at t + 1."""
    out: dict = {}
    for (s, t), v in table.entries.items():
        for shift in (0, 1):
            out[(s, t + shift)] = out.get((s, t + shift), 0) + v
    return out


def _odd_base(D, E):
    """E -> E (x) D, x -> x (x) 1, for E = k[x]/(x^2) with |x| = 1."""
    A = tensor_algebras(E, D)
    m = SMat(A.dim, E.dim, QQ)
    m.add_at(A.names.index("1⊗1"), E.names.index("1"), QQ(1))
    m.add_at(A.names.index("x⊗1"), E.names.index("x"), QQ(1))
    return AlgebraMap(E, A, m)


@pytest.mark.parametrize(
    "D, E",
    [
        (dual_numbers(), exterior_line()),
        (exterior_line(), exterior_line()),
        (dual_numbers(), _permuted(exterior_line(), [1, 0])),
    ],
    ids=["dual", "exterior", "dual-unit-last"],
)
def test_relative_odd_base_is_degree_shifted_absolute(D, E):
    # (E (x) D)^{(x)_E m} = E (x) D^{(x) m} and the faces act on the D
    # factors only, so the table is hh(D) once at t = 0 and once at t = 1.
    # The base is odd, and so are the module generators of D = E; the last
    # case puts the unit of the base after x.
    base = _odd_base(D, E)
    A = base.target
    for X, s in [(circle_min(), 3), (sphere_min(2), 2)]:
        assert hh(A, X, s, base=base).entries == _with_shifted_copy(hh(D, X, s))
    if D.degrees == (0, 0):
        assert hh(A, circle_min(), 3, base=base).entries == {
            (0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1,
            (2, 0): 1, (2, 1): 1, (3, 0): 1, (3, 1): 1,
        }


@pytest.mark.parametrize(
    "E", [exterior_line(), _permuted(exterior_line(), [1, 0])], ids=["E", "E-unit-last"]
)
def test_relative_odd_base_with_generators_multiplying_into_it(E):
    # A = k[x, w, v]/(v^2, vw - xv), x and w odd, is E (x) B with E = k[x]/(x^2)
    # and B = k[w', v]/(w'^2, v^2, vw') for w' = w - x, so over E its table
    # is hh(B) once at t = 0 and once at t = 1.  The module generators 1, w,
    # v are taken from the basis given, and w * v = x * v puts the odd base
    # element x behind odd generators, where moving it to the front pays a
    # Koszul sign.
    names = [("1", 0), ("x", 1), ("w", 1), ("v", 2), ("xw", 2), ("xv", 3)]
    prods = {(1, 2): (4, 1), (1, 3): (5, 1), (2, 1): (4, -1), (2, 3): (5, 1),
             (3, 1): (5, 1), (3, 2): (5, 1)}
    table = []
    for a in range(6):
        row = []
        for b in range(6):
            vec = [0] * 6
            if a == 0 or b == 0:
                vec[a + b] = 1
            elif (a, b) in prods:
                k, c = prods[(a, b)]
                vec[k] = c
            row.append(vec)
        table.append(row)
    A = make_algebra(QQ, names, [1, 0, 0, 0, 0, 0], table, True)
    m = SMat.from_entries(
        6, 2, QQ, [(0, E.names.index("1"), QQ(1)), (1, E.names.index("x"), QQ(1))]
    )
    base = AlgebraMap(E, A, m)
    z = [0, 0, 0]
    B = make_algebra(
        QQ, [("1", 0), ("w'", 1), ("v", 2)], [1, 0, 0],
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], z, z], [[0, 0, 1], z, z]],
        True,
    )
    for X, s in [(circle_min(), 3), (sphere_min(2), 3)]:
        L = loday_complex(A, X, s + 1, base=base)
        L.complex.validate()
        assert L.complex.homology(s).entries == _with_shifted_copy(hh(B, X, s))


def test_base_rejects_non_free():
    T = split_pair()
    A3 = split_triple()
    m = SMat.from_entries(3, 2, QQ, [(0, 0, QQ(1)), (1, 1, QQ(1)), (2, 1, QQ(1))])
    bad = AlgebraMap(T, A3, m)
    with pytest.raises(AlgebraError, match="not a multiple"):
        loday_complex(A3, circle_min(), 2, base=bad)


def test_base_rejects_collapsed_action():
    # valid algebra map Q x Q -> Q[x]/(x^2) (x) Q[y]/(y^2) sending e2 to 0;
    # the module it induces is not free
    T = split_pair()
    A = dual_square()
    m = SMat.from_entries(4, 2, QQ, [(0, 0, QQ(1))])
    bad = AlgebraMap(T, A, m)
    with pytest.raises(AlgebraError, match="not free"):
        loday_complex(A, circle_min(), 2, base=bad)


def test_base_rejects_wrong_target():
    with pytest.raises(AlgebraError, match="target differs"):
        loday_complex(dual_square(), circle_min(), 2, base=pair_into_dual_pair())


def test_base_rejects_a_non_map():
    with pytest.raises(AlgebraError, match="base must be an algebra map into the coefficients"):
        loday_complex(split_pair(), circle_min(), 2, base=split_pair())


def test_base_rejects_noncommutative_source():
    # upper-triangular 2x2 matrices onto Q x Q: E11 -> e1, E22 -> e2, E12 -> 0
    z, o = 0, 1
    upper = make_algebra(
        QQ,
        [("E11", 0), ("E12", 0), ("E22", 0)],
        [o, z, o],
        [
            [[o, z, z], [z, o, z], [z, z, z]],
            [[z, z, z], [z, z, z], [z, o, z]],
            [[z, z, z], [z, z, z], [z, z, o]],
        ],
        False,
    )
    base = AlgebraMap(upper, split_pair(), SMat(2, 3, QQ, [{0: o}, {}, {1: o}]))
    with pytest.raises(AlgebraError, match="base algebra must be commutative"):
        loday_complex(split_pair(), circle_min(), 2, base=base)


def test_loday_rejects_noncommutative():
    with pytest.raises(AlgebraError, match="commutative"):
        loday_complex(mat2(), circle_min(), 2)
    with pytest.raises(ValueError):
        loday_complex(dual_numbers(), circle_min(), 0)
    with pytest.raises(ValueError):
        hh(dual_numbers(), circle_min(), -1)


# ---------------------------------------------------------------- shuffle


def _unit_class(A, C):
    vec = {}
    for i, v in A.unit.items():
        idx = next(
            k for k, (nm, _) in enumerate(C.levels[0]) if nm == (i,)
        )
        vec[idx] = v
    return (0, vec)


def test_shuffle_unit_both_sides():
    A = dual_numbers()
    X = circle_min()
    L = loday_complex(A, X, 3)
    C = L.complex
    u = _unit_class(A, C)
    for s in [1, 2]:
        for z in C.diffs[s].nullspace():
            assert _shuffle_chain(L, u, (s, z)) == z
            assert _shuffle_chain(L, (s, z), u) == z


def test_shuffle_square_of_odd_class_vanishes():
    A = dual_numbers()
    X = circle_min()
    L = loday_complex(A, X, 3)
    C = L.complex
    z = (1, C.diffs[1].nullspace()[0])
    assert _shuffle_chain(L, z, z) == {}


def test_shuffle_graded_commutative_total_degree():
    E = exterior_line()
    X = circle_min()
    L = loday_complex(E, X, 5)
    C, _, _ = L.normalized_data()

    def t_of(s, v):
        ts = {C.levels[s][c][1] for c in v}
        assert len(ts) == 1
        return ts.pop()

    for s1, s2 in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for z1 in C.diffs[s1].nullspace():
            for z2 in C.diffs[s2].nullspace():
                a = _shuffle_chain(L, (s1, z1), (s2, z2))
                b = _shuffle_chain(L, (s2, z2), (s1, z1))
                sg = (s1 + t_of(s1, z1)) * (s2 + t_of(s2, z2))
                if sg % 2:
                    b = {k: -v for k, v in b.items()}
                assert a == b, (s1, s2, z1, z2)


def test_shuffle_associative_on_chains():
    E = exterior_line()
    L = loday_complex(E, circle_min(), 4)
    C, _, _ = L.normalized_data()
    for s1, s2, s3 in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]:
        for c1 in range(len(C.levels[s1])):
            for c2 in range(len(C.levels[s2])):
                for c3 in range(len(C.levels[s3])):
                    u = {c1: Fraction(1)}
                    v = {c2: Fraction(1)}
                    w = {c3: Fraction(1)}
                    uv = _shuffle_chain(L, (s1, u), (s2, v))
                    vw = _shuffle_chain(L, (s2, v), (s3, w))
                    a = _shuffle_chain(L, (s1 + s2, uv), (s3, w))
                    b = _shuffle_chain(L, (s1, u), (s2 + s3, vw))
                    assert a == b, (s1, s2, s3, c1, c2, c3)


def test_shuffle_leibniz_total_degree():
    E = exterior_line()
    L = loday_complex(E, circle_min(), 5)
    C, _, _ = L.normalized_data()

    def dv(s, v):
        return C.diffs[s].mul_vec(v) if s >= 1 and v else {}

    for s1 in range(1, 4):
        for s2 in range(1, 4):
            if s1 + s2 > 4:
                continue
            for c1 in range(len(C.levels[s1])):
                for c2 in range(len(C.levels[s2])):
                    u = {c1: Fraction(1)}
                    v = {c2: Fraction(1)}
                    t1 = C.levels[s1][c1][1]
                    lhs = dv(s1 + s2, _shuffle_chain(L, (s1, u), (s2, v)))
                    rhs = dict(_shuffle_chain(L, (s1 - 1, dv(s1, u)), (s2, v)))
                    tail = _shuffle_chain(L, (s1, u), (s2 - 1, dv(s2, v)))
                    sg = -1 if (s1 + t1) % 2 else 1
                    for k, val in tail.items():
                        nv = rhs.get(k, 0) + sg * val
                        if nv == 0:
                            rhs.pop(k, None)
                        else:
                            rhs[k] = nv
                    assert lhs == rhs, (s1, c1, s2, c2)


def test_shuffle_of_cycles_is_a_cycle():
    A = dual_numbers()
    X = circle_min()
    L = loday_complex(A, X, 4)
    C = L.complex
    for s1, s2 in [(1, 1), (1, 2)]:
        for z1 in C.diffs[s1].nullspace():
            for z2 in C.diffs[s2].nullspace():
                v = _shuffle_chain(L, (s1, z1), (s2, z2))
                if v:
                    assert not C.diffs[s1 + s2].mul_vec(v)


# ---------------------------------------------------------------- misc


def test_hh_determinism():
    a = hh(dual_numbers(), circle_min(), 3)
    b = hh(dual_numbers(), circle_min(), 3)
    assert a.entries == b.entries and a.to_json() == b.to_json()


# sha256 of the differentials' columns, each as its list of (row, coeff)
# pairs in stored order: a faster face push must build the same complex
PINNED = pytest.mark.parametrize(
    "A, X, N, digest",
    [
        (exterior_line(), sphere_min(2), 5,
         "dd0b52b5d604fb5ea8269b18b7634cb3de9194d65b792fa4c7ed2f0eb3992af3"),
        (dual_numbers(), circle_subdiv(2), 4,
         "c11f6330949c8df9b13a65109f23ea5dfb434c0c53a62884158789176cb80e8c"),
        (split_pair(), circle_subdiv(2), 4,
         "6ae158f73c965bd9ded4ea1be9ccc44d94ce1d697e90ceb267c1f53d4bd370db"),
    ],
    ids=["exterior-S2", "dual-circle2", "QxQ-circle2"],
)


def _digest(cols) -> str:
    return hashlib.sha256(repr(cols).encode()).hexdigest()


@PINNED
def test_loday_columns_are_pinned(A, X, N, digest):
    C = loday_complex(A, X, N).complex
    assert _digest([[list(col.items()) for col in d.cols] for d in C.diffs[1:]]) == digest


@PINNED
def test_streamed_top_level_is_the_stored_one(A, X, N, digest):
    # the stream yields level N in stored order and builds the stored
    # columns of d_N, so the pin holds with d_N read from it, and hh's
    # table is the stored complex's
    C = loday_complex(A, X, N, stream=True).complex
    assert C.top == N - 1 and C.s_valid == N - 1
    cols = [[list(col.items()) for col in d.cols] for d in C.diffs[1:]]
    cols.append([list(C.stream.column(phi).items()) for phi, _ in C.stream])
    assert _digest(cols) == digest
    stored = loday_complex(A, X, N).complex
    assert list(C.stream) == list(stored.levels[N])
    table = hh(A, X, N - 1)
    assert (table.entries, table.s_valid) == (stored.homology(N - 1).entries, N - 1)


def test_a_stored_complex_without_its_stream_is_not_trusted_at_its_top():
    C = loday_complex(dual_numbers(), circle_min(), 3, stream=True).complex
    bare = ChainComplex(C.field, C.levels, C.diffs)
    assert bare.s_valid == 1
    with pytest.raises(ChainError, match="trusted only to 1"):
        bare.homology(2)
    assert C.homology(2).entries == hh(dual_numbers(), circle_min(), 2).entries


def columns_built(monkeypatch) -> Counter:
    """{t: columns the stream builds} while patched."""
    built = Counter()
    column = _TopLevel.column

    def counted(self, phi):
        built[sum(self.degrees[i] for i in phi)] += 1
        return column(self, phi)

    monkeypatch.setattr(_TopLevel, "column", counted)
    return built


def test_stream_stops_each_block_at_full_rank(monkeypatch):
    # H_4 = 0 in every t, so each block of d_5 stops at rank dim ker d_4,
    # and the blocks t >= 8, with no level-4 rows left, are never built
    built = columns_built(monkeypatch)
    table = hh(exterior_line(), sphere_min(2), 4)
    assert table.entries == {(0, 0): 1, (0, 1): 1, (2, 1): 1, (2, 2): 1}
    assert built == {3: 19, 4: 53, 5: 49, 6: 8, 7: 1}
    assert sum(built.values()) == 130
    level = Counter(t for _, t in loday_complex(exterior_line(), sphere_min(2), 5).complex.levels[5])
    assert sum(level.values()) == 1536 and level[8] == 165


@pytest.mark.parametrize("field, h", [(QQ, 1), (GF(2), 2), (GF(3), 1)], ids=["Q", "F2", "F3"])
def test_stream_reads_every_column_of_an_open_block(monkeypatch, field, h):
    # H_3 != 0: d_4 has rank 82 - h on the 82 level-3 rows left after
    # clearing, so the walk never stops and builds all 324 columns
    A = dual_numbers(field)
    X = circle_subdiv(2)
    stored = loday_complex(A, X, 4).complex
    built = columns_built(monkeypatch)
    table = hh(A, X, 3)
    assert table.entries == stored.homology(3).entries
    assert table.dim(3, 0) == h
    assert built == {0: 324} and stored.level_dim(4) == 324
    assert stored.diffs[4].rank() == 82 - h


def test_hh_over_prime_field_window():
    t = hh(split_pair(GF(5)), circle_min(), 3)
    assert t.entries == {(0, 0): 2}


def test_graded_algebra_over_f2_shuffle_consistency():
    # char 2 kills all signs; the product must still be unital
    A = dual_numbers(GF(2))
    X = circle_min()
    L = loday_complex(A, X, 3)
    C = L.complex
    u = _unit_class(A, C)
    for z in C.diffs[1].nullspace():
        assert _shuffle_chain(L, u, (1, z)) == z
