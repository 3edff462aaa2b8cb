"""Cobar cochains: identity collapse, cohomology, center detection."""

from fractions import Fraction

import pytest

from hhx import cobar as cobar_mod
from hhx.algebra import center, is_etale, tensor_algebras
from hhx.catalog import (
    dual_numbers,
    dual_pair,
    exterior_line,
    gf4,
    ground,
    mat2,
    split_pair,
    split_triple,
)
from hhx.chains import ChainError
from hhx.cobar import (
    AModule,
    cobar,
    cobar_complex,
    envelope_bimodule,
    hochschild_cohomology,
    regular_module,
)
from hhx.loday import oracle_hh
from hhx.matrix import SMat

from helpers import scaled_pair


def profile(A):
    out = {}
    for d in A.degrees:
        out[d] = out.get(d, 0) + 1
    return out


# ---------------------------------------------------------- modules


def test_regular_module_validates():
    regular_module(dual_numbers()).validate()
    regular_module(mat2()).validate()


def test_bad_action_caught():
    A = dual_numbers()
    act = {(i, j): {0: A.field.one} for i in range(A.dim) for j in range(A.dim)}
    M = AModule(A, [(i, A.degrees[i]) for i in range(A.dim)], act)
    with pytest.raises(ChainError):
        M.validate()


def test_wrong_algebra_rejected():
    M = regular_module(dual_numbers())
    with pytest.raises(ChainError, match="different|given algebra"):
        cobar_complex(M, split_pair(), M, 2)


def test_level_bound_checked():
    M = regular_module(ground())
    with pytest.raises(ChainError, match="at least 1"):
        cobar_complex(M, ground(), M, 0)


def test_cohomology_trust_window():
    A = dual_numbers()
    M = regular_module(A)
    C = cobar_complex(M, A, M, 2)
    with pytest.raises(ChainError, match="trusted only"):
        C.cohomology(2, provenance="cobar")


# ------------------------------------------------ identity collapse


@pytest.mark.parametrize(
    "make",
    [dual_numbers, split_pair, exterior_line],
    ids=["dual", "QxQ", "exterior"],
)
def test_identity_collapse(make):
    A = make()
    M = regular_module(A)
    table = cobar(M, A, M, 3)
    assert table.entries == {(0, t): d for t, d in profile(A).items()}


def test_identity_collapse_noncommutative():
    A = mat2()
    M = regular_module(A)
    assert cobar(M, A, M, 3).entries == {(0, 0): 4}


# ------------------------------------------- Hochschild cohomology


def periodic_oracle_dims(n_top):
    """Cohomology of Q[x]/x2 from its two-periodic free resolution.

    Dualizing the resolution gives the two-periodic cochain complex
    A -0-> A -2x-> A -0-> A ...; ranks are computed here directly.
    """
    zero = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    twox = [[Fraction(0), Fraction(0)], [Fraction(2), Fraction(0)]]

    def rank(mat):
        m = [row[:] for row in mat]
        r = 0
        for c in range(2):
            piv = next((i for i in range(r, 2) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            for i in range(2):
                if i != r and m[i][c]:
                    f = m[i][c] / m[r][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        return r

    maps = [zero if n % 2 == 0 else twox for n in range(n_top + 1)]
    dims = []
    for n in range(n_top + 1):
        incoming = 0 if n == 0 else rank(maps[n - 1])
        dims.append(2 - rank(maps[n]) - incoming)
    return dims


def test_dual_numbers_cohomology_periodic():
    want = periodic_oracle_dims(3)
    assert want == [2, 1, 1, 1]
    table = hochschild_cohomology(dual_numbers(), 4)
    assert table.entries == {(n, 0): d for n, d in enumerate(want)}


@pytest.fixture
def built(monkeypatch):
    """The complexes cobar_complex returns, in the order it builds them."""
    out = []
    build = cobar_mod.cobar_complex

    def spy(*args):
        out.append(build(*args))
        return out[-1]

    monkeypatch.setattr(cobar_mod, "cobar_complex", spy)
    return out


def test_cohomology_ranks_each_coboundary_once(monkeypatch, built):
    # each coboundary the table reads, delta_0 .. delta_{n_max - 1}, is
    # ranked once, all its t blocks together
    calls = []
    rank = SMat.rank

    def counted(self, *args, **kwargs):
        calls.append((self.nrows, self.ncols))
        return rank(self, *args, **kwargs)

    monkeypatch.setattr(SMat, "rank", counted)
    table = hochschild_cohomology(dual_numbers(), 4)
    assert table.entries == {(0, 0): 2, (1, 0): 1, (2, 0): 1, (3, 0): 1}
    (C,) = built
    assert calls == [(d.nrows, d.ncols) for d in C.diffs[1 : table.s_valid + 2]]
    assert len(calls) == 4


def exterior_pair():
    # two odd generators whose product is not zero, so that the signs of odd
    # elements acting on odd elements are seen
    return tensor_algebras(exterior_line(), exterior_line())


ALGEBRAS = [
    ground, dual_numbers, split_pair, split_triple, gf4, exterior_line, mat2,
    dual_pair, exterior_pair, scaled_pair,
]
ALGEBRA_IDS = [
    "Q", "dual", "QxQ", "Q3", "F4", "exterior", "mat2", "dual_pair", "ext_pair",
    "scaled_pair",
]


@pytest.mark.parametrize("make", ALGEBRAS, ids=ALGEBRA_IDS)
def test_normalized_cochains_match_cobar_over_envelope(make, built):
    A = make()
    table = hochschild_cohomology(A, 3)
    (C,) = built
    assert C.top == 3
    assert [C.level_dim(n) for n in range(4)] == [
        (A.dim - 1) ** n * A.dim for n in range(4)
    ]
    E, reg = envelope_bimodule(A)
    oracle = cobar_complex(reg, E, reg, 3).cohomology(2)
    assert table.entries == oracle.entries


def test_normalized_level_sizes_q3(built):
    hochschild_cohomology(split_triple(), 4)
    assert [len(lv) for lv in built[0].levels] == [3, 6, 12, 24, 48]


def dual_bimodule(A):
    """A^v on the dual basis e^k of degree -|e_k|.

    (a.phi)(x) = (-1)^(|a|(|phi| + |x|)) phi(x a) and (phi.b)(x) = phi(b x).
    """
    field = A.field
    deg = A.degrees
    act = {}
    right = {}
    for a in range(A.dim):
        for x in range(A.dim):
            for k, c in A.mul_basis(x, a).items():
                odd = (deg[a] * (deg[x] - deg[k])) % 2
                act.setdefault((a, k), {})[x] = field(-c) if odd else c
            for k, c in A.mul_basis(a, x).items():
                right.setdefault((k, a), {})[x] = c
    gens = [(f"{name}^v", -d) for name, d in zip(A.names, deg)]
    return AModule(A, gens, act, right)


@pytest.mark.parametrize("make", ALGEBRAS, ids=ALGEBRA_IDS)
def test_cohomology_with_dual_coefficients_is_dual_homology(make):
    # HH^{n,t}(A, A^v) = HH_{n,-t}(A), the second against the cyclic oracle
    A = make()
    table = hochschild_cohomology(A, 4, module=dual_bimodule(A).validate())
    flipped = {(n, -t): v for (n, t), v in table.entries.items()}
    assert flipped == oracle_hh(A, 3).entries


def test_module_over_envelope_rejected():
    # coefficients are an A-bimodule; a left module over A (x) A-op is refused
    _E, reg = envelope_bimodule(dual_numbers())
    with pytest.raises(ChainError, match="bimodule"):
        hochschild_cohomology(dual_numbers(), 2, module=reg)


def test_bimodule_over_another_algebra_rejected():
    with pytest.raises(ChainError, match="bimodule over the given algebra"):
        hochschild_cohomology(dual_numbers(), 2, module=regular_module(split_pair()))


def test_left_module_is_not_a_bimodule():
    A = dual_numbers()
    M = regular_module(A)
    M.right = None
    with pytest.raises(ChainError, match="need a bimodule"):
        cobar_complex(None, A, M, 2)


def test_normalized_cochains_need_the_unit_as_basis_vector():
    A = split_pair()
    M = regular_module(A)
    with pytest.raises(ChainError, match="unit as a basis vector"):
        cobar_complex(None, A, M, 2)


@pytest.mark.parametrize(
    "right, message",
    [
        # x acts on the right as the identity, so (m.x).x = m but m.x^2 = 0
        ({(0, 0): {0: 1}, (1, 0): {1: 1}, (0, 1): {0: 1}, (1, 1): {1: 1}},
         "right action fails associativity"),
        # x acts on the left by e0 -> e1 and on the right by e1 -> e0
        ({(0, 0): {0: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}},
         "do not commute"),
        # e0.1 = 0, so the unit fails on the right
        ({(1, 0): {1: 1}, (0, 1): {1: 1}}, "module action does not respect the unit"),
    ],
    ids=["associativity", "commute", "unit"],
)
def test_bad_right_action_caught(right, message):
    A = dual_numbers()
    one = A.field.one
    left = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    right = {key: {k: A.field(c) for k, c in v.items()} for key, v in right.items()}
    M = AModule(A, [("e0", 0), ("e1", 0)], left, right)
    with pytest.raises(ChainError, match=message):
        M.validate()


def test_matrix_algebra_cohomology_trivial():
    assert hochschild_cohomology(mat2(), 3).entries == {(0, 0): 1}


@pytest.mark.parametrize(
    "make, dim",
    [(split_pair, 2), (split_triple, 3), (gf4, 2)],
    ids=["QxQ", "Q3", "F4"],
)
def test_etale_concentrated(make, dim):
    A = make()
    assert is_etale(A)
    table = hochschild_cohomology(A, 3)
    assert table.entries == {(0, 0): dim}


def test_ground_cohomology():
    assert hochschild_cohomology(ground(), 3).entries == {(0, 0): 1}


def test_exterior_cohomology_polynomial_pattern():
    # odd generator in internal degree 1: cohomology is the algebra times
    # a polynomial class in bidegree (1, -1), two classes per level
    table = hochschild_cohomology(exterior_line(), 3)
    want = {}
    for n in range(3):
        want[(n, -n)] = 1
        want[(n, -n + 1)] = 1
    assert table.entries == want


@pytest.mark.parametrize(
    "make",
    [ground, dual_numbers, split_pair, split_triple, gf4, exterior_line, mat2],
    ids=["Q", "dual", "QxQ", "Q3", "F4", "exterior", "mat2"],
)
def test_level_zero_is_center(make):
    A = make()
    table = hochschild_cohomology(A, 2)
    got = {t: d for (n, t), d in table.entries.items() if n == 0}
    cent = {}
    for vec in center(A):
        t = next(A.degrees[i] for i, c in vec.items() if c)
        cent[t] = cent.get(t, 0) + 1
    assert got == cent


def test_custom_module_roundtrip():
    A = dual_numbers()
    table = hochschild_cohomology(A, 3, module=regular_module(A))
    assert table.entries == hochschild_cohomology(A, 3).entries


def test_envelope_mismatch_rejected():
    A = dual_numbers()
    _E, reg = envelope_bimodule(split_pair())
    with pytest.raises(ChainError):
        hochschild_cohomology(A, 2, module=reg)


def test_provenance():
    t1 = hochschild_cohomology(dual_numbers(), 2)
    assert t1.provenance == "hochschild-cohomology"
    A = ground()
    M = regular_module(A)
    assert cobar(M, A, M, 2).provenance == "cobar"


def test_deterministic():
    a = hochschild_cohomology(exterior_line(), 3).entries
    b = hochschild_cohomology(exterior_line(), 3).entries
    assert repr(sorted(a.items())) == repr(sorted(b.items()))
