"""Two-sided bar over tensor squares and the suspension recursion."""

import pytest

from hhx.bar import (
    DGAlgebraModel,
    DGModule,
    algebra_model,
    augmentation_module,
    circle_bar,
    hh_via_suspension,
    loday_model,
    suspension_bar,
    two_sided_bar,
)
from hhx.algebra import tensor_algebras
from hhx.catalog import (
    dual_numbers,
    dual_square,
    exterior_line,
    gf4,
    ground,
    mat2,
    split_pair,
    split_triple,
)
from hhx.chains import ChainError, e_infinity, r_stable, sseq_pages, total_complex
from hhx.loday import hh
from hhx.matrix import SMat
from hhx.simplicial import circle_min, sphere_min

from helpers import window_equal


def total_dims(table):
    out = {}
    for (s, t), d in table.entries.items():
        out[s] = out.get(s, 0) + d
    return out


def bar_total(A, p_max, s_max):
    D = circle_bar(A, p_max)
    T = total_complex(D)
    return T.homology(s_max, provenance="bar")


# ---------------------------------------------------------------- models


def test_algebra_model_validates():
    B = algebra_model(dual_numbers())
    B.validate()
    assert B.complex.top == 0
    assert B.commutative


def test_algebra_model_graded_leibniz():
    # one-level complex has zero differential, Leibniz is degenerate but
    # the commutativity flip must still respect internal degrees
    B = algebra_model(exterior_line())
    B.validate()


def test_mul_outside_range():
    B = algebra_model(ground())
    with pytest.raises(ChainError, match="outside the stored range"):
        B.mul(0, 0, 1, 0)


def test_loday_model_unit_and_product():
    A = dual_numbers()
    B = loday_model(A, circle_min(), 3)
    B.validate()


def test_loday_model_refuses_scaled_product():
    # one level-0 x level-3 product scaled by 2 breaks Leibniz one level up,
    # where x * d(y) for a level-4 y reads it
    B = loday_model(dual_numbers(), sphere_min(2), 5)

    def mul(p, i, q, j):
        out = B.mul(p, i, q, j)
        if (p, i, q, j) == (0, 1, 3, 0):
            return {k: 2 * v for k, v in out.items()}
        return out

    bad = DGAlgebraModel(B.complex, mul, B.unit, B.commutative)
    with pytest.raises(ChainError, match=r"Leibniz fails at levels \(0, 4\)"):
        bad.validate()


def test_loday_model_discrete_space_exact():
    from hhx.simplicial import point

    B = loday_model(dual_numbers(), point(), 2)
    assert B.complex.exact_top


def test_augmentation_module_needs_tuples():
    A = dual_numbers()
    B = algebra_model(A)
    with pytest.raises(ChainError, match="index tuples"):
        augmentation_module(B, A, "right")


def test_module_validation_catches_bad_action():
    A = dual_numbers()
    E = tensor_algebras(A, A)
    B = algebra_model(E)
    act = {}
    for i in range(A.dim):
        for j in range(E.dim):
            act[(i, j)] = {0: A.field.one}  # constant action, not associative
    M = DGModule(B, [(i, A.degrees[i]) for i in range(A.dim)], act, "right")
    with pytest.raises(ChainError):
        M.validate()


def test_two_sided_bar_rejects_wrong_side():
    A = dual_numbers()
    E = tensor_algebras(A, A)
    B = algebra_model(E)
    dA = A.dim
    act_r = {}
    act_l = {}
    for i in range(dA):
        for a in range(dA):
            for b in range(dA):
                j = a * dA + b
                act_r[(i, j)] = A.product_chain((i, a, b))
                act_l[(i, j)] = A.product_chain((a, b, i))
    gens = [(i, A.degrees[i]) for i in range(dA)]
    M = DGModule(B, gens, act_r, "right")
    N = DGModule(B, gens, act_l, "left")
    with pytest.raises(ChainError, match="right"):
        two_sided_bar(N, B, N, 2)
    with pytest.raises(ChainError, match="left"):
        two_sided_bar(M, B, M, 2)
    with pytest.raises(ChainError, match="at least 1"):
        two_sided_bar(M, B, N, 0)


def test_circle_bar_rejects_noncommutative():
    with pytest.raises(ChainError, match="commutative"):
        circle_bar(mat2(), 2)


# ------------------------------------------------- circle via the bar


@pytest.mark.parametrize(
    "make",
    [ground, dual_numbers, split_pair, split_triple, exterior_line, gf4],
    ids=["Q", "dual", "QxQ", "Q3", "exterior", "F4"],
)
def test_circle_bar_matches_loday(make):
    A = make()
    want = hh(A, circle_min(), 3).entries
    got = bar_total(A, 4, 3).entries
    assert got == want


def test_circle_bar_window_raises_past_trust():
    D = circle_bar(dual_numbers(), 1)
    T = total_complex(D)
    with pytest.raises(ChainError, match="trusted only"):
        T.homology(1, provenance="bar")


def test_bar_double_complex_validates():
    D = circle_bar(dual_numbers(), 3)
    D.validate()
    s_valid, exact = D.s_bound()
    assert s_valid == 2 and not exact


# ------------------------------------------------------- suspension


@pytest.mark.parametrize(
    "make",
    [ground, dual_numbers, split_pair, exterior_line, gf4],
    ids=["Q", "dual", "QxQ", "exterior", "F4"],
)
def test_suspension_dim1_is_circle(make):
    A = make()
    want = hh(A, circle_min(), 2).entries
    got = hh_via_suspension(A, 1, 2).entries
    assert got == want


@pytest.mark.parametrize(
    "make",
    [ground, dual_numbers, split_pair, gf4],
    ids=["Q", "dual", "QxQ", "F4"],
)
def test_suspension_dim2_matches_sphere(make):
    A = make()
    want = hh(A, sphere_min(2), 2).entries
    got = hh_via_suspension(A, 2, 2).entries
    assert got == want


def test_suspension_dim2_graded():
    A = exterior_line()
    want = hh(A, sphere_min(2), 2).entries
    got = hh_via_suspension(A, 2, 2).entries
    assert got == want


@pytest.mark.parametrize(
    "make, s_max",
    [
        (ground, 3),
        (dual_numbers, 3),
        (split_pair, 3),
        (exterior_line, 3),
        (gf4, 3),
        (split_triple, 2),
        # at s = 3 validating the S^2 model of dual_square alone takes a minute
        (dual_square, 2),
    ],
    ids=["Q", "dual", "QxQ", "exterior", "F4", "Q3", "dual-square"],
)
def test_suspension_dim3_matches_sphere(make, s_max):
    A = make()
    got = hh_via_suspension(A, 3, s_max)
    assert window_equal(got, hh(A, sphere_min(3), s_max), s_max)


@pytest.mark.parametrize("make", [dual_numbers, exterior_line], ids=["dual", "ext"])
def test_suspension_bar_stops_at_window(make):
    # blocks past p + q = p_max are never read; the page count stays put
    D = suspension_bar(make(), 2, 4)
    assert all(p + q <= 4 for (p, q) in D.gens)
    assert sum(len(v) for v in D.gens.values()) == 324
    assert r_stable(D) == 6
    assert sseq_pages(D, 6)[6].n_valid == 3


def test_suspension_provenance():
    table = hh_via_suspension(dual_numbers(), 1, 1)
    assert table.provenance == "bar-suspension"


# ------------------------------------------------------ convergence


def collect_e_infinity_sums(D):
    page, _r = e_infinity(D)
    sums = {}
    for (p, q, t), d in page.entries.items():
        sums[p + q] = sums.get(p + q, 0) + d
    return sums, page.n_valid


@pytest.mark.parametrize(
    "make", [dual_numbers, split_pair, exterior_line], ids=["dual", "QxQ", "ext"]
)
def test_circle_bar_converges(make):
    A = make()
    D = circle_bar(A, 4)
    T = total_complex(D)
    sums, n_valid = collect_e_infinity_sums(D)
    tot = total_dims(T.homology(T.s_valid, provenance="bar"))
    for n in range(min(n_valid, T.s_valid) + 1):
        assert sums.get(n, 0) == tot.get(n, 0)


def test_sphere_bar_converges():
    A = dual_numbers()
    B = loday_model(A, sphere_min(1), 3)
    M = augmentation_module(B, A, "right")
    N = augmentation_module(B, A, "left")
    D = two_sided_bar(M, B, N, 3)
    T = total_complex(D)
    sums, n_valid = collect_e_infinity_sums(D)
    tot = total_dims(T.homology(T.s_valid, provenance="bar"))
    for n in range(min(n_valid, T.s_valid) + 1):
        assert sums.get(n, 0) == tot.get(n, 0)


# ----------------------------------------------------- determinism


def test_bar_deterministic():
    a = bar_total(dual_numbers(), 3, 2)
    b = bar_total(dual_numbers(), 3, 2)
    assert a.entries == b.entries
    assert repr(sorted(a.entries.items())) == repr(sorted(b.entries.items()))
