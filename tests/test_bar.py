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
from hhx.chains import (
    ChainComplex,
    ChainError,
    e_infinity,
    r_stable,
    sseq_pages,
    total_complex,
)
from hhx.fields import GF, QQ
from hhx.loday import hh
from hhx.matrix import SMat
from hhx.simplicial import circle_min, sphere_min

from helpers import two_sided_bar_oracle, window_equal


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


@pytest.mark.parametrize("q_top", [4, 5])
def test_loday_model_refuses_scaled_product(q_top):
    # one level-0 x level-3 product scaled by 2 breaks Leibniz one level up,
    # where x * d(y) for a level-4 y reads it; q_top = 4 is the model that
    # hh_via_suspension(dual_numbers(), 3, 4) builds
    B = loday_model(dual_numbers(), sphere_min(2), q_top)

    def mul(p, i, q, j):
        out = B.mul(p, i, q, j)
        if (p, i, q, j) == (0, 1, 3, 0):
            return {k: 2 * v for k, v in out.items()}
        return out

    bad = DGAlgebraModel(B.complex, mul, B.unit, B.commutative)
    with pytest.raises(ChainError, match=r"Leibniz fails at levels \(0, 4\)"):
        bad.validate()


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


def test_model_validation_catches_unit_and_commutativity():
    B = algebra_model(dual_numbers())
    with pytest.raises(ChainError, match="unit fails on the left at level 0, index 0"):
        DGAlgebraModel(B.complex, B.mul, {}, True).validate()
    M = algebra_model(mat2())
    with pytest.raises(ChainError, match=r"commutativity fails at levels \(0, 0\)"):
        DGAlgebraModel(M.complex, M.mul, M.unit, True).validate()


def test_module_side_and_associativity():
    # one generator on which x acts as the identity: x.(x.m) = m but x^2 = 0
    A = dual_numbers()
    B = algebra_model(A)
    one = A.field.one
    act = {(0, 0): {0: one}, (0, 1): {0: one}}
    with pytest.raises(ChainError, match="unknown module side"):
        DGModule(B, [("m", 0)], act, "middle")
    with pytest.raises(ChainError, match="fails associativity"):
        DGModule(B, [("m", 0)], act, "left").validate()


def test_module_must_kill_level_one_boundaries():
    # level 1 holds y with d(y) = x, but A acts on itself with x.1 = x != 0
    A = dual_numbers()
    field = A.field
    levels = [list(zip(A.names, A.degrees)), [("y", 0)]]
    d1 = SMat.from_dense([[0], [1]], field)
    C = ChainComplex(field, levels, [None, d1], s_valid=1)
    B = DGAlgebraModel(C, lambda p, i, q, j: A.mul_basis(i, j), {0: field.one}, True)
    act = {(i, j): A.mul_basis(j, i) for i in range(A.dim) for j in range(A.dim)}
    N = DGModule(B, list(zip(A.names, A.degrees)), act, "left")
    with pytest.raises(ChainError, match="does not kill level-one boundaries"):
        N.validate()


def test_two_sided_bar_needs_modules_over_its_model():
    A = split_pair()
    B = loday_model(A, circle_min(), 2)
    M = augmentation_module(B, A, "right")
    N = augmentation_module(B, A, "left")
    other = loday_model(A, circle_min(), 2)
    with pytest.raises(ChainError, match="modules must be defined over the given model"):
        two_sided_bar(M, other, N, 2)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda A: suspension_bar(A, 0, 2), "sphere dimension must be at least 1, got 0"),
        (lambda A: hh_via_suspension(A, 1, -1), "window bound must be nonnegative, got -1"),
    ],
    ids=["sphere-0", "window-negative"],
)
def test_suspension_refuses_bad_bounds(call, message):
    with pytest.raises(ChainError, match=message):
        call(dual_numbers())


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
    # validate checks the block shapes, total_complex the squares and t
    D = circle_bar(dual_numbers(), 3)
    D.validate()
    assert total_complex(D).s_valid == D.s_valid == 2


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


def test_suspension_dim2_dual_numbers_f2():
    # derived symmetric powers carry extra homotopy in characteristic p, so
    # at s = 5 this is 4, where the classical small complex gives 2
    A = dual_numbers(GF(2))
    got = hh_via_suspension(A, 2, 5)
    assert got.entries == {(0, 0): 2, (2, 0): 2, (3, 0): 2, (4, 0): 2, (5, 0): 4}
    assert got.entries == hh(A, sphere_min(2), 5).entries


def test_suspension_dim2_dual_numbers_f3():
    # the same over F_3 at s = 6: 2, where the small complex gives 1
    got = hh_via_suspension(dual_numbers(GF(3)), 2, 6)
    assert got.entries == {(0, 0): 2, (2, 0): 1, (3, 0): 1, (4, 0): 1, (5, 0): 1, (6, 0): 2}


@pytest.mark.parametrize(
    "make, s_max",
    [
        (ground, 3),
        (dual_numbers, 3),
        (split_pair, 3),
        (exterior_line, 3),
        (gf4, 3),
        (split_triple, 3),
        (dual_square, 3),
    ],
    ids=["Q", "dual", "QxQ", "exterior", "F4", "Q3", "dual-square"],
)
def test_suspension_dim3_matches_sphere(make, s_max):
    A = make()
    got = hh_via_suspension(A, 3, s_max)
    assert window_equal(got, hh(A, sphere_min(3), s_max), s_max)


@pytest.mark.parametrize("p_max, q_top", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_suspension_bar_model_height(monkeypatch, p_max, q_top):
    # the bar reads model levels <= p_max - 1; loday_complex needs N >= 1
    seen = []

    def spy(A, X, top):
        seen.append(top)
        return loday_model(A, X, top)

    monkeypatch.setattr("hhx.bar.loday_model", spy)
    suspension_bar(dual_numbers(), 2, p_max)
    assert seen == [q_top]


@pytest.mark.parametrize("top, p_max", [(1, 4), (2, 4), (2, 5), (3, 5)])
@pytest.mark.parametrize(
    "make", [dual_numbers, exterior_line, gf4, split_pair], ids=["dual", "ext", "F4", "QxQ"]
)
def test_two_sided_bar_trusts_short_model_to_its_top(make, top, p_max):
    # totals through degree top + 1 read model levels <= top, all stored
    A = make()
    B = loday_model(A, sphere_min(1), top)
    M = augmentation_module(B, A, "right")
    N = augmentation_module(B, A, "left")
    D = two_sided_bar(M, B, N, p_max)
    assert D.s_valid == top
    got = total_complex(D).homology(top, provenance="bar")
    assert got.entries == hh(A, sphere_min(2), top).entries


@pytest.mark.parametrize("make", [dual_numbers, exterior_line], ids=["dual", "ext"])
def test_suspension_bar_stops_at_window(make):
    # blocks past p + q = p_max are never read; the page count stays put
    D = suspension_bar(make(), 2, 4)
    assert all(p + q <= 4 for (p, q) in D.gens)
    assert sum(len(v) for v in D.gens.values()) == 324
    assert r_stable(D) == 6
    assert sseq_pages(D, 6)[6].n_valid == 3


def bar_and_oracle(monkeypatch, A, d, p_max):
    # suspension_bar, and the oracle on the model and modules it assembled
    seen = []

    def spy(M, B, N, p):
        seen.append((M, B, N, p))
        return two_sided_bar(M, B, N, p)

    monkeypatch.setattr("hhx.bar.two_sided_bar", spy)
    D = suspension_bar(A, d, p_max)
    (args,) = seen
    return D, two_sided_bar_oracle(*args)


@pytest.mark.parametrize(
    "make, d, p_max",
    [
        (lambda: dual_numbers(), 1, 4),
        (lambda: split_pair(), 1, 4),
        (gf4, 1, 4),
        (lambda: exterior_line(), 1, 4),
        (lambda: split_triple(), 1, 3),
        (lambda: dual_numbers(GF(3)), 1, 4),
        (lambda: dual_numbers(), 2, 4),
        (lambda: exterior_line(), 2, 4),
        (lambda: dual_square(), 2, 3),
        (lambda: dual_numbers(GF(2)), 2, 4),
        (lambda: exterior_line(GF(3)), 2, 4),
        (lambda: dual_numbers(GF(3)), 3, 4),
        (lambda: exterior_line(), 3, 4),
        (lambda: dual_square(), 3, 3),
        # odd module generators over a model with a nonzero differential
        (lambda: tensor_algebras(dual_numbers(), exterior_line()), 2, 3),
    ],
    ids=[
        "dual-1", "QxQ-1", "F4-1", "ext-1", "QxQxQ-1", "dual-F3-1", "dual-2", "ext-2",
        "dual_square-2", "dual-F2-2", "ext-F3-2", "dual-F3-3", "ext-3", "dual_square-3",
        "dual_ext-2",
    ],
)
def test_two_sided_bar_matches_per_generator_oracle(monkeypatch, make, d, p_max):
    # same generators in the same order, trust bound, and every column of
    # every block, entry order included
    D, O = bar_and_oracle(monkeypatch, make(), d, p_max)
    assert D.s_valid == O.s_valid
    assert list(D.gens.items()) == list(O.gens.items())
    for got, want in ((D.d_h, O.d_h), (D.d_v, O.d_v)):
        assert list(got) == list(want)
        for key, m in got.items():
            assert (m.nrows, m.ncols) == (want[key].nrows, want[key].ncols)
            assert [list(c.items()) for c in m.cols] == [
                list(c.items()) for c in want[key].cols
            ]


def test_two_sided_bar_multiplies_each_word_once(monkeypatch):
    # E = A (x) A sits in level 0 only, so block p holds all 9^p words of
    # split_triple's E and each has p - 1 inner faces; every (word, face) is
    # multiplied once, not once per (i_m, k_n), apart from the products the
    # module checks make on their own
    calls = 0
    counting = False
    mul, check = DGAlgebraModel.mul, DGModule.validate

    def counted_mul(self, *args):
        nonlocal calls
        calls += counting
        return mul(self, *args)

    def uncounted_check(self):
        nonlocal counting
        counting, was = False, counting
        try:
            return check(self)
        finally:
            counting = was

    def counted_bar(*args):
        nonlocal counting
        counting = True
        try:
            return two_sided_bar(*args)
        finally:
            counting = False

    monkeypatch.setattr(DGAlgebraModel, "mul", counted_mul)
    monkeypatch.setattr(DGModule, "validate", uncounted_check)
    monkeypatch.setattr("hhx.bar.two_sided_bar", counted_bar)
    circle_bar(split_triple(), 4)
    assert calls == sum((p - 1) * 9**p for p in range(2, 5))


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
