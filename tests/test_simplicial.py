"""Normal forms, face/degeneracy algebra, builtin spaces, maps, parsing.

The oracle here encodes simplices as monotone surjections: a degenerate
simplex over a base of dimension k at level n is the same thing as an
order-preserving surjection [n] -> [k].  Words translate to surjections by
collapse positions, faces and degeneracies to composition with the usual
coface and codegeneracy maps.  Everything is recomputed from scratch on
that side before comparing.
"""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fold_map, simplicial_chains
from hhx.fields import QQ
from hhx.matrix import SMat
from hhx.simplicial import (
    Simp,
    SimplicialError,
    SimplicialMap,
    boundary_space,
    circle_min,
    circle_subdiv,
    disjoint_union,
    interval,
    make_space,
    parse_space,
    point,
    simplex_space,
    sphere_min,
)

# ------------------------------------------------------- surjection oracle


def surjections(n, k):
    """All monotone surjections [n] -> [k] as value tuples."""
    if k > n:
        return []
    out = []
    # choose the set of positions i with f(i) = f(i+1); there are n slots
    for collapse in combinations(range(n), n - k):
        vals = []
        v = 0
        for i in range(n + 1):
            vals.append(v)
            if i < n and i not in collapse:
                v += 1
        out.append(tuple(vals))
    return out


def word_of(f):
    """Degeneracy word of a monotone surjection: collapse positions, decreasing."""
    return tuple(
        sorted((i for i in range(len(f) - 1) if f[i] == f[i + 1]), reverse=True)
    )


def surjection_of(word, n, k):
    """Inverse translation, built independently: place collapses from the word."""
    collapse = set(word)
    vals = []
    v = 0
    for i in range(n + 1):
        vals.append(v)
        if i < n and i not in collapse:
            v += 1
    assert vals[-1] == k, "word does not match the claimed dimensions"
    return tuple(vals)


def oracle_face(X, s, i, n):
    """d_i on (word, base) computed purely through surjection calculus."""
    k = X.cells[s.base].dim
    f = surjection_of(s.word, n, k)
    g = [f[m] for m in range(n + 1) if m != i]
    present = set(g)
    if len(present) == k + 1:
        return Simp(word_of(tuple(g)), s.base)
    missing = next(v for v in range(k + 1) if v not in present)
    h = tuple(v - 1 if v > missing else v for v in g)
    face = X.cells[s.base].faces[missing]
    kk = X.cells[face.base].dim
    u = surjection_of(face.word, k - 1, kk)
    composite = tuple(u[v] for v in h)
    return Simp(word_of(composite), face.base)


def oracle_degeneracy(s, j, n, k):
    f = surjection_of(s.word, n, k)
    g = f[: j + 1] + f[j:]
    return Simp(word_of(tuple(g)), s.base)


SPACES = {
    "point": point(),
    "interval": interval(),
    "circle": circle_min(),
    "3gon": circle_subdiv(3),
    "sphere2": sphere_min(2),
    "sphere3": sphere_min(3),
    "simplex2": simplex_space(2),
    "boundary2": boundary_space(2),
    "union": disjoint_union(point(), circle_min()),
}


# ------------------------------------------------------------- level counts


def test_level_counts_frozen():
    for n in range(9):
        assert len(circle_min().level(n)) == n + 1
        assert len(point().level(n)) == 1
        assert len(interval().level(n)) == n + 2
    for d in (1, 2, 3):
        X = sphere_min(d)
        for n in range(9):
            assert len(X.level(n)) == 1 + comb(n, d), (d, n)
    for m in (1, 2, 4):
        X = circle_subdiv(m)
        for n in range(7):
            assert len(X.level(n)) == m + m * n, (m, n)
    X = simplex_space(2)
    for n in range(7):
        assert len(X.level(n)) == 3 + 3 * n + comb(n, 2)


def test_levels_match_surjection_oracle():
    for name, X in SPACES.items():
        for n in range(6):
            expect = set()
            for c in X.cells.values():
                if c.dim > n:
                    continue
                for f in surjections(n, c.dim):
                    expect.add(Simp(word_of(f), c.name))
            got = X.level(n)
            assert len(got) == len(set(got)), name
            assert set(got) == expect, (name, n)


def test_level_order_is_documented_one():
    X = circle_min()
    assert X.level(2) == [
        Simp((1, 0), "v"),
        Simp((0,), "e"),
        Simp((1,), "e"),
    ]
    assert X.level(0) == [Simp((), "v")]
    Y = interval()
    assert Y.level(1) == [
        Simp((0,), "0"),
        Simp((0,), "1"),
        Simp((), "e"),
    ]


# ------------------------------------------------------------ face algebra


def test_faces_match_surjection_oracle():
    for name, X in SPACES.items():
        for n in range(1, 6):
            for s in X.level(n):
                for i in range(n + 1):
                    assert X.face(s, i) == oracle_face(X, s, i, n), (name, s, i)


def test_degeneracies_match_surjection_oracle():
    for name, X in SPACES.items():
        for n in range(5):
            for s in X.level(n):
                k = X.cells[s.base].dim
                for j in range(n + 1):
                    got = X.degenerate(s, j)
                    assert got == oracle_degeneracy(s, j, n, k), (name, s, j)
                    assert got in X.level(n + 1)


def test_simplicial_identities_through_level_8():
    for X in (circle_min(), sphere_min(2), interval()):
        for n in range(2, 9):
            for s in X.level(n):
                for j in range(1, n + 1):
                    for i in range(j):
                        assert X.face(X.face(s, j), i) == X.face(
                            X.face(s, i), j - 1
                        )


def test_face_degeneracy_relations():
    X = circle_subdiv(2)
    for n in range(4):
        for s in X.level(n):
            for j in range(n + 1):
                sj = X.degenerate(s, j)
                # the two cancelling faces
                assert X.face(sj, j) == s
                assert X.face(sj, j + 1) == s
                for i in range(n + 2):
                    if i < j:
                        assert X.face(sj, i) == X.degenerate(X.face(s, i), j - 1)
                    elif i > j + 1:
                        assert X.face(sj, i) == X.degenerate(X.face(s, i - 1), j)


def test_degeneracy_swap_relation():
    X = sphere_min(2)
    for n in range(4):
        for s in X.level(n):
            for j in range(n + 1):
                for i in range(j + 1):
                    # s_i s_j = s_{j+1} s_i for i <= j
                    left = X.degenerate(X.degenerate(s, j), i)
                    right = X.degenerate(X.degenerate(s, i), j + 1)
                    assert left == right


def test_hand_computed_faces_on_circle():
    X = circle_min()
    e = Simp((), "e")
    v = Simp((), "v")
    assert X.face(e, 0) == v
    assert X.face(e, 1) == v
    s0e = Simp((0,), "e")
    assert X.face(s0e, 0) == e
    assert X.face(s0e, 1) == e
    assert X.face(s0e, 2) == Simp((0,), "v")
    s1e = Simp((1,), "e")
    assert X.face(s1e, 0) == Simp((0,), "v")
    assert X.face(s1e, 1) == e
    assert X.face(s1e, 2) == e


def test_face_index_bounds():
    X = circle_min()
    with pytest.raises(SimplicialError, match="out of range"):
        X.face(Simp((), "e"), 2)
    with pytest.raises(SimplicialError, match="no faces"):
        X.face(Simp((), "v"), 0)
    with pytest.raises(SimplicialError, match="out of range"):
        X.degenerate(Simp((), "v"), 1)
    with pytest.raises(SimplicialError, match="negative level"):
        X.level(-1)


# -------------------------------------------------------------- validation


def test_validate_rejects_bad_face_count():
    with pytest.raises(SimplicialError, match="faces"):
        make_space([("v", 0, []), ("e", 1, [((), "v")])])


def test_validate_rejects_unknown_base():
    with pytest.raises(SimplicialError, match="unknown cell"):
        make_space([("v", 0, []), ("e", 1, [((), "v"), ((), "w")])])


def test_validate_rejects_wrong_face_dimension():
    with pytest.raises(SimplicialError, match="dimension"):
        make_space(
            [
                ("v", 0, []),
                ("e", 1, [((), "v"), ((), "v")]),
                ("T", 2, [((), "v"), ((), "e"), ((), "e")]),
            ]
        )


def test_validate_rejects_noncanonical_word():
    with pytest.raises(SimplicialError, match="word"):
        make_space(
            [
                ("v", 0, []),
                ("T", 3, [((0, 1), "v")] * 4),
            ]
        )


@pytest.mark.parametrize(
    "cells, message",
    [
        ([("v", 0, [((), "v")])], "vertex v lists faces"),
        # s_1 v is a 1-simplex, but no degeneracy s_1 lands in dimension 1
        (
            [("v", 0, []), ("T", 2, [((1,), "v")] * 3)],
            "face 0 of T has degeneracy index out of range",
        ),
    ],
    ids=["vertex-faces", "degeneracy-index"],
)
def test_validate_refusal_names_its_fault(cells, message):
    with pytest.raises(SimplicialError, match=message):
        make_space(cells)


def test_empty_union_refused():
    with pytest.raises(SimplicialError, match="empty union"):
        disjoint_union()


def test_validate_rejects_identity_violation():
    # triangle with scrambled boundary: d0 d1 != d0 d0
    with pytest.raises(SimplicialError, match="simplicial identity"):
        make_space(
            [
                ("v0", 0, []),
                ("v1", 0, []),
                ("v2", 0, []),
                ("a", 1, [((), "v1"), ((), "v0")]),
                ("b", 1, [((), "v2"), ((), "v1")]),
                ("c", 1, [((), "v2"), ((), "v0")]),
                ("T", 2, [((), "b"), ((), "a"), ((), "c")]),
            ]
        )


def test_validate_accepts_consistent_triangle():
    X = make_space(
        [
            ("v0", 0, []),
            ("v1", 0, []),
            ("v2", 0, []),
            ("a", 1, [((), "v1"), ((), "v0")]),
            ("b", 1, [((), "v2"), ((), "v1")]),
            ("c", 1, [((), "v2"), ((), "v0")]),
            ("T", 2, [((), "b"), ((), "c"), ((), "a")]),
        ]
    )
    assert max(c.dim for c in X.cells.values()) == 2


def test_duplicate_cell_names_rejected():
    with pytest.raises(SimplicialError, match="distinct"):
        make_space([("v", 0, []), ("v", 0, [])])


# ------------------------------------------------------------------- maps


def test_collapse_map_circle_to_point():
    X = circle_min()
    P = point()
    f = SimplicialMap(X, P, {"v": ((), "pt"), "e": ((0,), "pt")})
    assert f.apply(Simp((1,), "e")) == Simp((1, 0), "pt")


def test_subdivision_collapse_map():
    # send first edge to the edge, others to the degenerate vertex
    X = circle_subdiv(3)
    Y = circle_min()
    f = SimplicialMap(
        X,
        Y,
        {
            "v0": ((), "v"),
            "v1": ((), "v"),
            "v2": ((), "v"),
            "e0": ((), "e"),
            "e1": ((0,), "v"),
            "e2": ((0,), "v"),
        },
    )
    assert f.apply(Simp((), "e0")) == Simp((), "e")


def test_map_rejects_missing_and_unknown_cells():
    X = circle_min()
    with pytest.raises(SimplicialError, match="no image"):
        SimplicialMap(X, X, {"v": ((), "v")})
    with pytest.raises(SimplicialError, match="image of 'e' uses unknown cell 'f'"):
        SimplicialMap(X, X, {"v": ((), "v"), "e": ((), "f")})
    with pytest.raises(SimplicialError, match="unknown cells"):
        SimplicialMap(
            X, X, {"v": ((), "v"), "e": ((), "e"), "w": ((), "v")}
        )


def test_map_rejects_dimension_mismatch():
    X = circle_min()
    with pytest.raises(SimplicialError, match="dimension"):
        SimplicialMap(X, X, {"v": ((), "v"), "e": ((), "v")})


def test_map_rejects_face_incompatibility():
    I = interval()
    with pytest.raises(SimplicialError, match="commute"):
        SimplicialMap(
            I,
            I,
            {"0": ((), "0"), "1": ((), "0"), "e": ((), "e")},
        )


def test_fold_map():
    f = fold_map(circle_min(), 3)
    assert set(f.source.cells) == {"0.v", "0.e", "1.v", "1.e", "2.v", "2.e"}
    assert f.apply(Simp((0,), "2.e")) == Simp((0,), "e")


def test_map_commutes_with_degeneracies():
    f = fold_map(circle_min(), 2)
    X, Y = f.source, f.target
    for n in range(4):
        for s in X.level(n):
            for j in range(n + 1):
                assert f.apply(X.degenerate(s, j)) == Y.degenerate(f.apply(s), j)


# ---------------------------------------------------------------- parsing


def test_parse_space_descriptors():
    assert len(parse_space("circle").level(3)) == 4
    assert len(parse_space("circle:3").level(0)) == 3
    assert max(c.dim for c in parse_space("sphere:2").cells.values()) == 2
    assert max(c.dim for c in parse_space("simplex:2").cells.values()) == 2
    assert max(c.dim for c in parse_space("boundary:2").cells.values()) == 1
    assert len(parse_space("point").level(5)) == 1
    assert len(parse_space("interval").level(0)) == 2
    U = parse_space("union:point+circle")
    assert set(U.cells) == {"0.pt", "1.v", "1.e"}
    W = parse_space("union:point+point+circle:2")
    assert "0.pt" in W.cells and "1.pt" in W.cells


def test_parse_space_rejects_garbage():
    for bad in [
        "torus", "circle:x", "sphere:", "union()", "union(point,)",
        "union(point,circle)", "union:point", "union:point+",
    ]:
        with pytest.raises(SimplicialError):
            parse_space(bad)


def test_parse_space_refuses_nested_union():
    with pytest.raises(SimplicialError, match="union parts cannot be unions"):
        parse_space("union:point+union:point+circle")


# ------------------------------------------------------------ cell chains


def betti_from_chains(levels, diffs):
    out = []
    for n in range(len(levels)):
        dim = len(levels[n])
        r_in = diffs[n + 1].rank() if n + 1 < len(diffs) else 0
        r_out = diffs[n].rank() if n >= 1 else 0
        out.append(dim - r_in - r_out)
    return out


def test_cell_chain_homology_of_builtins():
    levels, diffs = simplicial_chains(circle_subdiv(3), QQ)
    assert betti_from_chains(levels, diffs) == [1, 1]
    levels, diffs = simplicial_chains(sphere_min(2), QQ)
    assert betti_from_chains(levels, diffs) == [1, 0, 1]
    levels, diffs = simplicial_chains(simplex_space(2), QQ)
    assert betti_from_chains(levels, diffs) == [1, 0, 0]
    levels, diffs = simplicial_chains(boundary_space(2), QQ)
    assert betti_from_chains(levels, diffs) == [1, 1]
    levels, diffs = simplicial_chains(disjoint_union(point(), circle_min()), QQ)
    assert betti_from_chains(levels, diffs) == [2, 1]


def test_cell_chain_d_squared_zero():
    for X in (simplex_space(3), boundary_space(3), sphere_min(3)):
        levels, diffs = simplicial_chains(X, QQ)
        for n in range(2, len(diffs)):
            prod = diffs[n - 1] @ diffs[n]
            assert prod == SMat(prod.nrows, prod.ncols, QQ), (X, n)


# ------------------------------------------------------------- properties


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(SPACES)),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
def test_face_of_degeneracy_round_trip(name, n, data):
    X = SPACES[name]
    lv = X.level(n)
    s = data.draw(st.sampled_from(lv))
    j = data.draw(st.integers(min_value=0, max_value=n))
    assert X.face(X.degenerate(s, j), j) == s


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=5))
def test_sphere_word_shape(d, n):
    X = sphere_min(d)
    lv = X.level(n)
    degenerate_tops = [s for s in lv if s.base == "c"]
    assert len(degenerate_tops) == comb(n, d)
    for s in degenerate_tops:
        assert len(s.word) == n - d
