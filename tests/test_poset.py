"""Poset nerves with functor coefficients and the circle's arc model."""

import itertools
import json
import random
from pathlib import Path

import pytest

from hhx.algebra import algebra_from_json
from hhx.catalog import (
    dual_numbers,
    exterior_line,
    gf4,
    ground,
    mat2,
    split_pair,
    split_triple,
)
from hhx.chains import ChainError, _check_degrees
from hhx.fields import GF, QQ
from hhx.loday import hh
from hhx.matrix import SMat
from hhx.poset import (
    Poset,
    PosetError,
    PosetFunctor,
    arc_functor,
    constant_functor,
    cyclic_cech_poset,
    edge_map,
    nerve_complex,
    poset_from_json,
    poset_homology,
    poset_to_json,
)
from hhx.poset import _full_nerve, _matching
from hhx.simplicial import circle_min

from helpers import functorial_on_all_triples

CORPUS = Path(__file__).resolve().parent.parent / "src" / "hhx" / "corpus"


def less(P, a, b) -> bool:
    """a < b in P."""
    return a != b and (a, b) in P.le


def graded_constant(P, field, dims_t):
    """The same graded space everywhere, (t, dim) pairs, with identity maps."""
    gens = [(f"c{t}.{k}", t) for t, d in dims_t for k in range(d)]
    ident = SMat.identity(len(gens), field)
    maps = {(a, b): ident for a, b in P.le if a != b}
    return PosetFunctor(P, field, {x: gens for x in P.objects}, maps).validate()


def chain_poset(names):
    le = set()
    for i, a in enumerate(names):
        for b in names[i:]:
            le.add((a, b))
    return Poset(names, le, {nm: 1 for nm in names})


# ------------------------------------------------------- poset checks


def test_duplicate_objects():
    with pytest.raises(PosetError, match="duplicate"):
        Poset(["a", "a"], {("a", "a")}, {"a": 1})


def test_unknown_relation():
    with pytest.raises(PosetError, match="unknown"):
        Poset(["a"], {("a", "a"), ("a", "b")}, {"a": 1})


def test_reflexivity_required():
    with pytest.raises(PosetError, match="reflexive"):
        Poset(["a"], set(), {"a": 1})


def test_antisymmetry():
    le = {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}
    with pytest.raises(PosetError, match="antisymmetric"):
        Poset(["a", "b"], le, {"a": 1, "b": 1})


def test_transitivity():
    le = {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}
    with pytest.raises(PosetError, match="transitive"):
        Poset(["a", "b", "c"], le, {"a": 1, "b": 1, "c": 1})


def test_missing_components():
    with pytest.raises(PosetError, match="component count"):
        Poset(["a"], {("a", "a")}, {})


def test_chains_and_covers():
    P = chain_poset(["a", "b", "c"])
    assert P.longest_chain() == 2
    assert P.chains(1) == [("a", "b"), ("a", "c"), ("b", "c")]


def test_functoriality_violation_names_triple():
    P = chain_poset(["a", "b", "c"])
    one = QQ.one
    ident = SMat.from_entries(1, 1, QQ, [(0, 0, one)])
    doubled = SMat.from_entries(1, 1, QQ, [(0, 0, one + one)])
    spaces = {nm: [("e", 0)] for nm in P.objects}
    maps = {("a", "b"): ident, ("b", "c"): ident, ("a", "c"): doubled}
    with pytest.raises(PosetError, match="triple.*a.*b.*c"):
        PosetFunctor(P, QQ, spaces, maps).validate()


@pytest.mark.parametrize(
    "make, seen",
    [
        # some pairs of the random poset lie on no chain of length two
        (
            lambda: (P := shuffled_random_poset(), graded_constant(P, QQ, ((0, 1), (2, 2))))[1],
            {True, False},
        ),
        (lambda: arc_functor(dual_numbers(), cyclic_cech_poset(2)), {False}),
    ],
    ids=["out-of-order", "m2"],
)
def test_covering_triples_decide_functoriality(make, seen):
    # one map at a time scaled by 2 or by 0: validate, which multiplies out
    # the covering triples only, refuses exactly when some triple fails
    F = make()
    verdicts = set()
    for pair, m in F.maps.items():
        for k in (2, 0):
            G = PosetFunctor(F.poset, QQ, F.spaces, {**F.maps, pair: m.scale(QQ(k))})
            ok = functorial_on_all_triples(G)
            verdicts.add(ok)
            if ok:
                G.validate()
            else:
                with pytest.raises(PosetError, match="functoriality fails"):
                    G.validate()
    assert verdicts == seen


def test_builders_reject_hand_built_invalid_functor():
    # nothing validates a functor built by hand before a builder sees it,
    # and a failed check marks nothing valid
    P = chain_poset(["a", "b", "c"])
    one = QQ.one
    ident = SMat.from_entries(1, 1, QQ, [(0, 0, one)])
    doubled = SMat.from_entries(1, 1, QQ, [(0, 0, one + one)])
    spaces = {nm: [("e", 0)] for nm in P.objects}
    F = PosetFunctor(P, QQ, spaces, {("a", "b"): ident, ("b", "c"): ident, ("a", "c"): doubled})
    for _ in range(2):
        with pytest.raises(PosetError, match=r"functoriality fails on the triple \(a, b, c\)"):
            nerve_complex(P, F)


def test_functor_validated_once(monkeypatch):
    # arc_functor checks its maps; the nerve, the H_0 quotient and the
    # Morse complex behind the edge check then reuse that result
    calls = []

    def counted(*args):
        calls.append(args)
        return _check_degrees(*args)

    monkeypatch.setattr("hhx.poset._check_degrees", counted)
    P = cyclic_cech_poset(2)
    F = arc_functor(split_pair(), P)
    built = len(calls)
    assert built == sum(1 for a, b in P.le if a != b)
    poset_homology(P, F, 1)
    assert edge_map(P, F, "0").iso
    assert len(calls) == built


def test_functor_rejects_t_mixing():
    P = chain_poset(["a", "b"])
    ident = SMat.from_entries(1, 1, QQ, [(0, 0, QQ.one)])
    spaces = {"a": [("e", 0)], "b": [("f", 1)]}
    with pytest.raises(PosetError, match=r"map at \(a, b\) mixes internal degrees"):
        PosetFunctor(P, QQ, spaces, {("a", "b"): ident}).validate()


# --------------------------------------------------- the circle model


def test_small_m_rejected():
    with pytest.raises(PosetError, match="at least two"):
        cyclic_cech_poset(1)


def test_model_shape():
    P2 = cyclic_cech_poset(2)
    P3 = cyclic_cech_poset(3)
    assert len(P2.objects) == 16 and P2.window == 1
    assert len(P3.objects) == 45 and P3.window == 2
    assert P2.longest_chain() == 4
    assert P3.longest_chain() == 6


def test_maximal_objects_are_arcs():
    for m in (2, 3):
        P = cyclic_cech_poset(m)
        maximal = [
            x for x in P.objects if not any(less(P, x, y) for y in P.objects)
        ]
        assert len(maximal) == m + 1
        assert all(P.components[x] == 1 for x in maximal)


def test_every_object_below_an_arc():
    P = cyclic_cech_poset(2)
    maximal = {x for x in P.objects if not any(less(P, x, y) for y in P.objects)}
    for x in P.objects:
        assert x in maximal or any(less(P, x, u) for u in maximal)


def test_deterministic_object_order():
    assert cyclic_cech_poset(2).objects == cyclic_cech_poset(2).objects


# ----------------------------------------------------- nerve homology


def test_single_object_poset():
    P = Poset(["x"], {("x", "x")}, {"x": 1})
    F = graded_constant(P, QQ, ((0, 2),))
    assert poset_homology(P, F).entries == {(0, 0): 2}


def test_span_with_projections_vanishes():
    # two points under a plane: projecting to each coordinate leaves nothing
    le = {("c", "c"), ("a", "a"), ("b", "b"), ("c", "a"), ("c", "b")}
    P = Poset(["a", "b", "c"], le, {"a": 1, "b": 1, "c": 1})
    one = QQ.one
    spaces = {"a": [("e", 0)], "b": [("e", 0)], "c": [("u", 0), ("v", 0)]}
    pa = SMat.from_entries(1, 2, QQ, [(0, 0, one)])
    pb = SMat.from_entries(1, 2, QQ, [(0, 1, one)])
    F = PosetFunctor(P, QQ, spaces, {("c", "a"): pa, ("c", "b"): pb}).validate()
    assert poset_homology(P, F).entries == {}


def test_zero_functor():
    P = chain_poset(["a", "b"])
    zero = SMat(0, 0, QQ)
    F = PosetFunctor(P, QQ, {nm: [] for nm in P.objects}, {("a", "b"): zero})
    assert poset_homology(P, F).entries == {}


@pytest.mark.parametrize("m", [2, 3])
def test_constant_coefficients_acyclic(m):
    P = cyclic_cech_poset(m)
    table = poset_homology(P, constant_functor(P, QQ), min(m, 2))
    assert table.entries == {(0, 0): 1}


def test_nerve_trust_window():
    P = chain_poset(["a", "b"])
    F = constant_functor(P, QQ)
    C = nerve_complex(P, F)
    assert C.s_valid == 1
    with pytest.raises(ChainError, match="trusted only"):
        C.homology(2, provenance="poset")


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda spaces, maps: spaces.pop("c"), "no space assigned to c"),
        (lambda spaces, maps: maps.pop(("a", "c")), r"no map assigned to \(a, c\)"),
        (
            lambda spaces, maps: maps.update({("a", "b"): SMat(2, 1, QQ)}),
            r"map at \(a, b\) has the wrong shape",
        ),
    ],
    ids=["space", "map", "shape"],
)
def test_functor_refusal_names_its_fault(change, message):
    P = chain_poset(["a", "b", "c"])
    ident = SMat.identity(1, QQ)
    spaces = {nm: [("e", 0)] for nm in P.objects}
    maps = {("a", "b"): ident, ("b", "c"): ident, ("a", "c"): ident}
    change(spaces, maps)
    with pytest.raises(PosetError, match=message):
        PosetFunctor(P, QQ, spaces, maps).validate()


# --------------------------------------------- agreement with circle


@pytest.mark.parametrize(
    "make",
    [ground, dual_numbers, split_pair, split_triple, gf4, exterior_line],
    ids=["Q", "dual", "QxQ", "Q3", "F4", "exterior"],
)
def test_m2_agrees_with_circle(make):
    A = make()
    P = cyclic_cech_poset(2)
    got = poset_homology(P, arc_functor(A, P), P.window).entries
    want = hh(A, circle_min(), 1).entries
    assert got == want


def test_m3_agrees_deeper():
    A = dual_numbers()
    P = cyclic_cech_poset(3)
    got = poset_homology(P, arc_functor(A, P), P.window).entries
    want = hh(A, circle_min(), 2).entries
    assert got == want


def test_etale_vanishing_above_zero():
    P = cyclic_cech_poset(2)
    for make in (split_pair, split_triple, gf4):
        A = make()
        table = poset_homology(P, arc_functor(A, P), P.window)
        assert all(s == 0 for s, _t in table.entries)


# ------------------------------------------------------------- edges


def test_edge_map_iso_matches_etale():
    P = cyclic_cech_poset(2)
    expect = {
        ground: True,
        dual_numbers: False,
        split_pair: True,
        split_triple: True,
        gf4: True,
        exterior_line: False,
    }
    for make, want in expect.items():
        F = arc_functor(make(), P)
        assert edge_map(P, F, "0").iso is want, make.__name__


def test_edge_map_unknown_object():
    P = cyclic_cech_poset(2)
    F = arc_functor(ground(), P)
    with pytest.raises(PosetError, match="not in the poset"):
        edge_map(P, F, "nowhere")


def test_edge_map_needs_single_component():
    P = cyclic_cech_poset(2)
    F = arc_functor(ground(), P)
    multi = next(x for x in P.objects if P.components[x] == 2)
    with pytest.raises(PosetError, match="single component"):
        edge_map(P, F, multi)


def test_edge_map_shape():
    P = cyclic_cech_poset(2)
    A = dual_numbers()
    em = edge_map(P, arc_functor(A, P), "0")
    assert em.src_dims == {0: 2} and em.h0_dims == {0: 2}


def test_edge_map_not_onto_with_equal_dims():
    # x0 < y with F = k on both and the zero map: H_0 is F(y), so the
    # dimensions agree, but the class of F(x0) in H_0 is zero
    P = chain_poset(["x0", "y"])
    spaces = {"x0": [("e", 0)], "y": [("e", 0)]}
    F = PosetFunctor(P, QQ, spaces, {("x0", "y"): SMat(1, 1, QQ)}).validate()
    em = edge_map(P, F, "x0")
    assert em.src_dims == em.h0_dims == {0: 1}
    assert em.iso is False


def test_edge_map_empty_coefficients():
    # nothing at x0 and nothing in H_0: the zero map is an isomorphism
    P = Poset(["x"], {("x", "x")}, {"x": 1})
    em = edge_map(P, PosetFunctor(P, QQ, {"x": []}, {}), "x")
    assert em.iso is True and em.src_dims == em.h0_dims == {}


# ------------------------------------------------------ functor gates


def test_arc_functor_rejects_noncommutative():
    P = cyclic_cech_poset(2)
    with pytest.raises(PosetError, match="commutative"):
        arc_functor(mat2(), P)


def test_arc_functor_needs_labels():
    P = poset_from_json(poset_to_json(cyclic_cech_poset(2)))
    with pytest.raises(PosetError, match="component labels"):
        arc_functor(ground(), P)


def test_char_two_coefficients():
    P = cyclic_cech_poset(2)
    table = poset_homology(P, constant_functor(P, GF(2)), 1)
    assert table.entries == {(0, 0): 1}


# ------------------------------------------------------------- JSON


def test_json_round_trip():
    P = cyclic_cech_poset(2)
    blob = json.dumps(poset_to_json(P), sort_keys=True)
    Q = poset_from_json(json.loads(blob))
    assert Q.objects == P.objects
    assert Q.le == P.le
    assert Q.components == P.components


def test_json_closes_transitively():
    obj = {
        "objects": [
            {"name": "a", "components": 1},
            {"name": "b", "components": 1},
            {"name": "c", "components": 1},
        ],
        "relations": [["a", "b"], ["b", "c"]],
    }
    P = poset_from_json(obj)
    assert ("a", "c") in P.le


@pytest.mark.parametrize("count", [2.7, True, 0, "2"])
def test_json_refuses_bad_component_counts(count):
    obj = poset_to_json(cyclic_cech_poset(2))
    obj["objects"][0]["components"] = count
    with pytest.raises(PosetError, match="components of .* integer >= 1"):
        poset_from_json(obj)


@pytest.mark.parametrize("rel", ["ab", {"a": 1, "b": 2}, ["a"], ["a", "b", "c"], ["a", 1]])
def test_json_refuses_relations_that_are_not_name_pairs(rel):
    obj = {"objects": [{"name": x, "components": 1} for x in "ab"], "relations": [rel]}
    with pytest.raises(PosetError, match="must be a list of two object names"):
        poset_from_json(obj)


@pytest.mark.parametrize("name", [1, "", None])
def test_json_refuses_object_names_that_are_not_strings(name):
    obj = {"objects": [{"name": name, "components": 1}], "relations": []}
    with pytest.raises(PosetError, match="must be a non-empty string"):
        poset_from_json(obj)


# ------------------------------ Morse complex against the full nerve


def face_poset(facets):
    """Nonempty faces of a simplicial complex, ordered by inclusion."""
    faces = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(sorted(f), k))
    faces = sorted(faces, key=lambda f: (len(f), f))
    names = ["".join(map(str, f)) for f in faces]
    le = {
        (names[i], names[j])
        for i, a in enumerate(faces)
        for j, b in enumerate(faces)
        if set(a) <= set(b)
    }
    return Poset(names, le, {nm: 1 for nm in names})


def shuffled_random_poset(n=12, seed=0):
    """Random relations among n objects listed out of any linear extension."""
    rng = random.Random(seed)
    rank = list(range(n))
    rng.shuffle(rank)
    objects = [f"o{i}" for i in range(n)]
    rels = [
        [objects[a], objects[b]]
        for a in range(n)
        for b in range(n)
        if rank[a] < rank[b] and rng.random() < 0.35
    ]
    return poset_from_json(
        {"objects": [{"name": x, "components": 1} for x in objects], "relations": rels}
    )


TRIANGLE = [(0, 1), (1, 2), (0, 2)]
OCTAHEDRON = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
# the 7-vertex torus
TORUS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]
CIRCLE_TABLE = {(0, 0): 1, (0, 2): 2, (1, 0): 1, (1, 2): 2}
TORUS_TABLE = {(0, 0): 1, (0, 2): 2, (1, 0): 2, (1, 2): 4, (2, 0): 1, (2, 2): 2}


def euler_by_t(C):
    out = {}
    for s, lv in enumerate(C.levels):
        for _nm, t in lv:
            out[t] = out.get(t, 0) + (-1) ** s
    return out


def assert_morse_matches_full(P, F):
    M = nerve_complex(P, F).validate()
    C = _full_nerve(P, F)
    assert M.s_valid == C.s_valid
    assert euler_by_t(M) == euler_by_t(C)
    table = M.homology(provenance="poset")
    assert table.entries == C.homology(provenance="poset").entries
    return table


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", ["dual", "qxq", "q3", "gf4", "exterior"])
def test_morse_matches_full_nerve_m2(name, field):
    A = algebra_from_json(json.loads((CORPUS / f"{name}.json").read_text()), field)
    P = cyclic_cech_poset(2)
    assert_morse_matches_full(P, arc_functor(A, P))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_morse_matches_full_nerve_m3(field):
    P = cyclic_cech_poset(3)
    assert_morse_matches_full(P, arc_functor(dual_numbers(field), P))


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
@pytest.mark.parametrize(
    "facets, want",
    [(TRIANGLE, CIRCLE_TABLE), (OCTAHEDRON, None), (TORUS, TORUS_TABLE)],
    ids=["triangle", "octahedron", "torus"],
)
def test_morse_matches_full_nerve_face_posets(facets, want, field):
    P = face_poset(facets)
    table = assert_morse_matches_full(P, graded_constant(P, field, ((0, 1), (2, 2))))
    if want is not None:
        assert table.entries == want


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
def test_morse_matches_full_nerve_out_of_order(field):
    P = shuffled_random_poset()
    pos = {x: i for i, x in enumerate(P.objects)}
    assert any(pos[a] > pos[b] for a, b in P.le)
    assert_morse_matches_full(P, graded_constant(P, field, ((0, 1), (2, 2))))


def matching_of(P):
    return _matching(P._chain_levels(P.longest_chain()), len(P.objects))


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclic_cech_poset(2),
        lambda: cyclic_cech_poset(3),
        lambda: face_poset(TORUS),
        shuffled_random_poset,
    ],
    ids=["m2", "m3", "torus", "out-of-order"],
)
def test_matching_pairs(make):
    P = make()
    partner = matching_of(P)
    for ch, other in partner.items():
        # an involution without fixed points: no chain is in two pairs
        assert partner[other] == ch and other != ch
        lo, hi = sorted((ch, other), key=len)
        # same start, one object dropped at a position >= 1
        assert any(hi[:k] + hi[k + 1 :] == lo for k in range(1, len(hi)))
    # acyclic: every face points down except the matched one, which points up
    edges = {}
    for lv in P._chain_levels(P.longest_chain()):
        for ch in lv:
            faces = [ch[:k] + ch[k + 1 :] for k in range(len(ch))] if len(ch) > 1 else []
            edges[ch] = [f for f in faces if partner.get(f) != ch]
            if len(partner.get(ch, ch)) > len(ch):
                edges[ch].append(partner[ch])
    state = {}
    for root in edges:
        if root in state:
            continue
        state[root] = "open"
        stack = [(root, iter(edges[root]))]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = "done"
                stack.pop()
            else:
                assert state.get(nxt) != "open", f"cycle through {nxt}"
                if nxt not in state:
                    state[nxt] = "open"
                    stack.append((nxt, iter(edges[nxt])))


@pytest.mark.parametrize(
    "m, chains, dual_gens", [(2, 13, 42), (3, 57, 228)], ids=["m2", "m3"]
)
def test_critical_counts_pinned(m, chains, dual_gens):
    P = cyclic_cech_poset(m)
    M = nerve_complex(P, arc_functor(dual_numbers(), P))
    assert sum(M.level_dim(s) for s in range(M.top + 1)) == dual_gens
    crit = {chain for lv in M.levels for (chain, _nm), _t in lv}
    assert len(crit) == chains
    assert len(matching_of(P)) == sum(len(P.chains(p)) for p in range(M.top + 1)) - chains


def test_homology_deterministic():
    P = cyclic_cech_poset(2)
    A = dual_numbers()
    a = poset_homology(P, arc_functor(A, P), 1).entries
    b = poset_homology(P, arc_functor(A, P), 1).entries
    assert repr(sorted(a.items())) == repr(sorted(b.items()))
