"""Finite posets, functor coefficients, and nerve homology.

A circle covered by finitely many arcs gives a poset of pieces ordered by
inclusion; tensor powers of an algebra over the components of each piece
give a functor on that poset, and the homology of its nerve recovers the
circle computation one level at a time.  ``nerve_complex`` does not build
the whole nerve: an acyclic matching of its chains (sequential element
matchings, Jonsson 2008) cancels all but a few critical chains, and the
Morse complex on those (Sköldberg 2006) has the same homology.  The whole
nerve stays as ``_full_nerve``, the oracle the tests hold the Morse
complex to and the level-one complex whose H_0 ``edge_map`` reads, from
its homology and from that of a cone into it.  Everything here is finite
and exact.
"""

from __future__ import annotations

import itertools

from .algebra import GradedAlgebra
from .chains import BettiTable, ChainComplex, ChainMap, _check_degrees, cone
from .loday import _Push, _positions
from .matrix import SMat

__all__ = [
    "PosetError",
    "Poset",
    "PosetFunctor",
    "cyclic_cech_poset",
    "constant_functor",
    "arc_functor",
    "nerve_complex",
    "poset_homology",
    "EdgeMap",
    "edge_map",
    "poset_to_json",
    "poset_from_json",
]


class PosetError(ValueError):
    pass


class Poset:
    """Finite poset with cached successor lists and component labels.

    ``le`` holds all related pairs (a, b) with a <= b, reflexive and
    transitively closed; ``components`` counts the pieces of each object;
    ``comp_maps`` records, for geometric posets, where each piece of the
    smaller object lands inside the bigger one.  ``window``, when set by a
    model constructor, bounds the homological degrees in which the nerve is
    trusted to reproduce the space the poset stands in for.
    """

    __slots__ = ("objects", "le", "components", "comp_maps", "window", "_succ")

    def __init__(self, objects, le, components, comp_maps=None, window=None):
        self.objects = tuple(objects)
        self.le = frozenset(le)
        self.components = dict(components)
        self.comp_maps = None if comp_maps is None else dict(comp_maps)
        self.window = window
        self._succ = None
        self._check()

    def _check(self):
        seen = set(self.objects)
        if len(seen) != len(self.objects):
            raise PosetError("duplicate object names")
        # in sorted order, so a refusal names the same pair on every run
        rels = sorted(self.le)
        for a, b in rels:
            if a not in seen or b not in seen:
                raise PosetError(f"relation mentions unknown object ({a}, {b})")
        for a in self.objects:
            if (a, a) not in self.le:
                raise PosetError(f"relation is not reflexive at {a}")
            if a not in self.components:
                raise PosetError(f"object {a} has no component count")
        for a, b in rels:
            if a != b and (b, a) in self.le:
                raise PosetError(f"relation is not antisymmetric on ({a}, {b})")
        for a, b in rels:
            for c in self.objects:
                if (b, c) in self.le and (a, c) not in self.le:
                    raise PosetError(
                        f"relation is not transitive through ({a}, {b}, {c})"
                    )

    def _successors(self):
        """Indices of the objects above each object, in object order."""
        if self._succ is None:
            index = {x: i for i, x in enumerate(self.objects)}
            above = [[] for _ in self.objects]
            for a, b in self.le:
                if a != b:
                    above[index[a]].append(index[b])
            self._succ = tuple(tuple(sorted(s)) for s in above)
        return self._succ

    def _chain_levels(self, top: int):
        """Strict chains as index tuples, levels 0..top, each lexicographic.

        Level p extends every (p-1)-chain by each successor of its last
        object, so lexicographic order carries over from level to level.
        """
        succ = self._successors()
        level = [(i,) for i in range(len(self.objects))]
        levels = [level]
        for _ in range(top):
            level = [ch + (j,) for ch in level for j in succ[ch[-1]]]
            levels.append(level)
        return levels

    def chains(self, p: int):
        """All strict chains x_0 < ... < x_p, in lexicographic object order."""
        if p < 0:
            return []
        names = self.objects
        return [tuple(names[i] for i in ch) for ch in self._chain_levels(p)[p]]

    def longest_chain(self) -> int:
        succ = self._successors()
        height = [0] * len(succ)
        # an object has strictly fewer successors than any object below it
        for i in sorted(range(len(succ)), key=lambda i: len(succ[i])):
            height[i] = max((height[j] + 1 for j in succ[i]), default=0)
        return max(height, default=0)


class PosetFunctor:
    """Graded vector spaces on objects, linear maps on related pairs.

    ``spaces`` maps each object to a list of (name, t) generators and
    ``maps`` each strictly related pair to an SMat; identity pairs are
    implicit.  A functor is not changed after it is built, so ``validate``
    checks it once and later calls return at once.
    """

    __slots__ = ("poset", "field", "spaces", "maps", "_valid")

    def __init__(self, poset: Poset, field, spaces: dict, maps: dict):
        self.poset = poset
        self.field = field
        self.spaces = {x: tuple(v) for x, v in spaces.items()}
        self.maps = dict(maps)
        self._valid = False

    def dim(self, x) -> int:
        return len(self.spaces[x])

    def validate(self) -> "PosetFunctor":
        """Every map present, of the right shape and degree, and functorial.

        F(a, c) = F(b, c) F(a, b) is checked only on the chains a < b < c
        with b covering a, and that gives every chain, by induction on the
        longest chain from a to b: if b does not cover a, some a' covering
        a lies below b, and F(b, c) F(a, b) = F(b, c) F(a', b) F(a, a') =
        F(a', c) F(a, a') = F(a, c), by the triple (a, a', b), the shorter
        pair (a', b) and the triple (a, a', c).  A pair (a, b) is a cover
        exactly when it is not the outer pair of a chain of length two.
        """
        if self._valid:
            return self
        P = self.poset
        for x in P.objects:
            if x not in self.spaces:
                raise PosetError(f"no space assigned to {x}")
        for a, b in sorted(P.le):
            if a == b:
                continue
            m = self.maps.get((a, b))
            if m is None:
                raise PosetError(f"no map assigned to ({a}, {b})")
            if (m.nrows, m.ncols) != (self.dim(b), self.dim(a)):
                raise PosetError(f"map at ({a}, {b}) has the wrong shape")
            _check_degrees(
                m, self.spaces[a], self.spaces[b], f"map at ({a}, {b})", PosetError
            )
        triples = P.chains(2)
        outer = {(a, c) for a, _b, c in triples}
        for a, b, c in triples:
            if (a, b) in outer:
                continue
            if self.maps[(a, c)] != self.maps[(b, c)] @ self.maps[(a, b)]:
                raise PosetError(f"functoriality fails on the triple ({a}, {b}, {c})")
        self._valid = True
        return self


def _runs(segs, total):
    """Maximal circular runs of a segment set, each as a consecutive tuple.

    Runs are listed by their starting segment in increasing order, with the
    wrap-around run (if any) starting at its true first segment.
    """
    segs = set(segs)
    runs = []
    seen = set()
    for s in sorted(segs):
        if s in seen:
            continue
        start = s
        while (start - 1) % total in segs and (start - 1) % total != s:
            start = (start - 1) % total
        run = [start]
        seen.add(start)
        while (run[-1] + 1) % total in segs and (run[-1] + 1) % total != start:
            nxt = (run[-1] + 1) % total
            run.append(nxt)
            seen.add(nxt)
        runs.append(tuple(run))
    runs.sort(key=lambda r: r[0])
    return tuple(runs)


def cyclic_cech_poset(m: int) -> Poset:
    """Finite stand-in for the circle's poset of disk unions.

    Mark m + 1 points on the circle.  An object is any disjoint union of
    open arcs whose endpoints are marked points, short of the full circle;
    objects are ordered by inclusion and labeled with their ordered
    component lists.  The maximal objects are the m + 1 complements of a
    single marked point, every multiple overlap of them is present down to
    the common refinement with m + 1 pieces, and that depth makes the
    nerve with tensor-power coefficients reproduce the circle computation
    through homological degree m - 1; the poset records the bound in
    ``window``.  Internally the circle is cut into 2(m + 1) segments,
    odd ones standing for the marked points.
    """
    if m < 2:
        raise PosetError(f"need at least two marked points, got {m}")
    total = 2 * (m + 1)
    sets = {}
    geometry = {}
    for size in range(1, total):
        for sub in itertools.combinations(range(total), size):
            runs = _runs(sub, total)
            # arcs run from one marked point to another: even ends only
            if any(r[0] % 2 or r[-1] % 2 for r in runs):
                continue
            name = "|".join(
                f"{r[0]}-{r[-1]}" if len(r) > 1 else str(r[0]) for r in runs
            )
            sets[name] = frozenset(sub)
            geometry[name] = runs
    names = sorted(sets, key=lambda nm: (len(geometry[nm]), nm))
    le = set()
    for a in names:
        for b in names:
            if sets[a] <= sets[b]:
                le.add((a, b))
    components = {nm: len(geometry[nm]) for nm in names}
    comp_maps = {
        (a, b): tuple(
            next(k for k, big in enumerate(geometry[b]) if set(run) <= set(big))
            for run in geometry[a]
        )
        for a, b in le
        if a != b
    }
    return Poset(names, le, components, comp_maps, window=m - 1)


def constant_functor(P: Poset, field) -> PosetFunctor:
    """One generator in degree 0 everywhere, with identity maps."""
    spaces = {x: [("c0.0", 0)] for x in P.objects}
    ident = SMat.identity(1, field)
    maps = {(a, b): ident for a, b in P.le if a != b}
    return PosetFunctor(P, field, spaces, maps).validate()


def arc_functor(A: GradedAlgebra, P: Poset) -> PosetFunctor:
    """Tensor powers of A over the components of each object.

    Inclusions multiply the components that collide and insert units on
    components that appear fresh; signs follow the same reordering rule as
    every other tensor pushforward here.
    """
    if not A.commutative:
        raise PosetError("tensor-power coefficients need a commutative algebra")
    if P.comp_maps is None:
        raise PosetError("poset has no component labels")
    field = A.field
    dA = A.dim
    spaces = {}
    for x in P.objects:
        c = P.components[x]
        spaces[x] = [
            (phi, sum(A.degrees[i] for i in phi))
            for phi in itertools.product(range(dA), repeat=c)
        ]
    index = {x: _positions(phi for phi, _ in sp) for x, sp in spaces.items()}
    maps = {}
    for a, b in P.le:
        if a == b:
            continue
        tp = P.comp_maps[(a, b)]
        push = _Push(A, list(tp), P.components[b])
        where = index[b]
        mat = SMat(len(spaces[b]), len(spaces[a]), field)
        for j, (phi, _t) in enumerate(spaces[a]):
            for tup, c in push.column(phi).items():
                mat.add_at(where[tup], j, c)
        maps[(a, b)] = mat
    return PosetFunctor(P, field, spaces, maps).validate()


def _generators(I: Poset, F: PosetFunctor, chain_levels, skip=()):
    """Generators ((chain, name), t) per level and each chain's first offset.

    A chain in ``skip`` gets no generators.
    """
    names = I.objects
    levels = []
    offsets = []
    for chains in chain_levels:
        lv = []
        offs = {}
        for ch in chains:
            if ch in skip:
                continue
            offs[ch] = len(lv)
            named = tuple(names[i] for i in ch)
            lv.extend(((named, nm), t) for nm, t in F.spaces[named[0]])
        levels.append(lv)
        offsets.append(offs)
    return levels, offsets


def _full_nerve(I: Poset, F: PosetFunctor, top: int | None = None) -> ChainComplex:
    """Every strict chain of the poset with coefficients at the chain's start.

    Level p sums F(x_0) over chains x_0 < ... < x_p; the first face pushes
    along F(x_0 <= x_1), the others drop an object.  Without ``top`` the
    levels run to the longest chain, where the complex is exact; with it
    they stop at ``top``.
    """
    F.validate()
    field = F.field
    names = I.objects
    ell = I.longest_chain()
    top = ell if top is None else min(top, ell)
    levels, offsets = _generators(I, F, I._chain_levels(top))
    diffs: list = [None]
    for p in range(1, top + 1):
        d = SMat(len(levels[p - 1]), len(levels[p]), field)
        for ch, base in offsets[p].items():
            m0 = F.maps[(names[ch[0]], names[ch[1]])]
            tbase = offsets[p - 1][ch[1:]]
            d.add_block(m0, tbase, base)
            for drop in range(1, p + 1):
                tbase = offsets[p - 1][ch[:drop] + ch[drop + 1 :]]
                sign = field.one if drop % 2 == 0 else -field.one
                for j in range(m0.ncols):
                    d.add_at(tbase + j, base + j, sign)
        diffs.append(d)
    return ChainComplex(field, levels, diffs, s_valid=top if top == ell else None)


def _matching(levels, n: int) -> dict:
    """Sequential element matching on chains, as a partner dict.

    For each object y in order, a still-free chain with y at a position
    >= 1 is matched with the chain without y when that one is free too.
    """
    through: list = [[] for _ in range(n)]
    for chains in levels[1:]:
        for ch in chains:
            for y in ch[1:]:
                through[y].append(ch)
    partner: dict = {}
    for y, taus in enumerate(through):
        for tau in taus:
            if tau in partner:
                continue
            k = tau.index(y)
            sigma = tau[:k] + tau[k + 1 :]
            if sigma not in partner:
                partner[tau] = sigma
                partner[sigma] = tau
    return partner


def nerve_complex(I: Poset, F: PosetFunctor) -> ChainComplex:
    """Morse complex of the nerve on the critical chains of a matching.

    The nerve (``_full_nerve``) sums F(x_0) over the strict chains
    x_0 < ... < x_p.  A face that drops x_i with i >= 1 carries the sign
    (-1)^i times the identity on F(x_0), so a chain and the chain without
    one object y at a position >= 1 span a block that can be cancelled
    whatever F is.  ``_matching`` pairs chains this way, taking each
    object y in turn (a sequential element matching).  The matching is
    acyclic: the face d_0 strictly raises x_0, and for fixed x_0 the
    chains form the augmented order complex of the objects above x_0,
    where a sequence of element matchings is acyclic (Jonsson,
    *Simplicial Complexes of Graphs*, 2008).  The unmatched (critical)
    chains then carry a complex with the homology of the nerve
    (Sköldberg, "Morse theory from an algebraic viewpoint", Trans. AMS
    2006): its differential sums, over the zig-zag paths from a critical
    chain down to critical chains, the products of the face maps with the
    negated inverse pair blocks.  Here that sum is psi(d c): psi is the
    identity on critical chains, zero on chains matched with a shorter
    one, and on a chain sigma matched with a longer tau it is
    -[d tau : sigma]^{-1} psi(d tau - [d tau : sigma] sigma).  psi is
    memoized per level by a depth-first search, which eliminates the
    matched chains in a topological order of the matching graph.  Chains
    above the longest one vanish, so the complex is exact at its top.
    """
    F.validate()
    field = F.field
    one = field.one
    add = field.add_into
    names = I.objects
    spaces = [F.spaces[x] for x in names]
    chain_levels = I._chain_levels(I.longest_chain())
    partner = _matching(chain_levels, len(names))
    levels, offsets = _generators(I, F, chain_levels, skip=partner)

    def faces(tau):
        return [tau[1:]] + [tau[:k] + tau[k + 1 :] for k in range(1, len(tau))]

    def boundary(tau, memo, scale, skip=None):
        """scale * psi(d tau minus its skip face), one column per F(tau_0) basis vector."""
        out = [{} for _ in spaces[tau[0]]]
        low = memo[tau[1:]]
        if low is not None:
            m0 = F.maps[(names[tau[0]], names[tau[1]])]
            for acc, col in zip(out, m0.cols):
                for i, v in col.items():
                    v = scale * v
                    for r, c in low[i].items():
                        add(acc, r, v * c)
        for k in range(1, len(tau)):
            f = tau[:k] + tau[k + 1 :]
            cols = None if f == skip else memo[f]
            if cols is None:
                continue
            sign = scale if k % 2 == 0 else -scale
            for acc, col in zip(out, cols):
                for r, c in col.items():
                    add(acc, r, sign * c)
        return out

    def fill(sigma, memo):
        """Memoize psi on sigma and on every chain its value reaches."""
        stack = [sigma]
        while stack:
            s = stack[-1]
            if s not in memo and len(partner[s]) < len(s):
                memo[s] = None
            if s in memo:
                stack.pop()
                continue
            tau = partner[s]
            todo = [f for f in faces(tau) if f != s and f not in memo]
            if todo:
                stack.extend(todo)
                continue
            k = next((i for i, x in enumerate(s) if x != tau[i]), len(s))
            memo[s] = boundary(tau, memo, one if k % 2 else -one, skip=s)
            stack.pop()

    diffs: list = [None]
    for p in range(1, len(chain_levels)):
        memo = {
            f: [{base + j: one} for j in range(len(spaces[f[0]]))]
            for f, base in offsets[p - 1].items()
        }
        d = SMat(len(levels[p - 1]), len(levels[p]), field)
        for c, base in offsets[p].items():
            for f in faces(c):
                fill(f, memo)
            for j, col in enumerate(boundary(c, memo, one)):
                d.cols[base + j] = col
        diffs.append(d)
    return ChainComplex(field, levels, diffs, s_valid=len(levels) - 1)


def poset_homology(I: Poset, F: PosetFunctor, s_max: int | None = None) -> BettiTable:
    """Homology of the nerve with functor coefficients."""
    return nerve_complex(I, F).homology(s_max, provenance="poset")


class EdgeMap:
    """Whether the coefficients at a minimal object map onto the whole edge.

    ``iso`` is set when F(x0) -> H_0 is bijective in every internal degree
    and nothing survives above level zero inside the poset's trusted
    window, i.e. when the whole nerve collapses onto its edge.
    ``src_dims`` and ``h0_dims`` count F(x0) and H_0 by internal degree.
    """

    __slots__ = ("iso", "src_dims", "h0_dims")

    def __init__(self, iso, src_dims, h0_dims):
        self.iso = bool(iso)
        self.src_dims = dict(src_dims)
        self.h0_dims = dict(h0_dims)


def edge_map(I: Poset, F: PosetFunctor, x0, morse: ChainComplex | None = None) -> EdgeMap:
    """Place F(x0) at the one-object chain (x0) and ask whether it fills H_0.

    H_0 is read off the level-one full nerve C.  When F(x0) and H_0 have the
    same dimension in every internal degree, the map is an isomorphism
    exactly when it is onto, that is when H_0 of the cone of F(x0) -> C
    (F(x0) sitting in level 0 on the chain (x0)) vanishes.  Whether
    anything survives above level zero is read from the Morse table of
    ``nerve_complex``, or of ``morse`` when the caller has built that
    complex already.
    """
    if x0 not in I.objects:
        raise PosetError(f"object {x0!r} is not in the poset")
    if I.components.get(x0) != 1:
        raise PosetError(f"object {x0!r} is not a single component")
    field = F.field
    C = _full_nerve(I, F, top=1)
    gens = F.spaces[x0]
    src_dims: dict = {}
    for _nm, t in gens:
        src_dims[t] = src_dims.get(t, 0) + 1
    h0_dims = {t: v for (_s, t), v in C.homology(0).entries.items()}
    iso = src_dims == h0_dims
    if iso:
        # F(x0) alone in level 0 (C has a level 1 unless nothing is related)
        n = len(gens)
        S = ChainComplex(
            field, [gens] + [()] * C.top, [None] + [SMat(n, 0, field)] * C.top,
            s_valid=C.top,
        )
        # with no generators at x0 the chain (x0) has no block, and incl no column
        chain_x0 = (k for k, ((ch, _nm), _t) in enumerate(C.levels[0]) if ch == (x0,))
        at = next(chain_x0, 0)
        incl = SMat(C.level_dim(0), n, field, [{at + j: field.one} for j in range(n)])
        mats = [incl] + [SMat(C.level_dim(1), 0, field)] * C.top
        iso = not cone(ChainMap(S, C, mats)).homology(0).entries
    if iso:
        M = nerve_complex(I, F) if morse is None else morse
        w = M.s_valid if I.window is None else min(I.window, M.s_valid)
        table = M.homology(w, provenance="poset")
        iso = all(s == 0 for s, _t in table.entries)
    return EdgeMap(iso, src_dims, h0_dims)


def poset_to_json(P: Poset) -> dict:
    return {
        "objects": [
            {"name": x, "components": P.components[x]} for x in P.objects
        ],
        "relations": sorted([a, b] for a, b in P.le if a != b),
    }


def poset_from_json(obj: dict) -> Poset:
    """Poset from its file form; component maps are not part of the file."""
    try:
        objects = [o["name"] for o in obj["objects"]]
        components = {o["name"]: o["components"] for o in obj["objects"]}
        rels = list(obj["relations"])
    except (KeyError, TypeError, ValueError) as e:
        raise PosetError(f"malformed poset file: {e}")
    for x in objects:
        if not isinstance(x, str) or not x:
            raise PosetError(f"object name {x!r} must be a non-empty string")
    for r in rels:
        if not (isinstance(r, list) and len(r) == 2 and all(isinstance(x, str) for x in r)):
            raise PosetError(f"relation {r!r} must be a list of two object names")
    le = {(x, x) for x in objects} | {tuple(r) for r in rels}
    for x, c in components.items():
        if type(c) is not int or c < 1:
            raise PosetError(f"components of {x!r} must be an integer >= 1, got {c!r}")
    # close transitively so hand-written files only need the generators
    changed = True
    while changed:
        changed = False
        for a, b in list(le):
            for c, d in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    return Poset(objects, le, components, None)
