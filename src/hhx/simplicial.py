"""Finite simplicial sets presented by their non-degenerate cells.

A space is a list of cells; each cell of dimension d > 0 lists its d+1
faces, which may be degenerate.  Every simplex, degenerate or not, has a
unique normal form (word, base): base is a non-degenerate cell and word is
a strictly decreasing tuple of degeneracy indices, read left to right as
s_{w0} s_{w1} ... applied to the base.  A ``Simp`` is that normal form as a
NamedTuple, so it unpacks as the pair (word, base).

Face and degeneracy operators act on normal forms through the usual
rewrite rules; levels are enumerated in a fixed order so downstream chain
groups have reproducible bases.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

__all__ = [
    "SimplicialError",
    "Simp",
    "Cell",
    "SimplicialSet",
    "SimplicialMap",
    "make_space",
    "parse_space",
    "point",
    "interval",
    "circle_min",
    "circle_subdiv",
    "sphere_min",
    "simplex_space",
    "boundary_space",
    "disjoint_union",
]


class SimplicialError(ValueError):
    pass


class Simp(NamedTuple):
    """A normal-form simplex: degeneracy word over a non-degenerate base."""

    word: tuple
    base: str

    @property
    def degenerate(self) -> bool:
        return bool(self.word)


class Cell(NamedTuple):
    name: str
    dim: int
    faces: tuple  # tuple of Simp, length dim + 1 (empty for dim 0)


def _apply_s(word: tuple, j: int) -> tuple:
    """Normalize s_j applied to an existing strictly decreasing word.

    Uses s_j s_i = s_{i+1} s_j for j <= i: push j right past larger entries,
    bumping each one it passes.
    """
    out = []
    k = 0
    n = len(word)
    while k < n and word[k] >= j:
        out.append(word[k] + 1)
        k += 1
    out.append(j)
    out.extend(word[k:])
    return tuple(out)


class SimplicialSet:
    """A finite simplicial set with named non-degenerate cells."""

    def __init__(self, cells: list[Cell]):
        self.cells = {c.name: c for c in cells}
        if len(self.cells) != len(cells):
            raise SimplicialError("cell names must be distinct")
        self._levels: dict[int, list[Simp]] = {}

    def dim_of(self, s: Simp) -> int:
        return self.cells[s.base].dim + len(s.word)

    def face(self, s: Simp, i: int) -> Simp:
        """The i-th face, computed on normal forms.

        d_i s_j = s_{j-1} d_i (i < j), identity (i in {j, j+1}),
        s_j d_{i-1} (i > j + 1); on a non-degenerate base it reads off the
        stored face and renormalizes.
        """
        n = self.dim_of(s)
        if not 0 <= i <= n:
            raise SimplicialError(f"face index {i} out of range for dimension {n}")
        word, base = s.word, s.base
        for pos, j in enumerate(word):
            if i < j:
                # d_i passes left of s_j, lowering it
                new_word = word[:pos] + (j - 1,) + word[pos + 1 :]
                word = new_word
            elif i <= j + 1:
                # cancellation: drop this degeneracy, done
                return Simp(word[:pos] + word[pos + 1 :], base)
            else:
                i -= 1
        # un-degenerate simplex: use the stored boundary
        cell = self.cells[base]
        if cell.dim == 0:
            raise SimplicialError("vertex has no faces")
        f = cell.faces[i]
        out_word, out_base = f.word, f.base
        for j in reversed(word):
            out_word = _apply_s(out_word, j)
        # word entries were produced against the original level; reapplying
        # on the lower level keeps strict decrease by construction
        return Simp(out_word, out_base)

    def degenerate(self, s: Simp, j: int) -> Simp:
        n = self.dim_of(s)
        if not 0 <= j <= n:
            raise SimplicialError(f"degeneracy index {j} out of range for dimension {n}")
        return Simp(_apply_s(s.word, j), s.base)

    def level(self, n: int) -> list[Simp]:
        """All n-simplices, sorted: bases by (dim, name), words lex.

        Words over a dim-k base are the strictly decreasing (n-k)-element
        subsets of {0, ..., n-1}, written in decreasing order.
        """
        if n < 0:
            raise SimplicialError("negative level")
        got = self._levels.get(n)
        if got is not None:
            return got
        out = []
        for c in sorted(self.cells.values(), key=lambda c: (c.dim, c.name)):
            if c.dim > n:
                continue
            need = n - c.dim
            for subset in combinations(range(n), need):
                out.append(Simp(tuple(reversed(subset)), c.name))
        # reversed-subset tuples arrive in lex order of the underlying subsets;
        # resort words lexicographically for the documented order
        out.sort(key=lambda s: (self.cells[s.base].dim, s.base, s.word))
        self._levels[n] = out
        return out

    def validate(self) -> None:
        """Check the simplicial identities d_i d_j = d_{j-1} d_i (i < j).

        Face indices stored on cells are checked for dimension coherence
        first; the identity is then verified on every cell of dimension
        at least two.
        """
        for c in self.cells.values():
            if c.dim == 0:
                if c.faces:
                    raise SimplicialError(f"vertex {c.name} lists faces")
                continue
            if len(c.faces) != c.dim + 1:
                raise SimplicialError(
                    f"cell {c.name} has {len(c.faces)} faces, expected {c.dim + 1}"
                )
            for i, f in enumerate(c.faces):
                if f.base not in self.cells:
                    raise SimplicialError(
                        f"face {i} of {c.name} refers to unknown cell {f.base!r}"
                    )
                if self.dim_of(f) != c.dim - 1:
                    raise SimplicialError(
                        f"face {i} of {c.name} has dimension {self.dim_of(f)}, "
                        f"expected {c.dim - 1}"
                    )
                if list(f.word) != sorted(f.word, reverse=True) or len(set(f.word)) != len(
                    f.word
                ):
                    raise SimplicialError(
                        f"face {i} of {c.name} has a non-canonical degeneracy word"
                    )
                if f.word and f.word[0] >= c.dim - 1:
                    # outermost s_j into dimension m needs j <= m - 1
                    raise SimplicialError(
                        f"face {i} of {c.name} has degeneracy index out of range"
                    )
        for c in self.cells.values():
            if c.dim < 2:
                continue
            s = Simp((), c.name)
            for j in range(1, c.dim + 1):
                for i in range(j):
                    left = self.face(self.face(s, j), i)
                    right = self.face(self.face(s, i), j - 1)
                    if left != right:
                        raise SimplicialError(
                            f"simplicial identity fails on {c.name}: "
                            f"d_{i} d_{j} != d_{j - 1} d_{i}"
                        )

    def __repr__(self):
        counts = {}
        for c in self.cells.values():
            counts[c.dim] = counts.get(c.dim, 0) + 1
        desc = ", ".join(f"{counts[d]}x{d}" for d in sorted(counts))
        return f"SimplicialSet({desc})"


def make_space(cells) -> SimplicialSet:
    """Build a simplicial set from (name, dim, faces) triples and validate.

    faces entries are (word, base) pairs, a Simp being one; vertices pass ().
    """
    built = [
        Cell(name, dim, tuple(Simp(tuple(word), base) for word, base in faces))
        for name, dim, faces in cells
    ]
    X = SimplicialSet(built)
    X.validate()
    return X


# ------------------------------------------------------------------ builtins


def point() -> SimplicialSet:
    return make_space([("pt", 0, [])])


def interval() -> SimplicialSet:
    return make_space(
        [
            ("0", 0, []),
            ("1", 0, []),
            ("e", 1, [((), "1"), ((), "0")]),
        ]
    )


def circle_min() -> SimplicialSet:
    """One vertex, one edge with both ends glued."""
    return make_space(
        [
            ("v", 0, []),
            ("e", 1, [((), "v"), ((), "v")]),
        ]
    )


def circle_subdiv(m: int) -> SimplicialSet:
    """The m-gon: m vertices, m edges, edge e_i from v_i to v_{i+1 mod m}."""
    if m < 1:
        raise SimplicialError("subdivision needs at least one edge")
    cells = [(f"v{i}", 0, []) for i in range(m)]
    for i in range(m):
        cells.append(
            (f"e{i}", 1, [((), f"v{(i + 1) % m}"), ((), f"v{i}")])
        )
    return make_space(cells)


def sphere_min(d: int) -> SimplicialSet:
    """One vertex and one d-cell, all faces maximally degenerate."""
    if d < 1:
        raise SimplicialError("sphere dimension must be at least 1")
    collapsed = Simp(tuple(reversed(range(d - 1))), "v")
    return make_space(
        [
            ("v", 0, []),
            ("c", d, [collapsed] * (d + 1)),
        ]
    )


def simplex_space(n: int) -> SimplicialSet:
    """The standard n-simplex with cells named by vertex subsets."""
    if n < 0:
        raise SimplicialError("negative simplex dimension")
    if n > 9:
        raise SimplicialError("simplex dimension capped at 9 (digit cell names)")
    cells = []
    verts = range(n + 1)
    for k in range(n + 1):
        for sub in combinations(verts, k + 1):
            name = "".join(str(v) for v in sub)
            if k == 0:
                cells.append((name, 0, []))
            else:
                faces = []
                for i in range(k + 1):
                    sm = sub[:i] + sub[i + 1 :]
                    faces.append(((), "".join(str(v) for v in sm)))
                cells.append((name, k, faces))
    return make_space(cells)


def boundary_space(n: int) -> SimplicialSet:
    """Boundary of the n-simplex: all proper faces."""
    if n < 1:
        raise SimplicialError("boundary needs dimension at least 1")
    full = simplex_space(n)
    top = "".join(str(v) for v in range(n + 1))
    return make_space(c for c in full.cells.values() if c.name != top)


def disjoint_union(*spaces: SimplicialSet) -> SimplicialSet:
    """Disjoint union; cell names gain a positional prefix "0.", "1.", ..."""
    if not spaces:
        raise SimplicialError("empty union")
    cells = []
    for k, X in enumerate(spaces):
        for c in X.cells.values():
            faces = [(f.word, f"{k}.{f.base}") for f in c.faces]
            cells.append((f"{k}.{c.name}", c.dim, faces))
    return make_space(cells)


# ------------------------------------------------------------------ maps


class SimplicialMap:
    """A map of simplicial sets given on non-degenerate cells.

    assignment sends each source cell name to a target simplex of the same
    dimension (possibly degenerate); validation checks compatibility with
    every face operator.
    """

    def __init__(self, source: SimplicialSet, target: SimplicialSet, assignment: dict):
        self.source = source
        self.target = target
        self.assignment = {}
        for name, c in source.cells.items():
            if name not in assignment:
                raise SimplicialError(f"no image given for cell {name!r}")
            word, base = assignment[name]
            img = Simp(tuple(word), base)
            if img.base not in target.cells:
                raise SimplicialError(
                    f"image of {name!r} uses unknown cell {img.base!r}"
                )
            if target.dim_of(img) != c.dim:
                raise SimplicialError(
                    f"image of {name!r} has dimension {target.dim_of(img)}, "
                    f"expected {c.dim}"
                )
            self.assignment[name] = img
        extra = set(assignment) - set(source.cells)
        if extra:
            raise SimplicialError(f"assignment names unknown cells: {sorted(extra)}")
        self._check_faces()

    def _check_faces(self):
        for name, c in self.source.cells.items():
            if c.dim == 0:
                continue
            s = Simp((), name)
            for i in range(c.dim + 1):
                want = self.apply(self.source.face(s, i))
                got = self.target.face(self.apply(s), i)
                if want != got:
                    raise SimplicialError(
                        f"map does not commute with d_{i} on cell {name!r}"
                    )

    def apply(self, s: Simp) -> Simp:
        img = self.assignment[s.base]
        word, base = img.word, img.base
        for j in reversed(s.word):
            word = _apply_s(word, j)
        return Simp(word, base)


# ------------------------------------------------------------------ parsing


_BUILTIN_SPACES = {
    "point": point,
    "interval": interval,
    "circle": circle_min,
}


def parse_space(text: str) -> SimplicialSet:
    """Descriptor syntax: point, interval, circle, circle:min, circle:m,
    sphere:d, simplex:n, boundary:n, or union:a+b+... for the disjoint union
    of two or more descriptors that are not unions themselves."""
    text = text.strip()
    if ":" in text:
        head, _, arg = text.partition(":")
        head = head.strip()
        if head == "circle" and arg.strip() == "min":
            return circle_min()
        if head == "union":
            parts = arg.split("+")
            if any(not p.strip() for p in parts) or len(parts) < 2:
                raise SimplicialError(f"bad union descriptor {text!r}")
            if any(p.partition(":")[0].strip() == "union" for p in parts):
                raise SimplicialError(f"union parts cannot be unions in {text!r}")
            return disjoint_union(*[parse_space(p) for p in parts])
        try:
            k = int(arg)
        except ValueError:
            raise SimplicialError(f"bad numeric argument in {text!r}") from None
        if head == "circle":
            return circle_subdiv(k)
        if head == "sphere":
            return sphere_min(k)
        if head == "simplex":
            return simplex_space(k)
        if head == "boundary":
            return boundary_space(k)
        raise SimplicialError(f"unknown space descriptor {text!r}")
    fn = _BUILTIN_SPACES.get(text)
    if fn is None:
        raise SimplicialError(f"unknown space descriptor {text!r}")
    return fn()

