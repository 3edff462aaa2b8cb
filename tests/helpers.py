"""Fixtures shared by the simplicial and tensor-power tests."""

from hhx.matrix import SMat
from hhx.simplicial import Simp, SimplicialMap, SimplicialSet, disjoint_union


def fold_map(X: SimplicialSet, copies: int) -> SimplicialMap:
    """The fold from a disjoint union of copies of X back onto X."""
    U = disjoint_union(*([X] * copies))
    assignment = {name: Simp((), name.split(".", 1)[1]) for name in U.cells}
    return SimplicialMap(U, X, assignment)


def simplicial_chains(X: SimplicialSet, field):
    """Ordinary normalized chains on the cell basis, as level data.

    Returns (levels, diffs): levels[n] lists cell names of dimension n and
    diffs[n] maps level n to level n - 1 with alternating signs, degenerate
    faces dropped.
    """
    cells = sorted(X.cells.values(), key=lambda c: (c.dim, c.name))
    levels = [[c.name for c in cells if c.dim == n] for n in range(X.max_dim + 1)]
    index = [{name: i for i, name in enumerate(lv)} for lv in levels]
    diffs = [None]
    for n in range(1, X.max_dim + 1):
        m = SMat(len(levels[n - 1]), len(levels[n]), field)
        for j, name in enumerate(levels[n]):
            for i in range(n + 1):
                f = X.face(Simp((), name), i)
                if not f.degenerate:
                    m.add_at(index[n - 1][f.base], j, field(-1) if i % 2 else field.one)
        diffs.append(m)
    return levels, diffs
