"""Exact homology of graded-commutative algebras over finite simplicial sets.

The package computes homology of algebra-valued constructions on spaces
(circles, spheres, subdivided models), bar and cobar resolutions, and
nerves of finite posets, all with exact arithmetic over
Q or F_p.  Several independent computation paths exist for the same
invariants and are cross-checked in the test suite.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
