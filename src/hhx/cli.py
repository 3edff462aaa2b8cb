"""Command-line driver for the homology pipelines.

Loads algebras, maps, and posets from JSON files, runs the requested
pipeline, and prints an aligned table or a canonical JSON document.  All
scalars are exact rational strings, output is deterministic, and repeated
runs on identical inputs produce byte-identical artifacts.

Exit codes: 0 success, 1 usage, 2 input validation, 3 comparison mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .algebra import (
    AlgebraError,
    algebra_from_json,
    algebra_to_json,
    is_etale,
    map_from_json,
)
from .bar import hh_via_suspension, suspension_bar
from .chains import BettiTable, ChainError, r_stable, sseq_pages
from .cobar import cobar, hochschild_cohomology, regular_module
from .fields import QQ, FieldError, parse_field
from .loday import hh, oracle_hh
from .poset import (
    PosetError,
    arc_functor,
    constant_functor,
    cyclic_cech_poset,
    edge_map,
    nerve_complex,
    poset_from_json,
    poset_homology,
)
from .simplicial import SimplicialError, parse_space, sphere_min

__all__ = ["ComparisonReport", "UsageError", "main"]

_CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
_PIPELINES = ("loday", "oracle", "bar", "poset")
# every type=int option of every subcommand; main refuses values below 1
_BOUNDS = ("smax", "nmax", "pmax", "marks", "sphere", "rmax")


class UsageError(Exception):
    """The command line itself is malformed."""


class InputError(ValueError):
    """An input file exists but its content does not validate."""


def _resolve_input(path: str):
    """A path as given, or a shipped corpus entry by bare name."""
    p = Path(path)
    if p.exists():
        return str(p)
    if "/" not in path and "\\" not in path:
        for cand in (_CORPUS_DIR / path, _CORPUS_DIR / (path + ".json")):
            if cand.exists():
                return str(cand)
    return None


def _input(label, path):
    """The resolved path of an optional input; a usage error when missing."""
    if path is None:
        return None
    got = _resolve_input(path)
    if got is None:
        where = f"--{label}: " if label else ""
        raise UsageError(f"{where}no file {path!r} and no corpus entry of that name")
    return got


def _check_shared(args):
    """Check the flags every command shares; return the --field override."""
    for flag in _BOUNDS:
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise UsageError(f"--{flag} must be positive, got {value}")
    if args.field is None:
        return None
    try:
        return parse_field(args.field)
    except FieldError as exc:
        raise UsageError(str(exc)) from exc


@dataclass
class ComparisonReport:
    """Two tables, the window actually compared, and the verdict."""

    left: BettiTable
    right: BettiTable
    window: int
    verdict: str
    first_mismatch: tuple | None

    @classmethod
    def build(cls, left: BettiTable, right: BettiTable, s_max=None):
        window = min(left.s_valid, right.s_valid)
        if s_max is not None and s_max < window:
            window = s_max
        keys = sorted(
            {k for k in left.entries if k[0] <= window}
            | {k for k in right.entries if k[0] <= window}
        )
        mismatch = None
        for s, t in keys:
            if left.dim(s, t) != right.dim(s, t):
                mismatch = (s, t, left.dim(s, t), right.dim(s, t))
                break
        verdict = "agree" if mismatch is None else "mismatch"
        return cls(left, right, window, verdict, mismatch)

    def to_json(self) -> dict:
        mm = None
        if self.first_mismatch is not None:
            s, t, ld, rd = self.first_mismatch
            mm = {"s": s, "t": t, "left": ld, "right": rd}
        return {
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "window": self.window,
            "verdict": self.verdict,
            "first_mismatch": mm,
        }

    def render(self) -> list:
        lines = [
            f"left: {self.left.provenance}, trusted through level {self.left.s_valid}",
            f"right: {self.right.provenance}, trusted through level {self.right.s_valid}",
            f"window: s <= {self.window}",
            f"verdict: {self.verdict}",
        ]
        if self.first_mismatch is not None:
            s, t, ld, rd = self.first_mismatch
            lines.append(f"first mismatch at s={s}, t={t}: left {ld}, right {rd}")
        return lines


def _canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON: {exc}") from exc


def _emit(args, doc: dict, human) -> None:
    text = _canonical(doc)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if getattr(args, "json", False):
        sys.stdout.write(text)
    else:
        for line in human:
            print(line)


def _table_human(table: BettiTable) -> list:
    head = f"provenance {table.provenance}, trusted through level {table.s_valid}"
    return [head, table.render()]


def _emit_table(args, table: BettiTable) -> int:
    _emit(args, table.to_json(), _table_human(table))
    return 0


def _load_algebra(path: str, field):
    return algebra_from_json(_read_json(path), field)


def _degree_profile(A) -> dict:
    prof: dict = {}
    for t in A.degrees:
        prof[(0, t)] = prof.get((0, t), 0) + 1
    return prof


def _cmd_hh(args, field) -> int:
    if args.algebra is None and args.base is None:
        raise UsageError("hh needs --algebra or --base")
    alg_path = _input("algebra", args.algebra)
    base_path = _input("base", args.base)
    X = parse_space(args.space)
    base = None
    if base_path is not None:
        base = map_from_json(_read_json(base_path), field)
        A = base.target
        if alg_path is not None:
            given = _load_algebra(alg_path, field)
            if algebra_to_json(given) != algebra_to_json(A):
                raise InputError("base map target does not match --algebra")
            A = given
    else:
        A = _load_algebra(alg_path, field)
    return _emit_table(args, hh(A, X, args.smax, base=base))


def _cmd_hh_bar(args, field) -> int:
    A = _load_algebra(_input("algebra", args.algebra), field)
    return _emit_table(args, hh_via_suspension(A, args.sphere, args.smax))


def _cmd_oracle_hh(args, field) -> int:
    A = _load_algebra(_input("algebra", args.algebra), field)
    return _emit_table(args, oracle_hh(A, args.smax))


def _cmd_cohomology(args, field) -> int:
    A = _load_algebra(_input("algebra", args.algebra), field)
    # built one level past the report, so every level shown is trusted
    return _emit_table(args, hochschild_cohomology(A, args.nmax + 1))


def _cmd_rhom(args, field) -> int:
    A = _load_algebra(_input("algebra", args.algebra), field)
    M = regular_module(A)
    return _emit_table(args, cobar(M, A, M, args.nmax + 1))


def _cmd_poset_hh(args, field) -> int:
    alg_path = _input("algebra", args.algebra)
    poset_path = _input("poset", args.poset)
    if poset_path is not None:
        P = poset_from_json(_read_json(poset_path))
    else:
        P = cyclic_cech_poset(args.marks)
    if alg_path is not None:
        F = arc_functor(_load_algebra(alg_path, field), P)
    else:
        F = constant_functor(P, field if field is not None else QQ)
    window = args.smax if args.smax is not None else P.window
    M = nerve_complex(P, F)
    table = M.homology(window, provenance="poset")
    doc = table.to_json()
    human = _table_human(table)
    if args.edge is not None:
        E = edge_map(P, F, args.edge, M)
        doc["edge"] = {"at": args.edge, "iso": E.iso}
        human.append(f"edge map at {args.edge}: iso {str(E.iso).lower()}")
    _emit(args, doc, human)
    return 0


def _cmd_sseq(args, field) -> int:
    A = _load_algebra(_input("algebra", args.algebra), field)
    D = suspension_bar(A, args.sphere, args.pmax)
    r_stab = r_stable(D)
    r_show = args.rmax if args.rmax is not None else r_stab
    pages = sseq_pages(D, max(r_stab, r_show))
    einf = pages[r_stab]
    pages = pages[: r_show + 1]
    doc = {
        "r_stab": r_stab,
        "pages": [p.to_json() for p in pages],
        "e_infinity": einf.to_json(),
    }
    human = [
        f"stabilizes at r = {r_stab}; totals trusted for n <= {einf.n_valid}"
    ]
    for page in pages:
        human.append(f"page r={page.r}")
        for (p, q, t), v in sorted(page.entries.items()):
            human.append(f"  (p={p}, q={q}, t={t})  dim {v}")
    human.append("e-infinity")
    for (p, q, t), v in sorted(einf.entries.items()):
        human.append(f"  (p={p}, q={q}, t={t})  dim {v}")
    totals = "  ".join(
        f"n={n}: {einf.total(n)}" for n in range(einf.n_valid + 1)
    )
    human.append(f"totals  {totals}")
    _emit(args, doc, human)
    return 0


def _cmd_etale_check(args, field) -> int:
    A = _load_algebra(_input("algebra", args.algebra), field)
    et = is_etale(A)
    table = hh(A, sphere_min(args.sphere), args.smax)
    descent = table.entries == _degree_profile(A)
    doc = {
        "etale": et,
        "sphere": args.sphere,
        "s_max": args.smax,
        "descent": descent,
        "table": table.to_json(),
    }
    line = (
        f"étale: {str(et).lower()}; "
        f"HH^{{S^{args.sphere}}} ≅ A: {str(descent).lower()}"
    )
    _emit(args, doc, [line])
    return 0


def _side_path(which: str, name: str, args):
    """Check one side before either runs: None for a pipeline, else a table path."""
    if name in _PIPELINES:
        for flag in ("algebra", "smax"):
            if getattr(args, flag) is None:
                raise UsageError(f"--{which} {name} needs --{flag}")
        return None
    path = _resolve_input(name)
    if path is None:
        raise UsageError(
            f"--{which}: {name!r} is neither a pipeline {_PIPELINES} nor a file"
        )
    return path


def _side_table(name: str, path, args, algebra):
    """One side's table; algebra() loads --algebra for a pipeline side."""
    if path is not None:
        obj = _read_json(path)
        if not isinstance(obj, dict):
            raise InputError(f"{path}: betti table file must hold a JSON object")
        return BettiTable.from_json(obj)
    A = algebra()
    if name == "loday":
        return hh(A, parse_space(args.space), args.smax)
    if name == "oracle":
        return oracle_hh(A, args.smax)
    if name == "bar":
        return hh_via_suspension(A, args.sphere, args.smax)
    P = cyclic_cech_poset(args.marks)
    window = min(args.smax, P.window)
    return poset_homology(P, arc_functor(A, P), window)


def _cmd_compare(args, field) -> int:
    path = _input("algebra", args.algebra)
    algebra = functools.cache(lambda: _load_algebra(path, field))
    left_path = _side_path("left", args.left, args)
    right_path = _side_path("right", args.right, args)
    left = _side_table(args.left, left_path, args, algebra)
    right = _side_table(args.right, right_path, args, algebra)
    report = ComparisonReport.build(left, right, args.smax)
    _emit(args, report.to_json(), report.render())
    return 0 if report.verdict == "agree" else 3


# a file is of the first kind whose keys it holds any of; that kind's loader
# then names whatever is missing or wrong
_KIND_KEYS = (
    ("algebra", {"basis", "table", "unit"}, algebra_from_json),
    ("algebra map", {"source", "target", "matrix"}, map_from_json),
    ("poset", {"objects", "relations"}, lambda obj, _field: poset_from_json(obj)),
    ("betti table", {"provenance", "s_valid", "entries"},
     lambda obj, _field: BettiTable.from_json(obj)),
)


def _validate_one(path: str, field) -> str:
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError("file must hold a JSON object")
    for kind, keys, loader in _KIND_KEYS:
        if keys & obj.keys():
            loader(obj, field)
            return kind
    raise InputError(
        "unrecognized file shape: not an algebra, map, poset, or betti table"
    )


def _cmd_validate(args, field) -> int:
    if not args.paths and args.space is None:
        raise UsageError("nothing to validate: give file paths or --space")
    bad = False
    for raw in args.paths:
        path = _input(None, raw)
        try:
            kind = _validate_one(path, field)
        except (
            AlgebraError, ChainError, PosetError, FieldError,
            SimplicialError, InputError,
        ) as exc:
            print(f"{raw}: invalid: {exc}", file=sys.stderr)
            bad = True
            continue
        print(f"{raw}: ok ({kind})")
    if args.space is not None:
        try:
            parse_space(args.space)
        except SimplicialError as exc:
            print(f"space {args.space}: invalid: {exc}", file=sys.stderr)
            bad = True
        else:
            print(f"space {args.space}: ok")
    return 2 if bad else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub, out=True):
    sub.add_argument("--field", help="scalar override, Q or Fp:<p>")
    if out:
        sub.add_argument("--out", help="write the JSON artifact here")
        sub.add_argument(
            "--json", action="store_true",
            help="print the JSON document instead of the table",
        )


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="hhx",
        description="Exact higher Hochschild homology over finite spaces.",
    )
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = subs.add_parser("hh", help="tensor-power pipeline over a space")
    p.add_argument("--algebra", help="algebra file or corpus name")
    p.add_argument("--base", help="algebra map file presenting a relative base")
    p.add_argument("--space", required=True, help="e.g. circle:min, sphere:2")
    p.add_argument("--smax", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_hh)

    p = subs.add_parser("hh-bar", help="two-sided bar pipeline for spheres")
    p.add_argument("--algebra", required=True)
    p.add_argument("--sphere", type=int, default=1, help="sphere dimension")
    p.add_argument("--smax", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_hh_bar)

    p = subs.add_parser("oracle-hh", help="cyclic bar oracle for the circle")
    p.add_argument("--algebra", required=True)
    p.add_argument("--smax", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_oracle_hh)

    p = subs.add_parser(
        "cohomology", help="Hochschild cohomology on the normalized cochains"
    )
    p.add_argument("--algebra", required=True)
    p.add_argument("--nmax", type=int, required=True, help="report levels 0..nmax")
    _add_common(p)
    p.set_defaults(func=_cmd_cohomology)

    p = subs.add_parser(
        "rhom", help="derived endomorphisms of the free rank-one module"
    )
    p.add_argument("--algebra", required=True)
    p.add_argument("--nmax", type=int, required=True, help="report levels 0..nmax")
    _add_common(p)
    p.set_defaults(func=_cmd_rhom)

    p = subs.add_parser("poset-hh", help="nerve homology of a diagram on a poset")
    p.add_argument("--algebra", help="arc coefficients; constant if omitted")
    p.add_argument("--poset", help="poset file; built-in circle model if omitted")
    p.add_argument(
        "--marks", type=int, default=2,
        help="marked points for the built-in circle model (m+1 arcs)",
    )
    p.add_argument("--smax", type=int, help="default: the model's trusted window")
    p.add_argument("--edge", help="object at which to report the edge map")
    _add_common(p)
    p.set_defaults(func=_cmd_poset_hh)

    p = subs.add_parser("sseq", help="spectral sequence pages of a bar double complex")
    p.add_argument("--algebra", required=True)
    p.add_argument("--sphere", type=int, default=1)
    p.add_argument("--pmax", type=int, required=True, help="column bound")
    p.add_argument("--rmax", type=int, help="pages to print; default to stability")
    _add_common(p)
    p.set_defaults(func=_cmd_sseq)

    p = subs.add_parser("etale-check", help="trace form test plus sphere descent")
    p.add_argument("--algebra", required=True)
    p.add_argument("--sphere", type=int, required=True)
    p.add_argument("--smax", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_etale_check)

    p = subs.add_parser("compare", help="two tables side by side with a verdict")
    p.add_argument("--left", required=True, help="pipeline name or table file")
    p.add_argument("--right", required=True, help="pipeline name or table file")
    p.add_argument("--algebra", help="needed when a side is a pipeline")
    p.add_argument("--space", default="circle:min", help="space for the loday side")
    p.add_argument("--smax", type=int, help="window; needed for pipeline sides")
    p.add_argument("--sphere", type=int, default=1, help="sphere for the bar side")
    p.add_argument("--marks", type=int, default=2, help="model size for the poset side")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("validate", help="check input files and descriptors")
    p.add_argument("paths", nargs="*", help="algebra, map, poset, or table files")
    p.add_argument("--space", help="space descriptor to check")
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help()
            return 1
        return args.func(args, _check_shared(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (
        AlgebraError, ChainError, PosetError, FieldError,
        SimplicialError, InputError, OSError, ValueError,
    ) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
