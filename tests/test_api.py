"""Every exported name resolves and is used, and every traced benchmark
entry point resolves."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hhx
from hhx.catalog import dual_numbers
from hhx.chains import BettiTable, ChainComplex
from hhx.fields import QQ
from hhx.matrix import SMat
from hhx.simplicial import parse_space

MODULES = sorted(
    f"hhx.{m.name}" for m in pkgutil.iter_modules(hhx.__path__)
) + ["hhx"]

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "pipebench" / "tracer.py"

# Exported names that no other hhx module and no pipebench file uses, and
# public methods of exported classes that nothing there calls, each with the
# reason it stays.  A whole module may be listed.
UNUSED_EXPORTS = {
    "hhx.__version__": "the package version",
    "hhx.catalog": "the algebra battery the tests and the README run",
    "hhx.fields.Field.inv": "the test oracles (dense rref, column-reduction pairs) divide by it",
    "hhx.algebra.map_to_json": "writes the map files that hh --base reads",
    "hhx.poset.poset_to_json": "writes the poset files that poset-hh --poset reads",
    "hhx.loday.induced_map": "chain maps along space maps, for the Hodge split (ROADMAP item 3)",
    "hhx.chains.cone": (
        "the mapping cone, for the Hodge split's ranks through the long exact sequence"
        " (ROADMAP item 3)"
    ),
    "hhx.loday.unnormalized_complex": "the oracle the normalized model is checked against",
    "hhx.chains.SpectralSequencePage": "the type sseq_pages returns",
    "hhx.poset.Poset": "the type poset_from_json and cyclic_cech_poset return",
    "hhx.cli.ComparisonReport": "the report compare prints, for library callers",
    "hhx.cli.UsageError": "the exception main turns into exit code 1",
    "hhx.simplicial.Simp": "the simplices SimplicialSet.level returns",
    "hhx.simplicial.Cell": "the cells SimplicialSet.cells holds",
    "hhx.simplicial.make_space": "builds a space from its cells, for library callers",
    "hhx.simplicial.interval": "the space parse_space builds for 'interval'",
    "hhx.simplicial.circle_min": "the space parse_space builds for 'circle'",
    "hhx.simplicial.circle_subdiv": "the space parse_space builds for 'circle:m'",
    "hhx.simplicial.simplex_space": "the space parse_space builds for 'simplex:n'",
    "hhx.simplicial.boundary_space": "the space parse_space builds for 'boundary:n'",
    "hhx.simplicial.disjoint_union": "the space parse_space builds for 'union:a+b'",
}


def load_entry_points():
    # run the file's source, so no bytecode cache is written next to it
    namespace = {"__name__": "pipebench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["ENTRY_POINTS"]


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize(
    "modname, qualname",
    [(m, q) for m, q, *_ in load_entry_points()],
    ids=lambda v: v,
)
def test_traced_entry_point_resolves(modname, qualname):
    # the same lookup the benchmark tracer makes when it installs its wrappers
    owner = importlib.import_module(modname)
    *cls_path, attr = qualname.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    if cls_path:
        assert attr in owner.__dict__
    else:
        assert callable(getattr(owner, attr))


def test_every_export_is_used_or_listed():
    # a name counts as used when it appears as a word in the source of
    # another hhx module or of a pipebench file; a public method or property
    # of an exported class, when ".name" appears in any of those sources
    sources = {
        path: path.read_text()
        for folder in (Path(hhx.__file__).resolve().parent, ROOT / "pipebench")
        for path in folder.glob("*.py")
    }
    exported, unused = set(MODULES), []
    for modname in MODULES:
        module = importlib.import_module(modname)
        own = Path(module.__file__).resolve()
        for name in getattr(module, "__all__", ()):
            exported.add(f"{modname}.{name}")
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for path, t in sources.items() if path != own):
                unused.append(f"{modname}.{name}")
            obj = getattr(module, name)
            if not isinstance(obj, type) or obj.__module__ != modname:
                continue
            for attr in vars(obj):
                if attr.startswith("_"):
                    continue
                exported.add(f"{modname}.{name}.{attr}")
                dotted = re.compile(rf"\.{re.escape(attr)}\b")
                if not any(dotted.search(t) for t in sources.values()):
                    unused.append(f"{modname}.{name}.{attr}")
    unlisted = [
        n for n in unused
        if n not in UNUSED_EXPORTS
        and not any(n.startswith(f"{m}.") for m in MODULES if m in UNUSED_EXPORTS)
    ]
    assert unlisted == []
    # an entry whose name is gone from every __all__ goes too
    assert sorted(set(UNUSED_EXPORTS) - exported) == []


def _stored_attributes(tree):
    """(class, attribute) pairs a class stores: ``self.X = ...`` in a method,
    or an annotated field in the body of a NamedTuple."""
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        record = any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases)
        for stmt in cls.body:
            if record and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield cls.name, stmt.target.id
            if not isinstance(stmt, ast.FunctionDef):
                continue
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    yield cls.name, node.attr


def test_every_stored_attribute_is_read():
    # a store such as "self.x = ..." is not a use; some module of hhx or a
    # pipebench file must load ".x" for the attribute to earn its place
    package = Path(hhx.__file__).resolve().parent
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in (package, ROOT / "pipebench")
        for path in folder.glob("*.py")
    }
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{path.stem}.{cls}.{attr}"
        for path, tree in trees.items()
        if path.parent == package
        for cls, attr in set(_stored_attributes(tree))
        if attr not in loaded
    )
    assert unread == []


def _two_gap_complex():
    gens = [("a", 0), ("b", 0)]
    return ChainComplex(QQ, [gens, [], gens], [None, SMat(2, 0, QQ), SMat(0, 2, QQ)], s_valid=1)


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: repr(parse_space("sphere:2")), "SimplicialSet(1x0, 1x2)"),
        (lambda: repr(dual_numbers()), "GradedAlgebra(dim=2, graded-commutative, field=QQ)"),
        (lambda: repr(BettiTable({(0, 0): 2}, 1, "test")), "BettiTable({(0, 0): 2}, s_valid=1)"),
        (lambda: repr(_two_gap_complex()), "ChainComplex(dims=2/0/2, s_valid=1)"),
        (lambda: repr(SMat.identity(2, QQ)), "SMat(2x2 over QQ, nnz=2)"),
        (lambda: BettiTable({}, 0, "test").render(), "(empty, s_valid=0)"),
    ],
)
def test_repr_format(build, want):
    # pytest prints these in every failing assert, so their format is pinned
    assert build() == want
