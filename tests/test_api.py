"""Every exported name and every traced benchmark entry point resolves."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import hhx

MODULES = sorted(
    f"hhx.{m.name}" for m in pkgutil.iter_modules(hhx.__path__)
) + ["hhx"]

TRACER = Path(__file__).resolve().parent.parent / "pipebench" / "tracer.py"


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
