"""Outside-in tracer: spans and work counts around hhx entry points.

The public entry points of each ``hhx`` module are replaced by timing
wrappers through attribute replacement, so nothing under ``src/`` changes.
A function imported by name into another module (``hhx.cli`` binds ``hh``,
``e_infinity`` and more; ``hhx.bar`` and ``hhx.poset`` bind
``loday_complex``) is patched in every namespace that holds it, and a
method in every class attribute that aliases it (``__matmul__``).

Pipeline drivers (``hh``, ``oracle_hh``, ``hh_via_suspension``,
``hochschild_cohomology``, ``cobar``, ``poset_homology``) only chain the
builders and the homology call, so they get the key ``driver``.  Like
``cli``, it is left out of the named time of ``trace.coverage``: a builder
that is not wrapped leaves its time in a driver's or the CLI's self time,
and coverage drops.

A span records (id, parent id, key, start, end, job).  A key's self time is
the span's duration minus the time of its child spans.  Work counts are
read from arguments and return values.  The per-product algebra calls
(``product_chain``, ``mul_basis``), ``SMat.add_at`` and
``SimplicialSet.face`` stay unwrapped: they sit in the innermost assembly
loops, where a wrapper per call would dwarf the work it times.  Their time
stays in the self time of the layer that calls them.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _levels_total(levels) -> int:
    return sum(len(lv) for lv in levels)


def _diffs_nnz(diffs) -> int:
    return sum(len(col) for d in diffs if d is not None for col in d.cols)


# -- work counters: (tracer, args, result, pre, parent_key) ------------------

def _count_simplices(tr, args, res, fresh, parent):
    if fresh:
        tr.count["simplicial.simplices"] += len(res)


def _count_loday(tr, args, res, pre, parent):
    C = res.complex
    tr.count["loday.generators_built"] += _levels_total(C.levels)
    tr.count["loday.nnz"] += _diffs_nnz(C.diffs)


def _count_oracle(tr, args, res, pre, parent):
    tr.count["loday.nnz"] += _diffs_nnz(res.diffs)


def _count_kept(tr, args, res, fresh, parent):
    if fresh:
        tr.count["loday.generators_kept"] += _levels_total(res[0].levels)


def _count_bar(tr, args, res, pre, parent):
    tr.count["bar.generators"] += sum(len(v) for v in res.gens.values())


def _count_cobar(tr, args, res, pre, parent):
    tr.count["cobar.generators"] += _levels_total(res.levels)


def _count_nerve(tr, args, res, pre, parent):
    tr.count["poset.generators"] += _levels_total(res.levels)


def _count_homology(tr, args, res, pre, parent):
    C = args[0]
    tr.count["chains.homology.blocks"] += sum(
        len({t for _, t in C.levels[s]}) for s in range(res.s_valid + 1)
    )


def _count_calls(name):
    def count(tr, args, res, pre, parent):
        tr.count[name] += 1
    return count


def _count_rank(tr, args, res, pre, parent):
    tr.count["matrix.rank.calls"] += 1
    if parent == "chains.homology":
        tr.count["chains.homology.rank_calls"] += 1


def _count_solve(tr, args, res, pre, parent):
    tr.count["matrix.solve.calls"] += 1
    tr.solvers[id(args[0])] = args[0]


def _kernel_input(args):
    rows = args[0]
    return len(rows), sum(len(r) for r in rows)


def _count_kernel(tr, args, res, pre, parent):
    rows, nnz = pre
    tr.count["kernel.calls"] += 1
    tr.count["kernel.rows_in"] += rows
    tr.count["kernel.nnz_in"] += nnz
    tr.count["kernel.rank_out"] += res if isinstance(res, int) else len(res[0])


# (module, qualified name, self-time key, pre hook, counter)
ENTRY_POINTS = [
    ("hhx.cli", "main", "cli", None, None),
    ("hhx.simplicial", "parse_space", "simplicial", None, None),
    ("hhx.simplicial", "sphere_min", "simplicial", None, None),
    ("hhx.simplicial", "SimplicialSet.level", "simplicial",
     lambda a: a[1] not in a[0]._levels, _count_simplices),
    ("hhx.loday", "hh", "driver", None, None),
    ("hhx.loday", "oracle_hh", "driver", None, None),
    ("hhx.loday", "loday_complex", "loday.build", None, _count_loday),
    ("hhx.loday", "cyclic_bar_oracle", "loday.build", None, _count_oracle),
    ("hhx.loday", "LodayComplex.normalized_data", "loday.normalize",
     lambda a: a[0]._norm is None, _count_kept),
    ("hhx.bar", "hh_via_suspension", "driver", None, None),
    ("hhx.bar", "circle_bar", "bar", None, None),
    ("hhx.bar", "two_sided_bar", "bar", None, _count_bar),
    ("hhx.bar", "loday_model", "bar", None, None),
    ("hhx.bar", "algebra_model", "bar", None, None),
    ("hhx.bar", "augmentation_module", "bar", None, None),
    ("hhx.bar", "DGAlgebraModel.validate", "bar", None, None),
    ("hhx.bar", "DGModule.validate", "bar", None, None),
    ("hhx.cobar", "hochschild_cohomology", "driver", None, None),
    ("hhx.cobar", "cobar", "driver", None, None),
    ("hhx.cobar", "cobar_complex", "cobar", None, _count_cobar),
    ("hhx.cobar", "envelope_bimodule", "cobar", None, None),
    ("hhx.cobar", "regular_module", "cobar", None, None),
    ("hhx.cobar", "AModule.validate", "cobar", None, None),
    ("hhx.cobar", "CobarComplex.validate", "cobar", None, None),
    ("hhx.cobar", "CobarComplex.cohomology", "cobar", None, None),
    ("hhx.poset", "cyclic_cech_poset", "poset", None, None),
    ("hhx.poset", "arc_functor", "poset", None, None),
    ("hhx.poset", "constant_functor", "poset", None, None),
    ("hhx.poset", "nerve_complex", "poset", None, _count_nerve),
    ("hhx.poset", "poset_homology", "driver", None, None),
    ("hhx.poset", "edge_map", "poset", None, None),
    ("hhx.poset", "PosetFunctor.validate", "poset", None, None),
    ("hhx.chains", "ChainComplex.homology", "chains.homology", None, _count_homology),
    ("hhx.chains", "ChainComplex.validate", "chains.validate", None,
     _count_calls("chains.validate.calls")),
    ("hhx.chains", "DoubleComplex.validate", "chains.validate", None,
     _count_calls("chains.validate.calls")),
    ("hhx.chains", "ChainMap._validate", "chains.validate", None,
     _count_calls("chains.validate.calls")),
    ("hhx.chains", "sseq_pages", "chains.sseq", None,
     _count_calls("chains.sseq_pages.calls")),
    ("hhx.chains", "e_infinity", "chains.sseq", None, None),
    ("hhx.chains", "total_complex", "chains.total_complex", None, None),
    ("hhx.matrix", "SMat.rank", "matrix.rank", None, _count_rank),
    ("hhx.matrix", "SMat.rref", "matrix.rref", None,
     _count_calls("matrix.rref.calls")),
    ("hhx.matrix", "SMat.solve", "matrix.solve", None, _count_solve),
    ("hhx.matrix", "SMat.mul_vec", "matrix.mul_vec", None,
     _count_calls("matrix.mul_vec.calls")),
    ("hhx.matrix", "SMat.matmul", "matrix.other", None, None),
    ("hhx.matrix", "SMat.restrict", "matrix.other", None, None),
    ("hhx.matrix", "SMat.transpose", "matrix.other", None, None),
    ("hhx.matrix", "SMat.nullspace", "matrix.other", None, None),
    ("hhx.matrix", "SMat.__add__", "matrix.other", None, None),
    ("hhx.matrix", "SMat.scale", "matrix.other", None, None),
    ("hhx._kernel", "rank_int", "kernel.int", _kernel_input, _count_kernel),
    ("hhx._kernel", "rref_int", "kernel.int", _kernel_input, _count_kernel),
    ("hhx._kernel", "rank_fp", "kernel.fp", _kernel_input, _count_kernel),
    ("hhx._kernel", "rref_fp", "kernel.fp", _kernel_input, _count_kernel),
]

SELF_KEYS = sorted({key for _, _, key, _, _ in ENTRY_POINTS})
COUNT_KEYS = [
    "simplicial.simplices",
    "loday.generators_built",
    "loday.generators_kept",
    "loday.nnz",
    "bar.generators",
    "cobar.generators",
    "poset.generators",
    "chains.homology.blocks",
    "chains.homology.rank_calls",
    "chains.validate.calls",
    "chains.sseq_pages.calls",
    "matrix.rank.calls",
    "matrix.rref.calls",
    "matrix.solve.calls",
    "matrix.mul_vec.calls",
    "kernel.calls",
    "kernel.rows_in",
    "kernel.nnz_in",
    "kernel.rank_out",
]


def self_metric(key: str) -> str:
    """Metric name of a key's self time; kernel calls have no children."""
    return f"{key}.busy_s" if key.startswith("kernel.") else f"{key}.self_s"


def layer_of(key: str) -> str:
    return key.split(".")[0]


class Tracer:
    """Spans and counters for one process; install() patches hhx in place."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.next_id = 0
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.solvers: dict = {}

    def start_job(self, job: str) -> None:
        self.job = job
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.solvers = {}

    def end_job(self) -> dict:
        """Self time per key and counts of the job that just ended."""
        out = {"self": dict(self.self_time), "count": dict(self.count)}
        out["solvers"] = len(self.solvers)
        self.solvers = {}
        self.job = None
        return out

    def _wrap(self, fn, key, pre, post):
        tr = self

        def traced(*args, **kwargs):
            state = pre(args) if pre is not None else None
            stack = tr.stack
            parent = stack[-1] if stack else None
            sid = tr.next_id
            tr.next_id += 1
            frame = [0.0, sid, key]
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tr.self_time[key] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                tr.spans.append(
                    (sid, parent[1] if parent else None, key, t0, t1, tr.job)
                )
            if post is not None:
                post(tr, args, res, state, parent[2] if parent else None)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "hhx" or name.startswith("hhx."))
        ]
        for modname, qualname, key, pre, post in ENTRY_POINTS:
            owner = importlib.import_module(modname)
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            wrapped = self._wrap(orig, key, pre, post)
            if cls_path:
                # every alias in the class body, e.g. __matmul__ = matmul
                for name, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, name, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
