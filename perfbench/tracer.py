"""Span recorder for the traced benchmark run.

The tracer wraps the public names that each oscnorm module imports from the
layer below (``oscnorm.norms.validate``, ``oscnorm.cli.sparse_norm_bounds``,
...) with a recorder.  Each call becomes a :class:`Span` holding its name,
start, end, parent span and op id, plus one count and one tag taken from the
call's arguments or result (family size, fit route, bytes written, ...).
Spans stay in memory; :meth:`Tracer.write` stores them when the run ends.

A binding that no longer exists (a refactor removed or moved the name) is
skipped.  Metrics that depend only on skipped bindings are reported as
absent (``None``) instead of crashing the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass

SETUP = "setup"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1   # index into Tracer.spans; -1 for a root span
    op: str = SETUP
    count: int = 0
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- counters: (span, bound arguments, result) -> None -------------------------

def _sized(value) -> int:
    try:
        return len(value)
    except TypeError:   # an iterator; never consume it here
        return 0


def _count_validate(span, args, result):
    span.count = _sized(args.get("family", ()))


def _count_members(span, args, result):
    span.count = _sized(getattr(result, "cubes", ()))


def _count_witness(span, args, result):
    span.count = _sized(getattr(getattr(result, "witness", None), "cubes", ()))


def _count_route(span, args, result):
    k, q = args.get("k"), args.get("q")
    span.tag = ("zero" if k == 0 else "l2" if q == 2
                else "median" if k == 1 else "l1")


def _count_tables(span, args, result):
    span.count = _sized(getattr(result, "masks", ()))
    span.tag = ",".join(str(args.get(k)) for k in ("dimension", "depth",
                                                     "order"))


def _count_suite(span, args, result):
    config = args.get("config")
    span.count = int(getattr(config, "trials", 0))
    span.tag = str(getattr(config, "suite", ""))


def _count_out_bytes(span, args, result):
    argv = list(args.get("argv") or ())
    if "--out" in argv[:-1]:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            span.count = os.path.getsize(path)


# (span name, module, attribute path, counter).  Several bindings may share a
# span name: the same function is imported into more than one module.
BINDINGS = (
    ("cli.main", "oscnorm.cli", "main", _count_out_bytes),
    ("grid.from_file", "oscnorm.grid", "GridFunction.from_file", None),
    ("grid.MomentTable", "oscnorm.grid", "MomentTable", None),
    ("local_poly.poly_error", "oscnorm.norms", "poly_error", _count_route),
    ("local_poly.best_fit", "oscnorm.norms", "best_fit", None),
    ("local_poly.best_fit", "oscnorm.local_poly", "best_fit", None),
    ("local_poly.residual_cell_integrals", "oscnorm.norms",
     "residual_cell_integrals", None),
    ("maximal.level_integrals", "oscnorm.norms", "level_integrals", None),
    ("maximal.level_integrals", "oscnorm.families", "level_integrals", None),
    ("maximal.chain_max", "oscnorm.norms", "chain_max", None),
    ("maximal.lp_norm", "oscnorm.norms", "lp_norm", None),
    ("maximal.lp_norm", "oscnorm.suites", "lp_norm", None),
    ("families.validate", "oscnorm.norms", "validate", _count_validate),
    ("families.validate", "oscnorm.families", "validate", _count_validate),
    ("families.cz_family", "oscnorm.norms", "cz_family", _count_members),
    ("families.family_tables", "oscnorm.norms", "family_tables",
     _count_tables),
    ("families.family_tables", "oscnorm.suites", "family_tables",
     _count_tables),
    ("norms.sparse_norm_bounds", "oscnorm.cli", "sparse_norm_bounds",
     _count_witness),
    ("norms.sparse_norm_bounds", "oscnorm.suites", "sparse_norm_bounds",
     _count_witness),
    ("norms.packing_sup_norm", "oscnorm.cli", "packing_sup_norm",
     _count_witness),
    ("norms.packing_sup_norm", "oscnorm.suites", "packing_sup_norm",
     _count_witness),
    ("norms.packing_sup_norm", "oscnorm.norms", "packing_sup_norm",
     _count_witness),
    ("norms.garo_norm", "oscnorm.cli", "garo_norm", _count_witness),
    ("norms.garo_norm", "oscnorm.suites", "garo_norm", _count_witness),
    ("norms.sparse_sup_exhaustive", "oscnorm.cli", "sparse_sup_exhaustive",
     _count_witness),
    ("norms.sparse_sup_exhaustive", "oscnorm.suites",
     "sparse_sup_exhaustive", _count_witness),
    ("norms.ri_functionals", "oscnorm.cli", "ri_functionals", None),
    ("norms.ri_functionals", "oscnorm.suites", "ri_functionals", None),
    ("norms.family_value", "oscnorm.norms", "family_value", None),
    ("norms.scaled_error_levels", "oscnorm.norms", "scaled_error_levels",
     None),
    ("suites.run_suite", "oscnorm.cli", "run_suite", _count_suite),
    ("generate.batch_uniform", "oscnorm.suites", "batch_uniform", None),
)


def _resolve(module: str, path: str):
    """(owner, attribute, raw value) for ``module:path``; raises
    ImportError or AttributeError when the name is gone."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = (owner.__dict__[attr] if isinstance(owner, type)
           and attr in owner.__dict__ else getattr(owner, attr))
    return owner, attr, raw


def _signature(func):
    try:
        return inspect.signature(func)
    except (TypeError, ValueError):
        return None


class Tracer:
    """Installs span recorders on :data:`BINDINGS` and collects spans."""

    def __init__(self, bindings=BINDINGS, clock=time.perf_counter):
        self.bindings = bindings
        self.clock = clock
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()   # span names with a live binding
        self.missing: list[str] = []     # "module:path" bindings not found
        self.op = SETUP
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module, path, count in self.bindings:
            try:
                owner, attr, raw = _resolve(module, path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}:{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, count))
            elif callable(raw):
                wrapped = self._wrap(name, raw, count)
            else:
                self.missing.append(f"{module}:{path}")
                continue
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))
            self.wrapped.add(name)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, name, func, count):
        spans, stack, clock = self.spans, self._stack, self.clock
        sig = _signature(func) if count is not None else None
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1,
                        op=tracer.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if sig is not None:
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                except TypeError:
                    bound = {}
                count(span, bound, result)
            return result

        traced.__wrapped__ = func
        return traced

    # -- op spans ----------------------------------------------------------

    def begin_op(self, op_id: str, kind: str) -> None:
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(Span("op", self.clock(), op=op_id, tag=kind))

    def end_op(self) -> None:
        self.spans[self._stack.pop()].end = self.clock()
        self.op = SETUP

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                     s.count, s.tag]) + "\n")


# -- span arithmetic -------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children.

    Calls are single-threaded and properly nested, so a span's direct
    children are disjoint intervals inside it.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _has_ancestor(spans: list[Span], i: int, pred) -> bool:
    p = spans[i].parent
    while p >= 0:
        if pred(spans[p].name):
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], wrapped: set[str]) -> dict:
    """Per-layer metrics from one traced run.

    Timed-op spans only (``op != SETUP``), except ``families.family_tables``,
    whose cold enumeration happens in set-up.  ``X.s`` is inclusive time
    (nested calls of the same name counted once), ``X.self_s`` excludes
    child spans.  A metric whose bindings are all missing is ``None``.
    Every name of :data:`LAYER_METRICS` but ``trace.ops_per_s`` is set.
    """
    selfs = self_times(spans)
    timed = [i for i, s in enumerate(spans) if s.op != SETUP]
    by_name: dict[str, list[int]] = {}
    for i in timed:
        by_name.setdefault(spans[i].name, []).append(i)

    def incl(name):
        return sum(spans[i].duration for i in by_name.get(name, [])
                   if not _has_ancestor(spans, i, name.__eq__))

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def counted(name):
        return sum(spans[i].count for i in by_name.get(name, []))

    def per_call(name, tag, scale):
        idx = [i for i in by_name.get(name, []) if spans[i].tag == tag]
        return scale * sum(spans[i].duration for i in idx) / len(idx) \
            if idx else 0.0

    def outermost(prefix, idx):
        return sum(spans[i].duration for i in idx
                   if not _has_ancestor(spans, i,
                                        lambda n: n.startswith(prefix)))

    op_time = sum(spans[i].duration for i in by_name.get("op", []))

    local_idx = [i for i in timed
                 if spans[i].name.startswith("local_poly.")]
    family_idx = [i for i in timed
                  if spans[i].name in ("families.validate",
                                       "families.cz_family")
                  and _has_ancestor(spans, i,
                                    "norms.sparse_norm_bounds".__eq__)]
    bounds_time = incl("norms.sparse_norm_bounds")

    tables = {}   # distinct table (dimension, depth, order) -> rows
    tables_time = 0.0
    for s in spans:
        if s.name == "families.family_tables":
            tables_time += s.duration
            tables.setdefault(s.tag, s.count)
    scanned = sum((1 << _tree_nodes(tag)) - 1 for tag in tables)

    suite_idx = by_name.get("suites.run_suite", [])
    suite_time = sum(spans[i].duration for i in suite_idx)
    validate_members = counted("families.validate")

    m = {
        "cli.main.self_s": ("cli.main", self_s("cli.main")),
        "cli.out_bytes": ("cli.main", counted("cli.main")),
        "grid.from_file.s": ("grid.from_file", incl("grid.from_file")),
        "grid.MomentTable.s": ("grid.MomentTable", incl("grid.MomentTable")),
        "grid.MomentTable.calls": ("grid.MomentTable",
                                   calls("grid.MomentTable")),
        "local_poly.poly_error.s": ("local_poly.poly_error",
                                    incl("local_poly.poly_error")),
        "local_poly.poly_error.calls": ("local_poly.poly_error",
                                        calls("local_poly.poly_error")),
        "local_poly.poly_error.l2.us_per_call": (
            "local_poly.poly_error",
            per_call("local_poly.poly_error", "l2", 1e6)),
        "local_poly.poly_error.l1.ms_per_call": (
            "local_poly.poly_error",
            per_call("local_poly.poly_error", "l1", 1e3)),
        "local_poly.best_fit.s": ("local_poly.best_fit",
                                  incl("local_poly.best_fit")),
        "local_poly.best_fit.calls": ("local_poly.best_fit",
                                      calls("local_poly.best_fit")),
        "local_poly.residual_cell_integrals.s": (
            "local_poly.residual_cell_integrals",
            incl("local_poly.residual_cell_integrals")),
        "local_poly.share_of_ops": (
            "local_poly.poly_error",
            outermost("local_poly.", local_idx) / op_time if op_time else 0.0),
        "maximal.level_integrals.s": ("maximal.level_integrals",
                                      incl("maximal.level_integrals")),
        "maximal.chain_max.s": ("maximal.chain_max",
                                incl("maximal.chain_max")),
        "maximal.lp_norm.s": ("maximal.lp_norm", incl("maximal.lp_norm")),
        "families.validate.s": ("families.validate",
                                incl("families.validate")),
        "families.validate.calls": ("families.validate",
                                    calls("families.validate")),
        "families.validate.members": ("families.validate", validate_members),
        "families.validate.us_per_member": (
            "families.validate",
            1e6 * incl("families.validate") / validate_members
            if validate_members else 0.0),
        "families.cz_family.s": ("families.cz_family",
                                 incl("families.cz_family")),
        "families.cz_family.members": ("families.cz_family",
                                       counted("families.cz_family")),
        "families.family_tables.s": ("families.family_tables", tables_time),
        "families.family_tables.rows": ("families.family_tables",
                                        sum(tables.values())),
        "families.family_tables.accept_ratio": (
            "families.family_tables",
            sum(tables.values()) / scanned if scanned else 0.0),
        "families.share_of_bounds": (
            "families.validate",
            outermost("families.", family_idx) / bounds_time
            if bounds_time else 0.0),
        "norms.sparse_norm_bounds.self_s": (
            "norms.sparse_norm_bounds", self_s("norms.sparse_norm_bounds")),
        "norms.packing_sup_norm.self_s": (
            "norms.packing_sup_norm", self_s("norms.packing_sup_norm")),
        "norms.garo_norm.self_s": ("norms.garo_norm",
                                   self_s("norms.garo_norm")),
        "norms.ri_functionals.s": ("norms.ri_functionals",
                                   incl("norms.ri_functionals")),
        "norms.family_value.s": ("norms.family_value",
                                 incl("norms.family_value")),
        "norms.witness_cubes": (
            "norms.sparse_norm_bounds",
            sum(spans[i].count for i in timed
                if spans[i].name.startswith("norms.")
                and not _has_ancestor(spans, i,
                                      lambda n: n.startswith("norms.")))),
        "norms.sparse_sup_exhaustive.self_s": (
            "norms.sparse_sup_exhaustive",
            self_s("norms.sparse_sup_exhaustive")),
        "norms.scaled_error_levels.self_s": (
            "norms.scaled_error_levels", self_s("norms.scaled_error_levels")),
    }
    for suite in SUITES:
        m[f"suites.{suite}.self_s"] = (
            "suites.run_suite",
            sum(selfs[i] for i in suite_idx if spans[i].tag == suite))
    m["suites.trials_per_s"] = (
        "suites.run_suite",
        sum(spans[i].count for i in suite_idx) / suite_time
        if suite_time else 0.0)
    m["generate.batch_uniform.s"] = ("generate.batch_uniform",
                                     incl("generate.batch_uniform"))
    m["trace.spans"] = ("op", len(spans))
    return {name: (value if binding == "op" or binding in wrapped else None)
            for name, (binding, value) in m.items()}


SUITES = ("riesz", "sparse-jn", "sv-equivalence", "fractional-sv",
          "jn-extrapolation", "sobolev-chain", "embedding-chain")


def _tree_nodes(tag: str) -> int:
    """Tree node count of a ``"dimension,depth,order"`` table tag."""
    try:
        dimension, depth = (int(x) for x in tag.split(",")[:2])
    except ValueError:   # arguments the counter could not bind
        return 0
    return sum(1 << (dimension * level) for level in range(depth + 1))


# name: (unit, better) of every metric layer_metrics returns
LAYER_METRICS = {
    "cli.main.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "grid.from_file.s": ("s", "lower"),
    "grid.MomentTable.s": ("s", "lower"),
    "grid.MomentTable.calls": ("count", "lower"),
    "local_poly.poly_error.s": ("s", "lower"),
    "local_poly.poly_error.calls": ("count", "lower"),
    "local_poly.poly_error.l2.us_per_call": ("us", "lower"),
    "local_poly.poly_error.l1.ms_per_call": ("ms", "lower"),
    "local_poly.best_fit.s": ("s", "lower"),
    "local_poly.best_fit.calls": ("count", "lower"),
    "local_poly.residual_cell_integrals.s": ("s", "lower"),
    "local_poly.share_of_ops": ("ratio", "lower"),
    "maximal.level_integrals.s": ("s", "lower"),
    "maximal.chain_max.s": ("s", "lower"),
    "maximal.lp_norm.s": ("s", "lower"),
    "families.validate.s": ("s", "lower"),
    "families.validate.calls": ("count", "lower"),
    "families.validate.members": ("count", "lower"),
    "families.validate.us_per_member": ("us", "lower"),
    "families.cz_family.s": ("s", "lower"),
    "families.cz_family.members": ("count", "lower"),
    "families.family_tables.s": ("s", "lower"),
    "families.family_tables.rows": ("count", "lower"),
    "families.family_tables.accept_ratio": ("ratio", "higher"),
    "families.share_of_bounds": ("ratio", "lower"),
    "norms.sparse_norm_bounds.self_s": ("s", "lower"),
    "norms.packing_sup_norm.self_s": ("s", "lower"),
    "norms.garo_norm.self_s": ("s", "lower"),
    "norms.ri_functionals.s": ("s", "lower"),
    "norms.family_value.s": ("s", "lower"),
    "norms.witness_cubes": ("count", "lower"),
    "norms.sparse_sup_exhaustive.self_s": ("s", "lower"),
    "norms.scaled_error_levels.self_s": ("s", "lower"),
    **{f"suites.{suite}.self_s": ("s", "lower") for suite in SUITES},
    "suites.trials_per_s": ("1/s", "higher"),
    "generate.batch_uniform.s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    # set by the run from calibrated op latencies, like ops_per_s
    "trace.ops_per_s": ("1/s", "higher"),
}
