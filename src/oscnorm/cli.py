"""Command-line front end.

Three subcommands:

``compute``
    Evaluate one functional of a grid function stored as JSON
    (``{"dimension": n, "depth": L, "values": [...]}``).
``verify``
    Run a seeded verification suite and write its deterministic report.
``maximal``
    Print the dyadic fractional maximal function of an input grid.

Every command emits JSON (sorted keys) and exits 0 exactly when all of its
assertions hold.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np

from .families import SUBSET_NODE_CAP, CubeFamily, enumerable
from .grid import GridFunction
from .maximal import fractional_maximal
from .norms import (NormParams, garo_norm, packing_sup_norm, ri_functionals,
                    sparse_norm_bounds, sparse_sup_exhaustive)
from .suites import SUITE_NAMES, SuiteConfig, run_suite

_NORM_KEYS = ("jn", "sjn", "v", "sv", "svt", "garo", "bmo", "weaklp", "llogl")
# the functional flags each norm reads, with their defaults; passing one
# that the norm does not read is refused
_FLAG_DEFAULTS = {"p": 2.0, "k": 1, "q": 1, "lam": 0.0}
_NORM_FLAGS = {**dict.fromkeys(("v", "sv", "svt"), ("p", "k", "q", "lam")),
               **dict.fromkeys(("jn", "sjn", "garo", "weaklp"), ("p",)),
               "bmo": (), "llogl": ()}


def _parse_p(text: str) -> float:
    p = float(text)
    if not p >= 1.0:       # also refuses nan
        raise argparse.ArgumentTypeError(f"p must be >= 1 or inf, got {text}")
    return p


def _parse_lambda(text: str) -> float:
    lam = float(text)
    if not math.isfinite(lam):
        raise argparse.ArgumentTypeError(f"lambda must be finite, got {text}")
    return lam


# built once per process: parsing leaves it as it is
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscnorm",
        description="Oscillation norms of piecewise-constant functions "
                    "on the dyadic unit cube.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one functional")
    comp.add_argument("--input", required=True, help="grid-function JSON file")
    comp.add_argument("--norm", required=True, choices=_NORM_KEYS)
    comp.add_argument("--p", type=_parse_p)
    comp.add_argument("--k", type=int)
    comp.add_argument("--q", type=int, choices=(1, 2))
    comp.add_argument("--lambda", dest="lam", type=_parse_lambda)
    comp.add_argument("--mode", choices=("exact", "bounds"), default="exact")
    comp.add_argument("--out", help="write JSON here instead of stdout")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, choices=SUITE_NAMES)
    ver.add_argument("--dim", type=int, default=1, choices=(1, 2))
    ver.add_argument("--depth", type=int, default=2)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", help="report file (default: stdout)")

    mx = sub.add_parser("maximal", help="dyadic fractional maximal function")
    mx.add_argument("--input", required=True)
    mx.add_argument("--q", type=int, default=1, choices=(1, 2))
    mx.add_argument("--lambda", dest="lam", type=float, default=0.0)
    mx.add_argument("--out", help="write JSON here instead of stdout")
    return parser


# Stands in for a long list while the stdlib encoder, which is pure Python
# whenever ``indent`` is set, writes the rest of a report: the witness's
# cube list, and every array of the payload.  The pattern anchors at a line
# start, and encoded strings hold no raw newline, so no string value of the
# report can match it.
_LIST = "\x00list\x00"
_LIST_LINE = re.compile(
    r'^( *)"(\w+)": ' + re.escape(json.dumps(_LIST)), re.MULTILINE)
_NOT_FINITE = ("the result is not finite, and JSON has no NaN or "
               "infinity")


def _dumps(payload: dict) -> str:
    """Strict JSON: a non-finite float raises ``ValueError`` instead of
    being written as ``NaN`` or ``Infinity``."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(_NOT_FINITE) from None


def _float_list(values: np.ndarray, indent: int) -> str:
    """``values`` as ``json.dumps(values.tolist(), indent=2)`` writes them
    after a key on a line indented by ``indent`` spaces, and as strictly:
    a non-finite value raises ``ValueError``."""
    if not np.isfinite(values).all():
        raise ValueError(_NOT_FINITE)
    if not values.size:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    body = ("," + pad).join(map(repr, values.tolist()))
    return f"[{pad}{body}\n{' ' * indent}]"


def _emit(payload: dict, out: str | None,
          witness: CubeFamily | None = None) -> None:
    """Write ``payload``, plus ``witness`` under ``"witness"``, exactly as
    ``json.dumps(..., sort_keys=True, indent=2)`` writes them with the
    witness as :meth:`CubeFamily.to_json_dict` and each float array of
    ``payload`` as its list.  The witness's cube list and the arrays are
    rendered apart and spliced in at their placeholders, at the indent of
    the placeholder's line."""
    render = {key: functools.partial(_float_list, value)
              for key, value in payload.items()
              if isinstance(value, np.ndarray)}
    payload = {**payload, **dict.fromkeys(render, _LIST)}
    if witness is not None:
        render["cubes"] = witness.json_cubes
        payload["witness"] = {"kind": witness.kind, "order": witness.order,
                              "cubes": _LIST}
    text = _LIST_LINE.sub(
        lambda at: f'{at[1]}"{at[2]}": {render[at[2]](len(at[1]))}',
        _dumps(payload))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _compute_params(args: argparse.Namespace, dimension: int) -> NormParams:
    key = args.norm
    if key in ("jn", "sjn"):     # the named functionals read p alone
        return getattr(NormParams, key)(args.p)
    if key == "v":
        return NormParams.packing(args.p, args.k, args.q, args.lam)
    if key == "bmo":
        return NormParams.bmo()
    if key == "sv":
        return NormParams.sv(args.p, args.k, args.q, args.lam)
    return NormParams.sv_fractional(args.p, args.k, args.q, args.lam,
                                    dimension)


def _fill_flags(args: argparse.Namespace) -> None:
    """Set each functional flag the norm reads and was not given to its
    default; refuse one given that the norm does not read."""
    reads = _NORM_FLAGS[args.norm]
    for name, default in _FLAG_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in reads:
            flag = "lambda" if name == "lam" else name
            raise ValueError(f"--norm {args.norm} does not read --{flag}")


def _run_compute(args: argparse.Namespace) -> int:
    _fill_flags(args)
    f = GridFunction.from_file(args.input)
    payload: dict = {"schema": 1, "norm": args.norm, "input": args.input}
    if args.norm in ("weaklp", "llogl"):
        ri = ri_functionals(f, args.p)      # llogl reads no p: the default
        value = ri.weak_lp if args.norm == "weaklp" else ri.llogl
        payload.update({"value_lower": value, "value_upper": value,
                        "exact": True,
                        "p": "inf" if math.isinf(args.p) else args.p})
        _emit(payload, args.out)
        return 0
    if args.norm in ("jn", "v", "bmo"):
        rep = packing_sup_norm(f, _compute_params(args, f.dimension))
    elif args.norm in ("sjn", "sv", "svt"):
        sparse = (sparse_sup_exhaustive if args.mode == "exact"
                  else sparse_norm_bounds)
        rep = sparse(f, _compute_params(args, f.dimension))
    else:  # garo
        if args.mode == "exact" and not enumerable(f.dimension, f.depth):
            raise ValueError(f"exact evaluation needs <= {SUBSET_NODE_CAP} "
                             "tree nodes; rerun with --mode bounds")
        rep = garo_norm(f, args.p)
    # _emit renders the witness from its member arrays (see _LIST)
    payload.update(dataclasses.replace(rep, witness=None).to_json_dict())
    _emit(payload, args.out, rep.witness)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    config = SuiteConfig(suite=args.suite, dimension=args.dim,
                         depth=args.depth, trials=args.trials, seed=args.seed)
    report = run_suite(config)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for a in report.assertions:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{status}] {args.suite}: {a['name']} -- {a['detail']}",
              file=sys.stderr)
    return 0 if report.passed else 1


def _run_maximal(args: argparse.Namespace) -> int:
    f = GridFunction.from_file(args.input)
    res = fractional_maximal(f, args.q, args.lam)
    payload = {
        "schema": 1,
        "input": args.input,
        "q": args.q,
        "lambda": args.lam,
        "dimension": f.dimension,
        "depth": f.depth,
        "values": res.values.values,    # spliced by _emit
    }
    _emit(payload, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # values near the float limit overflow on the way; the input check
        # or the finite check of ``_dumps`` reports that once, as one line
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "compute":
                return _run_compute(args)
            if args.command == "verify":
                return _run_verify(args)
            return _run_maximal(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
