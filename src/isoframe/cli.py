"""Command-line front end: verification, dimension tables, reductions and the
frame catalog, over the structured frame file format.

Exit codes are a stable contract: 0 success or pass, 1 semantic failure
(failed verification, refused reduction), 2 malformed input (unparseable file
or bad arguments), 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from .frames import (
    BudgetExhaustedError,
    FrameError,
    FrameParseError,
    catalog,
    dependence,
    load_frame,
    reduce_once,
    save_frame,
    scaling_reduce,
    serialize_frame,
    verify,
)
from .kscalar import Field, scalar_to_str
from .phi import _dim_too_long_to_print, dim_phi, upper_bound

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3

__all__ = ["entry", "main"]

# The exit code of an error is that of the first class here that it is an
# instance of; every FrameError is a ValueError.
_ERROR_EXITS = ((FrameParseError, EXIT_MALFORMED), (BudgetExhaustedError, EXIT_BUDGET),
                (FrameError, EXIT_FAIL), (ValueError, EXIT_MALFORMED))


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.output == "json":
        print(json.dumps(report, indent=2, allow_nan=False))
        return
    lines = []
    for key, value in report.items():
        if key == "steps":
            lines += [f"step {i}: pivot={step['pivot']} omega={','.join(step['omega'])}"
                      for i, step in enumerate(value, start=1)]
        else:
            lines.append(f"{key}: {value}")
    print("\n".join(lines))


def _save_out(frame, args: argparse.Namespace, report: dict) -> None:
    """Write the frame to --out, if given, and name that path in the report.
    A path that cannot be written is a usage error, as an unreadable input
    path is."""
    if args.out:
        try:
            save_frame(frame, args.out)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from None
        report["out"] = args.out


def _bound_entry(field: Field, m: int, p: int):
    # both callers have checked (m, p), so upper_bound refuses only m = 1
    try:
        return upper_bound(field, m, p)
    except ValueError:
        return "refused (m=1)"


def cmd_verify(args: argparse.Namespace) -> int:
    frame = load_frame(args.path)
    exact = args.mode == "exact" and frame.is_exact
    result = verify(frame, tolerance=None if exact else args.tolerance)
    # a passing exact verdict proves the residual is the zero form, so the
    # report reads 0.0 and 0, the bytes its expansion gives, expanding nothing
    zero = exact and result.passed
    report = {
        "verdict": "pass" if result.passed else "fail",
        "mode": "exact" if exact else "float",
        "n": frame.n,
        "dim": dim_phi(frame.field, frame.m, frame.p),
        "bound": _bound_entry(frame.field, frame.m, frame.p),
        "residual_max": 0.0 if zero else result.max_residual,
        "residual_terms": 0 if zero else len(result.residual.terms),
    }
    _emit(report, args)
    return EXIT_PASS if result.passed else EXIT_FAIL


def cmd_dim(args: argparse.Namespace) -> int:
    field, m, p = Field.from_tag(args.field), args.m, args.p
    if _dim_too_long_to_print(field, m, p):
        raise ValueError(f"dim Phi_{field.name}(m={m}, p={p}) has more digits than Python prints")
    report = {
        "field": field.name,
        "m": m,
        "p": p,
        "dim": dim_phi(field, m, p),
        "bound": _bound_entry(field, m, p),
    }
    _emit(report, args)
    return EXIT_PASS


def cmd_reduce(args: argparse.Namespace) -> int:
    frame = load_frame(args.path)
    if not frame.is_exact:
        print("reduce requires exact rational entries", file=sys.stderr)
        return EXIT_FAIL
    if not verify(frame).passed:
        print("input frame does not verify; refusing to reduce", file=sys.stderr)
        return EXIT_FAIL
    steps, current = [], frame
    while (cert := dependence(current)) is not None:
        steps.append({"pivot": cert.pivot,
                      "omega": [scalar_to_str(om) for om in cert.omega]})
        current = reduce_once(current, cert)
    report = {"n_initial": frame.n, "steps": steps, "n_final": current.n}
    if not steps:
        report["note"] = "no dependence"
    _save_out(current, args, report)
    _emit(report, args)
    return EXIT_PASS


def cmd_scale_reduce(args: argparse.Namespace) -> int:
    frame = load_frame(args.path)
    reduced = scaling_reduce(frame, grid=args.grid, tolerance=args.tolerance)
    if reduced is None:
        _emit({"result": "none", "n_initial": frame.n}, args)
        return EXIT_PASS
    result = verify(reduced)
    report = {
        "result": "reduced",
        "n_initial": frame.n,
        "n_final": reduced.n,
        "exact": reduced.is_exact,
        "residual_max": 0.0 if reduced.is_exact and result.passed else result.max_residual,
    }
    _save_out(reduced, args, report)
    _emit(report, args)
    return EXIT_PASS


def cmd_catalog(args: argparse.Namespace) -> int:
    field, m, p = Field.from_tag(args.field), args.m, args.p
    frame = catalog(field, m, p, args.kind)
    report = {
        "kind": args.kind,
        "field": field.name,
        "m": m,
        "p": p,
        "n": frame.n,
    }
    if args.out:
        _save_out(frame, args, report)
        _emit(report, args)
    else:
        print(serialize_frame(frame), end="")
    return EXIT_PASS


# Every flag a command may take; each command takes only those it reads.
_FLAGS = {
    "--mode": dict(choices=("exact", "float"), default="exact"),
    "--tolerance": dict(type=float, default=1e-9),
    "--grid": dict(type=int, default=None),
    "--output": dict(choices=("text", "json"), default="text"),
    "--out": dict(default=None, help="path for the emitted frame file"),
}

# Every positional a command may take; the field tags are those of `Field`.
_POSITIONALS = {
    "path": {},
    "field": dict(choices=[field.name for field in Field]),
    "m": dict(type=int),
    "p": dict(type=int),
    "kind": {},
}

# Each command: its name, what runs it, its summary, its flags, and its
# positionals in the order they are given.
_COMMANDS = (
    ("verify", cmd_verify, "check the frame identity of a frame file",
     ("--mode", "--tolerance", "--output"), ("path",)),
    ("dim", cmd_dim, "dimension of Phi_K(m,p) and the frame-size bound",
     ("--output",), ("field", "m", "p")),
    ("reduce", cmd_reduce, "remove linear dependences among the frame forms",
     ("--output", "--out"), ("path",)),
    ("scale-reduce", cmd_scale_reduce, "diagonal-scaling reduction via the cone search",
     ("--tolerance", "--grid", "--output", "--out"), ("path",)),
    ("catalog", cmd_catalog, "emit a known frame",
     ("--output", "--out"), ("field", "m", "p", "kind")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoframe",
        description="Verify, analyze and reduce weighted frames of isometric "
                    "embeddings into l_p spaces over R, C or H.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, summary, flags, positionals in _COMMANDS:
        # Flags match by full name only, so an abbreviation is a usage error.
        command = sub.add_parser(name, help=summary, allow_abbrev=False)
        for arg in flags + positionals:
            command.add_argument(arg, **(_FLAGS | _POSITIONALS)[arg])
        command.set_defaults(run=run)
    return parser


def entry(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_MALFORMED
    try:
        if "tolerance" in args and not 0 < args.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {args.tolerance}")
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
