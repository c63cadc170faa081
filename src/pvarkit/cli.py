"""Command-line front door.

Subcommands wrap the library one-to-one: ``pvar`` and ``compose`` transform
JSON path files, ``holder`` and ``bound-check`` report on generators, and
``lab`` runs the packaged experiments, emitting a CSV plus a JSON summary.

Exit codes are the contract: 0 on success, 2 when an input file or flag
cannot be parsed, 3 when a domain invariant is violated (the message names
the invariant), and 4 when a lab experiment's claimed bound fails or its
pair search comes up empty.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .errors import NoViolatorFound, PvarkitError
from .lab import (
    SPIKE_CAP,
    _check_depth,
    example3_experiment,
    gen_example5_experiment,
    remark_experiment,
    step4_divergence_experiment,
    thm6_experiment,
)
from .operators import Generator, compose_path, composition_bound_check, estimate_holder
from .paths import DiscretePath
from .spaces import Vector, VectorSpace
from .variation import pvar

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_CLAIM = 4


class _ParseFailure(Exception):
    """Internal marker for anything that maps to exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as exc:
        raise _ParseFailure("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise _ParseFailure("malformed JSON in %s: %s" % (path, exc)) from exc


def _schema(build, *args):
    """Run a from_json constructor, mapping schema errors to exit code 2.

    Domain invariants raise PvarkitError subclasses and pass through
    untouched; those belong to exit code 3.
    """
    try:
        return build(*args)
    except PvarkitError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise _ParseFailure(str(exc)) from exc


def _dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp, indent=2)
        fp.write("\n")


def _parse_depths(text: str) -> tuple[int, ...]:
    try:
        depths = tuple(_check_depth(int(part)) for part in text.split(","))
    except ValueError as exc:
        raise _ParseFailure("depth schedule must be comma-separated integers >= 1") from exc
    if any(a >= b for a, b in zip(depths, depths[1:])):
        raise _ParseFailure("depth schedule must be strictly increasing")
    return depths


def _load_path(path: str) -> DiscretePath:
    return _schema(DiscretePath.from_json, _load_json(path))


def _load_generator(path: str) -> Generator:
    return _schema(Generator.from_json, _load_json(path))


def _load_points(path: str) -> list[Vector]:
    obj = _load_json(path)

    def build(obj):
        if not isinstance(obj, dict) or "space" not in obj or "points" not in obj:
            raise ValueError("points file needs 'space' and 'points'")
        space = VectorSpace.from_json(obj["space"])
        return Vector.list_from_json(space, obj["points"])

    return _schema(build, obj)


def cmd_pvar(args) -> int:
    path = _load_path(args.input)
    result = pvar(path, args.p)
    _dump_json(result.to_json(), args.out)
    print(
        "p-variation (p=%g) of %d samples: %.17g  (partition of %d points) -> %s"
        % (args.p, len(path), result.value, len(result.partition), args.out)
    )
    return EXIT_OK


def cmd_compose(args) -> int:
    f = _load_generator(args.gen)
    path = _load_path(args.input)
    composed = compose_path(f, path)
    composed.coordinate_matrix()  # rejects non-finite images before anything is written
    _dump_json(composed.to_json(), args.out)
    print("composed %s over %d samples -> %s" % (f.label, len(path), args.out))
    return EXIT_OK


def cmd_holder(args) -> int:
    f = _load_generator(args.gen)
    points = _load_points(args.points)
    estimate = estimate_holder(f, points, args.alpha)
    if args.out:
        _dump_json(estimate.to_json(), args.out)
    shown = "inf" if estimate.infinite else "%.17g" % estimate.constant
    print(
        "holder estimate (alpha=%g) over %d points: constant %s from %d pairs"
        % (args.alpha, len(points), shown, estimate.pair_count)
    )
    return EXIT_OK


def cmd_bound_check(args) -> int:
    f = _load_generator(args.gen)
    path = _load_path(args.input)
    report = composition_bound_check(f, path, args.p, args.q)
    if args.out:
        _dump_json(report.to_json(), args.out)
    print(
        "bound check p=%g q=%g: L_hat=%.17g var_p=%.17g var_q=%.17g -> %s"
        % (
            args.p,
            args.q,
            report.l_hat,
            report.var_p,
            report.var_q,
            "holds" if report.bound_holds else "FAILS",
        )
    )
    if not report.bound_holds:
        print("claimed bound failed: var_q exceeds L_hat^q var_p", file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def cmd_lab(args) -> int:
    # each experiment validates the flags it reads and keeps its own default depths
    schedule = {"depths": _parse_depths(args.depths)} if args.depths else {}
    gen = None
    if args.gen:
        if args.experiment in ("example3", "example5"):
            raise _ParseFailure("--gen is not used by the %s experiment" % args.experiment)
        gen = _load_generator(args.gen)

    covering_note = None
    if args.experiment == "example3":
        outcome = example3_experiment(eps=args.eps, **schedule)
        report = outcome.report
        covering_note = "epsilon-net sizes at eps=%g: %s over point counts %s" % (
            outcome.eps,
            outcome.covering_counts,
            outcome.point_counts,
        )
    elif args.experiment == "step4":
        outcome = step4_divergence_experiment(
            p=args.p,
            q=args.q,
            cap=args.cap,
            strict=args.strict,
            generator=gen,
            **schedule,
        )
        report = outcome.report
    elif args.experiment == "example5":
        report = gen_example5_experiment(**schedule)
    elif args.experiment == "thm6":
        report = thm6_experiment(p=args.p, q=args.q, seed=args.seed, generator=gen, **schedule)
    else:
        report = remark_experiment(q=args.q, generator=gen, **schedule)

    with open(args.out, "w", encoding="utf-8", newline="") as fp:
        report.write_csv(fp)
    summary_path = args.json or os.path.splitext(args.out)[0] + ".json"
    _dump_json(report.to_json(), summary_path)

    for row in report.rows():
        print(
            "depth %d: quantity %.17g vs claimed %.17g -> %s"
            % (row[0], row[1], row[2], "ok" if row[3] else "FAILED")
        )
    if covering_note:
        print(covering_note)
    print("wrote %s and %s" % (args.out, summary_path))
    if not report.all_satisfied:
        bad = [str(row[0]) for row in report.rows() if not row[3]]
        print(
            "claimed bound failed at depth(s) %s: this signals a bug or a "
            "violated precondition" % ",".join(bad),
            file=sys.stderr,
        )
        return EXIT_CLAIM
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvarkit",
        description="p-variation of discrete paths, composition operators, "
        "and the packaged stress experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pvar = sub.add_parser("pvar", help="p-variation of a JSON path")
    p_pvar.add_argument("--input", required=True, help="path JSON file")
    p_pvar.add_argument("--p", type=float, required=True)
    p_pvar.add_argument("--out", required=True, help="result JSON file")
    p_pvar.set_defaults(handler=cmd_pvar)

    p_comp = sub.add_parser("compose", help="apply a generator to every sample")
    p_comp.add_argument("--gen", required=True, help="generator JSON file")
    p_comp.add_argument("--input", required=True, help="path JSON file")
    p_comp.add_argument("--out", required=True, help="composed path JSON file")
    p_comp.set_defaults(handler=cmd_compose)

    p_hold = sub.add_parser("holder", help="largest observed Holder ratio")
    p_hold.add_argument("--gen", required=True, help="generator JSON file")
    p_hold.add_argument("--points", required=True, help="points JSON file")
    p_hold.add_argument("--alpha", type=float, required=True)
    p_hold.add_argument("--out", help="optional estimate JSON file")
    p_hold.set_defaults(handler=cmd_holder)

    p_bc = sub.add_parser("bound-check", help="variation transfer inequality check")
    p_bc.add_argument("--gen", required=True, help="generator JSON file")
    p_bc.add_argument("--input", required=True, help="path JSON file")
    p_bc.add_argument("--p", type=float, required=True)
    p_bc.add_argument("--q", type=float, required=True)
    p_bc.add_argument("--out", help="optional report JSON file")
    p_bc.set_defaults(handler=cmd_bound_check)

    p_lab = sub.add_parser("lab", help="run a packaged experiment")
    p_lab.add_argument(
        "--experiment",
        required=True,
        choices=("example3", "step4", "example5", "thm6", "remark"),
    )
    p_lab.add_argument("--p", type=float, default=1.0)
    p_lab.add_argument("--q", type=float, default=2.0)
    p_lab.add_argument("--depths", help="comma-separated depth schedule")
    p_lab.add_argument("--cap", type=int, default=SPIKE_CAP, help="spike cap per block")
    p_lab.add_argument("--strict", action="store_true", help="refuse capped blocks")
    p_lab.add_argument("--eps", type=float, default=0.01, help="covering radius (example3)")
    p_lab.add_argument("--gen", help="generator JSON overriding the default map")
    p_lab.add_argument("--seed", type=int, default=0)
    p_lab.add_argument("--out", required=True, help="CSV report file")
    p_lab.add_argument("--json", help="JSON summary file (default: out with .json)")
    p_lab.set_defaults(handler=cmd_lab)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _ParseFailure as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except NoViolatorFound as exc:
        print("NoViolatorFound: %s" % exc, file=sys.stderr)
        return EXIT_CLAIM
    except PvarkitError as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
