"""Command-line front end.

Subcommands: estimate, detect, ps, build, reproduce.  Exit codes:
0 success, 2 parse/usage error or a path that cannot be read or written,
3 precondition failure (a ``PreconditionError``), 4 reproduction mismatch,
5 internal error (any other ``LavseError``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import experiments
from .errors import LavseError, ParseError, PreconditionError
from .lav import solve_lav
from .leverage import detect_all, detect_partitioned, load_partitions
from .model import dump_json, dump_model, format_matrix_csv, load_model
# Not called here; bench/spans.py wraps it as cli.model_to_dict, so it stays importable.
from .model import model_to_dict  # traced
from .power import FIXTURES, build_dc_model, build_pmu_model, fixture_network, load_network
from .projstats import compute_ps

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
        return
    line = text.removesuffix("\n") + "\n"
    if hasattr(sys.stdout, "buffer"):  # UTF-8 bytes, which no locale refuses
        sys.stdout.flush()  # what was written as text goes first
        sys.stdout.buffer.write(line.encode("utf-8"))
    else:  # a text stream such as io.StringIO
        sys.stdout.write(line)


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def cmd_estimate(args) -> int:
    model = load_model(args.model)
    sol = solve_lav(model)
    if args.format == "json":
        doc = {
            "theta_hat": sol.theta_hat.tolist(),
            "residuals": sol.residuals.tolist(),
            "objective": sol.objective,
            "zero_set": list(sol.zero_set),
            "degenerate": sol.degenerate,
            "iterations": sol.iterations,
        }
        _emit(dump_json(doc), args.output)
        return EXIT_OK
    lines = ["states: " + "  ".join(_fmt(x) for x in sol.theta_hat)]
    lines.append(f"objective: {_fmt(sol.objective)}")
    width = max(len(s) for s in model.labels + ("measurement",))
    lines.append(f"{'measurement':<{width}}  {'residual':>12}  zero")
    for i, lab in enumerate(model.labels):
        z = "yes" if i in sol.zero_set else "no"
        lines.append(f"{lab:<{width}}  {sol.residuals[i]:>12.4g}  {z}")
    lines.append(f"degenerate (multiple optima): {sol.degenerate}")
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_detect(args) -> int:
    model = load_model(args.model)
    if args.partitions:
        parts = load_partitions(args.partitions, model)
        report = detect_partitioned(model, parts)
    else:
        report = detect_all(model)
    if args.format == "json":
        _emit(dump_json(report.to_dict()), args.output)
    else:
        _emit(report.render_table(), args.output)
    return EXIT_OK


def cmd_ps(args) -> int:
    model = load_model(args.model)
    report = compute_ps(model)
    if args.format == "json":
        _emit(dump_json(report.to_dict()), args.output)
    else:
        _emit(report.render_table(model.labels), args.output)
    return EXIT_OK


def _load_network_arg(name: str):
    if name in FIXTURES and not Path(name).exists():
        return fixture_network(name)
    return load_network(name)


def cmd_build(args) -> int:
    net = _load_network_arg(args.network)
    builder = build_dc_model if args.model == "dc" else build_pmu_model
    model = builder(net)
    if args.format == "json":
        _emit(dump_model(model), args.output)
    elif args.format == "csv":
        _emit(format_matrix_csv(model.h), args.output)
    else:
        width = max(len(s) for s in model.labels)
        lines = [f"{model.m} measurements x {model.n} states"]
        if model.state_labels:
            lines.append(f"{'':<{width}}  " + "  ".join(f"{s:>10}" for s in model.state_labels))
        for i, lab in enumerate(model.labels):
            lines.append(f"{lab:<{width}}  " + "  ".join(f"{x:>10.4g}" for x in model.h[i]))
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.target == "mc":
        result = experiments.reproduce_mc(
            trials=experiments.MC_TRIALS if args.trials is None else args.trials,
            seed=experiments.MC_SEED if args.seed is None else args.seed, csv_path=args.out)
    else:
        # Only mc takes options; a table target reproduces one published case.
        for name in ("trials", "seed", "out"):
            if getattr(args, name) is not None:
                args.parser.error(f"argument --{name}: not used by reproduce {args.target}")
        result = getattr(experiments, f"reproduce_{args.target}")()
    _emit(result.render(), None)
    return EXIT_OK if result.passed else EXIT_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="lavse",
        description="Absolute-value state estimation and leverage-point diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("table", "json")):
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--output", help="write to a file instead of stdout")

    p = sub.add_parser("estimate", help="solve the absolute-value fit of a model file")
    p.add_argument("model", help="model JSON file")
    add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("detect", help="classify rows as leverage/boundary/clean")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--partitions", help="partition JSON file")
    # Accepted and ignored, since detection is single-threaded: bench/run.py passes --threads 1.
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("ps", help="projection-statistics baseline")
    p.add_argument("model", help="model JSON file")
    add_common(p)
    p.set_defaults(func=cmd_ps)

    p = sub.add_parser("build", help="build a measurement model from a network")
    p.add_argument("network", help=f"network JSON file or fixture name ({', '.join(FIXTURES)})")
    p.add_argument("--model", choices=["dc", "pmu"], required=True)
    add_common(p, ("table", "json", "csv"))
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("reproduce", help="check bundled reference results")
    p.add_argument("target", choices=["table1", "table2", "table4", "mc"])
    p.add_argument("--trials", type=int, help=f"mc only (default {experiments.MC_TRIALS})")
    p.add_argument("--seed", type=int, help=f"mc only (default {experiments.MC_SEED})")
    p.add_argument("--out", help="CSV output path (mc only)")
    p.set_defaults(func=cmd_reproduce, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as err:  # OSError: unreadable or unwritable path
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except LavseError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
