"""Command-line interface: run experiments, bootstrap reference sets,
recalculate logs against new reference sets, and postprocess results.

Exit status is 0 on success and nonzero with a message on stderr for any
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from bibench import postprocess, runner, suite

__all__ = ["main"]


def _parse_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_int_list(text: str, what: str) -> list[int]:
    """Accept comma lists and dash ranges: "1,3,5" or "1-10" or "1-3,7"."""
    values: list[int] = []
    for part in _parse_csv(text):
        lo, dash, hi = part.partition("-")
        try:
            if dash:
                values.extend(range(int(lo), int(hi) + 1))
            else:
                values.append(int(part))
        except ValueError:
            raise ValueError(f"cannot parse {what} {part!r}") from None
    if not values:
        raise ValueError(f"empty {what} list")
    return values


def _parse_float_list(text: str, what: str) -> list[float]:
    values = []
    for part in _parse_csv(text):
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"cannot parse {what} {part!r}") from None
    if not values:
        raise ValueError(f"empty {what} list")
    return values


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--functions", default=None,
                        help="comma list of function ids, e.g. f1,f2 (default: all)")
    parser.add_argument("--dims", default=None,
                        help="comma list of dimensions, e.g. 2,5 (default: all)")
    parser.add_argument("--instances", default=None,
                        help="instances as list or range, e.g. 1-10 (default: all)")


def _problem_selection(args: argparse.Namespace):
    functions = tuple(_parse_csv(args.functions)) if args.functions else suite.FUNCTION_IDS
    dims = (
        tuple(_parse_int_list(args.dims, "dimension")) if args.dims else suite.DIMENSIONS
    )
    instances = (
        tuple(_parse_int_list(args.instances, "instance"))
        if args.instances
        else suite.INSTANCE_IDS
    )
    # Validate early so typos fail before any work happens.
    suite.enumerate_problems(functions, dims, instances)
    return functions, dims, instances


def _cmd_run(args: argparse.Namespace) -> int:
    functions, dims, instances = _problem_selection(args)
    cfg = runner.ExperimentConfig(
        algorithm=args.algo,
        output_dir=Path(args.out),
        seed=args.seed,
        functions=functions,
        dimensions=dims,
        instances=instances,
        budget=args.budget,
        refset_dir=Path(args.refsets) if args.refsets else None,
        bootstrap_budget=args.bootstrap_budget,
    )
    results = runner.run_experiment(cfg, progress=print)
    print(f"wrote {len(results)} run logs under {cfg.output_dir}")
    return 0


def _cmd_bootstrap(args: argparse.Namespace) -> int:
    functions, dims, instances = _problem_selection(args)
    written = runner.bootstrap_refsets(
        Path(args.out),
        seed=args.seed,
        budget=args.budget,
        functions=functions,
        dimensions=dims,
        instances=instances,
        progress=print,
    )
    print(f"wrote {len(written)} reference sets under {args.out}")
    return 0


def _cmd_recalc(args: argparse.Namespace) -> int:
    written = runner.recalc_experiment(Path(args.logs), Path(args.refsets), Path(args.out))
    print(f"recalculated {len(written)} run logs into {args.out}")
    return 0


def _cmd_postprocess(args: argparse.Namespace) -> int:
    precisions = (
        _parse_float_list(args.precisions, "precision")
        if args.precisions
        else postprocess.DEFAULT_TABLE_PRECISIONS
    )
    postprocess.resolve_precisions(precisions)  # usage error before any work
    written = postprocess.process_experiment(
        Path(args.logs),
        Path(args.out),
        precisions=precisions,
        instances_display=args.instances_display,
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibench",
        description="Performance assessment for bi-objective black-box optimizers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a baseline over the problem grid")
    _add_problem_flags(p_run)
    p_run.add_argument("--algo", default="random", choices=sorted(runner.ALGORITHMS),
                       help="baseline algorithm")
    p_run.add_argument("--budget", type=int, default=None,
                       help="evaluations per problem (default: 10000 * dimension)")
    p_run.add_argument("--seed", type=int, default=1, help="master seed")
    p_run.add_argument("--refsets", default=None,
                       help="reference-set directory (omit to bootstrap into <out>/refsets)")
    p_run.add_argument("--bootstrap-budget", type=int,
                       default=runner.DEFAULT_BOOTSTRAP_BUDGET,
                       help="per-baseline budget when bootstrapping in-run")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_boot = sub.add_parser("bootstrap-refsets",
                            help="build reference sets from all built-in baselines")
    _add_problem_flags(p_boot)
    p_boot.add_argument("--seed", type=int, default=1, help="master seed")
    p_boot.add_argument("--budget", type=int, default=runner.DEFAULT_BOOTSTRAP_BUDGET,
                        help="evaluations per baseline per problem")
    p_boot.add_argument("--out", required=True, help="reference-set output directory")
    p_boot.set_defaults(func=_cmd_bootstrap)

    p_recalc = sub.add_parser("recalc",
                              help="re-assess existing logs against new reference sets")
    p_recalc.add_argument("--logs", required=True, help="experiment directory to read")
    p_recalc.add_argument("--refsets", required=True, help="reference-set directory")
    p_recalc.add_argument("--out", required=True, help="output experiment directory")
    p_recalc.set_defaults(func=_cmd_recalc)

    p_post = sub.add_parser("postprocess", help="compute ECDFs and runtime tables")
    p_post.add_argument("--logs", required=True, help="experiment directory to read")
    p_post.add_argument("--out", required=True, help="output directory")
    p_post.add_argument("--precisions", default=None,
                        help="comma list of grid precisions for tables, e.g. 1e0,1e-2")
    p_post.add_argument("--instances-display", type=int,
                        default=postprocess.DEFAULT_INSTANCES_DISPLAY,
                        help="instances shown per table row")
    p_post.set_defaults(func=_cmd_postprocess)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"bibench: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
