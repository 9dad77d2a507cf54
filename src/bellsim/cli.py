"""Command-line front end.

Subcommands:

    bellsim run SCENARIO [-o OUT]
    bellsim generate TEMPLATE [-o OUT] [--seed N] [--cards C,C,C,C,C]
            [--angles A,A,B,B] [--estimator exact|monte-carlo]
            [--samples N] [--mc-seed N] [--description TEXT]
    bellsim enumerate-bound CARDINALITY [-o OUT]
    bellsim qm table ANGLE_A ANGLE_B [-o OUT]
    bellsim qm chsh A A_PRIME B B_PRIME [-o OUT]
    bellsim qm search [--grid-step X] [--refine-rounds N] [-o OUT]

A run takes its whole job from the scenario file, Monte Carlo seed
included (``generate --mc-seed`` writes it), and a scenario whose parts
do not fit together is refused when it is parsed, before any analysis.
Reports go to standard output unless -o names a file; a relative -o path
is resolved against the working directory.  Exit status is 0 whenever
the requested run completes, whether or not the report's verdicts say
Satisfied or Violated; it is nonzero only for parse, validation, and
execution errors, each printed as one ``bellsim: error: [module]
message`` line on standard error.

The argument parser is built once per process, on the first ``main``
call rather than at import, and every later call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

from .errors import BellsimError, CliError
from .report import (enumerate_bound_doc, qm_chsh_doc, qm_search_doc,
                     qm_table_doc, run_scenario)
from .scenario import (TEMPLATES, generate_scenario, load_scenario,
                       render_document)
from .spaces import SETTING_NAMES


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: "
                                         f"{text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: "
                                         f"{text!r}") from exc


#: A token that starts like a negative number in any float spelling.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with '-' and then a digit, '.digit', 'inf'
    or 'nan' as a value, so negative numbers such as -1e-3, -.5, -inf or
    the list -0.5,0,0,0 reach their argument's type instead of being taken
    for an unknown option.  No bellsim option looks like that.  Subparsers
    are built with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellsim",
        description="Simulate and analyze hidden-variable models of the "
                    "EPR-Bell experiment.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", metavar="PATH", default=None,
                        help="write the report here instead of standard output")

    p_run = sub.add_parser("run", parents=[common],
                           help="execute a scenario file and emit its report")
    p_run.add_argument("scenario", help="path to a scenario file")

    p_gen = sub.add_parser("generate", parents=[common],
                           help="emit a scenario file from a named template")
    p_gen.add_argument("template", help=f"one of: {', '.join(TEMPLATES)}")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="randomization seed for generated tables (default 0)")
    p_gen.add_argument("--cards", type=_int_list, default=None,
                       metavar="L,LA,LA2,LB,LB2",
                       help="five space cardinalities (default 2,2,2,2,2)")
    p_gen.add_argument("--angles", type=_float_list, default=None,
                       metavar="A,A2,B,B2",
                       help="four analyzer angles in radians "
                            "(default 0,pi/2,pi/4,-pi/4)")
    p_gen.add_argument("--estimator", choices=("exact", "monte-carlo"),
                       default="exact", help="estimator for the run block")
    p_gen.add_argument("--samples", type=int, default=None,
                       help="monte-carlo sample count per setting pair "
                            "(default 100000)")
    p_gen.add_argument("--mc-seed", type=int, default=None,
                       help="monte-carlo stream seed (default 0)")
    p_gen.add_argument("--description", default=None,
                       help="override the template's description text")

    p_enum = sub.add_parser("enumerate-bound", parents=[common],
                            help="exhaustive deterministic-strategy bound check")
    p_enum.add_argument("cardinality", type=int,
                        help="source-space cardinality n; covers 2^(4n) "
                             "strategies")

    p_qm = sub.add_parser("qm", help="quantum singlet reference predictions")
    qm_sub = p_qm.add_subparsers(dest="qm_command", required=True)

    p_table = qm_sub.add_parser("table", parents=[common],
                                help="outcome probabilities for one angle pair")
    p_table.add_argument("angle_a", type=float, help="analyzer angle a (radians)")
    p_table.add_argument("angle_b", type=float, help="analyzer angle b (radians)")

    p_chsh = qm_sub.add_parser("chsh", parents=[common],
                               help="CHSH value for four analyzer angles")
    for name in SETTING_NAMES:
        p_chsh.add_argument(name, type=float, help=f"analyzer angle {name} (radians)")

    p_search = qm_sub.add_parser("search", parents=[common],
                                 help="grid search for the maximal violation")
    p_search.add_argument("--grid-step", type=float, default=math.pi / 8,
                          help="initial grid step in radians (default pi/8)")
    p_search.add_argument("--refine-rounds", type=int, default=3,
                          help="number of halving refinement rounds (default 3)")

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    path = Path(output)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            doc = run_scenario(load_scenario(args.scenario))
        elif args.command == "generate":
            parameters = {"seed": args.seed, "estimator": args.estimator}
            if args.samples is not None:
                parameters["samples"] = args.samples
            if args.mc_seed is not None:
                parameters["mc_seed"] = args.mc_seed
            if args.cards is not None:
                parameters["cards"] = args.cards
            if args.angles is not None:
                parameters["angles"] = args.angles
            if args.description is not None:
                parameters["description"] = args.description
            doc = generate_scenario(args.template, parameters)
        elif args.command == "enumerate-bound":
            doc = enumerate_bound_doc(args.cardinality)
        elif args.qm_command == "table":
            doc = qm_table_doc(args.angle_a, args.angle_b)
        elif args.qm_command == "chsh":
            doc = qm_chsh_doc(tuple(getattr(args, name) for name in SETTING_NAMES))
        else:
            doc = qm_search_doc(args.grid_step, args.refine_rounds)
        _emit(render_document(doc), args.output)
    except BellsimError as exc:
        print(f"bellsim: error: [{exc.module}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
