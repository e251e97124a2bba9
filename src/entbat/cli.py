"""Command-line interface.

Every subcommand reads states or scenarios from JSON files, prints
fixed-format numbers (12 decimal places for scalar values, 12
significant digits inside CSV), and exits 0 on success, 1 on any domain
or validation failure (with a machine-readable ``error: <kind>:
<detail>`` line on stderr), or 2 on usage errors.  All randomness flows
through explicit ``--seed`` flags, so repeated invocations are
byte-identical.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .battery import (
    continuity_bound_check,
    conversion_rate,
    feasible,
    multi_measure_bound,
    search_nonequivalent_pair,
    swap_protocol,
    zero_error_rate,
)
from .dilution import (
    ALPHA_MAX,
    curve_to_csv,
    embezzlement_demo,
    embezzlement_to_csv,
    self_dilution_curve,
)
from .errors import EntbatError, ParseError
from .measures import MEASURES, OptimizerOptions, evaluate
from .states import load_state, save_state
from .thermo import (
    RELATIVE_TO_GIBBS,
    STANDARD_OFFSET,
    f_max,
    free_energy,
    load_thermo_scenario,
    thermo_feasible,
    thermo_self_dilution,
)

MEASURE_IDS = sorted(MEASURES)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12f}"  # the +0.0 folds -0.0 into 0.0


def _opts_from(args: argparse.Namespace) -> OptimizerOptions:
    return OptimizerOptions(
        restarts=args.restarts, max_iters=args.max_iters, tol=args.tol, seed=args.seed
    )


def _add_optimizer_flags(p: argparse.ArgumentParser, restarts: int = 8, max_iters: int = 5000) -> None:
    p.add_argument("--restarts", type=int, default=restarts, help="optimizer restarts")
    p.add_argument("--max-iters", type=int, default=max_iters, help="iteration cap per restart")
    p.add_argument("--tol", type=float, default=1e-8, help="convergence tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for optimizer restarts")


def _add_measure_flag(p: argparse.ArgumentParser, name: str = "--measure") -> None:
    p.add_argument(name, required=True, choices=MEASURE_IDS, help="measure id")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_measure(args) -> int:
    value = evaluate(args.measure, load_state(args.state), _opts_from(args)).value
    print(_fmt(value))
    return 0


def _cmd_feasible(args) -> int:
    verdict = feasible(
        load_state(getattr(args, "from")), load_state(args.to), args.measure, _opts_from(args)
    )
    print(verdict)
    return 0


def _print_plan(plan) -> None:
    print(f"rate {_fmt(plan.rate)}")
    print(f"plan {plan.m}/{plan.n}")
    print(f"gap {plan.epsilon_gap:.12g}")
    print(f"exact {int(plan.exact)}")


def _cmd_rate(args) -> int:
    plan = conversion_rate(
        load_state(getattr(args, "from")), load_state(args.to), args.measure, _opts_from(args)
    )
    _print_plan(plan)
    return 0


def _cmd_zero_error(args) -> int:
    plan = zero_error_rate(
        load_state(getattr(args, "from")), load_state(args.to), args.measure, _opts_from(args)
    )
    _print_plan(plan)
    return 0


def _cmd_swap(args) -> int:
    report = swap_protocol(
        load_state(getattr(args, "from")), load_state(args.to), args.measure, _opts_from(args)
    )
    print(f"battery-before {_fmt(report.e_battery_before)}")
    print(f"battery-after {_fmt(report.e_battery_after)}")
    print(f"system-trace-distance {report.final_system_trace_distance:.12g}")
    return 0


def _cmd_multi_measure(args) -> int:
    bound = multi_measure_bound(
        load_state(getattr(args, "from")),
        load_state(args.to),
        args.measure_1,
        args.measure_2,
        _opts_from(args),
    )
    print(f"r-forward {_fmt(bound.r_forward)}")
    print(f"r-backward {_fmt(bound.r_backward)}")
    print(f"product {_fmt(bound.product)}")
    return 0


def _cmd_continuity_check(args) -> int:
    report = continuity_bound_check(
        load_state(getattr(args, "from")),
        load_state(args.to),
        load_state(args.tau),
        opts=_opts_from(args),
    )
    print(f"epsilon {_fmt(report.epsilon)}")
    print(f"lhs {_fmt(report.lhs)}")
    print(f"rhs {_fmt(report.rhs)}")
    print(f"slack {_fmt(report.slack)}")
    print(f"holds {int(report.holds)}")
    return 0


def _cmd_thermo_free_energy(args) -> int:
    print(_fmt(free_energy(load_thermo_scenario(args.scenario), args.variant).f))
    return 0


def _cmd_thermo_f_max(args) -> int:
    print(_fmt(f_max(load_thermo_scenario(args.scenario)).f))
    return 0


def _cmd_thermo_feasible(args) -> int:
    print(thermo_feasible(load_thermo_scenario(getattr(args, "from")), load_thermo_scenario(args.to)))
    return 0


def _cmd_thermo_self_dilution(args) -> int:
    report = thermo_self_dilution(load_thermo_scenario(args.scenario))
    print(f"r {_fmt(report.r)}")
    print(f"r-prime {_fmt(report.r_prime)}")
    print(f"product {_fmt(report.product)}")
    print(f"at-gibbs {int(report.at_gibbs)}")
    return 0


def _cmd_dilution_curve(args) -> int:
    points = self_dilution_curve(args.alpha_min, args.alpha_max, args.steps)
    _emit(curve_to_csv(points), args.out)
    return 0


def _cmd_embezzle_demo(args) -> int:
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError:
        raise ParseError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    _emit(embezzlement_to_csv(embezzlement_demo(dims)), args.out)
    return 0


def _cmd_search_pair(args) -> int:
    result = search_nonequivalent_pair(
        args.measure_1, args.measure_2, seed=args.seed, budget=args.budget, margin=args.margin
    )
    print(f"samples {result.samples_used}")
    print(f"rho {_fmt(result.values_rho[0])} {_fmt(result.values_rho[1])}")
    print(f"sigma {_fmt(result.values_sigma[0])} {_fmt(result.values_sigma[1])}")
    product = multi_measure_bound(result.rho, result.sigma, args.measure_1, args.measure_2).product
    print(f"product {_fmt(product)}")
    if args.save_rho is not None:
        save_state(result.rho, args.save_rho)
    if args.save_sigma is not None:
        save_state(result.sigma, args.save_sigma)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entbat",
        description=(
            "Entanglement batteries: evaluate measures, decide state conversions, "
            "plan copy rates, and run the thermodynamic analogue."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate one measure on one state file")
    _add_measure_flag(p)
    p.add_argument("--state", required=True, help="state JSON file")
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("feasible", help="can --from convert to --to without draining the battery")
    _add_measure_flag(p)
    p.add_argument("--from", required=True, help="source state JSON file")
    p.add_argument("--to", required=True, help="target state JSON file")
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("rate", help="conversion rate E(from)/E(to) with a rational plan below it")
    _add_measure_flag(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("zero-error", help="exact many-copy plan (additive measures only)")
    _add_measure_flag(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_zero_error)

    p = sub.add_parser("swap", help="run the swap protocol and report the battery balance")
    _add_measure_flag(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser(
        "multi-measure", help="rate bounds when two measures must both stay monotone"
    )
    _add_measure_flag(p, "--measure-1")
    p.add_argument("--measure-2", required=True, choices=MEASURE_IDS, help="second measure id")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_multi_measure)

    p = sub.add_parser(
        "continuity-check",
        help="compare a variational-measure jump against its dimension-scaled bound",
    )
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--tau", required=True, help="shared battery state JSON file")
    # Reduced default budget: this check optimizes on product spaces.
    _add_optimizer_flags(p, restarts=2, max_iters=1000)
    p.set_defaults(func=_cmd_continuity_check)

    p = sub.add_parser("thermo", help="free-energy battery on thermo scenario files")
    tsub = p.add_subparsers(dest="thermo_command", required=True)

    tp = tsub.add_parser("free-energy", help="free energy of a scenario, in bits")
    tp.add_argument("--scenario", required=True, help="thermo scenario JSON file")
    tp.add_argument(
        "--variant",
        default=STANDARD_OFFSET,
        choices=[STANDARD_OFFSET, RELATIVE_TO_GIBBS],
        help="include the -log2 Z offset or measure from the Gibbs state",
    )
    tp.set_defaults(func=_cmd_thermo_free_energy)

    tp = tsub.add_parser("f-max", help="max-relative-entropy free energy of a scenario")
    tp.add_argument("--scenario", required=True)
    tp.set_defaults(func=_cmd_thermo_f_max)

    tp = tsub.add_parser("feasible", help="thermal conversion verdict between two scenarios")
    tp.add_argument("--from", required=True)
    tp.add_argument("--to", required=True)
    tp.set_defaults(func=_cmd_thermo_feasible)

    tp = tsub.add_parser("self-dilution", help="distill-then-dilute copy gain for a qubit scenario")
    tp.add_argument("--scenario", required=True)
    tp.set_defaults(func=_cmd_thermo_self_dilution)

    p = sub.add_parser("dilution-curve", help="CSV of E_n/E_c over partially entangled pures")
    p.add_argument("--alpha-min", type=float, default=0.01)
    p.add_argument("--alpha-max", type=float, default=ALPHA_MAX)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_dilution_curve)

    p = sub.add_parser("embezzle-demo", help="geometric-measure amplification table as CSV")
    p.add_argument("--dims", default="2,3,4,5,9,17", help="comma-separated Schmidt ranks")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_embezzle_demo)

    p = sub.add_parser(
        "search-pair", help="hunt for states that two measures order oppositely"
    )
    p.add_argument("--measure-1", required=True, choices=MEASURE_IDS)
    p.add_argument("--measure-2", required=True, choices=MEASURE_IDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100_000, help="sample budget before giving up")
    p.add_argument("--margin", type=float, default=1e-3, help="required value separation")
    p.add_argument("--save-rho", default=None, help="write the found source state here")
    p.add_argument("--save-sigma", default=None, help="write the found target state here")
    p.set_defaults(func=_cmd_search_pair)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EntbatError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
