"""Command-line interface: curve tables, Monte Carlo runs, measurement
inspection and the invariant verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(an N past the measurement-basis cap or a trial count past TRIALS_CAP; a
MemoryError when a simulate workspace or block allocation fails), 3 I/O
error. Every parameter is a flag; --out takes any absolute or relative
path, and without it the output goes to stdout.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import montecarlo
from .montecarlo import TrialConfig, TrialReport, simulate
from .numerics import as_phase
from .povm import outcome_distribution, phase_estimates
from .strategies import StrategyCurvePoint, curve_table
from .verify import run_checks

_CONFIG_FIELDS = [f.name for f in fields(TrialConfig)]
_REPORT_SCALARS = [f.name for f in fields(TrialReport) if f.name != "tallies"]
# The simulate CSV row: the configuration fields the report repeats, then the
# phases only the configuration holds, then the report's results.
SIMULATE_COLUMNS = (
    *[c for c in _REPORT_SCALARS if c in _CONFIG_FIELDS],
    *[c for c in _CONFIG_FIELDS if c not in _REPORT_SCALARS],
    *[c for c in _REPORT_SCALARS if c not in _CONFIG_FIELDS],
)


def _write(args, header, rows, payload) -> None:
    """Write a command's output in its --format, to --out or else stdout.

    Only CSV reads rows (each a sequence of cells under header) and only JSON
    calls payload, so a command builds just the format asked for.
    """
    if args.format == "json":
        text = json.dumps(payload(), indent=2) + "\n"
    else:
        # One rule for every cell: a float at 17 significant digits (it
        # round-trips exactly), None empty, anything else as str.
        cells = iter(["%.17g" % c if isinstance(c, float) else "" if c is None else str(c)
                      for row in rows for c in row])
        # Each zip step draws the next len(header) cells: one line.
        lines = map(",".join, zip(*[cells] * len(header)))
        text = "\n".join([",".join(header), *lines]) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, newline="\n")


def _parse_phase(raw: str, degrees: bool) -> float | None:
    """The phase the laws read and the output echoes, in [0, 2 pi); None for 'uniform'."""
    if raw.strip().lower() == "uniform":
        return None
    value = float(raw)
    return as_phase(math.radians(value) if degrees else value)


def cmd_curves(args) -> int:
    # The script goes to out with suffix .gp, so an out ending in .gp would be overwritten.
    if args.gnuplot and (args.format != "csv" or args.out is None
                         or Path(args.out).suffix == ".gp"):
        raise ValueError("--gnuplot requires --format csv and an --out path not ending in .gp")
    rows = [vars(p).values() for p in curve_table(args.n_min, args.n_max)]
    # The first field, n_copies, is written as N in CSV and n in JSON.
    names = [f.name for f in fields(StrategyCurvePoint)][1:]
    _write(args, ["N", *names], rows, lambda: [dict(zip(["n", *names], row)) for row in rows])
    if args.gnuplot:
        out = Path(args.out)
        out.with_suffix(".gp").write_text(_gnuplot_script(out.name), newline="\n")
    return 0


def _gnuplot_script(csv_name: str) -> str:
    # gnuplot counts columns from 1; the CSV's are StrategyCurvePoint's fields.
    column = {f.name: i for i, f in enumerate(fields(StrategyCurvePoint), 1)}
    # A single-quoted gnuplot string writes each ' as ''.
    name = csv_name.replace("'", "''")
    return (
        "set datafile separator ','\n"
        "set xlabel 'ensemble size N'\n"
        "set ylabel 'probability of correct fidelity reconstruction'\n"
        "set key bottom right\n"
        f"plot '{name}' skip 1 using 1:{column['p_measurement']}"
        " with points pt 7 title 'measurement', \\\n"
        f"     '{name}' skip 1 using 1:{column['p_unified_collective']}"
        " with points pt 5 title 'collective unified'\n"
    )


def cmd_simulate(args) -> int:
    config = TrialConfig(
        strategy=args.strategy,
        n_copies=args.n,
        trials=args.trials,
        seed=args.seed,
        phase_a=_parse_phase(args.phase_a, args.degrees),
        phase_b=_parse_phase(args.phase_b, args.degrees),
        mixed_mode=args.mixed_mode,
    )
    report = asdict(simulate(config))
    # The config block echoes every field in order; a uniform phase is None.
    config_echo = {k: "uniform" if v is None else v for k, v in asdict(config).items()}
    row = {**config_echo, **report}
    _write(args, SIMULATE_COLUMNS, [[row[c] for c in SIMULATE_COLUMNS]],
           lambda: {"config": config_echo, "report": report})
    return 0


def cmd_povm(args) -> int:
    phase = _parse_phase(args.phase, args.degrees)
    if phase is None:
        raise ValueError("povm requires a literal phase, not 'uniform'")
    probabilities = outcome_distribution(args.n, phase).tolist()
    estimates = phase_estimates(args.n).tolist()
    _write(args, ["outcome", "probability", "estimated_phase"],
           zip(range(args.n + 1), probabilities, estimates),
           lambda: {"n_copies": args.n, "phase": phase, "probabilities": probabilities,
                    "estimated_phases": estimates})
    return 0


def cmd_verify(args) -> int:
    results = run_checks(args.n_max)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


# argparse keeps no state between parses, so one parser serves every main call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqfid",
        description="Fidelity-estimation strategies for finite ensembles of "
        "equatorial qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curves = sub.add_parser("curves", help="emit the per-N strategy comparison table")
    curves.add_argument("--n-min", type=int, required=True)
    curves.add_argument("--n-max", type=int, required=True)
    curves.add_argument("--format", choices=("csv", "json"), default="csv")
    curves.add_argument("--out", help="output path (default stdout)")
    curves.add_argument("--gnuplot", action="store_true",
                        help="also write a gnuplot script next to the CSV")
    curves.set_defaults(func=cmd_curves)

    simulate_p = sub.add_parser("simulate", help="run a seeded Monte Carlo simulation")
    simulate_p.add_argument("--strategy", choices=montecarlo.STRATEGIES, required=True)
    simulate_p.add_argument("--n", type=int, required=True, help="copies per ensemble")
    simulate_p.add_argument("--trials", type=int, required=True)
    simulate_p.add_argument("--seed", type=int, default=0)
    for flag in ("--phase-a", "--phase-b"):
        simulate_p.add_argument(flag, default="uniform", help="radians, or the word 'uniform'")
    simulate_p.add_argument("--mixed-mode", choices=montecarlo.MIXED_MODES,
                            default=montecarlo.ANALYTIC_FACTOR)
    simulate_p.add_argument("--format", choices=("json", "csv"), default="json")
    simulate_p.add_argument("--out", help="output path (default stdout)")
    simulate_p.add_argument("--degrees", action="store_true", help="interpret phases as degrees")
    simulate_p.set_defaults(func=cmd_simulate)

    povm = sub.add_parser("povm", help="print the outcome law at one phase")
    povm.add_argument("--n", type=int, required=True)
    povm.add_argument("--phase", default="0.0", help="radians")
    povm.add_argument("--degrees", action="store_true")
    povm.add_argument("--format", choices=("json", "csv"), default="json")
    povm.add_argument("--out", help="output path (default stdout)")
    povm.set_defaults(func=cmd_povm)

    verify = sub.add_parser("verify", help="check the paper's claims and cross-module invariants")
    verify.add_argument("--n-max", type=int, default=30)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # MemoryError: a simulate workspace or block allocation failed.
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
