"""Command-line interface: curve tables, Monte Carlo runs, measurement
inspection and the invariant verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(an N past the measurement-basis cap or a trial count past TRIALS_CAP; a
MemoryError when a simulate workspace or block allocation fails), 3 I/O
error. The only environment override is EQFID_OUT_DIR, which prefixes
relative --out paths; all science parameters are flags.
"""

import argparse
import functools
import json
import math
import os
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


def fmt(x: float) -> str:
    """Render a float at 17 significant digits (round-trips exactly)."""
    return format(x, ".17g")


def _resolve_out(path_str: str | None) -> Path | None:
    if path_str is None:
        return None
    path = Path(path_str)
    base = os.environ.get("EQFID_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, newline="\n")


def _parse_phase(raw: str, degrees: bool) -> float | None:
    """The phase the laws read and the output echoes, in [0, 2 pi); None for 'uniform'."""
    if raw.strip().lower() == "uniform":
        return None
    value = float(raw)
    return as_phase(math.radians(value) if degrees else value)


def cmd_curves(args) -> int:
    out = _resolve_out(args.out)
    # The script goes to out with suffix .gp, so an out ending in .gp would be overwritten.
    if args.gnuplot and (out is None or out.suffix == ".gp" or args.format != "csv"):
        raise ValueError("--gnuplot requires --format csv and an --out path not ending in .gp")
    rows = [tuple(vars(p).values()) for p in curve_table(args.n_min, args.n_max)]
    # The first field, n_copies, is written as N in CSV and n in JSON.
    names = [f.name for f in fields(StrategyCurvePoint)][1:]
    if args.format == "csv":
        lines = [",".join(["N", *names])]
        lines += [",".join([str(n), *map(fmt, values)]) for n, *values in rows]
        _emit("\n".join(lines) + "\n", out)
    else:
        table = [{"n": n, **dict(zip(names, values))} for n, *values in rows]
        _emit(json.dumps(table, indent=2) + "\n", out)
    if args.gnuplot:
        out.with_suffix(".gp").write_text(_gnuplot_script(out.name), newline="\n")
    return 0


def _gnuplot_script(csv_name: str) -> str:
    # gnuplot counts columns from 1; the CSV's are StrategyCurvePoint's fields.
    column = {f.name: i for i, f in enumerate(fields(StrategyCurvePoint), 1)}
    return (
        "set datafile separator ','\n"
        "set xlabel 'ensemble size N'\n"
        "set ylabel 'probability of correct fidelity reconstruction'\n"
        "set key bottom right\n"
        f"plot '{csv_name}' skip 1 using 1:{column['p_measurement']}"
        " with points pt 7 title 'measurement', \\\n"
        f"     '{csv_name}' skip 1 using 1:{column['p_unified_collective']}"
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
    out = _resolve_out(args.out)
    # The config block echoes every field in order; a uniform phase is None.
    config_echo = {k: "uniform" if v is None else v for k, v in asdict(config).items()}
    if args.format == "json":
        payload = {"config": config_echo, "report": report}
        _emit(json.dumps(payload, indent=2) + "\n", out)
    else:
        row = {**config_echo, **report}
        lines = [
            ",".join(SIMULATE_COLUMNS),
            ",".join(_csv_cell(row[c]) for c in SIMULATE_COLUMNS),
        ]
        _emit("\n".join(lines) + "\n", out)
    return 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return fmt(value) if isinstance(value, float) else str(value)


def cmd_povm(args) -> int:
    phase = _parse_phase(args.phase, args.degrees)
    if phase is None:
        raise ValueError("povm requires a literal phase, not 'uniform'")
    probabilities = outcome_distribution(args.n, phase)
    estimates = phase_estimates(args.n).tolist()
    out = _resolve_out(args.out)
    if args.format == "json":
        payload = {
            "n_copies": args.n,
            "phase": phase,
            "probabilities": probabilities.tolist(),
            "estimated_phases": estimates,
        }
        _emit(json.dumps(payload, indent=2) + "\n", out)
    else:
        lines = ["outcome,probability,estimated_phase"]
        for k, (p, est) in enumerate(zip(probabilities, estimates)):
            lines.append(f"{k},{fmt(float(p))},{fmt(est)}")
        _emit("\n".join(lines) + "\n", out)
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
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
