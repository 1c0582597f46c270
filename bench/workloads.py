"""Benchmark workloads: the operations each workload runs, made from a seed.

An operation is either a CLI command (``argv``, run through ``eqfid.cli.main``)
or a call of a public ``eqfid`` function (``func`` and ``args``). Simulate
commands also carry their parameters under ``sim`` so that the checker can
build an exact reference; the workload process never reads ``sim``.

Why these workloads:

- ``mc-uniform``: uniform phases, so every trial needs a fresh outcome law.
  N=60 is dominated by the O(N^2) dense row computation, N=1 by draws,
  inverse-CDF sampling, the exact reduction and per-trial storage, and the
  full-mixed N=12 run pays the 2^N harmonic set-up and computes mixed rows.
- ``mc-fixed``: fixed phases, so every trial shares one outcome law. A row
  cache would do most of its work here and none in ``mc-uniform``.
- ``closed-forms``: no Monte Carlo; numerics, cloning, povm, strategies and
  verify do all the work, which only set-up reaches in the other two.

Trial counts were set from each operation's measured share of its workload's
time, which run.py prints with every end-to-end run: on a 2-core x86-64 box
each simulate command takes about a third of mc-uniform's and half of
mc-fixed's operation time, and one workload process takes 1.1-1.5 s. The full-mixed command spends about
half its time in its 2^N set-up and half in mixed rows. The seed changes
random streams and input values, not the amount of work.
"""

import math
import random

WORKLOADS = ("mc-uniform", "mc-fixed", "closed-forms")

FIXED_PHASE_A = 0.4
FIXED_PHASE_B = 1.9


def simulate_op(strategy, n, trials, seed, phase_a=None, phase_b=None, mixed_mode="analytic"):
    """A ``simulate`` command; phases of None mean uniform."""
    argv = ["simulate", "--strategy", strategy, "--n", str(n), "--trials", str(trials),
            "--seed", str(seed), "--mixed-mode", mixed_mode]
    for flag, phase in (("--phase-a", phase_a), ("--phase-b", phase_b)):
        if phase is not None:
            argv += [flag, repr(phase)]
    mode = "-full" if mixed_mode == "full" else ""
    fixed = "-fixed" if phase_a is not None or phase_b is not None else ""
    return {
        "id": f"simulate-{strategy}-n{n}{mode}{fixed}",
        "argv": argv,
        "sim": {"strategy": strategy, "n": n, "trials": trials, "seed": seed,
                "phase_a": phase_a, "phase_b": phase_b, "mixed_mode": mixed_mode},
    }


def cli_op(*argv):
    return {"id": str(argv[0]), "argv": [str(a) for a in argv]}


def call_op(func, *args):
    return {"id": f"{func}({', '.join(map(str, args))})", "func": func, "args": list(args)}


def build(name, seed):
    """The operations of workload ``name``; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")

    def mc_seed():
        return rng.randrange(2**32)

    if name == "mc-uniform":
        return [
            simulate_op("measurement", 60, 50_000, mc_seed()),
            simulate_op("measurement", 1, 600_000, mc_seed()),
            simulate_op("unified-collective", 12, 120_000, mc_seed(), mixed_mode="full"),
        ]
    if name == "mc-fixed":
        fixed = {"phase_a": FIXED_PHASE_A, "phase_b": FIXED_PHASE_B}
        return [
            simulate_op("measurement", 30, 100_000, mc_seed(), **fixed),
            simulate_op("unified-collective", 12, 120_000, mc_seed(), mixed_mode="full", **fixed),
        ]
    if name == "closed-forms":
        ops = [
            cli_op("curves", "--n-min", 1, "--n-max", 60),
            cli_op("verify", "--n-max", 60),
            cli_op("povm", "--n", 60, "--phase", repr(rng.uniform(0.0, 2.0 * math.pi))),
        ]
        # One unequal pair per decade; the 10^6 one dominates the workload.
        for decade in (3, 4, 5, 6):
            top = 10**decade
            ops.append(call_op("p_unified_collective_unequal", rng.randint(1, 4),
                               rng.randint(top - top // 1000, top)))
        # Large N, below N = 1023 where mean_fidelity_closed overflows.
        for n in (rng.randint(500, 1000), rng.randint(1001, 1022)):
            ops.append(call_op("p_measurement", n))
            ops.append(call_op("p_unified_collective", n))
        return ops
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def setup_ops(ops):
    """The set-up variant of a workload: each simulate command with one trial."""
    return [simulate_op(**{**op["sim"], "trials": 1}) for op in ops if "sim" in op]


def work_units(op):
    """Units of work an operation counts toward ``work_per_s``: simulated
    trials for a simulate command, one for any other operation."""
    return op["sim"]["trials"] if "sim" in op else 1
