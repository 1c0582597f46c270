"""Seeded Monte Carlo simulation of the fidelity-estimation strategies.

One kernel, simulate, runs every strategy over registers. A register is one
measured phase with its draw column, its outcome law and its tally name. The
measurement strategy measures ensemble_a and ensemble_b at phi_a and phi_b;
each unified strategy measures one register, difference, at
(phi_b - phi_a) mod 2 pi.

Both outcome laws, pure and full-mixed, are shift covariant, and
povm.covariant_rows builds the rows of each from its Fourier coefficients
(povm.pure_coefficients, povm.mixed_coefficients), both computed in the
(N+1)-dimensional symmetric subspace. A full-mixed trial has one more slot,
N+1, outside the symmetric subspace. Its probability is what a row leaves of
one; no row holds it. mixed_ensemble_distribution evaluates the full-mixed
law in the 2^N space instead; it is the reference the fast route is checked
against, and no simulation uses it.

Outcome laws are built once per distinct law. A fixed phase is a length-1
array, so its register builds one outcome row per block and broadcasts it
against the block's draws; only phases that vary per trial get a row per
trial.

Reproducibility contract
------------------------
All randomness comes from a counter-based Philox stream keyed by the seed.
Trial i consumes exactly the four uniform draws at stream positions
4i .. 4i+3, so the randomness of a trial depends only on (seed, trial index)
and never on how trials are batched across blocks or workers. Outcome tallies
are exact integers and every real accumulation goes through exactly rounded
summation (math.fsum), which is independent of summation order; identical
(seed, config) pairs therefore produce bit-identical reports.

Per-trial uniform layout (columns of the draw matrix):
  0  phase of ensemble a (ignored when the phase is fixed)
  1  phase of ensemble b (ignored when the phase is fixed)
  2  outcome of register ensemble_a or difference
  3  outcome of register ensemble_b, or the fallback phase estimate when a
     full-mixed trial lands outside the symmetric subspace; unused otherwise
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .cloning import cnot_fidelity, gcnot_fidelity, shrinking_factor
from .numerics import TWO_PI, as_phase, clone_state
from .povm import (
    check_cap,
    covariant_rows,
    mixed_coefficients,
    outcome_rows,
    phase_estimates,
    povm_basis,
)
from .strategies import p_measurement, p_unified_collective, p_unified_pair
from .symmetric import EMBEDDING_CAP, dicke_embedding

MEASUREMENT = "measurement"
UNIFIED_PAIR = "unified-pair"
UNIFIED_COLLECTIVE = "unified-collective"
STRATEGIES = (MEASUREMENT, UNIFIED_PAIR, UNIFIED_COLLECTIVE)

ANALYTIC_FACTOR = "analytic"
FULL_MIXED = "full"
MIXED_MODES = (ANALYTIC_FACTOR, FULL_MIXED)

DRAWS_PER_TRIAL = 4
BLOCK = 1 << 16


@dataclass(frozen=True)
class TrialConfig:
    """Configuration of one simulation run; phases of None mean uniform."""

    n_copies: int
    trials: int
    seed: int
    phase_a: float | None = None
    phase_b: float | None = None
    strategy: str = MEASUREMENT
    mixed_mode: str = ANALYTIC_FACTOR

    def __post_init__(self):
        check_cap(self.n_copies)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.mixed_mode not in MIXED_MODES:
            raise ValueError(f"unknown mixed mode {self.mixed_mode!r}")
        for name in ("phase_a", "phase_b"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, as_phase(v).value)


@dataclass(frozen=True)
class TrialReport:
    """Summary statistics of one simulation run.

    mean_overlap_product estimates the strategy's success probability (with
    the analytic gate factor already applied in analytic mode); tallies hold
    exact outcome counts per measured register, each summing to trials.
    perp_probability is the observed frequency of trials outside the
    symmetric subspace and is only set in full-mixed mode.
    """

    strategy: str
    n_copies: int
    trials: int
    seed: int
    mixed_mode: str
    mean_overlap_product: float
    overlap_product_se: float
    mean_abs_fidelity_error: float
    abs_fidelity_error_se: float
    tallies: dict[str, tuple[int, ...]]
    analytic_probability: float
    perp_probability: float | None = None


class _Register(NamedTuple):
    """One measured phase of a trial: its tally name, the draw column that
    samples its outcome, and its phase as a function of (phi_a, phi_b)."""

    tally: str
    column: int
    phase: Callable[[np.ndarray, np.ndarray], np.ndarray]


MEASUREMENT_REGISTERS = (
    _Register("ensemble_a", 2, lambda phi_a, phi_b: phi_a),
    _Register("ensemble_b", 3, lambda phi_a, phi_b: phi_b),
)
UNIFIED_REGISTERS = (
    _Register("difference", 2, lambda phi_a, phi_b: (phi_b - phi_a) % TWO_PI),
)


def mixed_ensemble_distribution(n_copies: int, delta, eta_value: float) -> np.ndarray:
    """Outcome law of the phase measurement on N independent shrunk copies.

    The reference evaluation in the full 2^N space: each projector is
    embedded through the Dicke isometry and rho(delta, eta)^{(x) N} is
    applied matrix free, one qubit factor at a time. simulate samples the
    same law from povm.mixed_coefficients. Returns n_copies + 2 entries: outcomes
    k = 0 .. N followed by the probability of landing outside the symmetric
    subspace, where the phase measurement is undefined. Entries are clamped
    at zero and sum to one.
    """
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    if n_copies > EMBEDDING_CAP:
        raise ValueError(f"full-space evaluation capped at n_copies <= {EMBEDDING_CAP}")
    if not 0.0 <= eta_value <= 1.0:
        raise ValueError(f"shrinking factor must lie in [0, 1], got {eta_value}")
    rho = clone_state(delta, eta_value).matrix
    emb = dicke_embedding(n_copies).astype(complex)
    basis = povm_basis(n_copies)
    p = np.empty(n_copies + 2)
    for k in range(n_copies + 1):
        p[k] = _product_expectation(rho, emb @ basis[:, k], n_copies)
    p[: n_copies + 1] = np.clip(p[: n_copies + 1], 0.0, None)
    p[n_copies + 1] = max(0.0, 1.0 - p[: n_copies + 1].sum())
    return p


def _product_expectation(rho: np.ndarray, w: np.ndarray, n_copies: int) -> float:
    """Re <w| rho^{(x) N} |w> for a 2^N vector w, applying rho one tensor
    factor at a time."""
    v = w.reshape((2,) * n_copies)
    for axis in range(n_copies):
        v = np.moveaxis(np.tensordot(rho, v, axes=([1], [axis])), 0, axis)
    return np.real(np.vdot(w, v.reshape(-1)))


def simulate(config: TrialConfig) -> TrialReport:
    """Run config.trials seeded trials of config.strategy over its registers.

    Each trial scores the product over registers of cos^2((est - phi)/2) and
    the fidelity error |cos^2(est_diff/2) - cos^2(d/2)|, where est_diff and d
    are the estimated and true phase differences (b - a over the two
    measurement registers, the difference register itself otherwise). With
    uniform phases the mean converges to the strategy's success probability.

    Analytic mode samples the pure difference state and multiplies the mean
    by the analytic gate factor. Full-mixed mode instead samples the exact
    outcome law of the shrunk N-copy product state, built in the symmetric
    subspace by povm.mixed_coefficients at every N up to povm.BASIS_CAP; trials
    that land outside the symmetric subspace record a uniformly random phase
    estimate and are counted in perp_probability, and no gate factor is
    applied. The measurement strategy has no gate and ignores mixed_mode.
    """
    n = config.n_copies
    rows = partial(outcome_rows, n)
    full = False
    gate_factor = 1.0
    if config.strategy == MEASUREMENT:
        registers = MEASUREMENT_REGISTERS
        analytic = p_measurement(n)
    else:
        registers = UNIFIED_REGISTERS
        pair = config.strategy == UNIFIED_PAIR
        analytic = p_unified_pair(n) if pair else p_unified_collective(n)
        full = config.mixed_mode == FULL_MIXED
        if full:
            eta = shrinking_factor(1, 2) if pair else shrinking_factor(n, 2 * n)
            rows = partial(covariant_rows, mixed_coefficients(n, eta.value))
        else:
            gate_factor = cnot_fidelity() if pair else gcnot_fidelity(n)
    estimates = phase_estimates(n)

    n_slots = n + 2 if full else n + 1
    values = np.empty(config.trials)
    errors = np.empty(config.trials)
    tallies = {r.tally: np.zeros(n_slots, dtype=np.int64) for r in registers}

    for start, draws in _uniform_blocks(config.seed, config.trials):
        phi_a = _block_phases(draws[:, 0], config.phase_a)
        phi_b = _block_phases(draws[:, 1], config.phase_b)
        # Sample every register before scoring: fewer live arrays while rows are built.
        phis = [r.phase(phi_a, phi_b) for r in registers]
        ks = [
            _sample_rows(rows(phi), draws[:, r.column], n_slots)
            for r, phi in zip(registers, phis)
        ]
        value = 1.0
        est_diff = phase_diff = 0.0
        for register, phi, k in zip(registers, phis, ks):
            if full:
                est = np.where(k <= n, estimates[np.minimum(k, n)], TWO_PI * draws[:, 3])
            else:
                est = estimates[k]
            value = value * np.cos((est - phi) / 2.0) ** 2
            # Differences run register to register, from 0: b - a over two
            # registers, the register itself over one.
            est_diff, phase_diff = est - est_diff, phi - phase_diff
            tallies[register.tally] += np.bincount(k, minlength=n_slots)
        stop = start + len(draws)
        values[start:stop] = value
        errors[start:stop] = np.abs(np.cos(est_diff / 2.0) ** 2 - np.cos(phase_diff / 2.0) ** 2)

    mean, se = _mean_and_se(values)
    err_mean, err_se = _mean_and_se(errors)
    return TrialReport(
        strategy=config.strategy,
        n_copies=n,
        trials=config.trials,
        seed=config.seed,
        mixed_mode=config.mixed_mode,
        mean_overlap_product=mean * gate_factor,
        overlap_product_se=se * gate_factor,
        mean_abs_fidelity_error=err_mean,
        abs_fidelity_error_se=err_se,
        tallies={name: tuple(t.tolist()) for name, t in tallies.items()},
        analytic_probability=analytic,
        perp_probability=(tallies["difference"][-1] / config.trials) if full else None,
    )


def _uniform_blocks(seed: int, trials: int):
    """Yield (start, draws) blocks; draw j of trial i is stream item 4i+j."""
    rng = np.random.Generator(np.random.Philox(seed))
    done = 0
    while done < trials:
        b = min(BLOCK, trials - done)
        yield done, rng.random((b, DRAWS_PER_TRIAL))
        done += b


def _block_phases(column: np.ndarray, fixed: float | None) -> np.ndarray:
    """Per-trial phases, or one phase that every trial of the block shares:
    its outcome row is built once and broadcast against the block's draws."""
    if fixed is None:
        return TWO_PI * column
    return np.array([fixed])


def _sample_rows(probability_rows: np.ndarray, uniforms: np.ndarray, n_slots: int) -> np.ndarray:
    """Inverse-CDF sample of one categorical outcome per row, among n_slots.

    A row may hold fewer than n_slots entries: a draw past the row's sum
    lands in the last slot, which takes what the row leaves of one (the
    full-mixed perp outcome), or absorbs rounding when the row sums to one.
    """
    k = (np.cumsum(probability_rows, axis=1) < uniforms[:, None]).sum(axis=1)
    return np.minimum(k, n_slots - 1)


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """Exactly rounded mean and standard error of the mean."""
    n = len(values)
    total = math.fsum(values.tolist())
    mean = total / n
    if n < 2:
        return mean, 0.0
    square_total = math.fsum((values * values).tolist())
    variance = max(0.0, (square_total - n * mean * mean) / (n - 1))
    return mean, math.sqrt(variance / n)
