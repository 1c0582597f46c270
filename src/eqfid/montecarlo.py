"""Seeded Monte Carlo simulation of the fidelity-estimation strategies.

One kernel, simulate, runs every strategy over registers. A register is one
measured phase: a (tally, outcome column, fixed phase or None) tuple built
from the config, whose offset column is the outcome column + 2. The
measurement strategy measures ensemble_a and ensemble_b at phi_a and phi_b;
each unified strategy measures one register, difference, at
as_phase(phi_b - phi_a), in [0, 2 pi). The pairwise gate is the collective
N -> 2N gate at N = 1, so the two unified strategies differ only in the
gate size.

Both outcome laws, pure and full-mixed, are shift covariant,
p_k(phi) = q(phi - est_k), and one vector of Fourier coefficients describes
each. One builder in the (N+1)-dimensional symmetric subspace,
povm.mixed_coefficients, gives both: a short sum of rank-one terms, whose
first alone is the pure law (eta = 1). A full-mixed trial has one more slot,
N+1, outside the symmetric subspace. Its probability is what the law leaves
of one, 1 - (N+1) c_0; no row holds it.
mixed_ensemble_distribution evaluates the full-mixed law in the 2^N space
instead, from the shrunk 2x2 copy it builds itself; it is the reference the
fast route is checked against, and no simulation uses it.

A register with a fixed phase builds one outcome row per run
(povm.covariant_rows, one FFT) and finds each trial's outcome in the row's
CDF by povm.guide_search, which the offset sampler finds its cells with:
np.searchsorted's answers, side right, so no outcome of probability zero is
drawn. A register whose phase is uniform builds no row: it samples phase
and outcome jointly. The outcome is then uniform over the N+1 slots of weight c_0 (the
perp slot takes the rest), and the offset theta = phi - est_k has one fixed
law, sampled by povm.offset_sampler; phi = est_k + theta (mod 2 pi). The
difference of two phases is uniform when either phase is.

When every phase is fixed, a trial's score and fidelity error depend only on
its outcome cell, one slot per register, apart from a full-mixed perp trial,
whose estimate is random. If a run has at most BLOCK cells ((N+1)^2 for
measurement, so N <= 180; N+1 or N+2 for the unified strategies), each
block builds its trials' cell indices in place, register i's slot as digit
i base n_slots, histograms them and scores only its perp trials, one by
one; after the blocks, the histogram serves only to score each live cell
once, as one of its trials, weighted by its count (_cell_sums). _score
scores every trial and every cell, so the report has the bits of
trial-by-trial scoring. Past the bound a block's histogram would cost more
than its trials, and every trial is scored, as with a uniform phase.

Blocks and workers
------------------
Trials run in blocks of BLOCK, all by one block function. A block seeks its
own place in the random stream, finds every register's outcome and tallies
each register by its own np.bincount; then it histograms the outcome cells
(an all-fixed run within the bound) or samples and scores every trial. It
returns its partial results: the tally rows, the cell histogram (0 when
there is none) and the exact integer numerators (_exact_sum, by error-free
extraction in float adds) of the sums of the score, its square, the
fidelity error and its square over the trials it scored. The blocks split
into contiguous ranges, one per CPU the process may run on
(os.sched_getaffinity, which taskset limits), at most one per block. The
first range runs on the calling thread, each other one on a thread of its
own, and the calling thread adds the ranges' partials; the integers add
exactly in any order. Each range allocates one workspace, sized to its
largest block: twelve rows of eight bytes a trial, 96 B, the draw matrix's
four included, which every block writes into with out= (the offset
sampler's and the outcome search's too), each row holding several arrays in
turn (_workspace gives the row map). No block allocates a block-sized array,
so memory does not grow with the trial count (TRIALS_CAP bounds the run
time instead) and no block faults in memory that the last one freed.

Reproducibility contract
------------------------
All randomness comes from a counter-based Philox stream keyed by the seed.
Trial i consumes exactly the four uniform draws at stream positions
4i .. 4i+3, so the randomness of a trial depends only on (seed, trial index)
and never on how trials are batched across blocks or workers; each sampled
offset is a function of its own uniform alone. Outcome tallies are exact
integers and every real accumulation is an exact integer numerator, rounded
once at the end (the same bits as math.fsum), which is independent of
summation order, block size and worker count; identical (seed, config)
pairs therefore produce bit-identical reports.

Per-trial uniform layout (columns of the draw matrix):
  0  outcome of register ensemble_a or difference when its phase is uniform
     (a slot past N is the full-mixed perp slot)
  1  outcome of register ensemble_b when its phase is uniform
  2  offset of register ensemble_a or difference when its phase is uniform,
     or the phase itself when a full-mixed trial lands outside the symmetric
     subspace; its outcome when its phase is fixed
  3  offset of register ensemble_b when its phase is uniform, its outcome
     when fixed; for difference, the fallback phase estimate when a
     full-mixed trial lands outside the symmetric subspace
"""

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cloning import _eta
from .numerics import TWO_PI, as_phase, check_cap, check_int
from .povm import (
    covariant_rows,
    guide_search,
    mixed_coefficients,
    offset_sampler,
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
BLOCK = 1 << 15
# About four days of trials at 3M trials per second.
TRIALS_CAP = 10**12
# _exact_sum numerators count units of 2^-1074, the smallest subnormal, of
# which every float is a whole number.
SUM_DENOMINATOR = 1 << 1074


@dataclass(frozen=True, kw_only=True)
class TrialConfig:
    """Configuration of one simulation run; phases of None mean uniform. The
    fields are in the order of the report's config block."""

    strategy: str = MEASUREMENT
    n_copies: int
    trials: int
    seed: int
    phase_a: float | None = None
    phase_b: float | None = None
    mixed_mode: str = ANALYTIC_FACTOR

    def __post_init__(self):
        # Integer fields become ints (bools and numpy ints too); a float raises
        # TypeError here, not deep inside simulate.
        for name, value in (("n_copies", check_cap(self.n_copies)),
                            ("trials", check_int(self.trials, "trials", 1, TRIALS_CAP)),
                            ("seed", check_int(self.seed, "seed", 0))):
            object.__setattr__(self, name, value)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.mixed_mode not in MIXED_MODES:
            raise ValueError(f"unknown mixed mode {self.mixed_mode!r}")
        for name in ("phase_a", "phase_b"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, as_phase(v))


@dataclass(frozen=True)
class TrialReport:
    """Summary statistics of one simulation run.

    mean_overlap_product estimates the strategy's success probability (with
    the analytic gate factor already applied in analytic mode); tallies hold
    exact outcome counts per measured register, each summing to trials.
    perp_probability is the observed frequency of trials outside the
    symmetric subspace and is only set in full-mixed mode.
    analytic_probability is the strategy's closed form for uniform phases:
    the run's expectation only with uniform phases in analytic mode, as
    full-mixed and fixed-phase runs estimate other numbers.
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
    n_copies = check_int(n_copies, "n_copies", 1, EMBEDDING_CAP)
    if not 0.0 <= eta_value <= 1.0:
        raise ValueError(f"shrinking factor must lie in [0, 1], got {eta_value}")
    # The shrunk copy eta |psi(delta)><psi(delta)| + (1 - eta) I/2.
    amp = np.array([1.0, np.exp(1j * as_phase(delta))]) / math.sqrt(2.0)
    identity = np.eye(2, dtype=complex)
    rho = eta_value * np.outer(amp, amp.conj()) + (1.0 - eta_value) / 2.0 * identity
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
    measurement registers, the difference register itself otherwise).

    Analytic mode samples only the phase estimation of the pure difference
    state and scales the mean and its se by the closed-form gate factor: the
    unified strategies draw the same samples, and a uniform-phase run checks
    fbar(N), not the gate. Full-mixed mode samples N independent shrunk
    copies, a product state (its law from povm.mixed_coefficients), with no
    gate factor; a trial outside the symmetric subspace takes a uniform phase
    estimate (perp_probability). The uniform-phase mean, 1/2 + (N+1) c_1 / 4,
    puts the collective strategy below measurement from N = 5. Measurement has
    no gate; it ignores mixed_mode.
    """
    n = config.n_copies
    # The gate's shrinking factor; the measurement strategy has no gate.
    eta, full = 1.0, False
    # Registers: (tally, outcome column, fixed phase or None).
    if config.strategy == MEASUREMENT:
        registers = [("ensemble_a", 0, config.phase_a), ("ensemble_b", 1, config.phase_b)]
        analytic = p_measurement(n)
    else:
        a, b = config.phase_a, config.phase_b
        registers = [("difference", 0, None if a is None or b is None else as_phase(b - a))]
        pair = config.strategy == UNIFIED_PAIR
        analytic = p_unified_pair(n) if pair else p_unified_collective(n)
        size = 1 if pair else n
        eta = _eta(size, 2 * size)
        full = config.mixed_mode == FULL_MIXED
    # One law per run: the shrunk one in full-mixed mode, else the pure one,
    # whose mean the gate factor (1 + eta) / 2 scales. Its coefficient vector
    # feeds the fixed-phase rows and the offset sampler.
    coeffs = mixed_coefficients(n, eta if full else 1.0)
    gate_factor = 1.0 if full else (1.0 + eta) / 2.0
    estimates = phase_estimates(n)
    n_slots = n + 2 if full else n + 1
    phases = [fixed for _, _, fixed in registers]
    # A fixed phase has one outcome law for the whole run. Searching only the
    # first n_slots - 1 CDF entries puts a pure draw past the row's rounded
    # sum in slot N, and a full-mixed one in the perp slot, N+1.
    searches = [None if fixed is None else
                guide_search(np.cumsum(covariant_rows(coeffs, [fixed])[0])[: n_slots - 1])
                for fixed in phases]
    offsets = offset_sampler(coeffs) if any(fixed is None for fixed in phases) else None
    # With every phase fixed a trial's score depends only on its outcome cell,
    # one slot per register, and on a perp trial's random estimate.
    cells = n_slots ** len(registers)
    by_cell = all(fixed is not None for fixed in phases) and cells <= BLOCK

    # The draw columns a block still needs once every outcome is found:
    # each uniform register's offsets and, in full-mixed mode, the perp
    # estimate's.
    kept = {column + 2 for _, column, fixed in registers if fixed is None}
    if full:
        kept.add(3)

    def block(start: int, stop: int, ws: _Workspace) -> list:
        """Tallies (one row per register), the cell histogram (0 unless the
        run scores by cell) and the exact numerators of the sums of value,
        value^2, error and error^2 over the trials start .. stop - 1 that it
        scores, in the rows of ws, as _workspace lays them out."""
        m = stop - start
        draws, floats, ints = _draws(config.seed, start, stop, ws)
        slots = ints[: len(registers)]
        # Outcomes first, while the draw matrix is whole.
        for (_, column, fixed), search, k in zip(registers, searches, slots):
            if fixed is None:
                # N+1 slots of weight c_0 each; a full-mixed draw past them
                # lands in the perp slot, where the phase is uniform on its own.
                # The quotient is capped before it becomes an int: from
                # N = 243 the pair gate's c_0 is below 2^-63.
                scratch = np.divide(draws[:, column], coeffs[0], out=floats[0])
                np.copyto(k, np.minimum(scratch, n_slots - 1, out=scratch), casting="unsafe")
            else:
                search(draws[:, column + 2], k, floats[0], ints[2])
        counts = np.array([np.bincount(k, minlength=n_slots) for k in slots])
        spare = draws.reshape(DRAWS_PER_TRIAL, -1)
        histogram = 0
        if by_cell:
            # Register i's slot is digit i, base n_slots: one register's
            # cells are its slots, whose tally is the histogram.
            cell = slots[0]
            for k in slots[1:]:
                cell *= n_slots
                cell += k
            histogram = np.bincount(cell, minlength=cells) if len(slots) > 1 else counts[0]
            if not full:
                return [counts, histogram, 0, 0, 0, 0]
            # Full-mixed runs have one register, difference, whose last cell
            # is perp. A perp trial's estimate is random: score those trials
            # one by one.
            perp = np.greater(cell, n, out=ints[2].view(bool)[:m])
            ests = [np.compress(perp, draws[:, 3], out=floats[3, : histogram[-1]])]
            ests[0] *= TWO_PI
            phis = [np.array([phases[0]])]
        else:
            # The draw columns still needed, column c into float row c - 2;
            # the draw matrix's memory is then four more float rows.
            for column in kept:
                np.copyto(floats[column - 2], draws[:, column])
            phis = []
            for i, fixed in enumerate(phases):
                if fixed is not None:
                    phis.append(np.array([fixed]))
                    continue
                # The sixth scratch row is free: register 0 borrows register
                # 1's phi row before it is written, register 1 register 0's
                # spent offsets (only measurement has two registers, never
                # full-mixed).
                phi = offsets(floats[i], (floats[2 + i], *spare, floats[0 if i else 3]), ints[2:])
                # Only cos^2 of phase differences is scored: phi needs no
                # reduction mod 2 pi.
                np.add(np.take(estimates, slots[i], out=spare[0], mode="clip"), phi, out=phi)
                phis.append(phi)
            # Mode "clip" reads est_N at the perp slot, k = N+1.
            ests = [np.take(estimates, k, out=row, mode="clip") for k, row in zip(slots, spare)]
            if full:
                perp = np.greater(slots[0], n, out=ints[2].view(bool)[:m])
                if phases[0] is None:
                    np.multiply(floats[0], TWO_PI, out=phis[0], where=perp)
                np.multiply(floats[1], TWO_PI, out=ests[0], where=perp)
        value, scratch = spare[2:, : len(ests[0])]
        error = _score(ests, phis, value, scratch)
        return [counts, histogram, *_moment_sums(value, error, floats[:3])]

    counts, histogram, *sums = _sum_blocks(block, config.trials)
    if by_cell:
        # The blocks scored the perp cell's trials; score the other cells.
        inside = histogram.reshape((n_slots,) * len(registers))[(slice(0, n + 1),) * len(registers)]
        sums = [a + b for a, b in zip(sums, _cell_sums(inside, phases, estimates))]
    value_sum, value_squares, error_sum, error_squares = sums
    mean, se = _mean_and_se(value_sum, value_squares, config.trials)
    err_mean, err_se = _mean_and_se(error_sum, error_squares, config.trials)
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
        tallies={tally: tuple(row.tolist()) for (tally, _, _), row in zip(registers, counts)},
        analytic_probability=analytic,
        # Full-mixed runs have one register, difference; its last slot is perp.
        perp_probability=(counts[0][-1] / config.trials) if full else None,
    )


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, which taskset
    limits, on platforms that have one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Workspace(NamedTuple):
    """Every block-sized array of one worker's blocks: the draw matrix, and
    float and intp scratch rows that block lays out and reuses."""

    draws: np.ndarray
    floats: np.ndarray
    ints: np.ndarray


def _workspace(rows: int) -> _Workspace:
    """A workspace for blocks of up to rows trials: twelve rows of eight
    bytes a trial, 96 B. Every block uses them in this order.

    - Outcomes, while the draw matrix (four rows) is whole: int row i takes
      register i's slot; float row 0 and int row 2 are scratch, for the
      quotient of a uniform register's outcome draw or the guide search of
      a fixed one's.
    - The all-fixed branch then builds the cell index in int row 0. In
      full-mixed mode it scores its perp trials alone: int row 2 takes the
      perp mask, float row 3 their estimates, read from draw column 3, and
      then the error; the first entries of spare rows 2-3 the score and
      the scorer's scratch, and float rows 0-2 the moment sums. The other
      blocks go on as follows.
    - Float row c - 2 then takes draw column c, each that is still needed:
      column 2 + i for register i's offset uniforms, and column 3 for the
      full-mixed perp estimate. The draw matrix's memory is then four more
      float rows, spare rows 0-3.
    - Register i's offsets: the offset sampler writes them into float row
      2 + i, where they become phi, and takes as scratch spare rows 0-3,
      float row 3 (register 0) or 0 (register 1, once register 0's offsets
      are spent) and int rows 2-3.
    - Scoring: spare row i takes register i's estimates and then, in the
      last one, the fidelity error; spare row 2 the score, row 3 the
      scorer's scratch; int row 2 the perp mask. The moment sums take float
      rows 0-2.

    np.empty touches no page, so rows that a run never writes take no
    memory."""
    return _Workspace(np.empty((rows, DRAWS_PER_TRIAL)), np.empty((4, rows)),
                      np.empty((4, rows), dtype=np.intp))


def _sum_blocks(block: Callable[[int, int, _Workspace], list], trials: int) -> list:
    """The elementwise sum of block(start, stop, ws) over the blocks of BLOCK
    trials, whose results are lists of integers and integer arrays.

    One contiguous range of blocks per worker, min(CPUs, blocks) of them: the
    first on the calling thread, each other one on a thread of its own (numpy
    releases the interpreter lock for part of a block's work). Each range
    allocates one workspace, ws, for all its blocks: a block that allocated
    its own arrays would free them to the allocator, which can return them to
    the system, so that the next block faults them in again. An exception in
    any range stops the others after their current block and is raised here.
    """
    starts = range(0, trials, BLOCK)
    workers = min(_cpu_count(), len(starts))
    ranges = [starts[len(starts) * i // workers : len(starts) * (i + 1) // workers]
              for i in range(workers)]
    results = [None] * workers
    failed = threading.Event()

    def run(i: int) -> None:
        try:
            # A range's first block is its largest.
            ws = _workspace(min(BLOCK, trials - ranges[i][0]))
            total = None
            for start in ranges[i]:
                if failed.is_set():
                    return
                part = block(start, min(start + BLOCK, trials), ws)
                total = part if total is None else [a + b for a, b in zip(total, part)]
            results[i] = total
        except BaseException as exc:  # raised again in the calling thread
            results[i] = exc
            failed.set()

    # One thread per range, on purpose: ThreadPoolExecutor.map hands a range to
    # any idle thread, so ranges can run one after another on one thread.
    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        run(0)
        for thread in threads:
            thread.join()
    finally:
        # If a join was interrupted, the other ranges stop after their block.
        failed.set()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return [sum(parts) for parts in zip(*results)]


def _mean_and_se(total: int, square_total: int, n: int) -> tuple[float, float]:
    """Mean and standard error of the mean of n values, from the _exact_sum
    numerators of their sum and of their sum of squares. The mean rounds
    twice, the exact sum to a float and that over n. The variance, taken in
    floats as (sum of squares - n mean^2) / (n - 1), cancels as the values
    near their mean, so the standard error is not exactly rounded."""
    mean = total / SUM_DENOMINATOR / n
    if n < 2:
        return mean, 0.0
    variance = max(0.0, (square_total / SUM_DENOMINATOR - n * mean * mean) / (n - 1))
    return mean, math.sqrt(variance / n)


def _score(ests: list, phis: list, value: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Scores trials, given each register's estimates and phases (a row, or a
    one-entry array for a fixed phase): writes the product over registers of
    cos^2((est - phi) / 2) into value and returns the fidelity error
    |cos^2(est_diff / 2) - cos^2(phase_diff / 2)| in the last est row. The
    differences are b - a over two registers, the register itself over one.
    The phis and scratch may be overwritten."""
    for i, (est, phi) in enumerate(zip(ests, phis)):
        cos2 = _cos2_half(np.subtract(est, phi, out=scratch if i else value))
        if i:
            value *= cos2
    est_diff, phase_diff = ests[-1], phis[-1]
    if len(ests) > 1:
        np.subtract(ests[1], ests[0], out=est_diff)
        # A fixed phi is one number, and so is a difference of two.
        phase_diff = np.subtract(phis[1], phis[0], out=max(phis, key=np.size))
    error = np.subtract(_cos2_half(est_diff), _cos2_half(phase_diff), out=est_diff)
    return np.abs(error, out=error)


def _cos2_half(x: np.ndarray) -> np.ndarray:
    """cos^2(x / 2), in place."""
    x /= 2.0
    np.cos(x, out=x)
    return np.square(x, out=x)


def _draws(seed: int, start: int, stop: int, ws: _Workspace) -> tuple:
    """The draw matrix of trials start .. stop - 1, and the float and intp
    scratch rows cut to its length, all in ws."""
    m = stop - start
    # One Philox step is one trial's four draws.
    rng = np.random.Generator(np.random.Philox(seed).advance(start))
    return rng.random(out=ws.draws[:m]), ws.floats[:, :m], ws.ints[:, :m]


def _moment_sums(value: np.ndarray, error: np.ndarray, scratch: np.ndarray) -> list[int]:
    """The exact numerators of the sums of value, value^2, error and error^2;
    row 0 of the float matrix scratch holds each square, rows 1-2 are
    _exact_sum's scratch."""
    sums = []
    for x in (value, error):
        m = len(x)
        rows = scratch[1:3, :m]
        sums.append(_exact_sum(x, rows))
        sums.append(_exact_sum(np.multiply(x, x, out=scratch[0, :m]), rows))
    return sums


def _exact_sum(values: np.ndarray, scratch: np.ndarray | None = None) -> int:
    """The integer S with S / SUM_DENOMINATOR the exact sum of the n float64
    values, so that S / SUM_DENOMINATOR rounds to math.fsum(values). A value
    of magnitude 2^(1022 - bits(n)) or more, an infinity or a NaN is a
    ValueError; simulate sums scores, fidelity errors and their squares,
    all in [0, 1].

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008). For m values p with max |p| < 2^e, take the unit 2^j with
    j = e + bits(m) - 52, or -1074 if that is more (where q = p), and
    sigma = 3 2^(j + 51): then q = (p + sigma) - sigma is p rounded to a
    multiple of 2^j, and p - q is exact. The bound keeps sigma and p + sigma
    below 2^1023. Every partial sum of the q is a multiple of 2^j below
    2^(j + 52), so np.sum adds them exactly in any order and under any SIMD
    loop. Each pass adds the numerator of that sum and goes on with the
    remainders p - q, each at most 2^(j - 1): at least 52 - bits(m) binades
    a pass. The first two passes run on the whole row, the later ones on the
    nonzero remainders alone. The passes assume IEEE gradual underflow (no
    flush to zero), which numpy's defaults give. scratch is a float matrix
    of at least 2 rows and len(values) columns, allocated when not given;
    values is not written.
    """
    n = len(values)
    top = max(values.max(initial=0.0), -values.min(initial=0.0))
    bound = 1022 - n.bit_length()
    # A NaN fails the comparison too.
    if not top < math.ldexp(1.0, bound):
        raise ValueError(f"an exact sum takes finite values below 2^{bound} in magnitude only")
    if scratch is None:
        scratch = np.empty((2, n))
    total, p, passes = 0, values, 0
    while top:
        m = len(p)
        unit = max(math.frexp(top)[1] + m.bit_length() - 52, -1074)
        sigma = math.ldexp(3.0, unit + 51)
        q = np.add(p, sigma, out=scratch[0, :m])
        q -= sigma
        total += _numerator(float(q.sum()))
        p = np.subtract(p, q, out=scratch[1, :m])
        passes += 1
        if passes >= 2:  # the mask takes q's row, which is free now
            p = np.compress(np.not_equal(p, 0.0, out=scratch[0, :m].view(bool)[:m]), p)
        top = max(p.max(initial=0.0), -p.min(initial=0.0))
    return total


def _numerator(x: float) -> int:
    """The integer x SUM_DENOMINATOR, for a float x."""
    a, b = x.as_integer_ratio()
    return a << SUM_DENOMINATOR.bit_length() - b.bit_length()


def _cell_sums(counts: np.ndarray, phases: list[float], estimates: np.ndarray) -> list[int]:
    """The exact numerators of the sums of value, value^2, error and error^2
    over the trials that counts tallies per cell of the symmetric subspace,
    register i's outcome along axis i.

    Each live cell is scored once, as one of its trials, and weighted by its
    count in Python ints.
    """
    live = np.nonzero(counts)
    value, scratch = np.empty((2, len(live[0])))
    error = _score([estimates[k] for k in live], [np.array([fixed]) for fixed in phases],
                   value, scratch)
    weights = counts[live].tolist()
    return [_counted_sum(y, weights) for x in (value, error) for y in (x, x * x)]


def _counted_sum(values: np.ndarray, counts: list[int]) -> int:
    """The _exact_sum numerator of the sum of counts[i] copies of values[i]."""
    return sum(c * _numerator(v) for v, c in zip(values.tolist(), counts))
