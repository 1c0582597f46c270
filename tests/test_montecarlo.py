import functools
import json
import math
import sys
import threading
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from eqfid import montecarlo, povm
from eqfid.cli import main
from eqfid.cloning import shrinking_factor
from eqfid.montecarlo import (
    ANALYTIC_FACTOR,
    BLOCK,
    FULL_MIXED,
    MEASUREMENT,
    MIXED_MODES,
    STRATEGIES,
    SUM_DENOMINATOR,
    UNIFIED_COLLECTIVE,
    UNIFIED_PAIR,
    TrialConfig,
    mixed_ensemble_distribution,
    simulate,
)
from eqfid.numerics import BASIS_CAP, TWO_PI
from eqfid.povm import (
    covariant_rows,
    mixed_coefficients,
    outcome_distribution,
    outcome_rows,
    phase_estimates,
)
from eqfid.strategies import p_measurement, p_unified_collective, p_unified_pair


def config(**kw):
    base = dict(n_copies=1, trials=1000, seed=11)
    base.update(kw)
    return TrialConfig(**base)


# --- configuration validation -------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        config(trials=0)
    with pytest.raises(ValueError):
        config(n_copies=0)
    with pytest.raises(ValueError):
        config(seed=-1)
    with pytest.raises(ValueError):
        config(strategy="bogus")
    with pytest.raises(ValueError):
        config(mixed_mode="bogus")
    for mode in MIXED_MODES:
        with pytest.raises(ValueError):
            config(n_copies=BASIS_CAP + 1, strategy=UNIFIED_COLLECTIVE, mixed_mode=mode)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_n_past_cap_refused_before_any_closed_form(strategy, monkeypatch):
    # N = 10^8 costs the closed forms tens of seconds; the cap must come first.
    def forbidden(n):
        raise AssertionError("closed form evaluated before the N bound")

    for name in ("p_measurement", "p_unified_pair", "p_unified_collective"):
        monkeypatch.setattr(montecarlo, name, forbidden)
    for mode in MIXED_MODES:
        with pytest.raises(ValueError, match=f"{BASIS_CAP}.*{10**8}"):
            simulate(config(n_copies=10**8, trials=1, strategy=strategy, mixed_mode=mode))


def test_config_takes_integer_fields_as_ints():
    # Bools and numpy ints become ints, so the report echoes numbers; a float
    # is refused when the config is built, not deep inside simulate.
    c = config(n_copies=True, trials=np.int64(5), seed=np.uint8(3))
    assert [(v, type(v)) for v in (c.n_copies, c.trials, c.seed)] == [(1, int), (5, int), (3, int)]
    assert json.dumps(asdict(c)).startswith('{"strategy": "measurement", "n_copies": 1,')
    for name in ("n_copies", "trials", "seed"):
        with pytest.raises(TypeError):
            config(**{name: 3.5})


def test_config_normalizes_fixed_phases():
    c = config(phase_a=-math.pi / 2, phase_b=7.0 * math.pi)
    assert abs(c.phase_a - 3.0 * math.pi / 2) < 1e-12
    assert abs(c.phase_b - math.pi) < 1e-12


# --- deterministic single trial ------------------------------------------

def test_single_trial_at_basis_phase_is_deterministic():
    report = simulate(config(trials=1, phase_a=0.0, phase_b=0.0))
    assert report.mean_overlap_product == 1.0
    assert report.mean_abs_fidelity_error == 0.0
    assert report.overlap_product_se == 0.0
    assert report.tallies == {"ensemble_a": (1, 0), "ensemble_b": (1, 0)}


# --- reproducibility ------------------------------------------------------

def test_identical_config_reproduces_report():
    c = config(n_copies=2, trials=50_000, seed=424242)
    assert simulate(c) == simulate(c)


def test_reproducible_across_block_boundary():
    c = config(trials=65543, seed=9)
    r1, r2 = simulate(c), simulate(c)
    assert r1 == r2
    assert sum(r1.tallies["ensemble_a"]) == 65543


def test_different_seeds_differ():
    a = simulate(config(trials=10_000, seed=1))
    b = simulate(config(trials=10_000, seed=2))
    assert a.mean_overlap_product != b.mean_overlap_product


# --- statistical agreement (fixed seeds, deterministic) ------------------

def test_measurement_statistics_three_sigma():
    hits = 0
    for n in (1, 2, 4):
        report = simulate(config(n_copies=n, trials=100_000, seed=5))
        if abs(report.mean_overlap_product - p_measurement(n)) <= 3 * report.overlap_product_se:
            hits += 1
        assert sum(report.tallies["ensemble_a"]) == 100_000
        assert sum(report.tallies["ensemble_b"]) == 100_000
    assert hits >= 2


def test_unified_pair_statistics():
    report = simulate(config(strategy=UNIFIED_PAIR, trials=100_000, seed=3))
    assert abs(report.mean_overlap_product - p_unified_pair(1)) <= 3 * report.overlap_product_se
    assert report.analytic_probability == p_unified_pair(1)
    assert report.perp_probability is None


def test_unified_collective_statistics():
    report = simulate(
        config(strategy=UNIFIED_COLLECTIVE, n_copies=2, trials=100_000, seed=8)
    )
    assert (
        abs(report.mean_overlap_product - p_unified_collective(2))
        <= 3 * report.overlap_product_se
    )
    assert sum(report.tallies["difference"]) == 100_000


@pytest.mark.parametrize("mode", MIXED_MODES)
@pytest.mark.parametrize("phases", [{}, {"phase_a": 0.4, "phase_b": 1.9},
                                    {"phase_a": 0.4}, {"phase_b": 1.9}],
                         ids=["uniform", "fixed", "a-fixed", "b-fixed"])
def test_pair_is_the_collective_gate_at_one_copy(mode, phases):
    # The pairwise gate is the collective N -> 2N gate at N = 1: same eta, same
    # gate factor, same draws, so the reports differ only in their strategy.
    pair, collective = (
        asdict(simulate(config(strategy=strategy, mixed_mode=mode, trials=3000, **phases)))
        for strategy in (UNIFIED_PAIR, UNIFIED_COLLECTIVE)
    )
    assert pair.pop("strategy") == UNIFIED_PAIR
    assert collective.pop("strategy") == UNIFIED_COLLECTIVE
    assert pair == collective


def test_analytic_unified_strategies_draw_the_same_samples():
    # Analytic mode samples the phase estimation of the pure difference state
    # and multiplies in the closed-form gate factor, so at N = 12, where the
    # two gates differ, the pair and collective runs still share their
    # samples: what the Monte Carlo checks is fbar(N), not the gate.
    pair, collective = (
        simulate(config(strategy=strategy, n_copies=12, trials=20_000, seed=5))
        for strategy in (UNIFIED_PAIR, UNIFIED_COLLECTIVE)
    )
    assert pair.analytic_probability < collective.analytic_probability
    for field in ("tallies", "mean_abs_fidelity_error", "abs_fidelity_error_se"):
        assert getattr(pair, field) == getattr(collective, field), field


def test_report_ranges():
    for strategy in (MEASUREMENT, UNIFIED_PAIR, UNIFIED_COLLECTIVE):
        report = simulate(config(strategy=strategy, n_copies=2, trials=5_000, seed=1))
        assert 0.0 <= report.mean_overlap_product <= 1.0
        assert report.overlap_product_se >= 0.0
        assert report.abs_fidelity_error_se >= 0.0


# --- uniform phases: joint sampling of outcome and offset -------------------

@pytest.mark.parametrize("n", [1, 2, 3, 12, 30, 60])
def test_uniform_phase_means_match_closed_forms(n):
    expected = {
        MEASUREMENT: p_measurement(n),
        UNIFIED_PAIR: p_unified_pair(n),
        UNIFIED_COLLECTIVE: p_unified_collective(n),
    }
    for strategy, exact in expected.items():
        report = simulate(config(strategy=strategy, n_copies=n, trials=20_000, seed=100 + n))
        assert abs(report.mean_overlap_product - exact) < 5 * report.overlap_product_se, strategy


@pytest.mark.parametrize(
    "strategy, mode, n, trials",
    [
        (MEASUREMENT, ANALYTIC_FACTOR, 3, 40_000),
        (UNIFIED_PAIR, ANALYTIC_FACTOR, 3, 40_000),
        # At N = 12 a perp phase drawn like a symmetric-subspace one would
        # move the mean about 10 standard errors.
        (UNIFIED_COLLECTIVE, FULL_MIXED, 12, 150_000),
    ],
)
def test_uniform_phase_fidelity_error_matches_quadrature(strategy, mode, n, trials):
    # E|cos^2(est_diff / 2) - cos^2(phase_diff / 2)| over uniform phases and
    # their outcome laws, by the midpoint rule: checks that each sampled phase
    # sits at its outcome's estimate plus the offset, which the score
    # cos^2(offset / 2) alone cannot see, and that a perp trial's phase and
    # fallback estimate are independent and uniform.
    grid = 1000
    phis = TWO_PI * (np.arange(grid) + 0.5) / grid
    estimates = phase_estimates(n)
    fidelity = np.cos(phis / 2.0) ** 2
    if mode == FULL_MIXED:
        rows = covariant_rows(mixed_coefficients(n, shrinking_factor(n, 2 * n).value), phis)
    else:
        rows = outcome_rows(n, phis)
    if strategy == MEASUREMENT:
        # est_b - est_a against phi_b - phi_a, over both registers' laws.
        true_gap = np.cos((phis[None, :] - phis[:, None]) / 2.0) ** 2
        exact = sum(
            float(rows[:, ka] @ np.abs(np.cos((eb - ea) / 2.0) ** 2 - true_gap) @ rows[:, kb])
            for ka, ea in enumerate(estimates)
            for kb, eb in enumerate(estimates)
        ) / grid**2
    else:
        gaps = np.abs(np.cos(estimates / 2.0) ** 2 - fidelity[:, None])
        exact = float(np.sum(rows * gaps)) / grid
        perp = 1.0 - float(np.sum(rows)) / grid
        exact += perp * float(np.mean(np.abs(fidelity[:, None] - fidelity[None, :])))
    report = simulate(config(strategy=strategy, mixed_mode=mode, n_copies=n, trials=trials, seed=5))
    assert abs(report.mean_abs_fidelity_error - exact) < 5 * report.abs_fidelity_error_se


def test_uniform_phase_outcomes_are_uniform():
    # At a uniform phase every outcome of the symmetric subspace has weight c_0.
    for strategy, mode in ((MEASUREMENT, ANALYTIC_FACTOR), (UNIFIED_COLLECTIVE, FULL_MIXED)):
        report = simulate(
            config(strategy=strategy, mixed_mode=mode, n_copies=12, trials=60_000, seed=7)
        )
        for counts in report.tallies.values():
            inside = np.array(counts[:13])
            expected = inside.sum() / 13
            chi2 = float(np.sum((inside - expected) ** 2 / expected))
            assert chi2 < 12 + 10 * math.sqrt(2 * 12), (strategy, chi2)


@pytest.mark.parametrize("n", [2, 12])
def test_full_mixed_uniform_perp_frequency(n):
    perp = 1.0 - (n + 1) * mixed_coefficients(n, shrinking_factor(n, 2 * n).value)[0]
    trials = 50_000
    report = simulate(
        config(strategy=UNIFIED_COLLECTIVE, mixed_mode=FULL_MIXED, n_copies=n, trials=trials,
               seed=n)
    )
    se = math.sqrt(perp * (1.0 - perp) / trials)
    assert abs(report.perp_probability - perp) < 5 * se


@pytest.mark.parametrize("mode", MIXED_MODES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_report_ignores_block_size(strategy, mode, monkeypatch):
    # Every trial's offset depends on its own uniforms only, the sums are
    # exact, and with both phases fixed the outcome cells' histogram adds
    # over blocks, so blocks of 1000 give the report of one block. Blocks of
    # 8 are fewer trials than any N = 12 run has cells, so a both-fixed run
    # scores every trial alone, and must give the all-fixed branch's report.
    # With one phase fixed, a fixed register's search and the joint sampler
    # of a uniform one share each block.
    for phases in ({}, {"phase_a": 0.4}, {"phase_a": 0.4, "phase_b": 1.9}):
        c = config(strategy=strategy, mixed_mode=mode, n_copies=12, trials=5_003, seed=21,
                   **phases)
        monkeypatch.setattr(montecarlo, "BLOCK", BLOCK)
        whole = simulate(c)
        for block in (1000, 8):
            monkeypatch.setattr(montecarlo, "BLOCK", block)
            assert simulate(c) == whole, (phases, block)


@pytest.mark.parametrize(
    "argv",
    [
        ["--strategy", "measurement", "--n", "3"],
        # One register with a fixed row, one sampled jointly.
        ["--strategy", "measurement", "--n", "3", "--phase-a", "0.4"],
        ["--strategy", "unified-collective", "--n", "12", "--mixed-mode", "full"],
        # Outcome cells tallied per block and scored once per run.
        ["--strategy", "measurement", "--n", "3", "--phase-a", "0.4", "--phase-b", "1.9"],
    ],
    ids=["uniform", "half-fixed", "full-mixed", "both-fixed"],
)
def test_report_ignores_worker_count(argv, monkeypatch, capsys):
    # Each block draws from its own seek into the stream and every partial
    # sum is an integer, so any split of the blocks over workers gives the
    # same bytes. Blocks of 4096 give 5 workers uneven ranges of 17 blocks;
    # a short switch interval interleaves the workers often.
    threads = set()
    sum_blocks = montecarlo._sum_blocks

    def recording(block, trials):
        def recorded(*args):
            # A thread object, unlike its ident, is not reused once its
            # thread ends, which on one CPU can come before the next worker
            # starts.
            threads.add(threading.current_thread())
            return block(*args)

        return sum_blocks(recorded, trials)

    monkeypatch.setattr(montecarlo, "_sum_blocks", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reports = []
        for workers, block in ((1, BLOCK), (2, BLOCK), (5, 4096)):
            monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
            monkeypatch.setattr(montecarlo, "BLOCK", block)
            threads.clear()
            assert main(["simulate", *argv, "--trials", "65543", "--seed", "23"]) == 0
            reports.append(capsys.readouterr().out)
            assert len(threads) == min(workers, -(-65543 // block))
    finally:
        sys.setswitchinterval(interval)
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert json.loads(reports[0])["report"]["trials"] == 65543


# --- both phases fixed: outcome cells ----------------------------------------

def scored_sizes(monkeypatch) -> list:
    """The sizes of the arrays simulate scores, one per _cos2_half call."""
    sizes = []
    cos2_half = montecarlo._cos2_half

    def recording(x):
        sizes.append(x.size)
        return cos2_half(x)

    monkeypatch.setattr(montecarlo, "_cos2_half", recording)
    return sizes


@pytest.mark.parametrize("mode", MIXED_MODES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_all_fixed_run_scores_each_cell_once(strategy, mode, monkeypatch):
    # Inside the cell bound no trial is scored alone, except a full-mixed
    # perp trial: its estimate is random, so its value and error are scored
    # one by one.
    sizes = scored_sizes(monkeypatch)
    n = 12
    report = simulate(config(strategy=strategy, mixed_mode=mode, n_copies=n, trials=65543,
                             phase_a=0.4, phase_b=1.9))
    full = mode == FULL_MIXED and strategy != MEASUREMENT
    cells = n + 2 if full else (n + 1) ** len(report.tallies)
    above = [size for size in sizes if size > cells]
    if full:
        perp = report.tallies["difference"][-1]
        assert perp > 3 * cells and sum(above) <= 2 * perp
    else:
        assert above == []


@pytest.mark.parametrize("n, cell_path", [(180, True), (181, False)])
def test_cell_path_bound(n, cell_path, monkeypatch):
    # Measurement tallies (N+1)^2 cells; past BLOCK of them it scores every
    # trial, as a uniform run does.
    sizes = scored_sizes(monkeypatch)
    simulate(config(n_copies=n, trials=BLOCK + 7, phase_a=0.4, phase_b=1.9))
    assert (max(sizes) <= (n + 1) ** 2 < BLOCK) == cell_path
    assert (max(sizes) == BLOCK) != cell_path


@pytest.mark.parametrize("block", [BLOCK, 2], ids=["cells", "trials"])
@pytest.mark.parametrize("n", [1, 3])
def test_fixed_phase_never_draws_a_zero_probability_outcome(n, block, monkeypatch):
    # The rows at phases 0 and pi have outcomes of probability exactly 0 for
    # N = 1 and 3: the first and the last at pi, an inner one at N = 3 and 0.
    # Neither u = 0 nor a u on an entry of either row's CDF may land on one,
    # on the cell path or, with blocks smaller than the cell count, per trial.
    rows = {name: outcome_distribution(n, phase)
            for name, phase in (("ensemble_a", 0.0), ("ensemble_b", math.pi),
                                ("difference", math.pi))}
    pool = np.concatenate([[0.0]] + [np.cumsum(row)[:-1] for row in rows.values()])
    pool = pool[pool < 1.0]
    draws = montecarlo._draws

    def on_edges(seed, start, stop, ws):
        d, floats, ints = draws(seed, start, stop, ws)
        d[:] = pool[np.arange(start, stop) % len(pool), None]
        return d, floats, ints

    monkeypatch.setattr(montecarlo, "_draws", on_edges)
    monkeypatch.setattr(montecarlo, "BLOCK", block)
    for strategy in (MEASUREMENT, UNIFIED_PAIR):
        report = simulate(config(strategy=strategy, n_copies=n, trials=4 * len(pool),
                                 phase_a=0.0, phase_b=math.pi))
        for name, tally in report.tallies.items():
            assert all(rows[name][k] > 0.0 for k, count in enumerate(tally) if count), \
                (name, tally)


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_blocks_fault_in_no_memory_again(monkeypatch):
    # Each worker allocates its workspace once per run. Blocks that allocated
    # their own arrays would have the allocator return them to the system and
    # fault them in again on every block: about 10k more faults for 36 more
    # blocks, on two workers.
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)

    def faults(blocks):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        simulate(config(trials=blocks * BLOCK, seed=5))
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    # The allocator settles its thresholds over the first runs, so each count
    # is the least of two runs.
    faults(4)
    assert min(faults(40), faults(40)) - min(faults(4), faults(4)) <= 500


def test_each_range_sizes_its_workspace_to_its_largest_block(monkeypatch):
    # Two workers share BLOCK + 7 trials: the second range runs one block of 7.
    sizes = []
    workspace = montecarlo._workspace

    def recording(rows):
        sizes.append(rows)
        return workspace(rows)

    monkeypatch.setattr(montecarlo, "_workspace", recording)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    simulate(config(trials=BLOCK + 7))
    # The calling thread and the second worker may ask in either order.
    assert sorted(sizes, reverse=True) == [BLOCK, 7]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "argv, block",
    [
        (["--strategy", "measurement", "--n", "1"], BLOCK),
        (["--strategy", "measurement", "--n", "60"], BLOCK),
        (["--strategy", "measurement", "--n", "3", "--phase-a", "0.4"], BLOCK),
        (["--strategy", "measurement", "--n", "3", "--phase-b", "1.9"], BLOCK),
        (["--strategy", "measurement", "--n", "181", "--phase-a", "0.4", "--phase-b", "1.9"],
         BLOCK),
        (["--strategy", "unified-pair", "--n", "3", "--mixed-mode", "full"], BLOCK),
        (["--strategy", "unified-collective", "--n", "12", "--mixed-mode", "full",
          "--phase-a", "0.4", "--phase-b", "1.9"], BLOCK),
        # Blocks of 8 are fewer trials than the run has cells: every trial is
        # scored, perp trials included.
        (["--strategy", "unified-collective", "--n", "12", "--mixed-mode", "full",
          "--phase-a", "0.4", "--phase-b", "1.9"], 8),
        (["--strategy", "measurement", "--n", "3", "--phase-a", "0.4", "--phase-b", "1.9"], 8),
    ],
    ids=["uniform n1", "uniform n60", "a fixed", "b fixed", "both fixed n181",
         "pair full uniform", "collective full fixed", "collective full fixed block 8",
         "both fixed block 8"],
)
def test_no_stale_row_reaches_a_report(argv, block, workers, monkeypatch, capsys):
    # Blocks reuse their worker's rows, each for several arrays in turn. A
    # workspace handed out full of NaN (floats and the draw matrix) and -1
    # (intp rows) must give the bytes of one from np.empty: no row is read
    # before the block writes it. Two blocks and a short one per run.
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
    monkeypatch.setattr(montecarlo, "BLOCK", block)
    workspace = montecarlo._workspace

    def poisoned(rows):
        ws = workspace(rows)
        ws.draws.fill(np.nan)
        ws.floats.fill(np.nan)
        ws.ints.fill(-1)
        return ws

    reports = []
    for make in (workspace, poisoned):
        monkeypatch.setattr(montecarlo, "_workspace", make)
        assert main(["simulate", *argv, "--trials", str(2 * block + 3), "--seed", "29"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[0]


@pytest.mark.parametrize("kw", [
    dict(),
    dict(strategy=UNIFIED_PAIR, n_copies=3, mixed_mode=FULL_MIXED),
], ids=["measurement uniform n1", "pair full uniform"])
def test_workspace_budget(kw, monkeypatch):
    # Twelve rows of 8 bytes a trial, the draw matrix's four included, and no
    # other block-sized array: a two-worker run of two full blocks peaks at
    # its two workspaces and less than 0.5 MB besides.
    assert sum(a.nbytes for a in montecarlo._workspace(1000)) == 96 * 1000
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    c = config(trials=2 * BLOCK, **kw)
    simulate(c)  # numpy.random's import and the per-N caches are not counted
    tracemalloc.start()
    try:
        simulate(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 96 * BLOCK + 500_000, peak


def test_exact_sum_equals_fsum():
    rng = np.random.default_rng(31)
    n = 200_003
    # The last binade below 2^(1022 - bits(13)), the bound of the 13 edges.
    tiny, huge = 5e-324, 2.0**1017
    arrays = {
        "uniform": rng.random(n),
        "cos2-product": np.cos(rng.random(n) * 6.0) ** 2 * np.cos(rng.random(n) * 6.0) ** 2,
        "x40": rng.random(n) ** 40,
        "subnormal": rng.integers(-(2**20), 2**20, n) * 5e-324,
        "wide-range": rng.random(n) * 10.0 ** rng.integers(-300, 300, n),
        "mixed-sign": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        "cancelling": np.concatenate([[1e300, 1.0, -1e300], rng.standard_normal(1000)]),
        "one": np.array([0.1]),
        # Signed zeros, the smallest subnormal, 1 and both ends of the last
        # binade below the bound and of exponent -1023, the first subnormal one.
        "edges": np.array([0.0, -0.0, tiny, -tiny, 1.0, huge, -huge, np.nextafter(2 * huge, 0),
                           -np.nextafter(2 * huge, 0), 2.0**-1023, -(2.0**-1023),
                           2.0**-1022 - tiny, -(2.0**-1022 - tiny)]),
    }
    for name, values in arrays.items():
        numerator = montecarlo._exact_sum(values)
        assert numerator / SUM_DENOMINATOR == math.fsum(values.tolist()), name
        # Every double is a / b with b a power of two dividing SUM_DENOMINATOR,
        # so SUM_DENOMINATOR times the Fraction sum is this integer.
        shift = SUM_DENOMINATOR.bit_length()
        ratios = map(float.as_integer_ratio, values.tolist())
        assert numerator == sum(a << (shift - b.bit_length()) for a, b in ratios), name
    edges = arrays["edges"].tolist()
    assert montecarlo._exact_sum(arrays["edges"]) == SUM_DENOMINATOR * sum(map(Fraction, edges))
    # Both ends of exponent 1023 (frexp's 1024) lie past the bound.
    for top in (2.0**1023, np.nextafter(np.inf, 0)):
        for sign in (1, -1):
            edges = arrays["edges"].copy()
            edges[5] = sign * top
            with pytest.raises(ValueError, match="finite"):
                montecarlo._exact_sum(edges)


def test_exact_sum_in_moment_sums_scratch_rows():
    # A block hands _moment_sums three float workspace rows as scratch, beside
    # the rows that hold its values: the sums are exact and the values stay.
    rng = np.random.default_rng(17)
    n = 5000
    ws = montecarlo._workspace(n)
    value, error = ws.draws.reshape(-1)[: 2 * n].reshape(2, n)
    value[:] = 0.5 + rng.random(n) / 2  # one exponent
    error[:] = rng.random(n) ** 8  # remainders past the second pass, more once squared
    error[::50] = 0.0
    kept = value.copy(), error.copy()
    expected = [SUM_DENOMINATOR * sum(map(Fraction, x.tolist()))
                for x in (value, value * value, error, error * error)]
    assert montecarlo._moment_sums(value, error, ws.floats[:3]) == expected
    assert np.array_equal(value, kept[0]) and np.array_equal(error, kept[1])


@pytest.mark.parametrize("kw", [
    dict(n_copies=1),
    dict(n_copies=60),
    dict(n_copies=3, phase_a=0.4),
    dict(n_copies=181, phase_a=0.4, phase_b=1.9),  # past BLOCK cells: scored trial by trial
    dict(strategy=UNIFIED_PAIR, n_copies=3, mixed_mode=FULL_MIXED),
    dict(strategy=UNIFIED_COLLECTIVE, n_copies=12, mixed_mode=FULL_MIXED,
         phase_a=0.4, phase_b=1.9),  # tallied per cell; perp trials scored
], ids=["measurement n1", "measurement n60", "measurement half fixed",
        "measurement fixed n181", "pair full uniform", "collective full fixed n12"])
def test_exact_sum_receives_values_in_unit_interval(kw, monkeypatch):
    # _exact_sum rejects magnitudes from 2^(1022 - bits(n)) on; every row
    # simulate hands it is a score, a fidelity error or a square, in [0, 1].
    exact_sum, rows = montecarlo._exact_sum, []

    def recording(values, *scratch):
        rows.append(values.copy())
        return exact_sum(values, *scratch)

    monkeypatch.setattr(montecarlo, "_exact_sum", recording)
    simulate(config(trials=4000, **kw))
    assert any(len(row) for row in rows)
    assert all(((row >= 0.0) & (row <= 1.0)).all() for row in rows)


# --- mixed ensemble distribution ------------------------------------------

def test_mixed_distribution_pure_limit():
    for n in (1, 2, 4, 6):
        for phi in (0.0, 0.9, 3.3):
            p = mixed_ensemble_distribution(n, phi, 1.0)
            assert np.max(np.abs(p[: n + 1] - outcome_distribution(n, phi))) < 1e-10
            assert p[n + 1] < 1e-12


def test_mixed_distribution_fully_depolarized_two_copies():
    p = mixed_ensemble_distribution(2, 0.0, 0.0)
    assert abs(p[3] - 0.25) < 1e-10  # antisymmetric weight of (I/2)^(x)2
    assert np.allclose(p[:3], 0.25, atol=1e-12)


def test_mixed_distribution_total_probability():
    for n in range(1, 7):
        for eta in np.linspace(0.0, 1.0, 6):
            for delta in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
                p = mixed_ensemble_distribution(n, float(delta), float(eta))
                assert p.min() >= 0.0
                assert abs(p.sum() - 1.0) < 1e-10


def test_mixed_distribution_perp_monotone_in_eta():
    for n in (2, 3, 5):
        for delta in (0.0, 2.2):
            perps = [
                mixed_ensemble_distribution(n, delta, float(e))[n + 1]
                for e in np.linspace(0.0, 1.0, 11)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(perps, perps[1:]))


def test_mixed_distribution_domain_errors():
    with pytest.raises(ValueError):
        mixed_ensemble_distribution(13, 0.0, 0.5)
    with pytest.raises(ValueError):
        mixed_ensemble_distribution(2, 0.0, 1.5)
    with pytest.raises(ValueError):
        mixed_ensemble_distribution(0, 0.0, 0.5)
    with pytest.raises(TypeError):
        mixed_ensemble_distribution(0.5, 0.0, 0.5)


def test_harmonic_expansion_matches_direct_evaluation():
    for n in (1, 2, 5, 12):
        for eta in (0.2, 0.9):
            deltas = np.array([0.123, 2.5, 5.9])
            rows = covariant_rows(mixed_coefficients(n, eta), deltas)
            for row, delta in zip(rows, deltas):
                direct = mixed_ensemble_distribution(n, float(delta), eta)
                assert np.max(np.abs(row - direct[: n + 1])) < 1e-14
                # The perp slot takes what the row leaves of one.
                assert abs((1.0 - row.sum()) - direct[n + 1]) < 1e-14


def test_harmonic_expansion_samples_equal_direct_distribution():
    # The 2^N reference at 2N+1 phases determines the degree-N law exactly.
    for n in (1, 2, 4, 7, 12):
        for eta in (0.0, 0.55, shrinking_factor(n, 2 * n).value):
            m = 2 * n + 1
            q = [mixed_ensemble_distribution(n, x, eta)[0] for x in TWO_PI * np.arange(m) / m]
            expected = np.fft.fft(q)[: n + 1] / m
            expected[1:] *= 2.0
            assert np.max(np.abs(mixed_coefficients(n, eta) - expected)) <= 1e-15, (n, eta)


def test_full_mixed_setup_stays_in_symmetric_subspace(monkeypatch):
    def forbidden(*args):
        raise AssertionError("full-mixed set-up entered the 2^N space")

    for name in ("dicke_embedding", "povm_basis", "_product_expectation"):
        monkeypatch.setattr(montecarlo, name, forbidden)
    for strategy in (UNIFIED_PAIR, UNIFIED_COLLECTIVE):
        for phases in ({}, {"phase_a": 0.4, "phase_b": 1.9}):
            report = simulate(
                config(strategy=strategy, mixed_mode=FULL_MIXED, n_copies=13, trials=100, **phases)
            )
            assert sum(report.tallies["difference"]) == 100


def test_harmonic_expansion_domain_errors():
    for n, eta in ((0, 0.5), (BASIS_CAP + 1, 0.5), (2, 1.5), (2, -0.1)):
        with pytest.raises(ValueError):
            mixed_coefficients(n, eta)


# --- outcome rows per run ---------------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("mode", MIXED_MODES)
@pytest.mark.parametrize(
    "phases, fixed_registers",
    [
        ({"phase_a": 0.4, "phase_b": 1.9}, {"ensemble_a", "ensemble_b", "difference"}),
        # The difference of a fixed and a uniform phase is uniform.
        ({"phase_a": 0.4}, {"ensemble_a"}),
        ({}, set()),
    ],
    ids=["both-fixed", "a-fixed", "uniform"],
)
def test_fixed_phase_builds_one_row_per_register_per_block(
    strategy, mode, phases, fixed_registers, monkeypatch
):
    # Blocks share their fixed registers' rows: one row per run.
    built = []
    for module in (povm, montecarlo):
        def counting(*args, _original=module.covariant_rows):
            rows = _original(*args)
            built.append(len(rows))
            return rows

        monkeypatch.setattr(module, "covariant_rows", counting)
    trials = 65543
    assert trials > 2 * BLOCK
    simulate(config(strategy=strategy, mixed_mode=mode, n_copies=3, trials=trials, **phases))
    tallies = ("ensemble_a", "ensemble_b") if strategy == MEASUREMENT else ("difference",)
    # Each fixed register builds one single-phase row for the whole run, over
    # every block; a uniform register builds none.
    assert built == [1] * len(fixed_registers.intersection(tallies))


@pytest.mark.parametrize("strategy", [UNIFIED_PAIR, UNIFIED_COLLECTIVE])
@pytest.mark.parametrize("mode", MIXED_MODES)
def test_difference_phase_is_normalized(strategy, mode, monkeypatch):
    # phase_b a hair below phase_a leaves b - a = -5.6e-17, whose plain
    # remainder mod 2 pi rounds up to 2 pi itself: the difference register
    # must read 0.0, the phase of phase_b = phase_a, and report its bytes.
    recorded = []

    def recording(coeffs, phis):
        recorded.extend(phis)
        return covariant_rows(coeffs, phis)

    monkeypatch.setattr(montecarlo, "covariant_rows", recording)
    run = functools.partial(config, strategy=strategy, mixed_mode=mode, n_copies=3, phase_a=0.4)
    below = simulate(run(phase_b=math.nextafter(0.4, 0)))
    assert recorded == [0.0]
    assert repr(below) == repr(simulate(run(phase_b=0.4)))


# --- full-mixed simulation -------------------------------------------------

def test_full_mixed_single_copy_never_leaves_symmetric_space():
    report = simulate(
        config(strategy=UNIFIED_PAIR, mixed_mode=FULL_MIXED, trials=20_000, seed=2)
    )
    assert report.perp_probability == 0.0
    assert report.tallies["difference"][-1] == 0


def test_full_mixed_collective_reports_perp():
    report = simulate(
        config(
            strategy=UNIFIED_COLLECTIVE,
            n_copies=2,
            mixed_mode=FULL_MIXED,
            trials=50_000,
            seed=4,
        )
    )
    assert report.perp_probability is not None
    assert 0.0 < report.perp_probability < 0.5
    assert sum(report.tallies["difference"]) == 50_000
    # no analytic gate factor is applied to the raw empirical mean
    assert 0.0 <= report.mean_overlap_product <= 1.0


@pytest.mark.parametrize("phases", [(None, None), (None, 1.1), (0.3, 1.1)])
def test_one_law_per_run(phases, monkeypatch):
    # Every run builds one outcome law: the pure one (eta = 1) for measurement
    # and analytic mode, the shrunk one at eta(size, 2 size) in full-mixed mode.
    calls = []
    build = montecarlo.mixed_coefficients

    def recording(n, eta):
        calls.append((n, eta))
        return build(n, eta)

    monkeypatch.setattr(montecarlo, "mixed_coefficients", recording)
    n = 3
    runs = [(MEASUREMENT, mode, 1.0) for mode in MIXED_MODES]
    for strategy, size in ((UNIFIED_PAIR, 1), (UNIFIED_COLLECTIVE, n)):
        runs += [(strategy, ANALYTIC_FACTOR, 1.0),
                 (strategy, FULL_MIXED, shrinking_factor(size, 2 * size).value)]
    for strategy, mode, eta in runs:
        calls.clear()
        simulate(config(n_copies=n, trials=100, strategy=strategy, mixed_mode=mode,
                        phase_a=phases[0], phase_b=phases[1]))
        assert calls == [(n, eta)], (strategy, mode)


def test_full_mixed_single_copy_tallies_match_exact_law():
    # N = 1 pair gate: the sampled tallies follow the exact mixed outcome law
    trials = 40_000
    report = simulate(
        config(
            strategy=UNIFIED_PAIR,
            mixed_mode=FULL_MIXED,
            phase_a=0.0,
            phase_b=1.0,
            trials=trials,
            seed=12,
        )
    )
    expected = mixed_ensemble_distribution(1, 1.0, shrinking_factor(1, 2).value)
    counts = report.tallies["difference"]
    for count, p in zip(counts, expected):
        se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(count / trials - p) <= 4 * se


def test_full_mixed_distribution_consistency_at_eta_one():
    eta = shrinking_factor(1, 2).value
    p = mixed_ensemble_distribution(1, 0.0, eta)
    rho_based = np.array(
        [
            0.5 * (1 + eta),  # <Psi_0| rho |Psi_0> at delta = 0
            0.5 * (1 - eta),
        ]
    )
    assert np.max(np.abs(p[:2] - rho_based)) < 1e-12
    assert p[2] < 1e-12  # single qubits never leave the symmetric space
