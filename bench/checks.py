"""Exact references for every benchmark operation, and the output checks.

Closed forms are compared with an independent mpmath oracle; simulate means
are compared, in standard errors, with exact expectations built from public
``eqfid`` functions. ``check`` returns the reasons an operation failed, so
an empty list means the output is correct.
"""

import csv
import io
import json
import math

import mpmath

import eqfid

# A simulate mean further than this many standard errors from its exact
# expectation is a failure (two-sided chance about 6e-7 per check).
Z_MAX = 5.0


def closed_form_tol(n):
    """Relative tolerance of a closed-form value whose largest binomial row is
    n. The error of the log-gamma route grows about linearly with n; against
    the oracle it is 7e-10 at n = 10^6 + 2 and below 4e-14 for n <= 120."""
    return 1e-13 + 1e-14 * n


# Absolute tolerance of povm probabilities and phase estimates.
POVM_TOL = 1e-13

CURVE_COLUMNS = ("f_bar", "f_eqcm", "f_cnot", "f_gcnot",
                 "p_measurement", "p_cloning", "p_unified_pair", "p_unified_collective")

mpmath.mp.dps = 40


def scaled_sqrt_binom_sum(n):
    """Oracle for S_n / 2^n with S_n = sum_i sqrt(C(n,i) C(n,i+1)), i < n.

    Small n sums exact integer products. Large n starts from the central
    term (mpmath log-gamma) and walks outward with the exact term ratio
    until terms fall below 1e-45 of the sum.
    """
    if n <= 256:
        total = mpmath.fsum(mpmath.sqrt(math.comb(n, i) * math.comb(n, i + 1)) for i in range(n))
        return total / mpmath.mpf(2) ** n

    def log_term(i):
        lc = lambda k: mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
        return (lc(i) + lc(i + 1)) / 2 - n * mpmath.log(2)

    centre = (n - 1) // 2
    t0 = mpmath.exp(log_term(centre))
    total = t0
    floor = t0 * mpmath.mpf(10) ** -45
    t, i = t0, centre
    while i + 1 < n and t > floor:  # ratio t(i+1)/t(i)
        t *= mpmath.sqrt(mpmath.mpf((n - i) * (n - i - 1)) / ((i + 1) * (i + 2)))
        i += 1
        total += t
    t, i = t0, centre
    while i > 0 and t > floor:  # ratio t(i-1)/t(i)
        t *= mpmath.sqrt(mpmath.mpf(i * (i + 1)) / ((n - i + 1) * (n - i)))
        i -= 1
        total += t
    return total


class Oracle:
    """High-precision closed forms, memoising the binomial sums."""

    def __init__(self):
        self._sums = {}

    def s(self, n):
        if n not in self._sums:
            self._sums[n] = scaled_sqrt_binom_sum(n)
        return self._sums[n]

    def eta(self, n, m):
        return self.s(n) / self.s(m)

    def f_bar(self, n):
        return (1 + self.s(n)) / 2

    def curve_row(self, n):
        f_bar = self.f_bar(n)
        f_cnot = (1 + self.eta(1, 2)) / 2
        f_gcnot = (1 + self.eta(n, 2 * n)) / 2
        return [f_bar, f_bar, f_cnot, f_gcnot, f_bar**2, f_bar**2, f_bar * f_cnot, f_bar * f_gcnot]

    def call(self, func, args):
        if func == "p_measurement":
            return self.f_bar(args[0]) ** 2
        if func == "p_unified_collective":
            (n,) = args
            return self.f_bar(n) * (1 + self.eta(n, 2 * n)) / 2
        if func == "p_unified_collective_unequal":
            n_a, n_b = args
            n = min(n_a, n_b)
            return self.f_bar(n) * (1 + self.eta(n, n_a + n_b)) / 2
        raise ValueError(f"no oracle for {func}")

    @staticmethod
    def povm(n, phase):
        phase = mpmath.mpf(phase)
        amp = [mpmath.sqrt(math.comb(n, j)) * mpmath.expj(j * phase) / mpmath.sqrt(mpmath.mpf(2) ** n)
               for j in range(n + 1)]
        probs = []
        for k in range(n + 1):
            c = mpmath.fsum(amp[j] * mpmath.expj(-2 * mpmath.pi * k * j / (n + 1)) for j in range(n + 1))
            probs.append(abs(c) ** 2 / (n + 1))
        estimates = [2 * mpmath.pi * k / (n + 1) for k in range(n + 1)]
        return [float(p) for p in probs], [float(e) for e in estimates]


def _phase_mean(n, phase):
    """Exact E[cos^2((est - phase)/2)] of one pure N-copy phase measurement."""
    p = eqfid.outcome_distribution(n, phase)
    est = [eqfid.estimate_phase(k, n) for k in range(n + 1)]
    return math.fsum(float(p[k]) * math.cos((est[k] - phase) / 2) ** 2 for k in range(n + 1))


def _mixed_mean(n, delta, eta):
    """Exact mean overlap of the full-mixed outcome law at phase difference
    delta; an outcome outside the symmetric subspace scores 1/2 on average."""
    p = eqfid.mixed_ensemble_distribution(n, delta, eta)
    return math.fsum(
        [float(p[k]) * math.cos((eqfid.estimate_phase(k, n) - delta) / 2) ** 2 for k in range(n + 1)]
        + [float(p[n + 1]) / 2]
    )


def simulate_reference(sim):
    """Exact expectation of the mean a simulate command reports, for the
    configurations the workloads run: analytic measurement and full-mixed
    collective, each with both phases uniform or both fixed."""
    n = sim["n"]
    uniform = sim["phase_a"] is None and sim["phase_b"] is None
    fixed = sim["phase_a"] is not None and sim["phase_b"] is not None
    if sim["strategy"] == "measurement" and sim["mixed_mode"] == "analytic":
        if uniform:
            return eqfid.p_measurement(n)
        if fixed:
            return _phase_mean(n, sim["phase_a"]) * _phase_mean(n, sim["phase_b"])
    if sim["strategy"] == "unified-collective" and sim["mixed_mode"] == "full":
        eta = eqfid.shrinking_factor(n, 2 * n).value
        if uniform:
            # The integrand is a trigonometric polynomial of degree N + 1 in
            # delta, so a uniform grid of 2N + 3 phases integrates it exactly.
            m = 2 * n + 3
            return math.fsum(_mixed_mean(n, 2 * math.pi * j / m, eta) for j in range(m)) / m
        if fixed:
            return _mixed_mean(n, (sim["phase_b"] - sim["phase_a"]) % (2 * math.pi), eta)
    raise ValueError(f"no exact reference for simulate {sim}")


def reference(op, oracle):
    """The exact reference an operation's output is checked against."""
    if "sim" in op:
        return simulate_reference(op["sim"])
    if "func" in op:
        return float(oracle.call(op["func"], op["args"]))
    argv = op["argv"]

    def flag(name):
        return argv[argv.index(name) + 1]

    if argv[0] == "curves":
        rows = range(int(flag("--n-min")), int(flag("--n-max")) + 1)
        return {n: [float(v) for v in oracle.curve_row(n)] for n in rows}
    if argv[0] == "povm":
        return oracle.povm(int(flag("--n")), float(flag("--phase")))
    if argv[0] == "verify":
        return None
    raise ValueError(f"no reference for {op['id']}")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _parse_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def check(op, ref, rc, out, err):
    """Reasons the output of one operation is wrong; empty when correct.

    ``rc`` is the exit code, ``out`` and ``err`` the text the operation
    wrote to standard output and standard error.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    if "Traceback" in err:
        return ["traceback on stderr"]
    try:
        if "sim" in op:
            return _check_simulate(op["sim"], ref, _parse_json(out))
        if "func" in op:
            value = float(out)
            # The largest binomial row behind the value: n_a + n_b, or 2N for eta(N, 2N).
            args = op["args"]
            row = sum(args) if len(args) == 2 else 2 * args[0]
            if not math.isfinite(value) or _rel_err(value, ref) > closed_form_tol(row):
                return [f"value {value!r} vs oracle {ref!r}"]
            return []
        command = op["argv"][0]
        if command == "curves":
            return _check_curves(ref, out)
        if command == "povm":
            return _check_povm(ref, _parse_json(out))
        if command == "verify":
            lines = out.splitlines()
            bad = [line for line in lines if not line.startswith("PASS ")]
            return [f"verify line: {line}" for line in bad] or ([] if lines else ["no verify output"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    raise ValueError(f"no check for {op['id']}")


def _check_simulate(sim, ref, payload):
    report = payload["report"]
    mean, se = report["mean_overlap_product"], report["overlap_product_se"]
    numbers = [mean, se, report["mean_abs_fidelity_error"], report["abs_fidelity_error_se"],
               report["analytic_probability"]]
    if report["perp_probability"] is not None:
        numbers.append(report["perp_probability"])
    if not all(_finite(x) for x in numbers):
        return [f"non-finite report value in {numbers}"]
    if report["trials"] != sim["trials"] or any(sum(t) != sim["trials"] for t in report["tallies"].values()):
        return ["tallies do not sum to the trial count"]
    if sim["trials"] > 1:
        if not se > 0:
            return [f"standard error {se} is not positive"]
        z = (mean - ref) / se
        if abs(z) > Z_MAX:
            return [f"mean {mean!r} is {z:+.2f} standard errors from the exact {ref!r}"]
    return []


def _check_curves(ref, out):
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["N", *CURVE_COLUMNS] or len(rows) - 1 != len(ref):
        return ["curves table has the wrong header or row count"]
    problems = []
    for row in rows[1:]:
        if len(row) != len(CURVE_COLUMNS) + 1:
            return [f"curves row {row} has the wrong number of columns"]
        n = int(row[0])
        values = [float(v) for v in row[1:]]
        worst = max(_rel_err(v, r) if math.isfinite(v) else math.inf for v, r in zip(values, ref[n]))
        if worst > closed_form_tol(2 * n):
            problems.append(f"curves row N={n}: relative error {worst:.2e}")
    return problems


def _check_povm(ref, payload):
    probs, estimates = ref
    got_p, got_e = payload["probabilities"], payload["estimated_phases"]
    if len(got_p) != len(probs) or len(got_e) != len(estimates):
        return ["povm output has the wrong length"]
    worst = max(abs(a - b) if _finite(a) else math.inf
                for a, b in zip(got_p + got_e, probs + estimates))
    return [f"povm deviates from the oracle by {worst:.2e}"] if worst > POVM_TOL else []
