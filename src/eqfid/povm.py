"""Covariant phase measurement on the symmetric subspace.

The optimal projective measurement for the phase of N identical equatorial
qubits is the discrete Fourier basis of the (N+1)-dimensional symmetric
subspace; outcome k carries the phase estimate 2 pi k / (N+1). This module
provides the basis, which verify holds the outcome laws to, the one row
builder for shift-covariant outcome laws (one FFT of their Fourier
coefficients per phase) and the inverse-CDF sampler of their offsets at a
uniform phase, the Fourier coefficients of both outcome laws from one
rank-one sum (the pure law is its eta = 1 case), the estimator and the mean
estimation fidelity by direct quadrature; its closed form is in cloning.
"""

import itertools
import math
from typing import Callable

import numpy as np

from .numerics import TWO_PI, as_phase, check_cap, check_int
from .symmetric import _dicke_weights

# offset_sampler interpolates the offset CDF on a theta grid of 2^k cells,
# at least OFFSET_CELLS_PER_ROOT_N sqrt(N) of them: the quintic Hermite error
# bound, h^6 max|F^(6)| / 46080, grows as N^3 and stays near 2e-16.
OFFSET_CELLS_PER_ROOT_N = 600

# mixed_coefficients drops each rank-one term below this fraction of the first.
_RANK_ONE_CUTOFF = 1e-18


def povm_basis(n_copies: int) -> np.ndarray:
    """(N+1) x (N+1) unitary whose column k is the measurement vector
    with components e^{2 pi i k n / (N+1)} / sqrt(N+1).

    The columns are pairwise orthonormal and their projectors sum to the
    identity, so the N+1 outcomes form a complete projective measurement.
    The outcome law is built from Fourier coefficients instead; verify holds
    it to this basis.
    """
    dim = check_cap(n_copies) + 1
    k = np.arange(dim)
    roots = np.exp(2j * np.pi * k / dim) / math.sqrt(dim)
    return roots[np.outer(k, k) % dim]


def covariant_rows(coeffs, phis) -> np.ndarray:
    """Rows p_k(phi) = Re sum_m c_m e^{i m (phi - est_k)}, k = 0 .. N, of a
    shift-covariant outcome law with one-sided Fourier coefficients
    c_0 .. c_N, one row per phase in phis.

    The law is q(phi - est_k) with q(x) = sum_{|m| <= N} q_m e^{i m x}, so
    c_0 = q_0 and c_m = 2 q_m. With est_k = 2 pi k / (N+1), each row is the
    real part of one length-(N+1) DFT of c_m e^{i m phi}. Entries are
    clamped into [0, 1]: rounding leaves tiny negative residues, and can lift
    a certain outcome just past one.
    """
    n = check_cap(len(coeffs) - 1)
    waves = np.exp(1j * np.outer(phis, np.arange(n + 1))) * coeffs
    return np.clip(np.fft.fft(waves, axis=-1).real, 0.0, 1.0)


def guide_search(cdf: np.ndarray) -> Callable:
    """np.searchsorted(cdf, u, side="right") for uniforms u in [0, 1) and a
    nondecreasing cdf, by a guide table: Chen and Asau's indexed search (AIIE
    Trans. 6, 1974; Devroye, Non-Uniform Random Variate Generation, III.2.4).

    Side right is the textbook inverse CDF: a tie in cdf, a slot of
    probability zero, never takes a uniform. u falls in bucket floor(u B) of
    B = 4 len(cdf) buckets, which is nondecreasing in u, so every entry in an
    earlier bucket lies below u; guide counts them. One probe step forward
    takes the entry at the guide if it is at most u; np.searchsorted takes
    the few uniforms that a second entry in their bucket leaves short.
    """
    buckets = 4 * len(cdf)
    counts = np.bincount((cdf * buckets).astype(np.intp), minlength=buckets)
    guide = np.append(0, np.cumsum(counts[:buckets]))
    at = np.append(cdf, np.inf)

    def search(u: np.ndarray, out: np.ndarray, upper: np.ndarray,
               index: np.ndarray) -> np.ndarray:
        """Writes the answers for u into out, an intp row of len(u), and
        cdf[answer], the first entry above u (inf past the end), into upper, a
        float row; index is an intp scratch row of the same length."""
        # take writes into out unbuffered only outside mode "raise"; every
        # index is in range, so "clip" never clips.
        np.multiply(u, buckets, out=index, casting="unsafe")
        np.take(guide, index, out=out, mode="clip")
        np.take(at, out, out=upper, mode="clip")
        # The probe step, on the few uniforms that reach the guide's entry.
        moved = np.flatnonzero(np.less_equal(upper, u, out=index.view(bool)[: len(u)]))
        out[moved] += 1
        upper[moved] = at[out[moved]]
        short = moved[upper[moved] <= u[moved]]
        out[short] = np.searchsorted(cdf, u[short], side="right")
        upper[short] = at[out[short]]
        return out

    return search


def offset_sampler(coeffs):
    """Inverse-CDF sampler of the offset theta = phi - est_k of a
    shift-covariant law with one-sided Fourier coefficients c_0 .. c_N, when
    phi is uniform.

    Each outcome k = 0 .. N then has probability c_0, and given k, theta has
    density q(theta) / (2 pi c_0) on [-pi, pi] with CDF
    F(theta) = (theta + pi) / 2 pi + sum_m c_m sin(m theta) / (2 pi c_0 m).
    One inverse FFT of the coefficients gives F, F' and F'' on a theta grid;
    each cell holds the quintic Hermite interpolant of F.
    The returned function maps uniforms u to offsets F^-1(u): guide_search
    finds each cell in the grid's CDF, and from the root of a quadratic
    model, Newton steps on the cell's quintic settle F(theta) = u to a
    residual near 1e-16.
    One step settles almost every uniform; bisection takes any that three
    leave unsettled. Each offset depends on its own uniform alone, so samples
    do not depend on how uniforms are batched.
    """
    c = np.asarray(coeffs, dtype=float)
    m = np.arange(len(c))
    cells = 1 << math.ceil(math.log2(OFFSET_CELLS_PER_ROOT_N * math.sqrt(len(c) - 1)))
    h = TWO_PI / cells
    sines = np.zeros(len(c))
    sines[1:] = c[1:] / (TWO_PI * c[0] * m[1:])
    # At theta_j = -pi + j h, sin(m theta_j) = (-1)^m sin(2 pi m j / cells),
    # and likewise for cos, so F - (theta + pi) / 2 pi, F' - 1 / 2 pi and F''
    # on the grid are real inverse FFTs.
    alternating = sines * (-1.0) ** m
    spectrum = np.stack([-1j * alternating, m * alternating, 1j * m * m * alternating])
    waves = np.fft.irfft(spectrum * (cells / 2), cells)
    cdf = np.append(np.arange(cells) / cells + waves[0], 1.0)
    # Rounding dips of about 1e-17 where the density vanishes are levelled, so
    # every uniform has one cell with cdf[j] <= u < cdf[j + 1].
    np.clip(np.maximum.accumulate(cdf), 0.0, 1.0, out=cdf)
    slope = h * (1.0 / TWO_PI + waves[1])
    bend = h * h * waves[2]
    slope, bend = np.append(slope, slope[0]), np.append(bend, bend[0])
    # The quintic on t in [0, 1] matching F, h F', h^2 F'' at both cell ends.
    f0, d0, s0 = cdf[:-1], slope[:-1], bend[:-1]
    a = cdf[1:] - (f0 + d0 + s0 / 2)
    b = slope[1:] - (d0 + s0)
    e = bend[1:] - s0
    quintic = np.stack(
        [f0, d0, s0 / 2, 10 * a - 4 * b + e / 2, 7 * b - 15 * a - e, 6 * a - 3 * b + e / 2]
    )
    # A Newton step dt leaves a residual near |p''| dt^2 / 2: it settles the
    # uniform once dt^2 is below eps / max |p''| at the cell's ends.
    bend_max = np.maximum(np.abs(bend[:-1]), np.abs(bend[1:]))
    settled = np.sqrt(2.0**-53 / np.maximum(bend_max, 2.0**-60))
    search = guide_search(cdf)

    def sample(u: np.ndarray, floats=None, ints=None) -> np.ndarray:
        """Offsets of the uniforms u, which is not written. floats, six float
        rows, and ints, two intp rows, each at least len(u) long, hold every
        len(u)-sized array; the offsets are written into floats[0]. Both are
        allocated when not given."""
        n = len(u)
        if floats is None:
            floats, ints = np.empty((6, n)), np.empty((2, n), dtype=np.intp)
        t, p0, p1, row, upper, root = (x[:n] for x in floats[:6])
        j, index = (x[:n] for x in ints[:2])
        # u's cell j has cdf[j] <= u < cdf[j + 1] = upper.
        search(u, j, upper, index)
        j -= 1
        below = index.view(bool)[:n]
        np.take(quintic[0], j, out=p0, mode="clip")
        np.take(quintic[1], j, out=p1, mode="clip")
        # Start from the root of the quadratic through p(0), p'(0) and p(1):
        # t = 2 rise / (p'(0) + root).
        rise = np.subtract(u, p0, out=t)
        curve = upper
        curve -= p0
        curve -= p1
        curve *= 4.0
        curve *= rise
        np.multiply(p1, p1, out=root)
        root += curve
        np.sqrt(np.maximum(root, 0.0, out=root), out=root)
        root += p1
        rise *= 2.0
        rise /= np.maximum(root, 1e-300, out=root)
        # np.clip holds the interpreter lock; maximum and minimum give its bits.
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        # Newton steps, the first on every uniform, each later one on those the
        # last left unsettled; then bisection for any still left. The first
        # gathers coefficients 5 to 2 into one row as Horner's rule reaches
        # them; the later ones gather only their few cells.
        gathered = (np.take(c, j, out=row, mode="clip") for c in quintic[:1:-1])
        value, rate = _quintic(itertools.chain(gathered, (p1, p0)), t, (upper, root))
        dt = np.subtract(value, u, out=value)
        dt /= np.maximum(rate, 1e-300, out=rate)
        t -= dt
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        np.less(np.take(settled, j, out=rate, mode="clip"), np.abs(dt, out=dt), out=below)
        todo = np.flatnonzero(below)
        for _ in range(2):
            if not todo.size:
                break
            value, rate = _quintic(quintic[::-1, j[todo]], t[todo])
            dt = (value - u[todo]) / np.maximum(rate, 1e-300)
            t[todo] = np.clip(t[todo] - dt, 0.0, 1.0)
            todo = todo[np.abs(dt) > settled[j[todo]]]
        if todo.size:
            t[todo] = _bisect(quintic[:, j[todo]], u[todo])
        # Counting cells from theta = 0 keeps the offsets near 0, where the
        # density peaks, free of the rounding of pi.
        j -= cells // 2
        t += j
        t *= h
        return t

    return sample


def _quintic(rows, t: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Value and t-derivative at t of quintics, by Horner's rule: rows yields
    their coefficient rows from degree 5 down to 0, and each is read before
    the next is asked for, so one array may hold several in turn. The rows of
    degrees 2 to 4 are scaled in place by their degree. The results are
    written into out's two rows (value, rate) when it is given."""
    value, rate = np.empty((2, len(t))) if out is None else out
    rows = iter(rows)
    p = next(rows)
    np.multiply(p, t, out=value)
    np.multiply(p, 5, out=rate)
    for degree in (4, 3, 2, 1):
        p = next(rows)
        value += p
        value *= t
        rate *= t
        if degree > 1:
            p *= degree
        rate += p
    value += next(rows)
    return value, rate


def _bisect(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """t in [0, 1] with quintic(p, t) = u, to 2^-53, by bisection."""
    lo, hi = np.zeros(len(u)), np.ones(len(u))
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        below = _quintic(p[::-1].copy(), mid)[0] < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def mixed_coefficients(n_copies: int, eta_value: float) -> np.ndarray:
    """One-sided Fourier coefficients of the full-mixed outcome law: the phase
    measurement on N shrunk copies rho = eta |psi(delta)><psi(delta)| + (1-eta) I/2.
    At eta = 1 it is the pure law, the j = 0 term alone, with c_0 exactly 1/(N+1).

    rho(0) = p+ |+><+| + p- |-><-| with p+- = (1 +- eta) / 2, so the Dicke
    block of rho(0)^{(x) N} is R = sum_j p+^{N-j} p-^j |D_j><D_j| over the
    X-basis Dicke states D_j = w h_j: w the Dicke weights, h_j = K_j /
    sqrt(C(N, j)) the normalized Krawtchouk polynomial. So q_m is the sum of
    p+^{N-j} p-^j a_j[m] / (N+1), a_j the autocorrelation of w h_j over
    a_j[0] = |D_j|^2 (one, up to rounding), which gives each term unit trace;
    1 - tr R is the weight outside the symmetric subspace. The pair gate
    keeps 24 terms, the collective one 5 to 10 (see _RANK_ONE_CUTOFF). Near
    eta = 0 every term counts, and the recurrence loses the relative accuracy
    of c_m / c_0 at large N (0.2 at eta = 0, N = 200); the gates' eta is >= 0.7.
    """
    n = check_cap(n_copies)
    if not 0.0 <= eta_value <= 1.0:
        raise ValueError(f"shrinking factor must lie in [0, 1], got {eta_value}")
    eta = float(eta_value)
    w, p_plus, p_minus = _dicke_weights(n), (1.0 + eta) / 2.0, (1.0 - eta) / 2.0
    a = np.correlate(w, w, "full")[n:]
    c = p_plus**n * (a / a[0])  # h_0 = 1
    # The later terms, none at eta = 1, from h_1 = (N - 2i) / sqrt(N) on.
    if p_minus / p_plus >= _RANK_ONE_CUTOFF:
        slope = n - 2 * np.arange(n + 1)
        h_prev, h = np.ones(n + 1), slope / math.sqrt(n)
        for j in range(1, n + 1):
            v = w * h
            a = np.correlate(v, v, "full")[n:]
            c += p_plus ** (n - j) * p_minus**j * (a / a[0])
            if j == n or (p_minus / p_plus) ** (j + 1) < _RANK_ONE_CUTOFF:
                break
            # The three-term recurrence of K_j / sqrt(C(N, j)).
            h_prev, h = h, (slope * h - math.sqrt(j * (n - j + 1)) * h_prev) / math.sqrt((j + 1) * (n - j))
    c /= n + 1
    c[1:] *= 2.0
    return c


def outcome_rows(n_copies: int, phis) -> np.ndarray:
    """Outcome probabilities p_k(phi) = |<basis_k | Phi(phi)>|^2, k = 0 .. N,
    one row per phase in phis; each row sums to one."""
    return covariant_rows(mixed_coefficients(n_copies, 1.0), phis)


def outcome_distribution(n_copies: int, phase) -> np.ndarray:
    """Outcome probabilities p_k = |<basis_k | Phi(phi)>|^2 at one phase."""
    return outcome_rows(n_copies, [as_phase(phase)])[0]


def estimate_phase(outcome: int, n_copies: int) -> float:
    """Phase estimate 2 pi k / (N+1) attached to outcome k, read from
    phase_estimates(N); k in 0..N and N in 1..BASIS_CAP are integers."""
    estimates = phase_estimates(n_copies)
    return float(estimates[check_int(outcome, "outcome", 0, len(estimates) - 1)])


def phase_estimates(n_copies: int) -> np.ndarray:
    """Phase estimates of all outcomes k = 0 .. N, in outcome order; N is an
    integer in 1..BASIS_CAP."""
    n = check_cap(n_copies)
    return TWO_PI * np.arange(n + 1) / (n + 1)


def mean_fidelity_numeric(n_copies: int) -> float:
    """Phase-averaged estimation fidelity by direct quadrature at one phase.

    The integrand sum_k p_k(phi) cos^2((est_k - phi)/2) is evaluated from the
    outcome law and the estimator. Measurement and estimator are covariant
    under phase shifts by 2 pi / (N+1), so the integrand is a trigonometric
    polynomial whose only non-constant harmonic is cos((N+1) phi), with a
    real coefficient: at phi = pi / (2(N+1)) it vanishes, and the integrand
    there is the exact phase average.
    """
    return _fidelity_quadrature(n_copies)[1]


def _fidelity_quadrature(n_copies: int, phases=()) -> tuple[np.ndarray, float]:
    """outcome_rows(N, phases) and mean_fidelity_numeric(N), the quadrature
    over one more row of the same call, at pi / (2(N+1)); N is checked first."""
    n = check_cap(n_copies)
    phi = math.pi / (2.0 * (n + 1))
    rows = outcome_rows(n, (*phases, phi))
    return rows[:-1], float(np.sum(rows[-1] * np.cos((phase_estimates(n) - phi) / 2.0) ** 2))
