"""Host-speed probe: a fixed mix of the work eqfid does, without eqfid.

    python3 bench/probe.py

One fresh process imports NumPy, runs an interpreter loop, builds complex
outcome rows with a two-threaded matrix product, samples them and reduces
with math.fsum. The code never changes, so its wall time measures only how
fast the host runs at that moment; run.py times one probe between every two
measured processes and scales their times by it.
"""

import math

import numpy as np


def main():
    total = 0
    for i in range(250_000):
        total += i * i
    rng = np.random.default_rng(12345)
    phases = 2.0 * math.pi * rng.random(65536)
    ns = np.arange(31)
    basis = np.exp(2j * math.pi * np.outer(ns, ns) / 31)
    rows = np.abs(np.exp(1j * np.outer(phases, ns)) @ basis) ** 2
    cdf = np.cumsum(rows, axis=1)
    picks = (cdf < rng.random(65536)[:, None] * cdf[:, -1:]).sum(axis=1)
    math.fsum(np.cos(picks / 31.0).tolist())


if __name__ == "__main__":
    main()
