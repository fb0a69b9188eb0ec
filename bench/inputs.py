"""Seeded input files for the benchmark workloads.

Only ``numpy.random.Generator.uniform`` and ``negative_binomial`` draw the
data, so the files do not depend on popest's own samplers: two commits of
popest read byte-identical inputs for the same seed.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

ALPHA, BETA, PHI = 0.7, 0.8, 2.5
SCHEMA = "period=period,country=country,domain=sex+age,m=m,n=n,N=N"


def panel_csv(seed: int, periods: int, countries: int, ages: int) -> str:
    """One CSV row per (period, country, sex, age) stratum.

    N is log-uniform on [1e2, 5e5] and n/N log-uniform on [5e-4, 0.2], as in
    ``popest.simulation.synthetic_population``; m is NB2 at the power-link
    mean N^ALPHA (n/N)^BETA with dispersion PHI.
    """
    rng = np.random.default_rng([seed, periods, countries, ages])
    size = periods * countries * 2 * ages
    N = np.maximum(np.round(np.exp(rng.uniform(np.log(1e2), np.log(5e5), size))), 2)
    ratio = np.exp(rng.uniform(np.log(5e-4), np.log(0.2), size))
    n = np.clip(np.round(N * ratio), 1, N - 1)
    mu = np.exp(ALPHA * np.log(N) + BETA * (np.log(n) - np.log(N)))
    m = rng.negative_binomial(PHI, PHI / (PHI + mu))
    lines = ["period,country,sex,age,m,n,N"]
    i = 0
    for p in range(periods):
        for c in range(countries):
            for sex in ("F", "M"):
                for a in range(ages):
                    lines.append(
                        f"P{p:02d},C{c},{sex},A{a},{int(m[i])},{int(n[i])},{int(N[i])}"
                    )
                    i += 1
    return "\n".join(lines) + "\n"


def write(path: str, text: str) -> str:
    """Write ``text`` to ``path`` and return its sha256."""
    data = text.encode("utf-8")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def digest(paths: list) -> str:
    """sha256 of the concatenated contents of ``paths``."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
