"""Monte-Carlo comparison of likelihood variants under zero-removal.

Generates counts from an untruncated NB2 at the power-link mean, drops the
zero strata the way apprehension data hides them, fits each likelihood
variant, and reports relative bias and relative root-MSE for alpha, beta,
phi and xi. The variants: the Stirling-reduced NB2 term, the exact NB2
computed through the Poisson-Gamma mixture arrangement, the exact NB2
closed form, and the zero-truncated NB2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import csv_lines
from .distributions import sample_many, CountFamily, Family, Truncation
from .meanmodel import ModelData
# fit_kind is called by mle.refit_many, not here; bench/trace_worker.py wraps
# simulation.fit_kind, which must stay mle.fit_kind, or its fit counts are lost.
from .mle import fit_kind, linearized_start, refit_many, xi_from_alpha

VARIANT_KINDS = {
    "zhang-approx": "zhang",
    "exact-gamma": "nb2-mixture",
    "nb2-closed": "nb2",
    "zt-nb2": "ztnb2",
}

PARAMETERS = ("alpha", "beta", "phi", "xi")


@dataclass(frozen=True)
class SimDesign:
    alpha_true: float = 0.7
    beta_true: float = 0.8
    phi_true: float = 2.5
    B: int = 500
    seed: int = 1
    population: tuple[tuple[int, int], ...] = ()
    variants: tuple[str, ...] = tuple(VARIANT_KINDS)
    drop_zeros: bool = True  # mimic apprehension data hiding empty strata

    def __post_init__(self):
        for name in self.variants:
            if name not in VARIANT_KINDS:
                raise ValueError(f"unknown variant {name!r}")
        if len(set(self.variants)) != len(self.variants):
            raise ValueError(f"repeated variant in {', '.join(self.variants)}")
        for N, n in self.population:
            if not (0 < n < N):
                raise ValueError(f"population pair (N={N}, n={n}) must satisfy 0 < n < N")
        if len(self.population) < 3:
            raise ValueError(f"population has {len(self.population)} strata; a fit needs at least 3")


@dataclass
class SimulationReport:
    design: SimDesign
    metrics: dict[str, dict[str, dict[str, float]]]  # variant -> parameter -> rb/rrmse
    failures: dict[str, int]

    def to_csv(self) -> str:
        cells = ("rb_percent", "rrmse_percent")
        rows = [(v, p, *(f"{self.metrics[v][p][c]:.6f}" for c in cells), self.failures[v])
                for v in self.design.variants for p in PARAMETERS]
        return "".join(csv_lines(["variant", "parameter", *cells, "failures"], rows))


def synthetic_population(count: int, seed: int) -> list[tuple[int, int]]:
    """Stand-in (N, n) pairs: heavy-tailed log-uniform register sizes with one
    dominant stratum, and a log-uniform register-to-population ratio."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    N = np.exp(rng.uniform(np.log(1e2), np.log(5e5), size=count))
    N = np.maximum(np.round(N), 2).astype(np.int64)
    N[0] = 170_000
    # Ratio range chosen so a realistic share of strata sits at small means
    # and the zero-removal step actually bites.
    r = np.exp(rng.uniform(np.log(5e-4), np.log(0.2), size=count))
    n = np.clip(np.round(N * r), 1, N - 1).astype(np.int64)
    return list(zip(N.tolist(), n.tolist()))


def aggregate_metrics(estimates: np.ndarray, truth: float) -> dict[str, float]:
    """RB and RRMSE as percents of the true value over replicate estimates."""
    est = np.asarray(estimates, dtype=float)
    rb = float(np.mean((est - truth) / truth) * 100.0)
    rrmse = float(np.sqrt(np.mean((est - truth) ** 2)) / truth * 100.0)
    return {"rb_percent": rb, "rrmse_percent": rrmse}


def _init_from_arrays(m, log_N, log_ratio) -> tuple[float, float, float]:
    # Zero counts are clamped so the regression is finite.
    return linearized_start(np.maximum(m, 1.0), log_N, log_ratio)


def _draw(b: int, design: SimDesign, log_N, log_ratio, mu):
    """Replicate b for ``mle.refit_many``: (counts, with 1, valid for every
    variant, in the dropped strata; the linearized start on the kept strata;
    the mask of those strata; no extra), or None when fewer than 3 strata
    are kept."""
    rng = np.random.default_rng([design.seed, b])
    fam = CountFamily(Family.NB2, Truncation.NONE)
    m = sample_many(fam, mu, design.phi_true, rng).astype(float)
    keep = m > 0 if design.drop_zeros else np.ones(len(m), dtype=bool)
    if int(keep.sum()) < 3:
        return None
    start = _init_from_arrays(m[keep], log_N[keep], log_ratio[keep])
    return np.where(keep, m, 1.0), start, keep, None


def run_simulation(design: SimDesign, threads: int | None = None) -> SimulationReport:
    """Fit every variant to ``design.B`` replicate panels and aggregate.

    ``mle.refit_many`` draws the replicates and refits every variant on
    each one's kept strata; a replicate that keeps fewer than 3 strata is
    not fitted and counts as a failure of every variant. ``threads`` (and
    the ``POPEST_THREADS`` environment variable) is accepted and has no
    effect; results do not depend on it.
    """
    if design.B < 2:
        raise ValueError("B must be >= 2")
    N = np.array([p[0] for p in design.population], dtype=float)
    n = np.array([p[1] for p in design.population], dtype=float)
    log_N = np.log(N)
    log_ratio = np.log(n) - np.log(N)
    mu = np.exp(design.alpha_true * log_N + design.beta_true * log_ratio)
    xi_true = float(np.sum(N**design.alpha_true))
    truth = {
        "alpha": design.alpha_true,
        "beta": design.beta_true,
        "phi": design.phi_true,
        "xi": xi_true,
    }

    ones = np.ones((len(mu), 1))
    md = ModelData(m=ones[:, 0], log_N=log_N, log_ratio=log_ratio, X=ones, Z=ones, index=[])
    estimates = [[] for _ in design.variants]  # (alpha, beta, phi, xi) of each converged refit
    draw = lambda b: _draw(b, design, log_N, log_ratio, mu)
    for _, refits in refit_many(md, design.B, draw, [VARIANT_KINDS[v] for v in design.variants]):
        for rows, p in zip(estimates, refits):
            if p is not None:
                rows.append((float(p.alpha[0]), float(p.beta[0]), float(p.phi),
                             xi_from_alpha(md, p.alpha)))

    metrics: dict[str, dict[str, dict[str, float]]] = {}
    failures: dict[str, int] = {}
    for variant, rows in zip(design.variants, estimates):
        failures[variant] = design.B - len(rows)
        columns = zip(*rows) if rows else [[np.nan]] * len(PARAMETERS)
        metrics[variant] = {p: aggregate_metrics(c, truth[p]) for p, c in zip(PARAMETERS, columns)}
    return SimulationReport(design=design, metrics=metrics, failures=failures)
