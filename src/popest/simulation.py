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

from .dataio import csv_text
from .distributions import sample_many, CountFamily, Family, Truncation
from .meanmodel import ModelData, ParamVector
from .mle import FIT_ERRORS, FitOptions, fit_kind, fit_many, linearized_start, presolve_rows

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
        for N, n in self.population:
            if not (0 < n < N):
                raise ValueError(f"population pair (N={N}, n={n}) must satisfy 0 < n < N")


@dataclass
class SimulationReport:
    design: SimDesign
    metrics: dict[str, dict[str, dict[str, float]]]  # variant -> parameter -> rb/rrmse
    failures: dict[str, int]

    def to_csv(self) -> str:
        cells = ("rb_percent", "rrmse_percent")
        rows = [(v, p, *(f"{self.metrics[v][p][c]:.6f}" for c in cells), self.failures[v])
                for v in self.design.variants for p in PARAMETERS]
        return csv_text(["variant", "parameter", *cells, "failures"], rows)


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
    """Replicate b's counts, the strata it keeps and the linearized start on
    those; None when fewer than 3 strata are kept."""
    rng = np.random.default_rng([design.seed, b])
    fam = CountFamily(Family.NB2, Truncation.NONE)
    m = sample_many(fam, mu, design.phi_true, rng).astype(float)
    keep = m > 0 if design.drop_zeros else np.ones(len(m), dtype=bool)
    if int(keep.sum()) < 3:
        return None
    return m, keep, _init_from_arrays(m[keep], log_N[keep], log_ratio[keep])


def _refit(md: ModelData, kind: str, start: ParamVector, log_N) -> dict | None:
    """The estimates of the refit from ``start``, or None when it fails."""
    try:
        params, _, _, conv = fit_kind(md, kind, start, FitOptions())
    except FIT_ERRORS:
        return None
    if not conv.converged:
        return None
    alpha_hat = float(params.alpha[0])
    return {
        "alpha": alpha_hat,
        "beta": float(params.beta[0]),
        "phi": float(params.phi),
        "xi": float(np.sum(np.exp(alpha_hat * log_N))),
    }


def _replicates(design: SimDesign, log_N, log_ratio, mu) -> list[dict]:
    """variant -> estimates or None, per replicate. Replicates run in blocks
    of ``presolve_rows``: the draws, one ``fit_many`` pre-solve per variant
    over the block's replicates with enough strata, then one ``fit_kind``
    call per replicate and variant."""
    ones = np.ones((len(mu), 1))
    size = presolve_rows(len(mu))
    out = []
    for lo in range(0, design.B, size):
        drawn = [_draw(b, design, log_N, log_ratio, mu) for b in range(lo, min(lo + size, design.B))]
        fitted = [r for r in drawn if r is not None]
        presolved = {variant: iter([None] * len(fitted)) for variant in design.variants}
        if size > 1 and fitted:
            # Dropped strata hold count 1, valid for every variant; the mask
            # leaves them out of each sum.
            M = np.array([np.where(keep, m, 1.0) for m, keep, _ in fitted])
            mask = np.array([keep for _, keep, _ in fitted])
            starts = np.array([s for _, _, s in fitted])
            md = ModelData(m=ones[:, 0], log_N=log_N, log_ratio=log_ratio, X=ones, Z=ones, index=[])
            presolved = {
                variant: iter(fit_many(md, M, VARIANT_KINDS[variant], starts, mask))
                for variant in design.variants
            }
        for r in drawn:
            if r is None:
                out.append(dict.fromkeys(design.variants))
                continue
            m, keep, (a0, b0, phi0) = r
            index = np.flatnonzero(keep).tolist()  # stratum positions, for error messages
            md = ModelData(
                m=m[keep], log_N=log_N[keep], log_ratio=log_ratio[keep],
                X=ones[keep], Z=ones[keep], index=index,
            )
            start = ParamVector(alpha=np.array([a0]), beta=np.array([b0]), phi=phi0)
            out.append({
                variant: _refit(md, VARIANT_KINDS[variant], next(presolved[variant]) or start, log_N)
                for variant in design.variants
            })
    return out


def run_simulation(design: SimDesign, threads: int | None = None) -> SimulationReport:
    """Fit every variant to ``design.B`` replicate panels and aggregate.

    Replicates run in blocks of ``mle.presolve_rows`` replicates, so memory
    does not grow with B, and the refits of a block in two steps. After the
    block's counts are drawn, ``fit_many`` solves each variant on its
    replicates in lockstep from their linearized starts (the pre-solve),
    with the dropped strata masked out. Each replicate and variant is then
    certified by its own ``fit_kind`` call, which decides its status: from
    the pre-solved parameters when that row converged, where it typically
    stops after one score/Hessian evaluation, and otherwise from the
    linearized start, the serial refit itself. Populations of more than
    1 024 strata, where fewer than 4 replicates fit in a block, have no
    pre-solve: every refit is serial. ``threads`` (and the
    ``POPEST_THREADS`` environment variable) is accepted and has no effect;
    results do not depend on it.
    """
    if design.B < 2:
        raise ValueError("B must be >= 2")
    if not design.population:
        raise ValueError("design.population is empty")
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

    results = _replicates(design, log_N, log_ratio, mu)

    metrics: dict[str, dict[str, dict[str, float]]] = {}
    failures: dict[str, int] = {}
    for variant in design.variants:
        rows = [r[variant] for r in results if r[variant] is not None]
        failures[variant] = design.B - len(rows)
        metrics[variant] = {}
        for parameter in PARAMETERS:
            est = np.array([row[parameter] for row in rows]) if rows else np.array([np.nan])
            metrics[variant][parameter] = aggregate_metrics(est, truth[parameter])
    return SimulationReport(design=design, metrics=metrics, failures=failures)
