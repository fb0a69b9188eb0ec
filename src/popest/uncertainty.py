"""Interval estimation and bootstrap MSE.

Plug-in Wald interval on the alpha coefficients pushed through the xi
formula, a parametric bootstrap (MVN draws of the parameter vector, count
regeneration, refit), percentile intervals, and the shortest-probability
interval over order-statistic windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .distributions import sample_many
from .mle import FIT_ERRORS, FitOptions, FittedModel, fit_kind, xi_from_alpha
from .meanmodel import ParamVector


class IntervalError(ValueError):
    """Missing covariance or too few samples to form an interval."""


def _check_level(level: float, whole_sample: bool = False) -> None:
    """A level lies strictly between 0 and 1; an interval over samples also
    takes level 1, the whole sample."""
    if not (0.0 < level < 1.0 or whole_sample and level == 1.0):
        also = " or be 1" if whole_sample else ""
        raise ValueError(f"level must lie strictly between 0 and 1{also}, got {level}")


def plugin_interval(fit: FittedModel, level: float = 0.95) -> tuple[float, float]:
    """Wald bounds on each alpha coefficient, pushed through xi."""
    _check_level(level)
    if fit.covariance is None:
        raise IntervalError("fit has no covariance; plug-in interval unavailable")
    n_alpha = len(fit.params.alpha)
    se_alpha = fit.se[:n_alpha]
    z = ndtri(0.5 + level / 2.0)
    alpha_lo = fit.params.alpha - z * se_alpha
    alpha_hi = fit.params.alpha + z * se_alpha
    return (
        xi_from_alpha(fit.data, alpha_lo),
        xi_from_alpha(fit.data, alpha_hi),
    )


def percentile_interval(samples, level: float) -> tuple[float, float]:
    """Empirical quantiles with the linear-interpolation rule h = (n-1)p + 1."""
    _check_level(level, whole_sample=True)
    x = np.asarray(samples, dtype=float)
    x = x[np.isfinite(x)]
    if len(x) < 2:
        raise IntervalError(f"need at least 2 finite samples, got {len(x)}")
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(x, [tail, 1.0 - tail], method="linear")
    return float(lo), float(hi)


def spin_interval(samples, level: float) -> tuple[float, float]:
    """Shortest window of ceil(level*n) order statistics.

    Ties break toward the window with the smaller lower endpoint.
    """
    _check_level(level, whole_sample=True)
    x = np.sort(np.asarray(samples, dtype=float))
    x = x[np.isfinite(x)]
    n = len(x)
    if n < 10:
        raise IntervalError(f"need at least 10 finite samples, got {n}")
    k = int(np.ceil(level * n))
    k = max(min(k, n), 1)
    widths = x[k - 1 :] - x[: n - k + 1]
    i = int(np.argmin(widths))  # argmin takes the first, i.e. smallest lower end
    return float(x[i]), float(x[i + k - 1])


@dataclass
class BootstrapResult:
    B: int
    draws: list[tuple[float, float]]  # (xi_star, xi_hat_star)
    mse: float
    rmse: float
    intervals: dict[str, tuple[float, float]]
    seed: int
    failures: int
    phi_redraw_count: int = 0
    unreliable: bool = False
    level: float = 0.95

    def to_dict(self) -> dict:
        return {
            "B": self.B,
            "seed": self.seed,
            "level": self.level,
            "mse": self.mse,
            "sqrt_mse": float(np.sqrt(self.mse)),
            "rmse": self.rmse,
            "intervals": {k: [v[0], v[1]] for k, v in self.intervals.items()},
            "failures": self.failures,
            "phi_redraw_count": self.phi_redraw_count,
            "unreliable": self.unreliable,
        }


def _sym_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric matrix square root with diagonal jitter when needed."""
    cov = 0.5 * (cov + cov.T)
    try:
        vals, vecs = np.linalg.eigh(cov)
        jitter = np.min(vals) < 0
    except np.linalg.LinAlgError:
        jitter = True
    if jitter:
        vals, vecs = np.linalg.eigh(cov + 1e-10 * np.eye(len(cov)))
    vals = np.clip(vals, 0.0, None)
    return vecs @ (np.sqrt(vals)[:, None] * vecs.T)


def _draw_eta_star(
    mean: np.ndarray, root: np.ndarray, has_phi: bool, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """One MVN draw on the natural scale, redrawing while phi* <= 0."""
    redraws = 0
    for _ in range(101):
        eta = mean + root @ rng.standard_normal(len(mean))
        if not has_phi or eta[-1] > 0:
            return eta, redraws
        redraws += 1
    raise RuntimeError("exceeded 100 redraws waiting for a positive phi*")


def _replicate(
    b: int, seed: int, fit: FittedModel, root: np.ndarray
) -> tuple[float, float | None, int]:
    """Returns (xi_star, xi_hat_star or None on refit failure, phi redraws).
    ``root`` is the symmetric square root of ``fit.covariance``."""
    rng = np.random.default_rng([seed, b])
    md = fit.data
    has_phi = fit.params.phi is not None
    eta, redraws = _draw_eta_star(fit.params.stacked(), root, has_phi, rng)
    params_star = ParamVector.unstack(eta, md.X.shape[1], md.Z.shape[1], has_phi)
    xi_star = xi_from_alpha(md, params_star.alpha)
    mu_star = md.mu_values(params_star)
    m_star = sample_many(fit.model.family, mu_star, params_star.phi, rng)
    md_star = md.with_counts(m_star.astype(float))
    kind = fit.model.family.token
    try:
        params_hat, _, _, conv = fit_kind(md_star, kind, fit.params, FitOptions())
        if not conv.converged:
            return xi_star, None, redraws
    except FIT_ERRORS:
        return xi_star, None, redraws
    return xi_star, xi_from_alpha(md_star, params_hat.alpha), redraws


def parametric_bootstrap(
    fit: FittedModel,
    B: int,
    seed: int,
    level: float = 0.95,
    threads: int | None = None,
) -> BootstrapResult:
    """Parametric bootstrap around a converged fit.

    Per replicate: draw eta* ~ MVN(eta_hat, Cov), compute xi*, regenerate
    counts from the fitted family at mu*, refit, record (xi*, xi_hat*).
    Intervals are computed over the xi* draws; mse over the pairs.

    Replicates run serially. ``threads`` (and the ``POPEST_THREADS``
    environment variable) is accepted and has no effect; results do not
    depend on it.
    """
    if fit.covariance is None:
        raise IntervalError("fit has no covariance; bootstrap disabled")
    if B < 1:
        raise ValueError("B must be positive")
    _check_level(level)
    root = _sym_sqrt(np.asarray(fit.covariance, dtype=float))
    results = [_replicate(b, seed, fit, root) for b in range(B)]

    draws = [(xs, xh) for xs, xh, _ in results if xh is not None]
    failures = sum(1 for _, xh, _ in results if xh is None)
    redraws = sum(r for _, _, r in results)

    xi_star_all = np.array([xs for xs, _, _ in results])
    if draws:
        xs = np.array([d[0] for d in draws])
        xh = np.array([d[1] for d in draws])
        mse = float(np.mean((xh - xs) ** 2))
        rmse = float(np.sqrt(mse) / np.mean(xs)) if np.mean(xs) != 0 else float("nan")
    else:
        mse = float("nan")
        rmse = float("nan")

    intervals = {"plugin": plugin_interval(fit, level)}
    xs_successful = np.array([d[0] for d in draws]) if draws else xi_star_all
    if len(xs_successful) >= 2:
        intervals["percentile"] = percentile_interval(xs_successful, level)
    if len(xs_successful) >= 10:
        intervals["spin"] = spin_interval(xs_successful, level)

    return BootstrapResult(
        B=B,
        draws=draws,
        mse=mse,
        rmse=rmse,
        intervals=intervals,
        seed=seed,
        failures=failures,
        phi_redraw_count=redraws,
        unreliable=failures > 0.2 * B,
        level=level,
    )
