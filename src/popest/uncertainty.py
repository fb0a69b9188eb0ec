"""Interval estimation and bootstrap MSE.

Plug-in Wald interval on the alpha coefficients pushed through the xi
formula, a parametric bootstrap (MVN draws of the parameter vector, count
regeneration, refit), percentile intervals, and the shortest-probability
interval over order-statistic windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .distributions import sample_many
# fit_kind is called by mle.refit_many, not here; bench/trace_worker.py wraps
# uncertainty.fit_kind, which must stay mle.fit_kind, or its fit counts are lost.
from .mle import FittedModel, fit_kind, presolve_rows, refit_many, xi_from_alpha
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
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    alpha_lo = fit.params.alpha - z * se_alpha
    alpha_hi = fit.params.alpha + z * se_alpha
    return (
        xi_from_alpha(fit.data, alpha_lo),
        xi_from_alpha(fit.data, alpha_hi),
    )


def percentile_interval(samples, level: float) -> tuple[float, float]:
    """Empirical quantiles with the linear-interpolation rule h = (n-1)p + 1.

    The arithmetic is that of ``np.quantile(..., method="linear")``, bit for
    bit, written out because np.quantile calls np.unique, whose first call
    imports numpy.ma, which no command otherwise loads.
    """
    _check_level(level, whole_sample=True)
    x = np.asarray(samples, dtype=float)
    x = np.sort(x[np.isfinite(x)])
    if len(x) < 2:
        raise IntervalError(f"need at least 2 finite samples, got {len(x)}")
    tail = (1.0 - level) / 2.0
    h = (len(x) - 1) * np.array([tail, 1.0 - tail])
    below = np.floor(h)
    gamma = h - below
    i = below.astype(np.intp)
    a, b = x[i], x[np.minimum(i + 1, len(x) - 1)]
    step = b - a
    lo, hi = np.where(gamma >= 0.5, b - step * (1.0 - gamma), a + step * gamma)
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


def _draw(b: int, seed: int, fit: FittedModel, root: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Replicate b's draws: (xi_star, regenerated counts, phi redraws).
    ``root`` is the symmetric square root of ``fit.covariance``."""
    rng = np.random.default_rng([seed, b])
    md = fit.data
    has_phi = fit.params.phi is not None
    eta, redraws = _draw_eta_star(fit.params.stacked(), root, has_phi, rng)
    params_star = ParamVector.unstack(eta, md.X.shape[1], md.Z.shape[1], has_phi)
    xi_star = xi_from_alpha(md, params_star.alpha)
    mu_star = md.mu_values(params_star)
    m_star = sample_many(fit.model.family, mu_star, params_star.phi, rng)
    return xi_star, m_star.astype(float), redraws


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
    The percentile and SPIN intervals are computed over the xi* draws of the
    successful refits, and left out when fewer than 2 (10) succeeded; mse is
    over their pairs, NaN when none succeeded.

    The replicates run in blocks of ``mle.presolve_rows`` replicates, so
    memory does not grow with B, and each block's refits from ``fit.params``
    are those of ``mle.refit_many``. Each replicate's draws come from its
    own generator, so results do not depend on the blocks.
    ``threads`` (and the ``POPEST_THREADS`` environment variable) is accepted
    and has no effect; results do not depend on it.
    """
    if fit.covariance is None:
        raise IntervalError("fit has no covariance; bootstrap disabled")
    if B < 1:
        raise ValueError("B must be positive")
    _check_level(level)
    root = _sym_sqrt(np.asarray(fit.covariance, dtype=float))
    md, kind = fit.data, fit.model.family.token
    size = presolve_rows(len(md.m))
    xi_star, xi_hat, redraws = [], [], 0
    for lo in range(0, B, size):
        block = [_draw(b, seed, fit, root) for b in range(lo, min(lo + size, B))]
        (refits,) = refit_many(md, np.array([m for _, m, _ in block]), [kind], fit.params.stacked())
        for (xs, _, r), params in zip(block, refits):
            xi_star.append(xs)
            xi_hat.append(None if params is None else xi_from_alpha(md, params.alpha))
            redraws += r

    draws = [(xs, xh) for xs, xh in zip(xi_star, xi_hat) if xh is not None]
    failures = xi_hat.count(None)

    xs = np.array([d[0] for d in draws])
    if draws:
        xh = np.array([d[1] for d in draws])
        mse = float(np.mean((xh - xs) ** 2))
        rmse = float(np.sqrt(mse) / np.mean(xs)) if np.mean(xs) != 0 else float("nan")
    else:
        mse = float("nan")
        rmse = float("nan")

    # The bootstrap intervals take the xi* draws of the successful refits
    # only; with none, only the plug-in interval is reported.
    intervals = {"plugin": plugin_interval(fit, level)}
    if len(xs) >= 2:
        intervals["percentile"] = percentile_interval(xs, level)
    if len(xs) >= 10:
        intervals["spin"] = spin_interval(xs, level)

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
