"""Maximum-likelihood fitting.

Linearized OLS starting values, safeguarded Newton-Raphson on the stacked
parameter vector (dispersion on the log scale internally), observed-
information covariance on the natural scale, and the population-size
estimator xi = sum_i N_i^(x_i'alpha).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dataio import Dataset, StratumRecord
from .distributions import SupportError, kind_needs_phi, kind_support_min
from .meanmodel import (
    DesignSpec,
    ModelData,
    ModelSpec,
    ParamVector,
    loglik_kind,
    prepare,
    score_and_hessian_kind,
)

_LOG_PHI_MIN = float(np.log(1e-6))
_LOG_PHI_MAX = float(np.log(1e6))
_MAX_HALVINGS = 30
# Newton decrement g'(-H)^-1 g, the squared remaining step in standard errors
# (the covariance is (-H)^-1), below which a stalled line search is converged.
_DECREMENT_TOL = 1e-8


class InitError(ValueError):
    """Too few records for the linearized starting-value regression."""


def information_criteria(loglik: float, k: int, n_obs: int) -> tuple[float, float]:
    """AIC and BIC from the maximized log-likelihood and k free parameters."""
    aic = -2.0 * loglik + 2.0 * k
    bic = -2.0 * loglik + k * np.log(n_obs)
    return aic, bic


def linearized_ols(m, log_N, log_ratio) -> tuple[float, float, float] | None:
    """No-intercept OLS of log(m/N) on [log N, log(n/N)].

    Returns (alpha - 1, beta, phi0) with phi0 the inverse residual variance,
    clipped to [1e-6, 1e6]; None when the design is rank-deficient.
    """
    y = np.log(m) - log_N
    A = np.column_stack([log_N, log_ratio])
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < 2:
        return None
    resid = y - A @ coef
    var = float(resid @ resid) / max(len(y) - 2, 1)
    phi0 = 1e6 if var <= 1e-300 else float(np.clip(1.0 / var, 1e-6, 1e6))
    return float(coef[0]), float(coef[1]), phi0


def linearized_start(m, log_N, log_ratio) -> tuple[float, float, float]:
    """Newton starting values (alpha0, beta0, phi0) from ``linearized_ols``,
    with alpha0 = 1 + the coefficient of log N.

    Falls back to (0.5, 0.5, 1) with a warning when the design is rank-deficient.
    """
    ols = linearized_ols(m, log_N, log_ratio)
    if ols is None:
        warnings.warn(
            "linearized init design is rank-deficient; "
            "falling back to alpha0=0.5, beta0=0.5, phi0=1",
            stacklevel=3,
        )
        return 0.5, 0.5, 1.0
    coef_logN, beta0, phi0 = ols
    return 1.0 + coef_logN, beta0, phi0


def linearized_init(data: Dataset) -> tuple[float, float, float]:
    """Starting values (alpha0, beta0, phi0) from the records of ``data``; see
    ``linearized_start``."""
    if len(data.records) < 3:
        raise InitError(f"need at least 3 records, got {len(data.records)}")
    m = np.array([r.m for r in data.records], dtype=float)
    n = np.array([r.n for r in data.records], dtype=float)
    log_N = np.log(np.array([r.N for r in data.records], dtype=float))
    return linearized_start(m, log_N, np.log(n) - log_N)


@dataclass
class Convergence:
    """Why Newton stopped. ``status`` is "converged" when max|g| fell below
    ``grad_tol``, or when no step halving could raise the log-likelihood and
    the remaining Newton step was under 1e-4 standard errors; "stalled" when
    no halving helped short of that; "max-iterations" otherwise.
    ``iterations`` counts score/Hessian evaluations, the last one at the
    returned parameters (a fit that takes all ``max_iter`` steps makes
    ``max_iter + 1``); ``grad_norm`` is max|g| at the returned parameters."""

    iterations: int
    grad_norm: float
    status: str

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FittedModel:
    model: ModelSpec
    params: ParamVector
    covariance: np.ndarray | None
    loglik: float
    aic: float
    bic: float
    ssq: float
    xi_hat: float
    xi_by_group: dict[str, float]
    convergence: Convergence
    records: tuple[StratumRecord, ...] = ()
    data: ModelData | None = None
    domain_names: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        k = len(self.params.alpha) + len(self.params.beta)
        return k + (1 if self.params.phi is not None else 0)

    @property
    def se(self) -> np.ndarray | None:
        if self.covariance is None:
            return None
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def to_dict(self) -> dict:
        design = self.model.design
        labels = [f"alpha:{t.label()}" for t in design.alpha_covariates] + [
            f"beta:{t.label()}" for t in design.beta_covariates
        ]
        if self.params.phi is not None:
            labels.append("phi")
        out = {
            "model": {
                "family": self.model.family.token,
                "alpha_covariates": [t.label() for t in design.alpha_covariates],
                "beta_covariates": [t.label() for t in design.beta_covariates],
            },
            "params": {
                "alpha": [float(v) for v in self.params.alpha],
                "beta": [float(v) for v in self.params.beta],
            },
            "parameter_labels": labels,
            "se": None if self.se is None else [float(v) for v in self.se],
            "covariance": None
            if self.covariance is None
            else [[float(v) for v in row] for row in self.covariance],
            "loglik": float(self.loglik),
            "aic": float(self.aic),
            "bic": float(self.bic),
            "ssq": float(self.ssq),
            "xi_hat": float(self.xi_hat),
            "xi_by_group": {k: float(v) for k, v in self.xi_by_group.items()},
            "convergence": self.convergence.to_dict(),
        }
        if self.params.phi is not None:
            out["params"]["phi"] = float(self.params.phi)
        return out


def _internal_grad_hess(md, kind, theta, n_alpha, n_beta, has_phi):
    params = _params_from_internal(theta, n_alpha, n_beta, has_phi)
    g, H = score_and_hessian_kind(md, kind, params)
    if has_phi:
        phi = params.phi
        p = n_alpha + n_beta
        g_phi = g[p]
        g[p] = phi * g_phi
        H[:p, p] *= phi
        H[p, :p] *= phi
        H[p, p] = phi**2 * H[p, p] + phi * g_phi
    return g, H


def _params_from_internal(theta, n_alpha, n_beta, has_phi) -> ParamVector:
    """Internal theta carries log(phi) in its last slot, clipped by
    ``_clip_theta``."""
    pv = ParamVector.unstack(theta, n_alpha, n_beta, has_phi)
    if has_phi:
        pv.phi = float(np.exp(theta[-1]))
    return pv


def _clip_theta(theta, has_phi):
    theta = np.asarray(theta, float).copy()
    if has_phi:
        theta[-1] = min(max(float(theta[-1]), _LOG_PHI_MIN), _LOG_PHI_MAX)
    return theta


@dataclass
class FitOptions:
    """Newton settings: at most ``max_iter`` iterations, converged once
    max|g| < ``grad_tol``; accepted log-likelihood values are appended to
    ``trace`` when it is a list."""

    max_iter: int = 200
    grad_tol: float = 1e-6
    trace: list | None = None


# A probe whose mu = exp(W gamma) overflows or underflows is rejected through
# its non-finite log-likelihood, so its floating-point warnings are noise.
@np.errstate(all="ignore")
def fit_kind(
    md: ModelData,
    kind: str,
    start: ParamVector,
    options: FitOptions | None = None,
) -> tuple[ParamVector, float, np.ndarray | None, Convergence]:
    """Newton-Raphson ascent of the summed log-likelihood for ``kind``.

    Returns (params, loglik, covariance on the natural scale or None,
    convergence info). Dispersion is iterated on the log scale.
    """
    options = options or FitOptions()
    lo = kind_support_min(kind)
    if np.any(md.m < lo):
        i = int(np.argmax(md.m < lo))
        raise SupportError(
            f"record {md.index[i]} has m={md.m[i]:g}, below the support minimum {lo} of {kind}"
        )
    has_phi = kind_needs_phi(kind)
    n_alpha = md.X.shape[1]
    n_beta = md.Z.shape[1]
    theta = np.concatenate([np.asarray(start.alpha, float), np.asarray(start.beta, float)])
    if has_phi:
        theta = np.append(theta, np.log(start.phi))
    theta = _clip_theta(theta, has_phi)

    def objective(th):
        try:
            return loglik_kind(md, kind, _params_from_internal(th, n_alpha, n_beta, has_phi))
        except (FloatingPointError, RuntimeError, ValueError):
            return -np.inf

    ll = objective(theta)
    if not np.isfinite(ll):
        raise ValueError("log-likelihood is non-finite at the starting values")
    if options.trace is not None:
        options.trace.append(ll)

    status = "max-iterations"
    # One pass per evaluation of (g, H) at theta; the pass after the last
    # allowed step only tests the returned point and keeps H for the covariance.
    for it in range(1, max(options.max_iter, 0) + 2):
        g, H = _internal_grad_hess(md, kind, theta, n_alpha, n_beta, has_phi)
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm < options.grad_tol:
            status = "converged"
            break
        if it > options.max_iter:
            break
        try:
            np.linalg.cholesky(-H)
            step = np.linalg.solve(-H, g)
            decrement = float(g @ step)
        except np.linalg.LinAlgError:
            # Not negative definite here: fall back to scaled gradient ascent.
            scale = float(np.max(np.abs(np.diag(H))))
            step = g / max(scale, 1.0)
            decrement = np.inf
        accepted = False
        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = _clip_theta(theta + t * step, has_phi)
            ll_new = objective(cand)
            if np.isfinite(ll_new) and ll_new > ll:
                theta, ll = cand, ll_new
                accepted = True
                if options.trace is not None:
                    options.trace.append(ll)
                break
            t *= 0.5
        if not accepted:
            status = "converged" if decrement < _DECREMENT_TOL else "stalled"
            break

    params = _params_from_internal(theta, n_alpha, n_beta, has_phi)
    covariance = None
    try:
        cov_int = np.linalg.inv(-H)
        if has_phi:
            jac = np.ones(len(theta))
            jac[-1] = params.phi
            covariance = cov_int * np.outer(jac, jac)
        else:
            covariance = cov_int
        covariance = 0.5 * (covariance + covariance.T)
        if not np.all(np.isfinite(covariance)):
            covariance = None
    except np.linalg.LinAlgError:
        covariance = None
    return params, ll, covariance, Convergence(it, grad_norm, status)


def xi_from_alpha(md: ModelData, alpha: np.ndarray) -> float:
    return float(np.sum(np.exp((md.X @ np.asarray(alpha, float)) * md.log_N)))


def fit(data: Dataset, model: ModelSpec, options: FitOptions | None = None) -> FittedModel:
    md = prepare(data, model.design)
    kind = model.family.token
    n_alpha = md.X.shape[1]
    n_beta = md.Z.shape[1]
    a0, b0, phi0 = linearized_init(data)
    alpha = np.zeros(n_alpha)
    beta = np.zeros(n_beta)
    alpha[0] = a0
    beta[0] = b0
    start = ParamVector(alpha=alpha, beta=beta, phi=phi0 if kind_needs_phi(kind) else None)
    params, ll, covariance, conv = fit_kind(md, kind, start, options)

    mu_hat = md.mu_values(params)
    ssq = float(np.sum((md.m - mu_hat) ** 2)) / 1000.0
    k = n_alpha + n_beta + (1 if params.phi is not None else 0)
    aic, bic = information_criteria(ll, k, md.n_obs)
    xi_hat = xi_from_alpha(md, params.alpha)
    fitted = FittedModel(
        model=model,
        params=params,
        covariance=covariance,
        loglik=ll,
        aic=aic,
        bic=bic,
        ssq=ssq,
        xi_hat=xi_hat,
        xi_by_group={},
        convergence=conv,
        records=tuple(data.records),
        data=md,
        domain_names=data.domain_names,
    )
    fitted.xi_by_group = xi_decompose(fitted, "country")
    return fitted


def xi_decompose(fit: FittedModel, by: str) -> dict[str, float]:
    """Partial sums of N_i^(x_i'alpha) over a grouping; sums to xi_hat.

    ``by`` is "country", "country:<label>" (that country vs the rest), or a
    domain-variable name.
    """
    md = fit.data
    contributions = np.exp((md.X @ fit.params.alpha) * md.log_N)
    records = fit.records
    if by == "country":
        keyer = lambda r: r.country
    elif by.startswith("country:"):
        label = by.split(":", 1)[1]
        keyer = lambda r: label if r.country == label else f"not {label}"
    elif by in fit.domain_names:
        idx = fit.domain_names.index(by)
        keyer = lambda r: r.domain[idx]
    else:
        raise ValueError(f"unknown grouping variable {by!r}")
    out: dict[str, float] = {}
    for rec, c in zip(records, contributions):
        key = keyer(rec)
        out[key] = out.get(key, 0.0) + float(c)
    return out
