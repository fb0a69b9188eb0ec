"""Power-link mean model: mu = N^(x'alpha) * (n/N)^(z'beta).

Builds indicator design matrices from country/domain labels and evaluates the
full-data log-likelihood with its analytic score and Hessian. Since
log mu = (x'alpha) log N + (z'beta) log(n/N), the stacked covariate vector
w = [x * log N, z * log(n/N)] makes log mu linear in gamma = (alpha, beta),
and the chain rule through mu gives every derivative from the per-record
(mu, phi) derivatives supplied by the distribution kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset, StratumRecord
from .distributions import CountFamily, NumericalError, term_derivatives, term_loglik


class DesignError(ValueError):
    """Duplicate or malformed covariate term."""


@dataclass(frozen=True)
class Term:
    """One covariate term: the intercept, a country indicator, or a
    domain-variable level indicator."""

    kind: str  # "intercept" | "country" | "domain"
    variable: str = ""
    level: str = ""

    def label(self) -> str:
        if self.kind == "intercept":
            return "intercept"
        if self.kind == "country":
            return f"country:{self.level}"
        return f"{self.variable}:{self.level}"

    @staticmethod
    def parse(token: str, domain_names: tuple[str, ...] = ()) -> "Term":
        token = token.strip()
        if token == "intercept":
            return Term("intercept")
        if ":" not in token:
            raise DesignError(
                f"covariate term {token!r} must be 'intercept', 'country:<label>' "
                f"or '<domain-var>:<level>'"
            )
        var, level = token.split(":", 1)
        if var == "country":
            return Term("country", level=level)
        return Term("domain", variable=var, level=level)

    def value(self, record: StratumRecord, domain_names: tuple[str, ...]) -> float:
        if self.kind == "intercept":
            return 1.0
        if self.kind == "country":
            return 1.0 if record.country == self.level else 0.0
        try:
            idx = domain_names.index(self.variable)
        except ValueError:
            raise DesignError(f"unknown domain variable {self.variable!r}") from None
        return 1.0 if record.domain[idx] == self.level else 0.0


def _with_intercept(terms: tuple[Term, ...]) -> tuple[Term, ...]:
    terms = tuple(terms)
    labels = [t.label() for t in terms]
    if len(set(labels)) != len(labels):
        raise DesignError(f"duplicate covariate terms in {labels}")
    if not terms or terms[0].kind != "intercept":
        if any(t.kind == "intercept" for t in terms):
            raise DesignError("intercept must be the first term")
        terms = (Term("intercept"),) + terms
    return terms


@dataclass(frozen=True)
class DesignSpec:
    alpha_covariates: tuple[Term, ...] = ()
    beta_covariates: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "alpha_covariates", _with_intercept(self.alpha_covariates)
        )
        object.__setattr__(
            self, "beta_covariates", _with_intercept(self.beta_covariates)
        )

    @staticmethod
    def from_tokens(alpha: list[str], beta: list[str] | None = None) -> "DesignSpec":
        return DesignSpec(
            alpha_covariates=tuple(Term.parse(t) for t in alpha if t),
            beta_covariates=tuple(Term.parse(t) for t in (beta or []) if t),
        )


@dataclass(frozen=True)
class ModelSpec:
    family: CountFamily
    design: DesignSpec = field(default_factory=DesignSpec)


@dataclass
class ParamVector:
    alpha: np.ndarray
    beta: np.ndarray
    phi: float | None = None

    def stacked(self) -> np.ndarray:
        parts = [np.asarray(self.alpha, float), np.asarray(self.beta, float)]
        if self.phi is not None:
            parts.append(np.array([self.phi]))
        return np.concatenate(parts)

    @staticmethod
    def unstack(theta: np.ndarray, n_alpha: int, n_beta: int, has_phi: bool):
        theta = np.asarray(theta, float)
        alpha = theta[:n_alpha]
        beta = theta[n_alpha : n_alpha + n_beta]
        phi = float(theta[n_alpha + n_beta]) if has_phi else None
        return ParamVector(alpha=alpha, beta=beta, phi=phi)


def build_design(
    data: Dataset, design: DesignSpec
) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Indicator matrices X (alpha terms) and Z (beta terms), intercept first."""
    n = len(data.records)
    X = np.empty((n, len(design.alpha_covariates)))
    Z = np.empty((n, len(design.beta_covariates)))
    for i, rec in enumerate(data.records):
        for j, t in enumerate(design.alpha_covariates):
            X[i, j] = t.value(rec, data.domain_names)
        for j, t in enumerate(design.beta_covariates):
            Z[i, j] = t.value(rec, data.domain_names)
    for mat, terms in ((X, design.alpha_covariates), (Z, design.beta_covariates)):
        for j, t in enumerate(terms):
            if t.kind != "intercept" and not mat[:, j].any():
                warnings.warn(
                    f"covariate term {t.label()} matches no record", stacklevel=2
                )
    index = [rec.key for rec in data.records]
    return X, Z, index


@dataclass
class ModelData:
    """Arrays the likelihood evaluates over, in fixed record order."""

    m: np.ndarray
    log_N: np.ndarray
    log_ratio: np.ndarray  # log(n/N)
    X: np.ndarray
    Z: np.ndarray
    index: list[tuple]

    @property
    def n_obs(self) -> int:
        return len(self.m)

    @property
    def W(self) -> np.ndarray:
        """Stacked covariates so that log mu = W @ (alpha, beta)."""
        return np.hstack(
            [self.X * self.log_N[:, None], self.Z * self.log_ratio[:, None]]
        )

    def mu_values(self, params: ParamVector) -> np.ndarray:
        return np.exp(self.W @ np.concatenate([params.alpha, params.beta]))


def prepare(data: Dataset, design: DesignSpec) -> ModelData:
    for rec in data.records:
        if not rec.conforms():
            raise ValueError(
                f"record {rec.key} violates the model conditions; "
                f"run apply_model_conditions first"
            )
    X, Z, index = build_design(data, design)
    m = np.array([r.m for r in data.records], dtype=float)
    N = np.array([r.N for r in data.records], dtype=float)
    n = np.array([r.n for r in data.records], dtype=float)
    return ModelData(
        m=m, log_N=np.log(N), log_ratio=np.log(n) - np.log(N), X=X, Z=Z, index=index
    )


def loglik_kind(md: ModelData, kind: str, params: ParamVector) -> float:
    ll = term_loglik(kind, md.mu_values(params), params.phi, md.m)
    if not np.all(np.isfinite(ll)):
        bad = md.index[int(np.argmax(~np.isfinite(ll)))]
        raise NumericalError(f"non-finite log-likelihood term at record {bad}")
    return float(np.sum(ll))


def score_and_hessian_kind(
    md: ModelData, kind: str, params: ParamVector
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian on the natural (alpha, beta, phi) scale."""
    mu_vals = md.mu_values(params)
    t = term_derivatives(kind, mu_vals, params.phi, md.m)
    W = md.W
    has_phi = params.phi is not None
    p = W.shape[1]
    k = p + (1 if has_phi else 0)
    g = np.zeros(k)
    H = np.zeros((k, k))
    # d log mu / d gamma = w, so dl/dgamma = (dl/dmu) mu w and
    # d2l/dgamma2 = (d2l/dmu2 mu^2 + dl/dmu mu) w w'.
    a1 = t.d_mu * mu_vals
    a2 = t.d_mumu * mu_vals**2 + t.d_mu * mu_vals
    g[:p] = W.T @ a1
    H[:p, :p] = W.T @ (W * a2[:, None])
    if has_phi:
        g[p] = float(np.sum(t.d_phi))
        H[p, p] = float(np.sum(t.d_phiphi))
        cross = W.T @ (t.d_muphi * mu_vals)
        H[:p, p] = cross
        H[p, :p] = cross
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
        raise NumericalError("non-finite score or Hessian entries")
    return g, H

