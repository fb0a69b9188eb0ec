"""Power-link mean model: mu = N^(x'alpha) * (n/N)^(z'beta).

Builds indicator design matrices from country/domain labels and evaluates the
full-data log-likelihood with its analytic score and Hessian. Since
log mu = (x'alpha) log N + (z'beta) log(n/N), the stacked covariate vector
w = [x * log N, z * log(n/N)] makes log mu linear in gamma = (alpha, beta),
and the chain rule through mu gives every derivative from the per-record
(mu, phi) derivatives supplied by the distribution kernel. That assembly,
``_chain_rule``, is written once, for one row and for the stacks of rows
that ``mle.fit_many`` iterates on.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset
from .distributions import (
    CountFamily,
    DistinctCounts,
    NumericalError,
    SupportError,
    check_kind_args,
    term_derivatives,
    term_loglik_kernel,
)


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
    def parse(token: str) -> "Term":
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
    n = len(data)
    X = np.empty((n, len(design.alpha_covariates)))
    Z = np.empty((n, len(design.beta_covariates)))
    for mat, terms in ((X, design.alpha_covariates), (Z, design.beta_covariates)):
        for j, t in enumerate(terms):
            if t.kind == "intercept":
                mat[:, j] = 1.0
                continue
            if t.kind == "domain" and t.variable not in data.domain_names:
                raise DesignError(f"unknown domain variable {t.variable!r}")
            codes, levels = data.codes["country" if t.kind == "country" else t.variable]
            if t.level not in levels:
                warnings.warn(f"covariate term {t.label()} matches no record", stacklevel=2)
            mat[:, j] = codes == levels.get(t.level, -1)
    return X, Z, list(data.keys)


def _read_only(arr) -> np.ndarray:
    """``arr`` as a read-only array: a copy if it was writable, else a view."""
    arr = np.asarray(arr)
    arr = arr.copy() if arr.flags.writeable else arr.view()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ModelData:
    """Arrays the likelihood evaluates over, in fixed record order.

    The arrays are stored read-only, and a writable input is copied first, so
    no later write, through ``md`` or to the caller's array, can leave the
    stacked covariates or the distinct counts built here stale. Read-only
    inputs are shared: a replicate on the same strata is
    ``md.with_counts(m)``, which also shares ``W``.
    """

    m: np.ndarray
    log_N: np.ndarray
    log_ratio: np.ndarray  # log(n/N)
    X: np.ndarray
    Z: np.ndarray
    index: list[tuple]
    _W: np.ndarray = field(init=False, repr=False)
    distinct: DistinctCounts = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("m", "log_N", "log_ratio", "X", "Z"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        W = np.hstack([self.X * self.log_N[:, None], self.Z * self.log_ratio[:, None]])
        W.flags.writeable = False
        object.__setattr__(self, "_W", W)
        object.__setattr__(self, "distinct", DistinctCounts.of(self.m))

    def with_counts(self, m, distinct: DistinctCounts | None = None) -> "ModelData":
        """The same strata with counts ``m``: shares every array of ``self``,
        ``W`` included, and builds only its own ``m`` and, unless they are
        given as ``distinct``, its distinct counts."""
        out = copy.copy(self)
        m = _read_only(m)
        object.__setattr__(out, "m", m)
        object.__setattr__(out, "distinct", DistinctCounts.of(m) if distinct is None else distinct)
        return out

    @property
    def n_obs(self) -> int:
        return len(self.m)

    @property
    def W(self) -> np.ndarray:
        """Stacked covariates so that log mu = W @ (alpha, beta)."""
        return self._W

    def record(self, i: int):
        """The key of record ``i``, or ``i`` itself when ``index`` is empty."""
        return self.index[i] if self.index else i

    def mu_values(self, params: ParamVector) -> np.ndarray:
        return np.exp(self.W @ np.concatenate([params.alpha, params.beta]))


def prepare(data: Dataset, design: DesignSpec) -> ModelData:
    rec = data.nonconforming
    if rec is not None:
        raise ValueError(
            f"record {rec.key} violates the model conditions; "
            f"run apply_model_conditions first"
        )
    for name, col in zip(("m", "n", "N"), data.columns):
        if col.max(initial=0.0) == np.inf:
            key = data.keys[int(np.argmax(col))]
            raise SupportError(f"record {key} has {name}=inf, not a finite count")
    m, n, N = data.columns
    X, Z, index = build_design(data, design)
    return ModelData(
        m=m, log_N=np.log(N), log_ratio=np.log(n) - np.log(N), X=X, Z=Z, index=index
    )


def loglik_kind(md: ModelData, kind: str, params: ParamVector) -> float:
    """Summed log-likelihood, the line-search objective.

    phi and the distinct counts are checked once per call, and mu = exp(W gamma)
    not at all: a mu that overflows or underflows gives a non-finite term, which
    raises ``NumericalError`` naming the record (its position when ``index``
    is empty).
    """
    fam = check_kind_args(kind, params.phi, md.distinct.values)
    ll = term_loglik_kernel(
        fam, kind, md.mu_values(params), params.phi, md.m, counts=md.distinct
    )
    if not np.isfinite(ll).all():
        i = int(np.argmax(~np.isfinite(ll)))
        raise NumericalError(f"non-finite log-likelihood term at record {md.record(i)}")
    return float(ll.sum())


def score_and_hessian_kind(
    md: ModelData, kind: str, params: ParamVector
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian on the natural (alpha, beta[, phi])
    scale: the checked ``term_derivatives``, then ``_chain_rule``. A phi
    given for a kind without dispersion is ignored, as in ``loglik_kind``;
    a non-finite entry raises ``NumericalError``."""
    mu_vals = md.mu_values(params)
    t = term_derivatives(kind, mu_vals, params.phi, md.m, counts=md.distinct)
    g, H = _chain_rule(md.W, mu_vals, t)
    if not (np.isfinite(g).all() and np.isfinite(H).all()):
        raise NumericalError("non-finite score or Hessian entries")
    return g, H


def _chain_rule(W, mu, t, keep=None) -> tuple[np.ndarray, np.ndarray]:
    """Score ``(..., k)`` and Hessian ``(..., k, k)`` on the natural scale
    from the per-record derivatives ``t`` (``TermDerivs``) at ``mu``: ``(n,)``
    for one row, ``(B, n)`` for a stack, on the covariates ``W``. phi has a
    row and column where ``t`` has phi derivatives (the family has a
    dispersion). Only the records that ``keep``, if given, marks enter the
    sums. Nothing is checked: a kept mu of 0 or inf gives NaN or inf."""

    def kept(a):
        return a if keep is None else np.where(keep, a, 0.0)

    p = W.shape[1]
    has_phi = t.d_phi is not None
    k = p + int(has_phi)
    g = np.empty(mu.shape[:-1] + (k,))
    H = np.empty(mu.shape[:-1] + (k, k))
    # d log mu / d gamma = w, so dl/dgamma = (dl/dmu) mu w and
    # d2l/dgamma2 = (d2l/dmu2 mu^2 + dl/dmu mu) w w'.
    a1 = t.d_mu * mu
    a2 = kept(t.d_mumu * mu**2 + a1)
    g[..., :p] = kept(a1) @ W
    H[..., :p, :p] = W.T @ (W * a2[..., None])
    if has_phi:
        g[..., p] = np.sum(kept(t.d_phi), axis=-1)
        H[..., p, p] = np.sum(kept(t.d_phiphi), axis=-1)
        cross = kept(t.d_muphi * mu) @ W
        H[..., :p, p] = cross
        H[..., p, :p] = cross
    return g, H
