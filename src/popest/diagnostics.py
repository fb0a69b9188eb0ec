"""Residual and assumption diagnostics.

Anscombe residuals for the NB2 family (with the Poisson limit), the
linearized-relationship correlations and coefficients used to sanity-check
the power-link mean, and a worst-fit report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset
from .mle import FittedModel, linearized_ols

_KAPPA_POISSON = 1e-8


def anscombe_residual(m: float, mu_hat: float, phi_hat: float | None) -> float:
    """NB2 Anscombe residual; phi_hat=None (or huge) takes the Poisson limit."""
    if not 0.0 < mu_hat < np.inf:
        raise ValueError("mu_hat must be positive and finite")
    if phi_hat is not None and not 0.0 < phi_hat < np.inf:
        raise ValueError("phi_hat must be positive and finite")
    kappa = 0.0 if phi_hat is None else 1.0 / float(phi_hat)
    if kappa < _KAPPA_POISSON:
        # kappa -> 0 limit of the NB2 formula
        numer = 2.0 * (m - mu_hat) + 3.0 * (m ** (2.0 / 3.0) - mu_hat ** (2.0 / 3.0))
        denom = 2.0 * mu_hat ** (1.0 / 6.0)
        return float(numer / denom)
    numer = (3.0 / kappa) * (
        (1.0 + kappa * m) ** (2.0 / 3.0) - (1.0 + kappa * mu_hat) ** (2.0 / 3.0)
    ) + 3.0 * (m ** (2.0 / 3.0) - mu_hat ** (2.0 / 3.0))
    denom = 2.0 * (mu_hat + kappa * mu_hat**2) ** (1.0 / 6.0)
    return float(numer / denom)


def _is_constant(x: np.ndarray) -> bool:
    return bool(np.std(x) <= 1e-12 * (1.0 + float(np.max(np.abs(x)))))


def _pearson_corr(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; 0 when either variable is constant."""
    if _is_constant(x) or _is_constant(y):
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


@dataclass
class LinearizedCheck:
    corr_logN: float
    corr_logratio: float
    coef_logN: float  # alpha - 1
    coef_logratio: float  # beta
    assumption_flag: bool
    by_group: dict[str, dict] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "corr_logN": self.corr_logN,
            "corr_logratio": self.corr_logratio,
            "coef_logN": self.coef_logN,
            "coef_logratio": self.coef_logratio,
            "assumption_flag": self.assumption_flag,
            "by_group": self.by_group,
            "notes": self.notes,
        }


def _linearized_stats(m, n, N) -> tuple[float, float, float, float]:
    y = np.log(m) - np.log(N)
    logN = np.log(N)
    logratio = np.log(n) - np.log(N)
    corr1 = _pearson_corr(y, logN)
    corr2 = _pearson_corr(y, logratio)
    ols = linearized_ols(m, logN, logratio)
    coef_logN, coef_logratio = (np.nan, np.nan) if ols is None else ols[:2]
    return corr1, corr2, coef_logN, coef_logratio


def linearized_check(data: Dataset) -> LinearizedCheck:
    """Correlations of log(m/N) with log N and log(n/N), and the no-intercept
    OLS coefficients (alpha-1, beta); per domain group as well."""
    m = np.array([r.m for r in data.records], dtype=float)
    n = np.array([r.n for r in data.records], dtype=float)
    N = np.array([r.N for r in data.records], dtype=float)
    c1, c2, b1, b2 = _linearized_stats(m, n, N)
    flag = c1 >= 0 or c2 <= 0
    notes: list[str] = []
    if _is_constant(np.log(m) - np.log(N)):
        notes.append("log(m/N) is constant; correlations reported as 0")
    by_group: dict[str, dict] = {}
    groups = sorted({r.domain for r in data.records})
    for dom in groups:
        sel = np.array([r.domain == dom for r in data.records])
        label = "/".join(dom) if dom else "all"
        if int(sel.sum()) < 3:
            notes.append(f"group {label}: fewer than 3 records, skipped")
            continue
        g1, g2, gb1, gb2 = _linearized_stats(m[sel], n[sel], N[sel])
        by_group[label] = {
            "corr_logN": g1,
            "corr_logratio": g2,
            "coef_logN": gb1,
            "coef_logratio": gb2,
        }
    return LinearizedCheck(
        corr_logN=c1,
        corr_logratio=c2,
        coef_logN=b1,
        coef_logratio=b2,
        assumption_flag=bool(flag),
        by_group=by_group,
        notes=notes,
    )


@dataclass
class DiagnosticsReport:
    residuals: list[dict]
    worst_fit: list[dict]
    linearized: LinearizedCheck

    def to_dict(self) -> dict:
        return {
            "residuals": self.residuals,
            "worst_fit": self.worst_fit,
            "linearized": self.linearized.to_dict(),
        }


def diagnostics_report(data: Dataset, fit: FittedModel, k: int = 5) -> DiagnosticsReport:
    """Residuals, top-k worst fits by |m - mu_hat|, and the linearized check."""
    md = fit.data
    mu_hat = md.mu_values(fit.params)
    residuals = []
    for rec, mh in zip(fit.records, mu_hat):
        residuals.append(
            {
                "key": list(rec.key[:2]) + [list(rec.key[2])],
                "m": rec.m,
                "mu_hat": float(mh),
                "residual": anscombe_residual(rec.m, float(mh), fit.params.phi),
            }
        )
    order = np.argsort(-np.abs(md.m - mu_hat), kind="stable")
    worst = [residuals[i] | {"delta": float(md.m[i] - mu_hat[i])} for i in order[:k]]
    return DiagnosticsReport(
        residuals=residuals,
        worst_fit=worst,
        linearized=linearized_check(data),
    )
