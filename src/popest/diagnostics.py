"""Residual and assumption diagnostics.

Anscombe residuals for the NB2 family (with the Poisson limit), the
linearized-relationship correlations and coefficients used to sanity-check
the power-link mean, and a worst-fit report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dataio import Dataset, dumps
from .mle import FittedModel, linearized_ols

_KAPPA_POISSON = 1e-8


def _kappa(mu_hat, phi_hat: float | None) -> float:
    """1/phi_hat (0 for the Poisson limit) after checking mu_hat (a float or
    an array) and phi_hat."""
    if not np.all((mu_hat > 0.0) & (mu_hat < np.inf)):
        raise ValueError("mu_hat must be positive and finite")
    if phi_hat is not None and not 0.0 < phi_hat < np.inf:
        raise ValueError("phi_hat must be positive and finite")
    return 0.0 if phi_hat is None else 1.0 / float(phi_hat)


def _anscombe(m, mu_hat: float, kappa: float) -> float:
    """NB2 Anscombe residual at kappa = 1/phi, unchecked; kappa below
    _KAPPA_POISSON takes the kappa -> 0 (Poisson) limit."""
    if kappa < _KAPPA_POISSON:
        numer = 2.0 * (m - mu_hat) + 3.0 * (m ** (2.0 / 3.0) - mu_hat ** (2.0 / 3.0))
        return numer / (2.0 * mu_hat ** (1.0 / 6.0))
    numer = (3.0 / kappa) * (
        (1.0 + kappa * m) ** (2.0 / 3.0) - (1.0 + kappa * mu_hat) ** (2.0 / 3.0)
    ) + 3.0 * (m ** (2.0 / 3.0) - mu_hat ** (2.0 / 3.0))
    return numer / (2.0 * (mu_hat + kappa * mu_hat**2) ** (1.0 / 6.0))


def anscombe_residual(m: float, mu_hat: float, phi_hat: float | None) -> float:
    """NB2 Anscombe residual; phi_hat=None (or huge) takes the Poisson limit."""
    return float(_anscombe(m, mu_hat, _kappa(mu_hat, phi_hat)))


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
        return asdict(self)


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
    m, n, N = data.columns
    c1, c2, b1, b2 = _linearized_stats(m, n, N)
    flag = c1 >= 0 or c2 <= 0
    notes: list[str] = []
    if _is_constant(np.log(m) - np.log(N)):
        notes.append("log(m/N) is constant; correlations reported as 0")
    by_group: dict[str, dict] = {}
    codes, levels = data.codes[None]
    for dom in sorted(levels):
        sel = codes == levels[dom]
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
    """Per record, in the fit's record order, its key (period, country,
    domain), count, fitted mean and Anscombe residual, as columns; the worst
    fits and the linearized check."""

    period: list
    country: list
    domain: list[tuple]
    m: list
    mu_hat: list[float]
    residual: list[float]
    worst_fit: list[dict]
    linearized: LinearizedCheck

    def row(self, i: int) -> dict:
        return {
            "key": [self.period[i], self.country[i], list(self.domain[i])],
            "m": self.m[i],
            "mu_hat": self.mu_hat[i],
            "residual": self.residual[i],
        }

    @property
    def residuals(self) -> list[dict]:
        """One {"key", "m", "mu_hat", "residual"} dict per record."""
        return [self.row(i) for i in range(len(self.m))]

    def to_dict(self) -> dict:
        return {
            "residuals": self.residuals,
            "worst_fit": self.worst_fit,
            "linearized": self.linearized.to_dict(),
        }

    def to_json(self) -> str:
        """``to_dict()`` written by ``dataio.dumps``, the residual rows from the columns."""
        rest = {"worst_fit": self.worst_fit, "linearized": self.linearized.to_dict()}
        row = {"key": ["period", "country", "domain"], "m": "m", "mu_hat": "mu_hat",
               "residual": "residual"}
        return dumps(rest, {"residuals": (row, vars(self))})


def diagnostics_report(fit: FittedModel, k: int = 5) -> DiagnosticsReport:
    """Residuals, top-k worst fits by |m - mu_hat|, and the linearized check.

    mu_hat and phi are checked once per report; each residual is then the
    scalar formula that ``anscombe_residual`` evaluates, so both give the
    same bits. ``to_json`` writes ``report.to_dict()`` byte for byte as
    ``json`` writes it indented.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    md = fit.data
    mu = md.mu_values(fit.params)
    kappa = _kappa(mu, fit.params.phi)
    m = fit.dataset.counts[0].tolist()
    mu_hat = mu.tolist()
    report = DiagnosticsReport(
        *(col.tolist() for col in fit.dataset.labels),
        m=m,
        mu_hat=mu_hat,
        residual=[_anscombe(mi, mh, kappa) for mi, mh in zip(m, mu_hat)],
        worst_fit=[],
        linearized=linearized_check(fit.dataset),
    )
    order = np.argsort(-np.abs(md.m - mu), kind="stable")
    report.worst_fit = [report.row(i) | {"delta": float(md.m[i] - mu[i])} for i in order[:k]]
    return report
