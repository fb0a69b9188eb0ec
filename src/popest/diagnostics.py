"""Residual and assumption diagnostics.

Anscombe residuals for the NB2 family (with the Poisson limit), the
linearized-relationship correlations and coefficients used to sanity-check
the power-link mean, and a worst-fit report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from .dataio import Dataset, column_blocks, csv_lines, json_pieces, number_cells
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


def _anscombe(m: np.ndarray, mu_hat: np.ndarray, kappa: float) -> np.ndarray:
    """NB2 Anscombe residual of each count at kappa = 1/phi, unchecked, as
    float arrays; kappa below _KAPPA_POISSON takes the kappa -> 0 (Poisson)
    limit."""
    if kappa < _KAPPA_POISSON:
        numer = 2.0 * (m - mu_hat) + 3.0 * (m ** (2.0 / 3.0) - mu_hat ** (2.0 / 3.0))
        return numer / (2.0 * mu_hat ** (1.0 / 6.0))
    numer = (3.0 / kappa) * (
        (1.0 + kappa * m) ** (2.0 / 3.0) - (1.0 + kappa * mu_hat) ** (2.0 / 3.0)
    ) + 3.0 * (m ** (2.0 / 3.0) - mu_hat ** (2.0 / 3.0))
    return numer / (2.0 * (mu_hat + kappa * mu_hat**2) ** (1.0 / 6.0))


def anscombe_residual(m: float, mu_hat: float, phi_hat: float | None) -> float:
    """NB2 Anscombe residual; phi_hat=None (or huge) takes the Poisson limit.
    The array formula of ``diagnostics_report`` on one record, so both give
    the same bits."""
    if not 0.0 <= m < np.inf:
        raise ValueError("m must be a nonnegative finite count")
    mu = np.array([mu_hat], dtype=float)
    return float(_anscombe(np.array([m], dtype=float), mu, _kappa(mu, phi_hat))[0])


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


_ROW = {"key": ["period", "country", "domain"], "m": "m", "mu_hat": "mu_hat",
        "residual": "residual"}  # a residual row of to_dict(), by column
_CSV_HEADER = ["period", "country", "domain", "m", "mu_hat", "residual"]


@dataclass
class DiagnosticsReport:
    """Per record, in the fit's record order, its key (period, country,
    domain), count, fitted mean and Anscombe residual, as columns (the
    counts, means and residuals ints or floats); the worst fits and the
    linearized check.

    ``to_json`` and ``pieces`` format the residual rows 4 096 at a time
    (``dataio.column_blocks``), each count, mean and residual once, for the
    JSON and the CSV alike (``dataio.number_cells``).
    """

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

    def _blocks(self):
        """Per block of records: the residual columns for ``json_pieces`` and
        the residual CSV's rows, the numbers formatted once for both."""
        for block in column_blocks({k: getattr(self, k) for k in _CSV_HEADER}):
            numbers = {k: number_cells(block[k]) for k in ("m", "mu_hat", "residual")}
            rows = zip(block["period"], block["country"], map("|".join, block["domain"]),
                       *(csv_cells for _, csv_cells in numbers.values()))
            yield block | {k: json_cells for k, (json_cells, _) in numbers.items()}, rows

    def _json_pieces(self, blocks):
        rest = {"worst_fit": self.worst_fit, "linearized": self.linearized.to_dict()}
        return json_pieces(rest, {"residuals": (_ROW, blocks)})

    def json_pieces(self):
        """``to_dict()``'s text in ``dataio.json_pieces``, the residual rows from the columns."""
        return self._json_pieces(columns for columns, _ in self._blocks())

    def to_json(self) -> str:
        return "".join(self.json_pieces())

    def pieces(self):
        """(``json_pieces()``, the residual CSV's pieces): one row per record
        of period, country, domain levels joined by "|", m, mu_hat and
        residual, under a header, as ``dataio.csv_lines`` writes it. Both
        take their blocks from one pass over the records (``_unzip``), so
        written a piece of each in turn (``cli._write``) they hold a few
        blocks at a time."""
        for_json, for_csv = _unzip(self._blocks())
        return self._json_pieces(for_json), csv_lines(_CSV_HEADER, chain.from_iterable(for_csv))


def _unzip(pairs):
    """Iterators over the first and over the second items of ``pairs``, which
    is read once: an iterator takes the next pair when it has no item
    waiting, and the pair's other item waits for the other iterator, which
    drops it when taken (``itertools.tee`` drops items in runs of 57)."""
    pairs = iter(pairs)
    waiting = (deque(), deque())

    def items(i):
        while True:
            if not waiting[i]:
                pair = next(pairs, None)
                if pair is None:
                    return
                waiting[0].append(pair[0])
                waiting[1].append(pair[1])
            yield waiting[i].popleft()

    return items(0), items(1)


def diagnostics_report(fit: FittedModel, k: int = 5) -> DiagnosticsReport:
    """Residuals, top-k worst fits by |m - mu_hat|, and the linearized check.

    mu_hat and phi are checked once per report; the residuals are then one
    array evaluation of the formula that ``anscombe_residual`` evaluates on
    one record, so both give the same bits. ``to_json`` writes
    ``report.to_dict()`` byte for byte as ``json`` writes it indented.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    md = fit.data
    mu = md.mu_values(fit.params)
    kappa = _kappa(mu, fit.params.phi)
    report = DiagnosticsReport(
        *(col.tolist() for col in fit.dataset.labels),
        m=fit.dataset.counts[0].tolist(),
        mu_hat=mu.tolist(),
        residual=_anscombe(md.m, mu, kappa).tolist(),
        worst_fit=[],
        linearized=linearized_check(fit.dataset),
    )
    order = np.argsort(-np.abs(md.m - mu), kind="stable")
    report.worst_fit = [report.row(i) | {"delta": float(md.m[i] - mu[i])} for i in order[:k]]
    return report
