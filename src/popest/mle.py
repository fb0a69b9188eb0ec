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

from .dataio import Dataset
from .distributions import (
    DistinctCounts,
    NumericalError,
    SupportError,
    kind_family,
    kind_needs_phi,
    term_derivatives_kernel,
    term_loglik_kernel,
)
from .meanmodel import (
    DesignSpec,
    ModelData,
    ModelSpec,
    ParamVector,
    _chain_rule,
    loglik_kind,
    prepare,
    score_and_hessian_kind,
)

_LOG_PHI_MIN = float(np.log(1e-6))
_LOG_PHI_MAX = float(np.log(1e6))
_MAX_HALVINGS = 30
# Newton decrement g'(-H)^-1 g, the squared remaining step in standard errors
# (the covariance is (-H)^-1). Below it the fit is converged and takes no
# further step, which could raise the log-likelihood by only about half of it.
_DECREMENT_TOL = 1e-8
# fit_many takes its rows in blocks of at most this many records, so the
# kernel's temporaries stay small (32 KiB each) at no measurable cost in time.
_BLOCK_ELEMENTS = 4096
# The pre-solve saves per-call overhead, and costs more per record than
# fit_kind: its stacked sums are masked, and its rows' distinct counts are
# taken from the block's on every evaluation. A ztnb2 bootstrap (B = 40,
# medians of two batches of 7 and 9 alternated runs) took 0.42-0.43 of the
# serial time at 106 records, 0.66-0.70 at 524 (7 rows a block), 0.97-0.98
# at 1 042 (3 rows), 1.18-1.21 at 1 768 (2 rows) and 1.17-1.34 at 2 786 and
# 4 790 (1 row), so blocks of fewer rows than this are refitted serially.
_MIN_BLOCK_ROWS = 4
# What a failed fit raises (bad data or parameters, a numerical failure, a
# singular system); callers that count or report failed fits catch these.
FIT_ERRORS = (ValueError, RuntimeError, np.linalg.LinAlgError)


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
    if len(data) < 3:
        raise InitError(f"need at least 3 records, got {len(data)}")
    m, n, N = data.columns
    log_N = np.log(N)
    return linearized_start(m, log_N, np.log(n) - log_N)


@dataclass
class Convergence:
    """Why Newton stopped. ``status`` is "converged" when max|g| fell below
    ``grad_tol`` or the Newton decrement g'(-H)^-1 g below 1e-8 (the remaining
    step under 1e-4 standard errors), both tested before any line-search
    probe; "stalled" when no step halving could raise the log-likelihood
    short of that; "max-iterations" otherwise.
    ``iterations`` counts score/Hessian evaluations, the last one at the
    returned parameters (a fit that takes all ``max_iter`` steps makes
    ``max_iter + 1``); ``grad_norm`` is max|g| at the returned parameters.
    A replicate refit that ``refit_many`` pre-solved is certified by a
    ``fit_kind`` call started at the pre-solved parameters, so its
    ``iterations`` counts only that call's evaluations (1 where the stop rule
    holds again at that point), not the lockstep iterations before it."""

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
    dataset: Dataset
    data: ModelData

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


def _params_from_internal(theta, n_alpha, n_beta, has_phi) -> ParamVector:
    """Internal theta carries log(phi) in its last slot, clipped by
    ``_clip_theta``."""
    pv = ParamVector.unstack(theta, n_alpha, n_beta, has_phi)
    if has_phi:
        pv.phi = float(np.exp(theta[-1]))
    return pv


def _log_phi_scale(g, H, phi):
    """A stack's score ``g`` ``(r, k)`` and Hessian ``H`` ``(r, k, k)``
    moved in place to the internal scale, whose last parameter is log(phi);
    ``phi`` ``(r, 1)`` holds each row's phi, None for a family without."""
    if phi is not None:
        H[:, -1, -1] = phi[:, 0] ** 2 * H[:, -1, -1] + phi[:, 0] * g[:, -1]
        H[:, :-1, -1] *= phi
        H[:, -1, :-1] *= phi
        g[:, -1:] *= phi
    return g, H


def _clip_theta(theta, has_phi):
    """A copy of ``theta`` (one parameter vector, or one per row) with log(phi)
    clipped to its bounds."""
    theta = np.array(theta, float)
    if has_phi:
        theta[..., -1] = np.minimum(np.maximum(theta[..., -1], _LOG_PHI_MIN), _LOG_PHI_MAX)
    return theta


@dataclass
class FitOptions:
    """Newton settings: at most ``max_iter`` iterations, converged once
    max|g| < ``grad_tol`` or the Newton decrement is below ``_DECREMENT_TOL``;
    accepted log-likelihood values are appended to ``trace`` when it is a
    list."""

    max_iter: int = 200
    grad_tol: float = 1e-6
    trace: list | None = None


# The statuses _newton can end a row with, indexed by the codes it tracks.
_STATUSES = ("max-iterations", "non-finite", "converged", "stalled")
_MAX_ITER, _NON_FINITE, _CONVERGED, _STALLED = range(len(_STATUSES))
# The modified-Newton step's floor on the eigenvalue magnitudes of -H, as a
# multiple of the largest magnitude (or of 1, if that is larger).
_EIGEN_FLOOR = 1e-8


def _newton(theta, ll, grad_hess, loglik, options: FitOptions, has_phi: bool):
    """Newton-Raphson ascent of a stack of log-likelihoods in lockstep, one
    per row of ``theta`` (internal scale: log(phi) last), from their values
    ``ll``; both are updated in place, and the status of each row returned.
    Rows whose ``ll`` is not finite are not iterated.

    ``grad_hess(rows, theta)`` returns the internal score ``(r, k)`` and
    Hessian ``(r, k, k)`` of the rows ``rows`` (ascending) at their
    parameters ``theta``, and ``loglik(rows, theta)`` their log-likelihoods,
    non-finite where a probe is invalid. One pass per evaluation of (g, H)
    over the rows still iterating. The stop rule is tested before any probe,
    so the pass after the last allowed step still tests the returned point.
    Where -H is not positive definite, a row takes a modified-Newton step
    (Nocedal & Wright, *Numerical Optimization*, section 3.4): -H with each
    eigenvalue replaced by its magnitude, floored at ``_EIGEN_FLOOR``, and
    its decrement is not tested. A row with a non-finite score or Hessian
    ends "non-finite".

    Statuses are written, and the stack compressed, only when a row leaves
    the iteration, so a pass in which every row goes on, or every row stops
    on the decrement, pays for little beyond its linear algebra.
    """
    status = np.where(np.isfinite(ll), _MAX_ITER, _NON_FINITE)
    active = np.flatnonzero(status == _MAX_ITER)
    for it in range(1, max(options.max_iter, 0) + 2):
        if not active.size:
            break
        g, H = grad_hess(active, theta[active])
        norm = np.abs(g).max(axis=1)
        finite = np.isfinite(norm) & np.isfinite(H).all(axis=(1, 2))
        go = finite & (norm >= options.grad_tol)
        if not go.all():
            status[active[~finite]] = _NON_FINITE
            status[active[finite & ~go]] = _CONVERGED
            g, H, active = g[go], H[go], active[go]
            if not active.size:
                break
        neg_H = -H
        eigenvalues, vectors = np.linalg.eigh(neg_H)
        definite = eigenvalues[:, 0] > 0
        if not definite.all():
            size = np.abs(eigenvalues[~definite])
            size = np.maximum(size, _EIGEN_FLOOR * np.maximum(size.max(axis=1), 1.0)[:, None])
            V = vectors[~definite]
            neg_H[~definite] = (V * size[:, None, :]) @ V.transpose(0, 2, 1)
        step = np.linalg.solve(neg_H, g[:, :, None])[:, :, 0]
        decrement = np.where(definite, np.einsum("ij,ij->i", g, step), np.inf)
        done = decrement < _DECREMENT_TOL
        if done.any():
            status[active[done]] = _CONVERGED
            step, active = step[~done], active[~done]
        if not active.size or it > options.max_iter:
            break
        # Line search: the rows that no probe has raised yet halve their
        # step together; a row that no halving raises has stalled.
        pending = np.arange(len(active))
        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            rows = active[pending]
            cand = _clip_theta(theta[rows] + t * step[pending], has_phi)
            ll_new = loglik(rows, cand)
            up = np.isfinite(ll_new) & (ll_new > ll[rows])
            theta[rows[up]] = cand[up]
            ll[rows[up]] = ll_new[up]
            if options.trace is not None:
                options.trace.extend(ll_new[up].tolist())
            pending = pending[~up]
            if not pending.size:
                break
            t *= 0.5
        if pending.size:
            status[active[pending]] = _STALLED
            active = np.delete(active, pending)
    return [_STATUSES[code] for code in status.tolist()]


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
    convergence info). Dispersion is iterated on the log scale. Where the
    Hessian is not negative definite the step is modified Newton
    (``_newton``).
    """
    options = options or FitOptions()
    fam = kind_family(kind)
    lo, values = fam.support_min, md.distinct.values
    # np.floor(inf) == inf, so only the test against inf stops an infinite count
    # (a NaN count fails the floor test)
    if (values.min(initial=lo) < lo or values.max(initial=lo) == np.inf
            or (np.floor(values) != values).any()):
        i = int(np.argmax((md.m < lo) | (np.floor(md.m) != md.m) | (md.m == np.inf)))
        m = md.m[i]
        why = ("not a finite count" if not np.isfinite(m)
               else f"below the support minimum {lo} of {kind}" if m < lo
               else f"not an integer count of {kind}")
        raise SupportError(f"record {md.record(i)} has m={m:g}, {why}")
    has_phi = fam.has_dispersion
    n_alpha = md.X.shape[1]
    n_beta = md.Z.shape[1]
    parts = [start.alpha, start.beta, [np.log(start.phi)]] if has_phi else [start.alpha, start.beta]
    theta = _clip_theta(np.concatenate(parts, dtype=float)[None], has_phi)

    def objective(rows, th):
        try:
            params = _params_from_internal(th[0], n_alpha, n_beta, has_phi)
            return np.array([loglik_kind(md, kind, params)])
        except (FloatingPointError, RuntimeError, ValueError):
            return np.array([-np.inf])

    it, g, H = 0, None, None

    def grad_hess(rows, th):
        nonlocal it, g, H
        it += 1
        params = _params_from_internal(th[0], n_alpha, n_beta, has_phi)
        g, H = score_and_hessian_kind(md, kind, params)
        # scaled through their views, g and H are on the internal scale too
        return _log_phi_scale(g[None], H[None], np.exp(th[:, -1:]) if has_phi else None)

    ll = objective(None, theta)
    if not np.isfinite(ll[0]):
        raise ValueError("log-likelihood is non-finite at the starting values")
    if options.trace is not None:
        options.trace.append(float(ll[0]))
    (status,) = _newton(theta, ll, grad_hess, objective, options, has_phi)
    if status == "non-finite":
        raise NumericalError("non-finite score or Hessian entries")

    theta = theta[0]
    params = _params_from_internal(theta, n_alpha, n_beta, has_phi)
    try:
        cov_int = np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        covariance = None
    else:
        covariance = cov_int
        if has_phi:
            jac = np.ones(len(theta))
            jac[-1] = params.phi
            covariance = cov_int * np.outer(jac, jac)
        covariance = 0.5 * (covariance + covariance.T)
        if not np.isfinite(covariance).all():
            covariance = None
    grad_norm = float(np.abs(g).max())
    return params, float(ll[0]), covariance, Convergence(it, grad_norm, status)


def presolve_rows(n_records: int) -> int:
    """How many refits of ``n_records`` records each ``fit_many`` takes at a
    time: as many as fit in ``_BLOCK_ELEMENTS`` records, so that memory does
    not grow with the number of refits. 1 when fewer than
    ``_MIN_BLOCK_ROWS`` fit, where ``refit_many`` refits serially."""
    rows = _BLOCK_ELEMENTS // max(n_records, 1)
    return rows if rows >= _MIN_BLOCK_ROWS else 1


# Rows whose mu overflows or underflows, or whose truncated support has no
# mass, give non-finite terms, which take them out of the lockstep.
@np.errstate(all="ignore")
def fit_many(
    md: ModelData,
    M: np.ndarray,
    kind: str,
    start: np.ndarray,
    mask: np.ndarray | None = None,
    counts: DistinctCounts | None = None,
) -> list[ParamVector | None]:
    """Pre-solve of many refits: the Newton iteration of ``fit_kind``
    (``_newton``) run in lockstep over the rows of a ``(B, n)`` count matrix
    ``M`` on the strata of ``md`` (whose own counts are not read).

    ``start`` is the stacked natural-scale (alpha, beta[, phi]), ``(k,)`` for
    every row or ``(B, k)``. ``mask`` marks the strata each row keeps; a
    dropped stratum must hold a count valid for ``kind`` and is left out of
    every sum. The settings are ``FitOptions()``, those of every replicate
    refit. Each iteration evaluates the score and Hessian of every row still
    iterating with one stacked call of the unchecked kernel, assembled as for
    ``fit_kind`` (``_chain_rule``, ``_log_phi_scale``), and each line-search
    probe their log-likelihoods the same way, with those rows' share of the
    distinct counts of ``M`` (``counts``, sorted here once when not given).

    Returns, per row, the parameters where it met the stop rule, or None. A
    row that stalls, reaches ``max_iter``, has a count below the support, a
    non-finite log-likelihood at the start, a mu that is not positive and
    finite, or a score or Hessian entry that is not finite gets None.
    Nothing here labels a fit or raises for one; that is ``refit_many``'s
    certify call.
    """
    fam = kind_family(kind)
    has_phi = fam.has_dispersion
    M = np.asarray(M, dtype=float)
    mask = None if mask is None else np.asarray(mask, dtype=bool)
    W = md.W
    p = W.shape[1]
    k = p + int(has_phi)
    theta = np.array(np.broadcast_to(np.asarray(start, dtype=float), (len(M), k)))
    if has_phi:
        theta[:, -1] = np.log(theta[:, -1])
    theta = _clip_theta(theta, has_phi)
    counts = DistinctCounts.of(M) if counts is None else counts

    def loglik(rows, th):
        phi = np.exp(th[:, p:]) if has_phi else None
        mu = np.exp(th[:, :p] @ W.T)
        terms = term_loglik_kernel(fam, kind, mu, phi, M[rows], counts.take_rows(rows))
        return np.sum(terms if mask is None else np.where(mask[rows], terms, 0.0), axis=1)

    def grad_hess(rows, th):
        """Score and Hessian on the internal (log phi) scale. A kept mu of 0
        or inf, which fit_kind's checks reject, makes entries NaN or
        infinite."""
        mu = np.exp(th[:, :p] @ W.T)
        phi = np.exp(th[:, p:]) if has_phi else None
        t = term_derivatives_kernel(fam, kind, mu, phi, M[rows], counts.take_rows(rows))
        g, H = _chain_rule(W, mu, t, None if mask is None else mask[rows])
        return _log_phi_scale(g, H, phi)

    ll = np.full(len(M), -np.inf)
    supported = M >= fam.support_min
    rows = np.flatnonzero(np.all(supported if mask is None else supported | ~mask, axis=1))
    ll[rows] = loglik(rows, theta[rows])
    status = _newton(theta, ll, grad_hess, loglik, FitOptions(), has_phi)
    n_alpha, n_beta = md.X.shape[1], md.Z.shape[1]
    return [
        _params_from_internal(th, n_alpha, n_beta, has_phi) if s == "converged" else None
        for th, s in zip(theta, status)
    ]


def refit_many(md: ModelData, M, kinds, start, mask=None) -> list[list[ParamVector | None]]:
    """The replicate refits of a block: per kind of ``kinds``, each row's
    parameters, or None where its refit raises one of ``FIT_ERRORS`` or does
    not converge. ``M``, ``start`` and ``mask`` are as for ``fit_many``.

    Each refit is one ``fit_kind`` call with ``FitOptions()``, which decides
    its status. Unless ``presolve_rows`` is 1, ``fit_many`` first solves the
    block for each kind: a row it converged is certified from there,
    typically in one score/Hessian evaluation, and any other row is refitted
    from its ``start``. The block's distinct counts are sorted once; an
    unmasked row takes its share of them, and a masked row is refitted on
    its kept strata, one ``ModelData`` for all kinds.
    """
    M = np.asarray(M, dtype=float)
    start = np.broadcast_to(np.asarray(start, dtype=float), (len(M), np.shape(start)[-1]))
    counts = DistinctCounts.of(M)
    serial = presolve_rows(md.n_obs) == 1
    presolved = [[None] * len(M) if serial else fit_many(md, M, kind, start, mask, counts)
                 for kind in kinds]
    shares = counts.split()
    n_alpha, n_beta = md.X.shape[1], md.Z.shape[1]
    out = [[] for _ in kinds]
    for b, m in enumerate(M):
        if mask is None:
            md_b = md.with_counts(m, shares[b])
        else:
            keep = mask[b]
            index = [md.record(i) for i in np.flatnonzero(keep).tolist()]
            md_b = ModelData(m=m[keep], log_N=md.log_N[keep], log_ratio=md.log_ratio[keep],
                             X=md.X[keep], Z=md.Z[keep], index=index)
        for kind, pre, refits in zip(kinds, presolved, out):
            own = ParamVector.unstack(start[b], n_alpha, n_beta, kind_family(kind).has_dispersion)
            try:
                params, _, _, conv = fit_kind(md_b, kind, pre[b] or own, FitOptions())
                refits.append(params if conv.converged else None)
            except FIT_ERRORS:
                refits.append(None)
    return out


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
    return FittedModel(
        model=model,
        params=params,
        covariance=covariance,
        loglik=ll,
        aic=aic,
        bic=bic,
        ssq=ssq,
        xi_hat=xi_hat,
        xi_by_group=_xi_groups(md, params.alpha, data, "country"),
        convergence=conv,
        dataset=data,
        data=md,
    )


def xi_decompose(fit: FittedModel, by: str) -> dict[str, float]:
    """Partial sums of N_i^(x_i'alpha) over a grouping; sums to xi_hat.

    ``by`` is "country", "country:<label>" (that country vs the rest), or a
    domain-variable name. Groups appear in the order of their first record.
    """
    return _xi_groups(fit.data, fit.params.alpha, fit.dataset, by)


def _xi_groups(md: ModelData, alpha, data: Dataset, by: str) -> dict[str, float]:
    contributions = np.exp((md.X @ alpha) * md.log_N)
    if by.startswith("country:"):
        label = by.split(":", 1)[1]
        country, levels = data.codes["country"]
        in_label = country == levels.get(label, -1)
        first = bool(in_label[:1].any())
        codes = in_label != first  # False for the group of the first record
        labels = [label, f"not {label}"] if first else [f"not {label}", label]
    elif by == "country" or by in data.domain_names:
        codes, levels = data.codes[by]
        labels = list(levels)
    else:
        raise ValueError(f"unknown grouping variable {by!r}")
    # bincount adds in record order, as a running sum over the records would
    sums = np.bincount(codes, weights=contributions)
    return {label: float(v) for label, v in zip(labels, sums)}
