"""Count-distribution kernel: log-densities, truncation, samplers, derivatives.

Supports Poisson and NB2 (negative binomial with mean mu and dispersion phi,
variance mu + mu^2/phi), each optionally zero-truncated or zero-one-truncated.
A Stirling-reduced NB2 log-likelihood term is provided for the bias
simulation; it must never be used for production fitting. Both truncations
divide by the mass d = -expm1(-Q) of the support, with Q = -log P(X < lo)
taken without cancellation, so that d stays exact as mu -> 0; a d below the
smallest normal float counts as no mass.

Each kind's per-record log-likelihood term has one implementation,
``term_loglik_kernel``. The public functions (``term_loglik``, ``log_pmf``,
``term_derivatives``) check their arguments and support on every call; the
line search (``meanmodel.loglik_kind``) checks phi and the counts once per
call and runs the unchecked kernel, whose non-finite terms it rejects.
``term_derivatives`` returns only the (mu, phi) derivatives of that term,
and ``term_derivatives_kernel`` is its unchecked kernel.

No special function is evaluated. phi enters the NB2 terms only through
sums over j < m (log Gamma(m+phi) - log Gamma(phi) = sum log(phi+j), and so
on), which the kernels evaluate once per distinct count of m
(``DistinctCounts``): directly for j < ``_CAP``, and above it by
asymptotic-series differences; log m! is a field of the distinct counts. A
caller that evaluates one m many times builds its distinct counts once and
passes them. Both kernels also take a ``(B, n)`` matrix of counts with a
``(B, 1)`` column of per-row phi, and evaluate each row as a separate call
would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


class Family(str, Enum):
    POISSON = "poisson"
    NB2 = "nb2"


class Truncation(str, Enum):
    NONE = "none"
    ZERO = "zero"
    ZERO_ONE = "zero-one"


_SUPPORT_MIN = {Truncation.NONE: 0, Truncation.ZERO: 1, Truncation.ZERO_ONE: 2}

# CLI / config tokens
_FAMILY_TOKENS = {
    "po": (Family.POISSON, Truncation.NONE),
    "ztpo": (Family.POISSON, Truncation.ZERO),
    "zotpo": (Family.POISSON, Truncation.ZERO_ONE),
    "nb2": (Family.NB2, Truncation.NONE),
    "ztnb2": (Family.NB2, Truncation.ZERO),
    "zotnb2": (Family.NB2, Truncation.ZERO_ONE),
}


class ParameterError(ValueError):
    """Raised for nonpositive mu/phi or a missing dispersion parameter."""


class SupportError(ValueError):
    """Raised when a count is not a finite integer in the truncated support."""


class SamplingError(RuntimeError):
    """Raised when truncated rejection sampling exceeds its iteration bound."""


class NumericalError(RuntimeError):
    """Raised on quadrature non-convergence or non-finite intermediate values."""


@dataclass(frozen=True)
class CountFamily:
    family: Family
    truncation: Truncation = Truncation.NONE

    @property
    def has_dispersion(self) -> bool:
        return self.family is Family.NB2

    @property
    def support_min(self) -> int:
        return _SUPPORT_MIN[self.truncation]

    @property
    def token(self) -> str:
        for tok, (fam, trunc) in _FAMILY_TOKENS.items():
            if fam is self.family and trunc is self.truncation:
                return tok
        raise KeyError(self)

    @staticmethod
    def from_token(token: str) -> "CountFamily":
        key = token.strip().lower()
        if key not in _FAMILY_TOKENS:
            raise ParameterError(f"unknown distribution token: {token!r}")
        fam, trunc = _FAMILY_TOKENS[key]
        return CountFamily(fam, trunc)


@dataclass(frozen=True)
class EtaPoint:
    mu: float
    phi: float | None = None


def _check_mu(mu: np.ndarray) -> None:
    if not ((mu > 0.0) & (mu < np.inf)).all():
        raise ParameterError("mu must be positive and finite")


def _check_phi(phi) -> None:
    if isinstance(phi, float) and 0.0 < phi < np.inf:
        return
    if phi is None:
        raise ParameterError("dispersion phi is required for NB2")
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)) or np.any(phi <= 0):
        raise ParameterError("phi must be positive and finite")


class DistinctCounts(NamedTuple):
    """The distinct values of a count array m, ascending, their inverse
    indices, so that ``values[inverse] == m`` exactly, and log(v!) of each
    value v. For a ``(B, n)`` matrix the values are distinct and ascending
    per row, and ``rows`` holds the row of each value."""

    values: np.ndarray
    inverse: np.ndarray
    log_factorial: np.ndarray
    rows: np.ndarray | None = None

    @staticmethod
    def of(m) -> "DistinctCounts":
        m = np.asarray(m)
        if m.ndim != 2:
            values, inverse = np.unique(m, return_inverse=True)
            return DistinctCounts(values, inverse, _log_factorial(values))
        order = np.argsort(m, axis=1, kind="stable")
        ranked = np.take_along_axis(m, order, axis=1)
        first = np.ones(m.shape, dtype=bool)
        first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        inverse = np.empty(m.shape, dtype=np.intp)
        np.put_along_axis(inverse, order, np.cumsum(first).reshape(m.shape) - 1, axis=1)
        values = ranked[first]
        return DistinctCounts(values, inverse, _log_factorial(values), np.nonzero(first)[0])

    def take_rows(self, rows) -> "DistinctCounts":
        """For the distinct counts of a ``(B, n)`` matrix, those of its rows
        ``rows`` (ascending, without repeats), equal field for field to
        ``DistinctCounts.of`` of those rows, taken by row segment without a
        new sort."""
        n_rows = len(self.inverse)
        if len(rows) == n_rows:
            return self
        sizes = np.bincount(self.rows, minlength=n_rows)
        keep = np.zeros(n_rows, dtype=bool)
        keep[rows] = True
        kept = sizes[rows]
        shift = (np.cumsum(sizes) - sizes)[rows] - (np.cumsum(kept) - kept)
        segment = keep[self.rows]
        return DistinctCounts(
            self.values[segment],
            self.inverse[rows] - shift[:, None],
            self.log_factorial[segment],
            np.repeat(np.arange(len(rows)), kept),
        )

    def split(self) -> list["DistinctCounts"]:
        """For the distinct counts of a ``(B, n)`` matrix, those of each row
        in 1-d form, equal field for field to ``DistinctCounts.of`` of that
        row, taken by row segment without a new sort."""
        ends = np.cumsum(np.bincount(self.rows, minlength=len(self.inverse))).tolist()
        return [
            DistinctCounts(self.values[lo:hi], inverse - lo, self.log_factorial[lo:hi])
            for lo, hi, inverse in zip([0] + ends, ends, self.inverse)
        ]


# ---------------------------------------------------------------------------
# Sums over the counts
# ---------------------------------------------------------------------------
# phi enters the NB2 terms through sums over j < v, all of terms of one sign:
# log Gamma(v+phi) - log Gamma(phi) - v log phi = sum log1p(j/phi), and the
# sums of 1/(phi+j), j/(phi+j), 1/(phi+j)^2 and j(2phi+j)/(phi+j)^2 for the
# derivatives. Each is taken directly for j < _CAP, and above it as a
# difference of asymptotic series between x = phi + _CAP and y = phi + v,
# arranged so that no terms of size v cancel, with two terms of each series:
# the first term left out is below 3e-14 at x = 128, and below 1e-15 in the
# derivatives' series. The cap and the forms were chosen against a 60-digit
# mpmath oracle (tests/test_kernel_accuracy.py).

_CAP = 128
_J = np.arange(_CAP, dtype=float)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOGS = [math.log(j) for j in range(1, _CAP + 1)]
_LOG_FACTORIAL = np.array([math.fsum(_LOGS[:j]) for j in range(_CAP + 1)])
# Below _SERIES_CUT, log1p(x) - x, x/(1+x) - log1p(x) and 1/q - 1/expm1(q)
# are taken from their series: taken directly, their rounding error there
# exceeds 2e-12 relative. Where phi exceeds _CAP, the phi derivatives add
# them to count sums of nearly opposite size (at m = mu, terms of size
# m^2/phi^2 leave d/dphi of size m/phi^2), so there they take the series
# below _LARGE_PHI_CUT.
_SERIES_CUT = 1e-4
_LARGE_PHI_CUT = 0.1
_TINY = np.finfo(float).tiny


def _series_cut(phi):
    """The cut below which ``_log1p_minus`` and ``_dlogf0_dphi`` take their
    series, for each phi of a float or an array."""
    if isinstance(phi, np.ndarray):
        return np.where(phi > _CAP, _LARGE_PHI_CUT, _SERIES_CUT)
    return _LARGE_PHI_CUT if phi > _CAP else _SERIES_CUT


def _stirling(x):
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2 for x >= _CAP."""
    u = 1.0 / x
    return u * (1 / 12 - u * u / 360)


def _psi_rests(x):
    """1/x, log x - 1/(2x) - psi(x) and psi'(x) - 1/x - 1/(2x^2), for x >= _CAP."""
    u = 1.0 / x
    u2 = u * u
    return u, u2 * (1 / 12 - u2 / 120), u * u2 * (1 / 6 - u2 / 30)


def _log1p_minus(x, cut=_SERIES_CUT, log1p_x=None):
    """log1p(x) - x for x >= 0, below ``cut`` (at most _LARGE_PHI_CUT) from the
    series -x z + 2 (z^3/3 + z^5/5 + ...), z = x/(2 + x), without the
    cancellation of the two. ``log1p_x``, if given, is log1p(x)."""
    out = (np.log1p(x) if log1p_x is None else log1p_x) - x
    small = x < cut
    if small.any():
        s = np.minimum(x, cut)
        z = s / (2.0 + s)
        z2 = z * z
        odd = 1 / 3 + z2 * (1 / 5 + z2 * (1 / 7 + z2 * (1 / 9 + z2 * (1 / 11 + z2 / 13))))
        out = np.where(small, 2.0 * z * z2 * odd - s * z, out)
    return out


def _log_factorial(v):
    """log(v!) of an array of nonnegative integer counts; inf at an infinite
    count and NaN at a NaN one, which the fits reject by name."""
    v = np.asarray(v, dtype=float)
    out = _LOG_FACTORIAL[np.fmin(v, _CAP).astype(np.intp)]  # fmin takes NaN to _CAP
    big = ~(v <= _CAP)
    if big.any():
        out[big] = v[big]  # inf or NaN as given: Stirling's form would take inf - inf
        big &= v < np.inf
        w = v[big]
        out[big] = (w + 0.5) * np.log(w) - w + _HALF_LOG_2PI + _stirling(w)
    return out


def _count_sums(counts: DistinctCounts, phi, k, terms, tails):
    """sum_{j<v} terms(phi, j) for every distinct count v of ``counts`` and
    the phi of its row (a float, or a ``(B, 1)`` column for a matrix),
    one per value: a cumulative sum over j < min(v, _CAP), then
    ``tails(phi, _CAP, v)``, the sum over _CAP <= j < v, for v > _CAP.
    ``terms(phi, j, out)`` writes k sums' terms into ``out``, and ``tails``
    returns their k tails; the result is a ``(k, len(counts.values))``
    stack of the k sums."""
    values = counts.values
    if counts.rows is None:
        top = values[-1] if len(values) else 0.0
        shape = (k,)
    else:
        top = values.max(initial=0.0)
        shape = (k, len(phi))
    cap = int(min(top, _CAP))
    table = np.zeros(shape + (cap + 1,))
    terms(phi, _J[:cap], table[..., 1:])
    np.add.accumulate(table, axis=-1, out=table)
    index = np.minimum(values, cap).astype(np.intp)
    if counts.rows is None:
        sums = table[:, index]
        if top > cap:
            first = values.searchsorted(cap, "right")
            sums[:, first:] += tails(phi, cap, values[first:])
    else:
        sums = table[:, counts.rows, index]
        if top > cap:
            over = values > cap
            sums[:, over] += tails(phi[counts.rows[over], 0], cap, values[over])
    return sums


def _lgamma_terms(phi, j, out):
    np.log1p(j / phi, out=out[0])


def _lgamma_tails(phi, c, v):
    """sum_{c<=j<v} log1p(j/phi) = log Gamma(y) - log Gamma(x) - (v-c) log phi
    with x = phi + c and y = phi + v. Its (x - 1/2) log1p((v-c)/x) - (v-c)
    rounds to an error of size (v-c) eps, far below what the log-likelihood
    needs."""
    x = phi + c
    n = v - c
    return (x - 0.5) * np.log1p(n / x) + n * (np.log1p(v / phi) - 1.0) + (
        _stirling(x + n) - _stirling(x)
    )


def _psi_terms(phi, j, out):
    """1/(phi+j), j/(phi+j), 1/(phi+j)^2 and j(2phi+j)/(phi+j)^2."""
    inv = np.divide(1.0, phi + j, out=out[0])
    np.multiply(j, inv, out=out[1])
    np.multiply(inv, inv, out=out[2])
    np.multiply((2.0 * phi + j) * j, out[2], out=out[3])


def _psi_tails(phi, c, v):
    """The sums of ``_psi_terms`` over c <= j < v: psi(y) - psi(x),
    (v-c) - phi (psi(y) - psi(x)), psi'(x) - psi'(y) and
    (v-c) - phi^2 (psi'(x) - psi'(y)), with x = phi + c and y = phi + v."""
    x = phi + c
    n = v - c
    r = n / x
    inv_x, psi_x, trigamma_x = _psi_rests(x)
    inv_y, psi_y, trigamma_y = _psi_rests(x + n)
    n_xy = r * inv_y
    half = 0.5 * n_xy
    log1p_r = np.log1p(r)
    # psi(y) - psi(x) = log1p(r) + s, (v-c) - phi (psi(y) - psi(x)) =
    # n c/x - phi (log1p(r) - r + s) and psi'(x) - psi'(y) = n/(xy) + t.
    # For phi <= c, r >= 1/(2c) lies above every series cut, so there
    # log1p(r) - r is taken directly.
    s = half + (psi_x - psi_y)
    t = half * (inv_x + inv_y) + (trigamma_x - trigamma_y)
    large = (phi.max() if isinstance(phi, np.ndarray) else phi) > c
    w = _log1p_minus(r, _series_cut(phi)) if large else log1p_r - r
    out = np.empty((4, len(v)))
    np.add(log1p_r, s, out=out[0])
    np.subtract(n * (c / x), phi * (w + s), out=out[1])
    np.add(n_xy, t, out=out[2])
    np.subtract(n_xy * (phi * c + v * x), phi * phi * t, out=out[3])
    return out


# ---------------------------------------------------------------------------
# Log-likelihood term
# ---------------------------------------------------------------------------

def _gamma_ratio(counts: DistinctCounts, phi):
    """log Gamma(m+phi) - log Gamma(phi) - m log phi - log m! per record: the
    count sum of log1p(j/phi), so nothing of size m log phi cancels, less
    log m!."""
    (sums,) = _count_sums(counts, phi, 1, _lgamma_terms, _lgamma_tails)
    return (sums - counts.log_factorial)[counts.inverse]


def _trunc_normalizer(fam: CountFamily, mu, phi, q=None):
    """(d, Q) of a truncated family: Q = -log P(X < lo), the tail below the
    support, and d = -expm1(-Q), the mass of the support, NaN where it is
    below the smallest normal float (no mass). ``q``, if given, is
    -log f(0), which is Q under zero truncation. Under zero-one truncation
    Q = q - log1p(rho), with rho = f(1)/f(0) = mu/(1 + x) and x = mu/phi
    (rho = mu for Poisson), taken without their cancellation as mu -> 0."""
    if q is None:
        q = mu if fam.family is Family.POISSON else phi * np.log1p(mu / phi)
    if fam.truncation is Truncation.ZERO:
        tail = q
    elif fam.family is Family.POISSON:
        tail = -_log1p_minus(mu, _LARGE_PHI_CUT)
    else:  # at x <= 1 as phi (log1p(x) - x) + rho x - (log1p(rho) - rho)
        x = mu / phi
        rho = mu / (1.0 + x)
        near = phi * _log1p_minus(x, _LARGE_PHI_CUT) + rho * x - _log1p_minus(rho, _LARGE_PHI_CUT)
        tail = np.where(x <= 1.0, near, q - np.log1p(rho))
    d = -np.expm1(-tail)
    return np.where(d >= _TINY, d, np.nan), tail


def _check_support(fam: CountFamily, kind: str, m: np.ndarray) -> None:
    if m.min(initial=fam.support_min) < fam.support_min:
        raise SupportError(f"count below support minimum {fam.support_min} for {kind}")
    if (np.floor(m) != m).any():
        raise SupportError(f"non-integer count for {kind}")
    if m.max(initial=0.0) == np.inf:
        raise SupportError(f"infinite count for {kind}")


def _checked(kind: str, mu, phi, m, counts: DistinctCounts | None = None):
    """Family of ``kind`` and (mu, m) as float arrays, after the argument,
    support and normalizer checks of ``term_loglik`` and ``term_derivatives``;
    the counts are checked through their distinct values when given."""
    fam = kind_family(kind)
    mu = np.asarray(mu, dtype=float)
    _check_mu(mu)
    m = np.asarray(m, dtype=float)
    check_kind_args(kind, phi, m if counts is None else counts.values)
    if fam.truncation is not Truncation.NONE and np.isnan(_trunc_normalizer(fam, mu, phi)[0]).any():
        raise NumericalError("truncated support carries no mass")
    return fam, mu, m


def check_kind_args(kind: str, phi, m: np.ndarray) -> CountFamily:
    """Family of ``kind``, after the checks of ``term_loglik`` that do not
    involve mu, for a float array of counts (or of their distinct values):
    each must be an integer in the support. For callers of
    ``term_loglik_kernel``."""
    fam = kind_family(kind)
    if fam.has_dispersion:
        _check_phi(phi)
    _check_support(fam, kind, m)
    return fam


def term_loglik(kind: str, mu, phi, m) -> np.ndarray:
    """Per-record log-likelihood term, after the argument and support checks.

    ``kind`` is a family token (po, ztpo, zotpo, nb2, ztnb2, zotnb2) or one
    of the simulation arms: ``zhang`` and ``nb2-mixture`` (the exact
    Poisson-Gamma mixture arrangement; same likelihood as nb2, computed
    through the mixture identity). ``zhang`` is the reduced NB2 term with
    log-Gamma replaced by the truncated Stirling expansion: it drops the
    Stirling remainder integral, for the bias simulation only.
    """
    fam, mu, m = _checked(kind, mu, phi, m)
    return term_loglik_kernel(fam, kind, mu, phi, m)


def term_loglik_kernel(
    fam: CountFamily, kind: str, mu, phi, m, counts: DistinctCounts | None = None
) -> np.ndarray:
    """``term_loglik`` without its checks; the one implementation for every
    kind. ``fam`` is the family of ``kind`` (as ``check_kind_args`` returns
    it), mu and m are float arrays, and ``counts``, if given, holds the
    distinct counts of m. A mu that is 0 or not finite, or a truncated
    support without mass, gives a non-finite term instead of an error."""
    if kind == "zhang":
        a = mu + phi
        b = m + phi
        return m * np.log(mu) - b * np.log(a) + (b - 0.5) * np.log(b) + 0.5 * np.log(phi)
    counts = DistinctCounts.of(m) if counts is None else counts
    q = None
    if fam.family is Family.POISSON:
        ll = m * np.log(mu) - mu - counts.log_factorial[counts.inverse]
    elif kind == "nb2-mixture":
        # Poisson(m; mu phi/(mu+phi)) mixed by the gamma weight (phi/(mu+phi))^phi
        x = mu / phi
        return _gamma_ratio(counts, phi) + m * np.log(mu / (1.0 + x)) - phi * np.log1p(x)
    else:
        log1p_x = np.log1p(mu / phi)
        ll = _gamma_ratio(counts, phi) + m * np.log(mu) - (m + phi) * log1p_x
        q = phi * log1p_x
    if fam.truncation is not Truncation.NONE:
        ll = ll - np.log(_trunc_normalizer(fam, mu, phi, q)[0])
    return ll


def log_pmf(family: CountFamily, eta: EtaPoint, m) -> float | np.ndarray:
    """log f(m; eta) for the chosen family and truncation."""
    out = term_loglik(family.token, eta.mu, eta.phi, m)
    return float(out) if np.isscalar(m) else out


# ---------------------------------------------------------------------------
# Poisson-Gamma mixture oracle (independent of the NB2 closed form)
# ---------------------------------------------------------------------------

def mixture_pmf_oracle(mu: float, phi: float, m: int) -> float:
    """P(m) under Poisson(mu*u) mixed over u ~ Gamma(shape=phi, rate=phi).

    Evaluated by adaptive quadrature of the mixing integral; used as an
    independent cross-check on the NB2 closed form. Needs scipy (only the
    ``test`` extra installs it), imported here rather than with the package.
    """
    from scipy import integrate

    _check_mu(np.asarray(mu, dtype=float))
    _check_phi(phi)
    if m < 0:
        raise SupportError("m must be nonnegative")

    # Substitute u = e^t so the integrand exp(shape*t - rate*e^t + const) is
    # smooth for every (mu, phi, m), including the u -> 0 singularity that
    # appears when m = 0 and phi < 1.
    shape = m + phi
    rate = mu + phi
    const = m * np.log(mu) - math.lgamma(m + 1.0) + phi * np.log(phi) - math.lgamma(phi)
    t_peak = np.log(shape / rate)
    w = np.sqrt(shape)  # curvature at the peak is -shape, so sd in t is 1/w
    log_scale = shape * t_peak - shape + const

    def f(s):
        t = t_peak + s / w
        return np.exp(shape * t - rate * np.exp(t) + const - log_scale) / w

    val, err = integrate.quad(
        f,
        -(50.0 + 50.0 / w),
        50.0,
        limit=300,
        epsabs=0.0,
        epsrel=1e-11,
        points=[0.0],
    )
    if not np.isfinite(val) or val <= 0 or err / val > 1e-9:
        raise NumericalError(
            f"quadrature did not converge: value={val}, abserr={err}"
        )
    return float(val * np.exp(log_scale))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_MAX_REJECTIONS = 10**6
# A rejection round of at most this many records draws them with one scalar
# generator call each, in record order, which consumes the generator exactly
# as one array call over them does. numpy's array path costs a fixed 10-40 µs
# in argument checks (more for NB2), a scalar call about 1 µs, so the cut
# lies near 16 records for Poisson and 30 for NB2.
_SCALAR_ROUND = 16


def _sample_untruncated(family: Family, mu, phi, rng: np.random.Generator, size):
    if family is Family.POISSON:
        return rng.poisson(mu, size=size)
    return rng.negative_binomial(n=phi, p=phi / (phi + mu), size=size)


def _redraw(family: Family, mu: np.ndarray, phi, rng: np.random.Generator):
    """One untruncated draw per entry of the 1-d ``mu``, as a rejection round
    takes them."""
    if len(mu) > _SCALAR_ROUND:
        return _sample_untruncated(family, mu, phi, rng, len(mu))
    return [_sample_untruncated(family, x, phi, rng, None) for x in mu.tolist()]


def sample(family: CountFamily, eta: EtaPoint, rng: np.random.Generator) -> int:
    """One draw from the (possibly truncated) family; ``sample_many`` at one mu."""
    return int(sample_many(family, np.array([eta.mu]), eta.phi, rng)[0])


def sample_many(
    family: CountFamily, mu: np.ndarray, phi: float | None, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized draw, one count per mu entry, rejection per record: each
    round redraws the records still below the support, in record order."""
    mu = np.asarray(mu, dtype=float)
    _check_mu(mu)
    if family.has_dispersion:
        _check_phi(phi)
    lo = family.support_min
    out = _sample_untruncated(family.family, mu, phi, rng, mu.shape)
    if lo == 0:
        return out
    flat, mu_flat = out.reshape(-1), mu.reshape(-1)
    bad = np.flatnonzero(flat < lo)
    tries = 0
    while bad.size:
        tries += 1
        if tries > _MAX_REJECTIONS:
            raise SamplingError("vectorized rejection sampling stalled")
        flat[bad] = _redraw(family.family, mu_flat[bad], phi, rng)
        bad = bad[flat[bad] < lo]
    return out


# ---------------------------------------------------------------------------
# Per-record derivatives of the log-likelihood term in (mu, phi)
# ---------------------------------------------------------------------------
# All fitting paths consume these through the mean-model chain rule; finite
# differences of the log-pmf are the independent cross-check in the tests.

@dataclass
class TermDerivs:
    d_mu: np.ndarray
    d_mumu: np.ndarray
    d_phi: np.ndarray | None = None
    d_phiphi: np.ndarray | None = None
    d_muphi: np.ndarray | None = None


def _poisson_derivs(mu, phi, m, counts, fam: CountFamily):
    d_mu, d_mumu = m / mu - 1.0, -m / mu**2
    if fam.truncation is Truncation.ZERO:  # q = mu
        r, rr, d_mu = _zero_truncation(fam, mu, phi, m)
        d_mumu = d_mumu + rr
    elif fam.truncation is Truncation.ZERO_ONE:  # Q = mu - log1p(mu)
        tail_derivs = (mu / (1.0 + mu), 1.0 / (1.0 + mu) ** 2)
        return _zero_one_truncation(fam, mu, phi, None, (d_mu, d_mumu), tail_derivs)
    return d_mu, d_mumu, None, None, None


def _dlogf0_dphi(x, log1p_x, cut):
    """d/dphi of log f(0) = -phi log1p(mu/phi), at x = mu/phi and
    log1p_x = log1p(x): x/(1+x) - log1p(x), below ``cut`` as
    -(log1p(x) - x) - x^2/(1+x), without the cancellation of the two."""
    out = x / (1.0 + x) - log1p_x
    small = x < cut
    if small.any():
        s = np.minimum(x, cut)
        out = np.where(small, -(_log1p_minus(s, cut) + s * s / (1.0 + s)), out)
    return out


def _nb2_derivs(mu, phi, m, counts, fam: CountFamily):
    counts = DistinctCounts.of(m) if counts is None else counts
    a = mu + phi
    a2 = a * a
    d_mumu = -m / mu**2 + (m + phi) / a2
    # d_phi = sum_{j<m} 1/(phi+j) - log1p(mu/phi) + (mu-m)/a and its
    # derivative, written with the count sums of _psi_terms so that nothing
    # of size m/phi cancels as phi grows, or of size 1/phi as it shrinks.
    # h_phi and h_phiphi are the phi partials of log f(0).
    sums = _count_sums(counts, phi, 4, _psi_terms, _psi_tails)
    inv, share, inv2, share2 = sums[:, counts.inverse]
    x = mu / phi
    log1p_x = np.log1p(x)
    h_phi = _dlogf0_dphi(x, log1p_x, _series_cut(phi))
    h_phiphi = mu * mu / (phi * a2)
    d_phi = (mu * inv - share) / a + h_phi
    d_phiphi = (share2 - mu * (2.0 * phi + mu) * inv2) / a2 + h_phiphi
    d_muphi = (m - mu) / a2
    if fam.truncation is Truncation.ZERO:
        # less the partials of log(1 - f(0)), with q = -log f(0): r h' to
        # each first and r h'' + r (1 + r) h' h' to each second partial
        r, rr, score = _zero_truncation(fam, mu, phi, m, x, log1p_x)
        dq_dmu = phi / a
        return (
            dq_dmu * score,
            d_mumu + r * phi / a2 + rr * dq_dmu**2,
            d_phi + r * h_phi,
            d_phiphi + r * h_phiphi + rr * h_phi**2,
            d_muphi - r * mu / a2 - rr * dq_dmu * h_phi,
        )
    derivs = (phi * (m - mu) / (mu * a), d_mumu, d_phi, d_phiphi, d_muphi)
    if fam.truncation is Truncation.NONE:
        return derivs
    b = a + mu * phi  # Q = q + log a - log b
    ab, ab2 = a * b, (a * b) ** 2
    return _zero_one_truncation(
        fam, mu, phi, phi * log1p_x, derivs,
        (
            phi * mu * (1.0 + phi) / ab,
            phi * (1.0 + phi) * (phi * phi - mu * mu * (1.0 + phi)) / ab2,
            -h_phi - mu * mu / ab,
            mu * mu * (phi * phi - mu * mu * (1.0 + phi + phi * phi)) / (phi * ab2),
            mu * (b * mu * (1.0 + phi) - phi * a) / ab2,
        ),
    )


def _zhang_derivs(mu, phi, m, counts, fam: CountFamily):
    a = mu + phi
    b = m + phi
    d_mu = m / mu - b / a
    d_mumu = -m / mu**2 + b / a**2
    d_phi = -np.log(a) - b / a + np.log(b) + (b - 0.5) / b + 1.0 / (2.0 * phi)
    d_phiphi = (
        -(2.0 * mu + phi - m) / a**2
        + (b + 0.5) / b**2
        - 1.0 / (2.0 * phi**2)
    )
    d_muphi = (m - mu) / a**2
    return d_mu, d_mumu, d_phi, d_phiphi, d_muphi


def _inv_minus_inv_expm1(q, r):
    """1/q - 1/expm1(q) for q > 0, given r = 1/expm1(q); below
    ``_SERIES_CUT`` from its series 1/2 - q/12 + q^3/720."""
    out = 1.0 / np.maximum(q, _SERIES_CUT) - r
    if q.min() < _SERIES_CUT:
        s = np.minimum(q, _SERIES_CUT)
        out = np.where(q < _SERIES_CUT, 0.5 - s * (1 / 12 - s * s / 720), out)
    return out


def _tail_ratio(fam: CountFamily, mu, phi, q=None):
    """(r, Q) of a truncated family: r = P(X < lo)/P(X >= lo) = e^-Q/d with
    (d, Q) of ``_trunc_normalizer``, NaN where the support has no mass."""
    d, tail = _trunc_normalizer(fam, mu, phi, q)
    return np.exp(-tail) / d, tail


def _zero_one_truncation(fam: CountFamily, mu, phi, q, derivs, tail_derivs):
    """The untruncated partials ``derivs``, (d_mu, d_mumu[, d_phi, d_phiphi,
    d_muphi]), less those of log d = log(1 - e^-Q), given Q's partials
    ``tail_derivs`` in the same order: r Q' off each first partial and
    r Q'' - (r Q')((1 + r) Q') off each second, a product that overflows
    only where the result does. ``q`` is as ``_trunc_normalizer`` takes it."""
    r = _tail_ratio(fam, mu, phi, q)[0]
    (t_mu, t_mumu, *t_phi), (q_mu, q_mumu, *q_phi) = derivs, tail_derivs
    r_mu = r * q_mu
    out = (t_mu - r_mu, t_mumu - r * q_mumu + r_mu * ((1.0 + r) * q_mu))
    if not q_phi:
        return out + (None, None, None)
    (t_phi, t_phiphi, t_muphi), (q_phi, q_phiphi, q_muphi) = t_phi, q_phi
    r_phi, s_phi = r * q_phi, (1.0 + r) * q_phi
    return out + (
        t_phi - r_phi,
        t_phiphi - r * q_phiphi + r_phi * s_phi,
        t_muphi - r * q_muphi + r_mu * s_phi,
    )


def _zero_truncation(fam: CountFamily, mu, phi, m, x=None, log1p_x=None):
    """(r, r (1 + r), m/mu - 1 - r) of a zero-truncated family, where
    r = f(0)/(1 - f(0)) = 1/expm1(q) and q = -log f(0): the term's d/dq is
    m/mu - 1 - r times dmu/dq. As mu -> 0, r ~ 1/mu cancels m/mu, so that is
    taken as (m-1)/mu - 1 + (1/mu - 1/q) + (1/q - r). r is NaN where the
    support has no mass. For NB2, x = mu/phi and log1p_x = log1p(x)."""
    r, q = _tail_ratio(fam, mu, phi, None if x is None else phi * log1p_x)
    score = (m - 1.0) / mu - 1.0 + _inv_minus_inv_expm1(q, r)
    if fam.family is Family.NB2:  # 1/mu - 1/q = phi (log1p(x) - x)/(mu q)
        score = score + phi * _log1p_minus(x, log1p_x=log1p_x) / (mu * q)
    return r, r * (1.0 + r), score


def term_derivatives(
    kind: str, mu, phi, m, counts: DistinctCounts | None = None
) -> TermDerivs:
    """The (mu, phi) derivatives of ``term_loglik``, for the same kinds and
    with the same argument checks; the term itself is not evaluated.
    ``counts`` holds the distinct counts of m (built here when not given).
    A derivative that is not finite (at a mu so small that m/mu^2
    overflows, say) raises ``NumericalError``, without a warning.

    ``nb2-mixture`` is the nb2 likelihood, so it takes the nb2 derivatives.
    """
    fam, mu, m = _checked(kind, mu, phi, m, counts)
    with np.errstate(all="ignore"):  # a derivative that overflows is refused below
        out = term_derivatives_kernel(fam, kind, mu, phi, m, counts)
    derivs = {name: d for name, d in vars(out).items() if d is not None}
    if not np.isfinite(np.concatenate(list(derivs.values()), axis=None)).all():
        name = next(name for name, d in derivs.items() if not np.isfinite(d).all())
        raise NumericalError(f"non-finite {name} for {kind}")
    return out


def term_derivatives_kernel(
    fam: CountFamily, kind: str, mu, phi, m, counts: DistinctCounts | None = None
) -> TermDerivs:
    """``term_derivatives`` without its checks, for the arguments that
    ``term_loglik_kernel`` takes. A truncated support without mass gives
    NaN derivatives instead of an error."""
    if kind == "zhang":
        base = _zhang_derivs
    else:
        base = _poisson_derivs if fam.family is Family.POISSON else _nb2_derivs
    return TermDerivs(*base(mu, phi, m, counts, fam))


# Every likelihood kind's family; both simulation arms are untruncated NB2
# likelihoods.
_KIND_FAMILIES = {
    **{tok: CountFamily(fam, trunc) for tok, (fam, trunc) in _FAMILY_TOKENS.items()},
    "zhang": CountFamily(Family.NB2),
    "nb2-mixture": CountFamily(Family.NB2),
}


def kind_family(kind: str) -> CountFamily:
    """Family and truncation of a likelihood kind: a lookup, which falls back
    to ``CountFamily.from_token`` for a token not in canonical form."""
    fam = _KIND_FAMILIES.get(kind)
    return fam if fam is not None else CountFamily.from_token(kind)


def kind_needs_phi(kind: str) -> bool:
    return kind_family(kind).has_dispersion


def kind_support_min(kind: str) -> int:
    return kind_family(kind).support_min
