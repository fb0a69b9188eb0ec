"""Count-distribution kernel: log-densities, truncation, samplers, derivatives.

Supports Poisson and NB2 (negative binomial with mean mu and dispersion phi,
variance mu + mu^2/phi), each optionally zero-truncated or zero-one-truncated.
A Stirling-reduced NB2 log-likelihood term is provided for the bias
simulation; it must never be used for production fitting.

Each kind's per-record log-likelihood term has one implementation,
``term_loglik_kernel``. The public functions (``term_loglik``, ``log_pmf``,
``term_derivatives``) check their arguments and support on every call; the
line search (``meanmodel.loglik_kind``) checks phi and the counts once per
call and runs the unchecked kernel, whose non-finite terms it rejects.
``term_derivatives`` returns only the (mu, phi) derivatives of that term.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln, psi, zeta


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
    """Raised when a count lies below the truncated support."""


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


def _check_phi(phi) -> None:
    if phi is None:
        raise ParameterError("dispersion phi is required for NB2")
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)) or np.any(phi <= 0):
        raise ParameterError("phi must be positive and finite")


def _check_params(mu, phi, needs_phi: bool) -> None:
    mu = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
        raise ParameterError("mu must be positive and finite")
    if needs_phi:
        _check_phi(phi)


def _log1mexp(a):
    """log(1 - exp(a)) for a < 0, stable for a near 0 and for large -a."""
    a = np.asarray(a, dtype=float)
    out = np.where(a > -np.log(2.0), np.log(-np.expm1(a)), np.log1p(-np.exp(a)))
    return out


# ---------------------------------------------------------------------------
# Log-likelihood term
# ---------------------------------------------------------------------------

def _poisson_logpmf(mu, m):
    return m * np.log(mu) - mu - gammaln(m + 1.0)


def _nb2_logpmf(mu, phi, m):
    return (
        gammaln(m + phi)
        - gammaln(phi)
        - gammaln(m + 1.0)
        - (m + phi) * np.log1p(mu / phi)
        + m * (np.log(mu) - np.log(phi))
    )


def _log_f0(family: Family, mu, phi):
    if family is Family.POISSON:
        return -np.asarray(mu, dtype=float)
    return -phi * np.log1p(mu / phi)


def _log_f1(family: Family, mu, phi):
    if family is Family.POISSON:
        return np.log(mu) - mu
    return _log_f0(family, mu, phi) + np.log(phi) + np.log(mu) - np.log(mu + phi)


def _trunc_normalizer(fam: CountFamily, mu, phi):
    """(d, log d) with d = 1 - f(0) [- f(1)], the mass of the truncated support.

    Only for truncated families.
    """
    lf0 = _log_f0(fam.family, mu, phi)
    d = -np.expm1(lf0)
    if fam.truncation is Truncation.ZERO_ONE:
        d = d - np.exp(_log_f1(fam.family, mu, phi))
    if np.any(d <= 0):
        raise NumericalError("truncated support carries no mass")
    log_d = _log1mexp(lf0) if fam.truncation is Truncation.ZERO else np.log(d)
    return d, log_d


def _check_support(fam: CountFamily, kind: str, m: np.ndarray) -> None:
    if m.min(initial=fam.support_min) < fam.support_min:
        raise SupportError(f"count below support minimum {fam.support_min} for {kind}")


def _checked(kind: str, mu, phi, m):
    """Family of ``kind`` and (mu, m) as float arrays, after the argument and
    support checks shared by ``term_loglik`` and ``term_derivatives``."""
    fam = _kind_family(kind)
    _check_params(mu, phi, fam.has_dispersion)
    mu = np.asarray(mu, dtype=float)
    m = np.asarray(m, dtype=float)
    _check_support(fam, kind, m)
    return fam, mu, m


def check_kind_args(kind: str, phi: float | None, m: np.ndarray) -> CountFamily:
    """Family of ``kind``, after the checks of ``term_loglik`` that do not
    involve mu, for a scalar phi and a float array of counts; for callers of
    ``term_loglik_kernel``."""
    fam = _kind_family(kind)
    if fam.has_dispersion and not (phi is not None and 0.0 < phi < np.inf):
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


def term_loglik_kernel(fam: CountFamily, kind: str, mu, phi, m) -> np.ndarray:
    """``term_loglik`` without its checks; the one implementation for every
    kind. ``fam`` is the family of ``kind`` (as ``check_kind_args`` returns
    it) and mu, m are float arrays. A mu that is 0 or not finite gives a
    non-finite term (or ``NumericalError`` from the truncation normalizer)
    instead of ``ParameterError``."""
    if kind == "zhang":
        a = mu + phi
        b = m + phi
        return m * np.log(mu) - b * np.log(a) + (b - 0.5) * np.log(b) + 0.5 * np.log(phi)
    if kind == "nb2-mixture":
        return (
            m * np.log(mu)
            + phi * np.log(phi)
            - gammaln(m + 1.0)
            - gammaln(phi)
            - (m + phi) * np.log(mu + phi)
            + gammaln(m + phi)
        )
    if fam.family is Family.POISSON:
        ll = _poisson_logpmf(mu, m)
    else:
        ll = _nb2_logpmf(mu, phi, m)
    if fam.truncation is not Truncation.NONE:
        ll = ll - _trunc_normalizer(fam, mu, phi)[1]
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
    independent cross-check on the NB2 closed form. ``scipy.integrate`` is
    imported here, so that importing the package does not load it.
    """
    from scipy import integrate

    _check_params(mu, phi, True)
    if m < 0:
        raise SupportError("m must be nonnegative")

    # Substitute u = e^t so the integrand exp(shape*t - rate*e^t + const) is
    # smooth for every (mu, phi, m), including the u -> 0 singularity that
    # appears when m = 0 and phi < 1.
    shape = m + phi
    rate = mu + phi
    const = m * np.log(mu) - gammaln(m + 1.0) + phi * np.log(phi) - gammaln(phi)
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


def _sample_untruncated(family: Family, mu, phi, rng: np.random.Generator, size):
    if family is Family.POISSON:
        return rng.poisson(mu, size=size)
    return rng.negative_binomial(n=phi, p=phi / (phi + np.asarray(mu)), size=size)


def sample(family: CountFamily, eta: EtaPoint, rng: np.random.Generator) -> int:
    """One draw from the (possibly truncated) family; ``sample_many`` at one mu."""
    return int(sample_many(family, np.array([eta.mu]), eta.phi, rng)[0])


def sample_many(
    family: CountFamily, mu: np.ndarray, phi: float | None, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized draw, one count per mu entry, rejection per record."""
    _check_params(mu, phi, family.has_dispersion)
    mu = np.asarray(mu, dtype=float)
    lo = family.support_min
    out = _sample_untruncated(family.family, mu, phi, rng, mu.shape)
    if lo == 0:
        return out
    bad = out < lo
    tries = 0
    while np.any(bad):
        tries += 1
        if tries > _MAX_REJECTIONS:
            raise SamplingError("vectorized rejection sampling stalled")
        out[bad] = _sample_untruncated(family.family, mu[bad], phi, rng, int(bad.sum()))
        bad = out < lo
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


def _poisson_derivs(mu, phi, m):
    return m / mu - 1.0, -m / mu**2, None, None, None


def _nb2_derivs(mu, phi, m):
    a = mu + phi
    d_mu = m / mu - (m + phi) / a
    d_mumu = -m / mu**2 + (m + phi) / a**2
    d_phi = psi(m + phi) - psi(phi) - np.log1p(mu / phi) + (mu - m) / a
    # d/dphi of d_phi; zeta(2, x) is the trigamma function polygamma(1, x)
    d_phiphi = (
        zeta(2.0, m + phi)
        - zeta(2.0, phi)
        - 1.0 / a
        + (m - mu) / a**2
        + 1.0 / phi
    )
    d_muphi = (m - mu) / a**2
    return d_mu, d_mumu, d_phi, d_phiphi, d_muphi


def _zhang_derivs(mu, phi, m):
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


def _poisson_mass_derivs(mu, which: int):
    """First/second mu-derivatives of f(which) for Poisson (no phi partials)."""
    f0 = np.exp(-mu)
    if which == 0:
        return -f0, f0, 0.0, 0.0, 0.0
    return (1.0 - mu) * f0, (mu - 2.0) * f0, 0.0, 0.0, 0.0


def _nb2_mass_derivs(mu, phi, which: int):
    """Partials of f(which) wrt (mu, phi) for NB2, via log-derivatives."""
    a = mu + phi
    g_mu = -phi / a
    g_mumu = phi / a**2
    g_phi = -np.log1p(mu / phi) + mu / a
    g_phiphi = 1.0 / phi - 1.0 / a - mu / a**2
    g_muphi = -mu / a**2
    if which == 0:
        logf = _log_f0(Family.NB2, mu, phi)
        h_mu, h_mumu = g_mu, g_mumu
        h_phi, h_phiphi, h_muphi = g_phi, g_phiphi, g_muphi
    else:
        logf = _log_f1(Family.NB2, mu, phi)
        h_mu = g_mu + 1.0 / mu - 1.0 / a
        h_mumu = g_mumu - 1.0 / mu**2 + 1.0 / a**2
        h_phi = g_phi + 1.0 / phi - 1.0 / a
        h_phiphi = g_phiphi - 1.0 / phi**2 + 1.0 / a**2
        h_muphi = g_muphi + 1.0 / a**2
    f = np.exp(logf)
    return (
        f * h_mu,
        f * (h_mu**2 + h_mumu),
        f * h_phi,
        f * (h_phi**2 + h_phiphi),
        f * (h_mu * h_phi + h_muphi),
    )


def _trunc_mass(fam: CountFamily, mu, phi):
    """Partials (mu, mumu, phi, phiphi, muphi) of S = f(0) [+ f(1)]; the
    normalizer is d = 1 - S."""
    which = (0, 1) if fam.truncation is Truncation.ZERO_ONE else (0,)
    if fam.family is Family.POISSON:
        parts = [_poisson_mass_derivs(mu, w) for w in which]
    else:
        parts = [_nb2_mass_derivs(mu, phi, w) for w in which]
    return [sum(p[k] for p in parts) for k in range(5)]


def term_derivatives(kind: str, mu, phi, m) -> TermDerivs:
    """The (mu, phi) derivatives of ``term_loglik``, for the same kinds and
    with the same argument checks; the term itself is not evaluated.

    ``nb2-mixture`` is the nb2 likelihood, so it takes the nb2 derivatives.
    """
    fam, mu, m = _checked(kind, mu, phi, m)
    if kind == "zhang":
        base = _zhang_derivs
    else:
        base = _poisson_derivs if fam.family is Family.POISSON else _nb2_derivs
    d_mu, d_mumu, d_phi, d_phiphi, d_muphi = base(mu, phi, m)
    if fam.truncation is not Truncation.NONE:
        d = _trunc_normalizer(fam, mu, phi)[0]
        s_mu, s_mumu, s_phi, s_phiphi, s_muphi = _trunc_mass(fam, mu, phi)
        d_mu = d_mu + s_mu / d
        d_mumu = d_mumu + s_mumu / d + (s_mu / d) ** 2
        if fam.has_dispersion:
            d_phi = d_phi + s_phi / d
            d_phiphi = d_phiphi + s_phiphi / d + (s_phi / d) ** 2
            d_muphi = d_muphi + s_muphi / d + s_mu * s_phi / d**2
    return TermDerivs(d_mu, d_mumu, d_phi, d_phiphi, d_muphi)


def _kind_family(kind: str) -> CountFamily:
    """Family and truncation of a likelihood kind; both simulation arms are
    untruncated NB2 likelihoods."""
    if kind in ("zhang", "nb2-mixture"):
        return CountFamily(Family.NB2)
    return CountFamily.from_token(kind)


def kind_needs_phi(kind: str) -> bool:
    return _kind_family(kind).has_dispersion


def kind_support_min(kind: str) -> int:
    return _kind_family(kind).support_min
