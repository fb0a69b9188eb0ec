"""The count-distribution kernel against a 60-digit mpmath oracle, over
m in [0, 1e5], mu in [1e-10, 1e6] and phi in [1e-6, 1e8].

The oracle is the exact log-likelihood term, written with mpmath's log-gamma
at 60 digits, and its partial derivatives by mpmath's numerical
differentiation at that precision. It shares no formula with the kernel,
which sums over the counts instead of calling a special function.

Every value must lie within 1e-10 of the oracle, relative to a scale:

- ll: max(|ll|, 1). ll is a log-probability, so an absolute error of 1e-10
  where ll nears 0 is a relative error of 1e-10 in the probability.
- a derivative f: max(|f|, |mu df/dmu|, |phi df/dphi|). Away from a zero of
  f that is |f|. Near one, it is the change of f under a relative change of
  1 in mu or phi, so an error within the bound moves the zero by at most a
  relative 1e-10 in mu or phi. It is the size of f's own leading term, not
  of the terms that cancel in f: as phi grows, d/dphi sums terms of size
  m/phi to a value of size m/phi^2, and its slopes are of size m/phi^2 too.

The zero-one-truncated kinds' ll is checked over the whole mu range, their
derivatives only at mu >= 0.1: below it, at m = 2, d/dmu cancels m/mu
against the truncation's term of the same size (ROADMAP item 3).
"""

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from popest.distributions import kind_needs_phi, kind_support_min, term_derivatives, term_loglik

TOL = 1e-10
DIGITS = 60
# A relative step for the mixed slopes, whose error at 60 digits (about
# 1e-24 relative) is far below what a tolerance scale needs.
SLOPE_STEP = mp.mpf("1e-12")


def _exact_loglik(kind: str, m: int):
    """The log-likelihood term of ``kind`` at count m as a function of
    (mu, phi), in mpmath; phi is ignored by the Poisson kinds."""

    def ll(mu, phi):
        if kind in ("po", "ztpo", "zotpo"):
            log_f0 = -mu
            f1 = mu * mp.exp(-mu)
            out = m * mp.log(mu) - mu - mp.loggamma(m + 1)
        else:
            log_f0 = phi * mp.log(phi / (phi + mu))
            f1 = phi * mu / (phi + mu) * mp.exp(log_f0)
            out = (
                mp.loggamma(m + phi) - mp.loggamma(phi) - mp.loggamma(m + 1)
                + log_f0 + m * mp.log(mu / (phi + mu))
            )
        if kind.startswith("zt"):
            out -= mp.log(-mp.expm1(log_f0))
        elif kind.startswith("zot"):
            out -= mp.log(-mp.expm1(log_f0) - f1)
        return out

    return ll


def _derivative(f, mu, phi, order):
    return mp.diff(f, (mu, phi), order)


def _mu_slope(f, mu, phi, order):
    """d/dmu of the ``order`` partial of f, by a central difference."""
    h = SLOPE_STEP * mu
    return (_derivative(f, mu + h, phi, order) - _derivative(f, mu - h, phi, order)) / (2 * h)


def _error(got, exact, scale) -> float:
    return float(abs(mp.mpf(float(got)) - exact) / max(abs(exact), scale))


KINDS = ("po", "ztpo", "zotpo", "nb2", "ztnb2", "nb2-mixture", "zotnb2")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    m=st.one_of(st.integers(0, 130), st.integers(0, 100_000)),
    log_mu=st.floats(-10.0, 6.0),
    log_phi=st.floats(-6.0, 8.0),
)
# the regime edges: m at the cap of the direct sums, mu/phi and q near the
# series cuts, m = 1 at a small mu (where truncation cancels terms of size
# 1/mu), and the corners of the range
@example(m=128, log_mu=0.5, log_phi=0.0)
@example(m=129, log_mu=2.0, log_phi=2.2)
@example(m=1, log_mu=-4.0, log_phi=0.0)
@example(m=2, log_mu=2.0 + 1e-12, log_phi=3.0)
@example(m=0, log_mu=-10.0, log_phi=-6.0)
@example(m=1, log_mu=-10.0, log_phi=8.0)
@example(m=1, log_mu=-7.3, log_phi=0.4)
@example(m=100_000, log_mu=5.0, log_phi=8.0)
@example(m=100_000, log_mu=6.0, log_phi=-6.0)
def test_kernel_agrees_with_a_60_digit_oracle(kind, m, log_mu, log_phi):
    if kind.startswith("zot"):
        log_mu = -1.0 + (log_mu + 10.0) * 7.0 / 16.0  # onto [-1, 6]
    m = max(m, kind_support_min(kind))
    mu = 10.0**log_mu
    phi = 10.0**log_phi if kind_needs_phi(kind) else None
    got_ll = term_loglik(kind, mu, phi, float(m))
    got = term_derivatives(kind, mu, phi, float(m))
    with mp.workdps(DIGITS):
        f = _exact_loglik(kind, m)
        x, p = mp.mpf(mu), mp.mpf(phi or 1.0)
        ll = f(x, p)
        errors = {"ll": _error(got_ll, ll, 1.0)}
        d_mu = _derivative(f, x, p, (1, 0))
        d_mumu = _derivative(f, x, p, (2, 0))
        if phi is None:
            errors["d_mu"] = _error(got.d_mu, d_mu, abs(x * d_mumu))
        else:
            d_phi = _derivative(f, x, p, (0, 1))
            d_phiphi = _derivative(f, x, p, (0, 2))
            d_muphi = _mu_slope(f, x, p, (0, 1))
            d_muphiphi = _mu_slope(f, x, p, (0, 2))
            d_phi3 = _derivative(f, x, p, (0, 3))
            errors["d_mu"] = _error(got.d_mu, d_mu, max(abs(x * d_mumu), abs(p * d_muphi)))
            errors["d_phi"] = _error(got.d_phi, d_phi, max(abs(x * d_muphi), abs(p * d_phiphi)))
            errors["d_phiphi"] = _error(
                got.d_phiphi, d_phiphi, max(abs(x * d_muphiphi), abs(p * d_phi3))
            )
    assert max(errors.values()) <= TOL, errors


@pytest.mark.parametrize("kind", ("zotpo", "zotnb2"))
@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    m=st.one_of(st.integers(2, 130), st.integers(2, 100_000)),
    log_mu=st.floats(-10.0, 6.0),
    log_phi=st.floats(-6.0, 8.0),
)
# the smallest means, where the mass of the support is of order mu^2; the
# NB2 tail's change of form at x = mu/phi = 1; and x or rho = mu/(1 + x) at
# the 0.1 cut of their log1p(.) - (.) series
@example(m=2, log_mu=-10.0, log_phi=-6.0)
@example(m=2, log_mu=-10.0, log_phi=8.0)
@example(m=2, log_mu=0.5, log_phi=0.5)
@example(m=5, log_mu=0.5, log_phi=0.5 - 1e-12)
@example(m=2, log_mu=-1.0, log_phi=0.0)
@example(m=3, log_mu=-1.0, log_phi=8.0)
def test_zero_one_truncated_loglik_agrees_with_the_oracle_at_every_mean(kind, m, log_mu, log_phi):
    mu = 10.0**log_mu
    phi = 10.0**log_phi if kind_needs_phi(kind) else None
    got = term_loglik(kind, mu, phi, float(m))
    with mp.workdps(DIGITS):
        exact = _exact_loglik(kind, m)(mp.mpf(mu), mp.mpf(phi or 1.0))
    assert _error(got, exact, 1.0) <= TOL
