"""Distribution kernel: closed forms, normalization, truncation, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, polygamma, zeta

from popest.distributions import (
    CountFamily,
    EtaPoint,
    Family,
    ParameterError,
    SupportError,
    Truncation,
    log_pmf,
    mixture_pmf_oracle,
    sample,
    sample_many,
    term_derivatives,
    term_loglik,
)

ALL_TOKENS = ("po", "ztpo", "zotpo", "nb2", "ztnb2", "zotnb2")


def test_poisson_unit_mean():
    fam = CountFamily.from_token("po")
    assert log_pmf(fam, EtaPoint(mu=1.0), 1) == pytest.approx(-1.0, abs=1e-14)


def test_ztpo_closed_form():
    # f+(1) at mu = ln 2: mu e^-mu / (1 - e^-mu) = ln 2.
    fam = CountFamily.from_token("ztpo")
    val = np.exp(log_pmf(fam, EtaPoint(mu=np.log(2.0)), 1))
    assert val == pytest.approx(np.log(2.0), rel=1e-12)


def test_nb2_geometric_cases():
    eta = EtaPoint(mu=1.0, phi=1.0)
    nb2 = CountFamily.from_token("nb2")
    for m, expect in ((0, 0.5), (1, 0.25), (2, 0.125)):
        assert np.exp(log_pmf(nb2, eta, m)) == pytest.approx(expect, rel=1e-12)
    zt = CountFamily.from_token("ztnb2")
    for m, expect in ((1, 0.5), (2, 0.25)):
        assert np.exp(log_pmf(zt, eta, m)) == pytest.approx(expect, rel=1e-12)
    zot = CountFamily.from_token("zotnb2")
    assert np.exp(log_pmf(zot, eta, 2)) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_normalization_sums_to_one(token):
    fam = CountFamily.from_token(token)
    lo = fam.support_min
    grid = np.arange(lo, 5000)
    for mu in (0.1, 1.0, 2.5, 10.0):
        for phi in ((0.5, 1.0, 2.5, 10.0) if fam.has_dispersion else (None,)):
            total = np.exp(log_pmf(fam, EtaPoint(mu=mu, phi=phi), grid)).sum()
            assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("family", [Family.POISSON, Family.NB2])
def test_truncation_identities(family):
    phi = 1.7 if family is Family.NB2 else None
    base = CountFamily(family, Truncation.NONE)
    zt = CountFamily(family, Truncation.ZERO)
    zot = CountFamily(family, Truncation.ZERO_ONE)
    for mu in (0.3, 1.0, 4.2):
        eta = EtaPoint(mu=mu, phi=phi)
        f0 = np.exp(log_pmf(base, eta, 0))
        f1 = np.exp(log_pmf(base, eta, 1))
        for m in range(2, 30):
            f = np.exp(log_pmf(base, eta, m))
            assert np.exp(log_pmf(zt, eta, m)) == pytest.approx(
                f / (1.0 - f0), abs=1e-12
            )
            assert np.exp(log_pmf(zot, eta, m)) == pytest.approx(
                f / (1.0 - f0 - f1), abs=1e-12
            )


def test_mixture_oracle_matches_closed_form():
    nb2 = CountFamily.from_token("nb2")
    for mu in (0.5, 1.0, 2.5, 10.0):
        for phi in (0.5, 1.0, 2.5, 10.0):
            eta = EtaPoint(mu=mu, phi=phi)
            for m in range(21):
                oracle = mixture_pmf_oracle(mu, phi, m)
                closed = np.exp(log_pmf(nb2, eta, m))
                assert abs(oracle - closed) < 1e-8


def test_mixture_oracle_geometric_point():
    assert mixture_pmf_oracle(1.0, 1.0, 0) == pytest.approx(0.5, abs=1e-8)


def test_mixture_oracle_poisson_limit():
    assert mixture_pmf_oracle(1.0, 1e6, 1) == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_zhang_term_value():
    # mu=1, phi=1, m=1: -2 log 2 + 1.5 log 2 = -0.5 log 2.
    val = float(term_loglik("zhang", 1.0, 1.0, 1))
    assert val == pytest.approx(-0.5 * np.log(2.0), abs=1e-14)


def test_zhang_term_drops_stirling_remainder():
    mu, phi, m = 2.3, 1.7, 5
    nb2 = CountFamily.from_token("nb2")
    exact = log_pmf(nb2, EtaPoint(mu=mu, phi=phi), m) + gammaln(m + 1.0)
    approx = float(term_loglik("zhang", mu, phi, m))
    assert abs(exact - approx) > 1e-6


def test_parameter_errors():
    with pytest.raises(ParameterError):
        term_loglik("zhang", 1.0, 0.0, 1)
    with pytest.raises(ParameterError):
        log_pmf(CountFamily.from_token("nb2"), EtaPoint(mu=1.0), 1)
    with pytest.raises(ParameterError):
        log_pmf(CountFamily.from_token("po"), EtaPoint(mu=-1.0), 1)
    with pytest.raises(ParameterError):
        CountFamily.from_token("weibull")


def test_support_errors():
    with pytest.raises(SupportError):
        log_pmf(CountFamily.from_token("ztpo"), EtaPoint(mu=1.0), 0)
    with pytest.raises(SupportError):
        log_pmf(CountFamily.from_token("zotnb2"), EtaPoint(mu=1.0, phi=1.0), 1)


def test_sampler_ztpo_frequency():
    rng = np.random.default_rng(5)
    fam = CountFamily.from_token("ztpo")
    eta = EtaPoint(mu=np.log(2.0))
    draws = np.array([sample(fam, eta, rng) for _ in range(100_000)])
    assert np.mean(draws == 1) == pytest.approx(np.log(2.0), abs=0.01)
    assert draws.min() >= 1


def test_sampler_nb2_mean():
    rng = np.random.default_rng(6)
    fam = CountFamily.from_token("nb2")
    mu = np.ones(100_000)
    draws = sample_many(fam, mu, 1.0, rng)
    assert draws.mean() == pytest.approx(1.0, abs=0.02)


def test_sampler_determinism():
    fam = CountFamily.from_token("ztnb2")
    eta = EtaPoint(mu=2.0, phi=1.5)
    a = [sample(fam, eta, np.random.default_rng(42)) for _ in range(50)]
    b = [sample(fam, eta, np.random.default_rng(42)) for _ in range(50)]
    # identical streams draw identical sequences
    seq_a = []
    rng = np.random.default_rng(42)
    for _ in range(50):
        seq_a.append(sample(fam, eta, rng))
    rng = np.random.default_rng(42)
    seq_b = [sample(fam, eta, rng) for _ in range(50)]
    assert seq_a == seq_b
    assert a == b


@pytest.mark.parametrize(
    "token,mu,phi",
    [("ztnb2", 2.0, 1.5), ("zotpo", 1.5, None), ("nb2", 1.0, 1.0), ("ztpo", 0.8, None)],
)
def test_sampler_total_variation(token, mu, phi):
    fam = CountFamily.from_token(token)
    rng = np.random.default_rng(7)
    draws = sample_many(fam, np.full(100_000, mu), phi, rng)
    support = np.arange(fam.support_min, 51)
    exact = np.exp(log_pmf(fam, EtaPoint(mu=mu, phi=phi), support))
    emp = np.array([(draws == m).mean() for m in support])
    tv = 0.5 * np.abs(emp - exact).sum()
    assert tv < 0.01


@pytest.mark.parametrize("kind", list(ALL_TOKENS) + ["zhang", "nb2-mixture"])
def test_term_derivatives_match_finite_differences(kind):
    from popest.distributions import kind_needs_phi, kind_support_min

    needs_phi = kind_needs_phi(kind)
    rng = np.random.default_rng(3)
    for _ in range(10):
        mu = float(rng.uniform(0.5, 8.0))
        phi = float(rng.uniform(0.6, 4.0)) if needs_phi else None
        m = float(max(kind_support_min(kind), int(rng.integers(0, 12))))
        t = term_derivatives(kind, mu, phi, m)
        h = 1e-5

        def ll(mu_v, phi_v):
            return float(term_loglik(kind, mu_v, phi_v, m))

        d_mu_fd = (ll(mu + h, phi) - ll(mu - h, phi)) / (2 * h)
        assert float(t.d_mu) == pytest.approx(d_mu_fd, abs=1e-5, rel=1e-5)
        d_mumu_fd = (
            float(term_derivatives(kind, mu + h, phi, m).d_mu)
            - float(term_derivatives(kind, mu - h, phi, m).d_mu)
        ) / (2 * h)
        assert float(t.d_mumu) == pytest.approx(d_mumu_fd, abs=1e-5, rel=1e-5)
        if needs_phi:
            d_phi_fd = (ll(mu, phi + h) - ll(mu, phi - h)) / (2 * h)
            assert float(t.d_phi) == pytest.approx(d_phi_fd, abs=1e-5, rel=1e-5)
            d_phiphi_fd = (
                float(term_derivatives(kind, mu, phi + h, m).d_phi)
                - float(term_derivatives(kind, mu, phi - h, m).d_phi)
            ) / (2 * h)
            assert float(t.d_phiphi) == pytest.approx(d_phiphi_fd, abs=1e-5, rel=1e-5)
            d_muphi_fd = (
                float(term_derivatives(kind, mu + h, phi, m).d_phi)
                - float(term_derivatives(kind, mu - h, phi, m).d_phi)
            ) / (2 * h)
            assert float(t.d_muphi) == pytest.approx(d_muphi_fd, abs=1e-5, rel=1e-5)


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_log_pmf_equals_term_derivatives_ll(token):
    # log_pmf is the term whose derivatives term_derivatives returns.
    fam = CountFamily.from_token(token)
    rng = np.random.default_rng(11)
    for _ in range(300):
        mu = float(np.exp(rng.uniform(np.log(0.05), np.log(500.0))))
        phi = float(rng.uniform(0.2, 20.0)) if fam.has_dispersion else None
        m = fam.support_min + int(rng.integers(0, 30))
        assert log_pmf(fam, EtaPoint(mu, phi), m) == term_loglik(token, mu, phi, m)


@pytest.mark.parametrize("kind", list(ALL_TOKENS) + ["zhang", "nb2-mixture"])
def test_term_derivatives_do_not_evaluate_the_term(kind, monkeypatch):
    import popest.distributions as distributions
    from popest.distributions import kind_needs_phi, kind_support_min

    rng = np.random.default_rng(5)
    mu = np.exp(rng.uniform(np.log(0.05), np.log(50.0), 40))
    phi = 1.3 if kind_needs_phi(kind) else None
    m = kind_support_min(kind) + rng.integers(0, 20, 40)
    expect = term_derivatives(kind, mu, phi, m)

    def forbidden(*args, **kwargs):
        raise AssertionError("term_derivatives evaluated the log-likelihood term")

    monkeypatch.setattr(distributions, "term_loglik", forbidden)
    got = term_derivatives(kind, mu, phi, m)
    for name in ("d_mu", "d_mumu", "d_phi", "d_phiphi", "d_muphi"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expect, name))


@pytest.mark.parametrize(
    "kind, mu, phi, m, error",
    [
        ("po", 0.0, None, 1, ParameterError),
        ("ztnb2", -1.0, 1.0, 1, ParameterError),
        ("nb2", 1.0, None, 1, ParameterError),
        ("zhang", 1.0, 0.0, 1, ParameterError),
        ("zotnb2", 1.0, -2.0, 2, ParameterError),
        ("ztpo", 1.0, None, 0, SupportError),
        ("zotnb2", 1.0, 1.0, 1, SupportError),
    ],
)
def test_term_derivatives_raise_as_term_loglik(kind, mu, phi, m, error):
    with pytest.raises(error):
        term_loglik(kind, mu, phi, m)
    with pytest.raises(error):
        term_derivatives(kind, mu, phi, m)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    log_mu=st.floats(min_value=-3.0, max_value=6.0),
    log_phi=st.floats(min_value=-3.0, max_value=4.0),
    m=st.integers(min_value=0, max_value=2000),
)
def test_nb2_mixture_likelihood_equals_nb2(log_mu, log_phi, m):
    mu, phi = 10.0**log_mu, 10.0**log_phi
    ll = float(term_loglik("nb2", mu, phi, m))
    mixture = float(term_loglik("nb2-mixture", mu, phi, m))
    # The mixture arrangement cancels terms as large as phi*log(phi) against
    # (m+phi)*log(mu+phi), so the two agree to a few roundings of the largest
    # term, not of ll: at phi=1e4, m=0 that is about 2e-11 relative to ll.
    scale = (
        abs(m * np.log(mu))
        + abs(phi * np.log(phi))
        + gammaln(m + 1.0)
        + abs(gammaln(phi))
        + abs((m + phi) * np.log(mu + phi))
        + abs(gammaln(m + phi))
    )
    assert abs(mixture - ll) <= 16 * np.finfo(float).eps * (1.0 + scale)


@given(x=st.floats(min_value=1e-6, max_value=1e8))
def test_zeta_is_trigamma_bit_for_bit(x):
    # _nb2_derivs takes trigamma as zeta(2, x): scipy's polygamma(1, x) is
    # 1.0 * 1.0 * zeta(2, x), so the two must agree exactly, not just closely.
    assert zeta(2.0, x) == polygamma(1, x)


def test_token_round_trip():
    for token in ALL_TOKENS:
        assert CountFamily.from_token(token).token == token
