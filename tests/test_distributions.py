"""Distribution kernel: closed forms, normalization, truncation, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, polygamma, psi, zeta

from popest import distributions
from popest.distributions import (
    CountFamily,
    DistinctCounts,
    EtaPoint,
    Family,
    NumericalError,
    ParameterError,
    SupportError,
    Truncation,
    check_kind_args,
    kind_needs_phi,
    kind_support_min,
    log_pmf,
    mixture_pmf_oracle,
    sample,
    sample_many,
    term_derivatives,
    term_loglik,
    term_loglik_kernel,
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


@pytest.mark.parametrize("kind", ["ztpo", "zotpo", "ztnb2", "zotnb2"])
def test_truncated_pmf_sums_to_one_at_small_means(kind):
    # The normalizer must be the mass of the support at every mean, also
    # where that mass is a tiny remainder of 1 (of order mu^2 under
    # zero-one truncation). Summed exactly over the support to k < 20 000.
    k = np.arange(kind_support_min(kind), 20_000, dtype=float)
    for mu in (1e-10, 1e-6, 1e-3, 0.1, 10.0):
        for phi in (0.5, 2.5, 1e4) if kind_needs_phi(kind) else (None,):
            total = math.fsum(np.exp(term_loglik(kind, mu, phi, k)))
            assert abs(total - 1.0) <= 1e-12, (mu, phi, total)


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


ALL_KINDS = ALL_TOKENS + ("zhang", "nb2-mixture")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    k=st.integers(min_value=0, max_value=10**6),
    mu=st.floats(min_value=1e-3, max_value=1e4),
)
def test_non_integer_count_is_a_support_error(kind, k, mu):
    # Each count's log(m!) and count sums are looked up by its integer part,
    # so a count such as k + 0.5 would silently give another count's term.
    phi = 2.5 if kind_needs_phi(kind) else None
    m = kind_support_min(kind) + k + 0.5
    with pytest.raises(SupportError, match="non-integer count"):
        term_loglik(kind, mu, phi, m)
    with pytest.raises(SupportError, match="non-integer count"):
        term_derivatives(kind, [mu, mu], phi, [m - 0.5, m])
    with pytest.raises(SupportError, match="non-integer count"):
        check_kind_args(kind, phi, np.array([m]))
    if kind in ALL_TOKENS:
        with pytest.raises(SupportError, match="non-integer count"):
            log_pmf(CountFamily.from_token(kind), EtaPoint(mu=mu, phi=phi), m)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_infinite_count_is_a_support_error(kind):
    # np.floor(inf) == inf, so the integer check alone would let m = inf
    # through to a NaN term.
    phi = 2.5 if kind_needs_phi(kind) else None
    with pytest.raises(SupportError, match="infinite count"):
        term_loglik(kind, 2.0, phi, np.inf)
    with pytest.raises(SupportError, match="infinite count"):
        term_derivatives(kind, [2.0, 2.0], phi, [5.0, np.inf])
    with pytest.raises(SupportError, match="infinite count"):
        check_kind_args(kind, phi, np.array([5.0, np.inf]))
    if kind in ALL_TOKENS:
        with pytest.raises(SupportError, match="infinite count"):
            log_pmf(CountFamily.from_token(kind), EtaPoint(mu=2.0, phi=phi), np.inf)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_integral_float_counts_are_counts(kind):
    phi = 2.5 if kind_needs_phi(kind) else None
    m = kind_support_min(kind) + 3
    assert term_loglik(kind, 1.7, phi, float(m)) == term_loglik(kind, 1.7, phi, m)
    _assert_same_derivs(term_derivatives(kind, 1.7, phi, float(m)), term_derivatives(kind, 1.7, phi, m))


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


def _array_rounds(fam, mu, phi, rng):
    """Truncated rejection sampling with one array generator call per round,
    whatever its size: the reference for ``sample_many``."""
    def draw(mu):
        if fam.family is Family.POISSON:
            return rng.poisson(mu, size=len(mu))
        return rng.negative_binomial(n=phi, p=phi / (phi + mu), size=len(mu))

    out = draw(mu)
    bad = out < fam.support_min
    while np.any(bad):
        out[bad] = draw(mu[bad])
        bad = out < fam.support_min
    return out


@pytest.mark.parametrize("token", ["ztpo", "zotpo", "ztnb2", "zotnb2"])
@pytest.mark.parametrize("mu", [0.2, 0.6, 2.0, 6.0])
@pytest.mark.parametrize(
    "n", [1, distributions._SCALAR_ROUND, distributions._SCALAR_ROUND + 1, 200]
)
def test_scalar_rounds_draw_what_array_rounds_draw(token, mu, n):
    # Rounds of at most _SCALAR_ROUND records go one scalar call per record;
    # they must draw the same counts and leave the generator in the same
    # state as one array call per round. n = 200 at a small mu runs array
    # rounds first and scalar rounds once few records are left.
    fam = CountFamily.from_token(token)
    phi = 0.7 if fam.has_dispersion else None
    mu = mu * np.exp(np.random.default_rng(n).uniform(-1.0, 1.0, n))
    for seed in range(3):
        rng, ref = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
        got = sample_many(fam, mu, phi, rng)
        want = _array_rounds(fam, mu, phi, ref)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state


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
        ("zotpo", 1e-160, None, 2, NumericalError),  # mass below the smallest normal float
    ],
)
def test_term_derivatives_raise_as_term_loglik(kind, mu, phi, m, error):
    with pytest.raises(error):
        term_loglik(kind, mu, phi, m)
    with pytest.raises(error):
        term_derivatives(kind, mu, phi, m)


@pytest.mark.parametrize("kind, phi", [("po", None), ("ztpo", None), ("nb2", 2.0), ("ztnb2", 2.0)])
def test_derivative_that_overflows_at_tiny_mu_is_a_numerical_error(kind, phi):
    # -m/mu^2 overflows below mu ~ sqrt(m) 1e-154, where the term is finite;
    # RuntimeWarnings are errors under the test settings.
    assert np.isfinite(term_loglik(kind, 1e-160, phi, 2.0)).all()
    with pytest.raises(NumericalError, match="non-finite d_mumu"):
        term_derivatives(kind, 1e-160, phi, 2.0)


def _distinct_count_sample(kind):
    rng = np.random.default_rng(23)
    size = 500
    mu = np.exp(rng.uniform(np.log(0.05), np.log(5e4), size))
    phi = 1.7 if kind_needs_phi(kind) else None
    small = rng.integers(0, 30, size)
    large = rng.choice([1234, 98765, 10**7], size)
    m = (kind_support_min(kind) + np.where(rng.random(size) < 0.9, small, large)).astype(float)
    return mu, phi, m


def _assert_same_derivs(a, b):
    for name in ("d_mu", "d_mumu", "d_phi", "d_phiphi", "d_muphi"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


@pytest.mark.parametrize("kind", list(ALL_TOKENS) + ["zhang", "nb2-mixture"])
def test_distinct_counts_give_the_same_bits(kind):
    # Sums over the counts and log m! evaluated once per distinct count, then
    # gathered, must equal the per-record evaluation exactly. Counts that
    # give every record its own value make the kernel evaluate them record
    # by record.
    mu, phi, m = _distinct_count_sample(kind)
    counts = DistinctCounts.of(m)
    assert len(counts.values) < 40
    assert np.array_equal(counts.values[counts.inverse], m)
    order = np.argsort(m)
    per_record = DistinctCounts(
        values=m[order], inverse=np.argsort(order), log_factorial=distributions._log_factorial(m[order])
    )
    fam = check_kind_args(kind, phi, m)
    expect = term_loglik_kernel(fam, kind, mu, phi, m, counts=per_record)
    assert np.array_equal(term_loglik_kernel(fam, kind, mu, phi, m, counts=counts), expect)
    assert np.array_equal(term_loglik_kernel(fam, kind, mu, phi, m), expect)
    expect = term_derivatives(kind, mu, phi, m, counts=per_record)
    _assert_same_derivs(term_derivatives(kind, mu, phi, m, counts=counts), expect)
    _assert_same_derivs(term_derivatives(kind, mu, phi, m), expect)


def test_nb2_term_and_derivatives_agree_with_the_scipy_formulas():
    # The nb2 term and its phi derivatives written out per record with
    # scipy's gammaln, psi and zeta agree with the count-sum kernel to a few
    # roundings of the formulas' largest term, for phi up to 1e4, where those
    # formulas are themselves accurate; above it their d/dphi cancels terms
    # of size m/phi, and the mpmath oracle (test_kernel_accuracy.py) checks
    # the kernel instead.
    mu, _, m = _distinct_count_sample("nb2")
    for phi in (1e-6, 1e-2, 1.7, 50.0, 1e4):
        a = mu + phi
        t = term_derivatives("nb2", mu, phi, m)
        formulas = {
            "ll": (
                term_loglik("nb2", mu, phi, m),
                [gammaln(m + phi), -gammaln(phi), -gammaln(m + 1.0),
                 -(m + phi) * np.log1p(mu / phi), m * (np.log(mu) - np.log(phi))],
            ),
            "d_phi": (t.d_phi, [psi(m + phi), -psi(phi), -np.log1p(mu / phi), (mu - m) / a]),
            "d_phiphi": (
                t.d_phiphi,
                [zeta(2.0, m + phi), -zeta(2.0, phi), -1.0 / a, (m - mu) / a**2, 1.0 / phi],
            ),
        }
        for name, (got, terms) in formulas.items():
            scale = np.max(np.abs(np.broadcast_arrays(*terms)), axis=0)
            assert np.all(np.abs(got - sum(terms)) <= 8 * np.finfo(float).eps * scale), (phi, name)


@pytest.mark.parametrize("kind", ["nb2", "ztnb2", "zhang"])
def test_an_array_phi_with_a_bad_entry_is_a_parameter_error(kind):
    # phi's fast path is for a float; an array goes through the full check
    # and is not compared as one truth value.
    for f in (term_loglik, term_derivatives):
        with pytest.raises(ParameterError, match="phi must be positive and finite"):
            f(kind, 2.0, np.array([1.0, -1.0]), np.array([3.0, 4.0]))


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
