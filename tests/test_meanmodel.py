"""Design matrices, power-link mean, log-likelihood, score and Hessian."""

import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from popest.dataio import Dataset, StratumRecord
import popest.distributions as distributions
from popest.distributions import (
    CountFamily,
    EtaPoint,
    NumericalError,
    ParameterError,
    SupportError,
    kind_needs_phi,
    sample,
    term_loglik,
)
from popest.meanmodel import (
    DesignError,
    DesignSpec,
    ModelData,
    ModelSpec,
    ParamVector,
    build_design,
    loglik_kind,
    prepare,
    score_and_hessian_kind,
)

from conftest import COUNTRIES, fd_gradient, fd_jacobian, synth_dataset


def rec(country="Ukraine", m=1, n=10, N=100, domain=("F",)):
    return StratumRecord(
        period="Q1", country=country, domain=tuple(domain), m=m, n=n, N=N
    )


def dataset(*records, domain_names=("sex",)):
    return Dataset(records=tuple(records), domain_names=domain_names)


def test_indicator_coding():
    design = DesignSpec.from_tokens(["intercept", "country:Ukraine"], ["intercept"])
    data = dataset(rec("Ukraine"), rec("Georgia", n=9, N=90))
    X, Z, index = build_design(data, design)
    assert X[0].tolist() == [1.0, 1.0]
    assert X[1].tolist() == [1.0, 0.0]
    assert Z.tolist() == [[1.0], [1.0]]
    assert index == [r.key for r in data.records]


def test_indicator_coding_domain_level():
    design = DesignSpec.from_tokens(["intercept", "sex:M"], ["intercept"])
    data = dataset(rec(domain=("F",)))
    with pytest.warns(UserWarning, match="sex:M"):  # no male record in the data
        X, _, _ = build_design(data, design)
    assert X[0].tolist() == [1.0, 0.0]


def test_duplicate_term_rejected():
    with pytest.raises(DesignError):
        DesignSpec.from_tokens(["intercept", "sex:M", "sex:M"], ["intercept"])


def test_unmatched_term_warns():
    design = DesignSpec.from_tokens(["intercept", "country:Atlantis"], ["intercept"])
    with pytest.warns(UserWarning, match="Atlantis"):
        build_design(dataset(rec()), design)


def _design_by_record(data, terms):
    def value(t, r):
        if t.kind == "intercept":
            return 1.0
        if t.kind == "country":
            return 1.0 if r.country == t.level else 0.0
        return 1.0 if r.domain[data.domain_names.index(t.variable)] == t.level else 0.0

    return np.array([[value(t, r) for t in terms] for r in data.records])


def test_build_design_equals_a_per_record_loop():
    data = synth_dataset(7, 90)
    design = DesignSpec.from_tokens(
        ["intercept", f"country:{COUNTRIES[2]}", "sex:M", "age:31-60", "country:Atlantis"],
        ["intercept", "age:61+", "sex:X"],
    )
    with pytest.warns(UserWarning) as caught:
        X, Z, index = build_design(data, design)
    assert [str(w.message) for w in caught] == [
        "covariate term country:Atlantis matches no record",
        "covariate term sex:X matches no record",
    ]
    assert np.array_equal(X, _design_by_record(data, design.alpha_covariates))
    assert np.array_equal(Z, _design_by_record(data, design.beta_covariates))
    assert index == [r.key for r in data.records]
    with pytest.raises(DesignError, match="unknown domain variable 'height'"):
        build_design(data, DesignSpec.from_tokens(["intercept", "height:tall"]))


def test_replace_carries_the_distinct_counts_of_its_own_m():
    records = [rec(m=3), rec("Georgia", m=7, n=30, N=300), rec("Belarus", m=3, n=9, N=90)]
    md = prepare(dataset(*records), DesignSpec())
    assert md.distinct.values.tolist() == [3.0, 7.0]
    star = replace(md, m=np.array([5.0, 5.0, 2.0]))
    assert md.distinct.values.tolist() == [3.0, 7.0]
    assert star.distinct.values.tolist() == [2.0, 5.0]
    assert np.array_equal(star.distinct.values[star.distinct.inverse], star.m)
    assert np.array_equal(star.W, md.W)
    params = ParamVector(np.array([0.5]), np.array([0.4]), phi=1.5)
    expect = float(np.sum(term_loglik("ztnb2", star.mu_values(params), 1.5, star.m)))
    assert loglik_kind(star, "ztnb2", params) == expect


def test_with_counts_shares_w_and_matches_replace():
    records = [rec(m=3), rec("Georgia", m=7, n=30, N=300), rec("Belarus", m=3, n=9, N=90)]
    md = prepare(dataset(*records), DesignSpec())
    m = np.array([5.0, 5.0, 2.0])
    star = md.with_counts(m)
    assert star.W is md.W and star.X is md.X and star.index is md.index
    m[0] = 9.0  # a writable input is copied
    assert star.m.tolist() == [5.0, 5.0, 2.0] and not star.m.flags.writeable
    assert md.m.tolist() == [3.0, 7.0, 3.0]
    assert star.distinct.values.tolist() == [2.0, 5.0]
    ref = replace(md, m=np.array([5.0, 5.0, 2.0]))
    params = ParamVector(np.array([0.5]), np.array([0.4]), phi=1.5)
    assert loglik_kind(star, "ztnb2", params) == loglik_kind(ref, "ztnb2", params)
    with pytest.raises(FrozenInstanceError):
        star.m = m


def test_model_data_cannot_be_changed():
    md = ModelData(
        m=np.array([3.0, 7.0]), log_N=np.log([100.0, 300.0]), log_ratio=np.log([0.1, 0.1]),
        X=np.ones((2, 1)), Z=np.ones((2, 1)), index=[],
    )
    with pytest.raises(FrozenInstanceError):
        md.m = np.array([5.0, 5.0])
    for name in ("m", "log_N", "log_ratio", "X", "Z", "W"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(md, name)[0] = 1.0


def test_writes_to_the_callers_arrays_do_not_reach_model_data():
    m, X = np.array([3.0, 7.0]), np.ones((2, 1))
    md = ModelData(
        m=m, log_N=np.log([100.0, 300.0]), log_ratio=np.log([0.1, 0.1]),
        X=X, Z=np.ones((2, 1)), index=[],
    )
    W = md.W.copy()
    m[0] = 5.0
    X[0, 0] = 2.0
    assert md.m.tolist() == [3.0, 7.0]
    assert md.distinct.values.tolist() == [3.0, 7.0]
    assert md.X.tolist() == [[1.0], [1.0]]
    assert np.array_equal(md.W, W)
    # read-only inputs stay shared, so a replicate copies only its new counts
    star = replace(md, m=np.array([4.0, 4.0]))
    assert star.X is not md.X and np.shares_memory(star.X, md.X)
    assert not np.shares_memory(star.m, md.m)


def mu_values(records, params, alpha=("intercept",)):
    """Power-link means of ``records`` under an alpha design of ``alpha`` terms."""
    design = DesignSpec.from_tokens(list(alpha), ["intercept"])
    return prepare(dataset(*records), design).mu_values(params)


def test_mu_identity_exponents():
    params = ParamVector(np.array([1.0]), np.array([0.0]))
    assert mu_values([rec(N=100, n=10)], params)[0] == pytest.approx(100.0)


def test_mu_analytic_powers():
    val = mu_values([rec(N=16, n=4)], ParamVector(np.array([0.5]), np.array([1.0])))[0]
    assert val == pytest.approx(16**0.5 * 0.25, rel=1e-14)
    assert val == pytest.approx(1.0)


def test_mu_exponent_addition():
    params = ParamVector(np.array([0.5, 0.5]), np.array([0.0]))
    val = mu_values([rec(N=100, n=10)], params, alpha=("intercept", "country:Ukraine"))[0]
    assert val == pytest.approx(100.0, rel=1e-12)


def test_loglik_unit_poisson():
    data = dataset(rec(m=1, n=10, N=100))
    model = ModelSpec(family=CountFamily.from_token("po"), design=DesignSpec())
    params = ParamVector(np.array([0.0]), np.array([0.0]))
    md = prepare(data, model.design)
    assert loglik_kind(md, model.family.token, params) == pytest.approx(-1.0, abs=1e-14)


def test_loglik_additivity():
    one = dataset(rec(m=3, n=10, N=100))
    two = dataset(rec(m=3, n=10, N=100), rec("Georgia", m=3, n=10, N=100))
    model = ModelSpec(family=CountFamily.from_token("po"), design=DesignSpec())
    params = ParamVector(np.array([0.4]), np.array([0.3]))
    md_one, md_two = prepare(one, model.design), prepare(two, model.design)
    token = model.family.token
    assert loglik_kind(md_two, token, params) == pytest.approx(2 * loglik_kind(md_one, token, params))


def test_loglik_ztnb2_geometric():
    data = dataset(rec(m=1, n=10, N=100))
    model = ModelSpec(family=CountFamily.from_token("ztnb2"), design=DesignSpec())
    params = ParamVector(np.array([0.0]), np.array([0.0]), phi=1.0)
    md = prepare(data, model.design)
    assert loglik_kind(md, model.family.token, params) == pytest.approx(np.log(0.5), abs=1e-12)


@pytest.mark.parametrize("kind", ["po", "nb2"])
def test_score_vanishes_at_m_equals_mu(kind):
    # alpha=0.5, beta=0 gives mu = sqrt(N); pick N square so m = mu exactly.
    records = [rec(m=4, n=4, N=16), rec("Georgia", m=10, n=10, N=100),
               rec("Belarus", m=20, n=40, N=400)]
    md = prepare(dataset(*records), DesignSpec())
    phi = 2.0 if kind_needs_phi(kind) else None
    params = ParamVector(np.array([0.5]), np.array([0.0]), phi=phi)
    g, _ = score_and_hessian_kind(md, kind, params)
    assert np.allclose(g[:2], 0.0, atol=1e-10)


@pytest.mark.parametrize("kind", ["po", "ztpo", "zotpo"])
def test_phi_given_for_a_poisson_kind_is_ignored(kind):
    # A kind without a dispersion takes no phi row: a phi given anyway leaves
    # the score and Hessian as they are without it, as it leaves the
    # log-likelihood.
    md = prepare(synth_dataset(11, 40, token="zotpo"), DesignSpec())
    alpha, beta = np.array([0.7]), np.array([0.8])
    with_phi = ParamVector(alpha, beta, phi=2.5)
    without = ParamVector(alpha, beta)
    expected = score_and_hessian_kind(md, kind, without)
    for got, want in zip(score_and_hessian_kind(md, kind, with_phi), expected):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert loglik_kind(md, kind, with_phi) == loglik_kind(md, kind, without)


def _random_instance(kind, rng, n_records=8):
    fam_phi = kind_needs_phi(kind)
    records = []
    for i in range(n_records):
        N = int(np.round(np.exp(rng.uniform(np.log(50), np.log(5000)))))
        n = int(np.clip(np.round(N * rng.uniform(0.05, 0.6)), 1, N - 1))
        records.append(rec(country=f"c{i % 3}", m=1, n=n, N=N))
    alpha = float(rng.uniform(0.3, 0.7))
    beta = float(rng.uniform(0.2, 1.0))
    phi = float(rng.uniform(0.6, 4.0)) if fam_phi else None
    params = ParamVector(np.array([alpha]), np.array([beta]), phi=phi)
    md = prepare(dataset(*records), DesignSpec())
    mu_vals = md.mu_values(params)
    if kind in ("zhang", "nb2-mixture"):
        token = "nb2"
    else:
        token = kind
    fam = CountFamily.from_token(token)
    m = np.array(
        [
            sample(fam, EtaPoint(mu=float(mv), phi=phi), rng)
            for mv in mu_vals
        ],
        dtype=float,
    )
    md = replace(md, m=m)
    # evaluate derivatives at a point near, but not at, the generator values
    theta0 = np.array([alpha, beta] + ([phi] if fam_phi else []))
    theta = theta0 * (1.0 + rng.uniform(-0.05, 0.05, size=len(theta0)))
    return md, theta, fam_phi


@pytest.mark.parametrize(
    "kind", ["po", "ztpo", "zotpo", "nb2", "ztnb2", "zotnb2", "zhang", "nb2-mixture"]
)
def test_score_and_hessian_match_finite_differences(kind):
    rng = np.random.default_rng(17)
    for _ in range(10):
        md, theta, has_phi = _random_instance(kind, rng)

        def unpack(th):
            return ParamVector(
                alpha=th[:1], beta=th[1:2], phi=float(th[2]) if has_phi else None
            )

        def f(th):
            return loglik_kind(md, kind, unpack(th))

        def grad(th):
            return score_and_hessian_kind(md, kind, unpack(th))[0]

        g, H = score_and_hessian_kind(md, kind, unpack(theta))
        g_fd = fd_gradient(f, theta, h=1e-5)
        scale_g = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - g_fd)) / scale_g < 1e-6
        H_fd = fd_jacobian(grad, theta, h=1e-5)
        scale_h = max(1.0, float(np.max(np.abs(H))))
        assert np.max(np.abs(H - H_fd)) / scale_h < 1e-5


def test_chain_rule_doubling_N():
    params = ParamVector(np.array([1.0]), np.array([0.0]))
    mu1, mu2 = mu_values([rec(N=100, n=10), rec("Georgia", N=200, n=20)], params)
    assert mu2 == pytest.approx(2 * mu1, rel=1e-12)


@pytest.mark.parametrize(
    "kind", ["po", "ztpo", "zotpo", "nb2", "ztnb2", "zotnb2", "zhang", "nb2-mixture"]
)
def test_loglik_kind_skips_derivative_kernel(kind, monkeypatch):
    # A line-search probe needs the log-likelihood only: it must give the
    # summed term_loglik exactly without evaluating the count sums that stand
    # for psi or trigamma, which only the derivatives use.
    md, theta, has_phi = _random_instance(kind, np.random.default_rng(17))
    params = ParamVector(theta[:1], theta[1:2], phi=float(theta[2]) if has_phi else None)
    expect = float(np.sum(term_loglik(kind, md.mu_values(params), params.phi, md.m)))

    def forbidden(*args, **kwargs):
        raise AssertionError("log-likelihood evaluation reached the derivative kernel")

    for name in ("_psi_terms", "_psi_tails"):
        monkeypatch.setattr(distributions, name, forbidden)
    assert loglik_kind(md, kind, params) == expect


@pytest.mark.parametrize("phi", [None, 0.0, -1.0, float("nan")])
@pytest.mark.parametrize("kind", ["nb2", "ztnb2", "zhang"])
def test_full_data_functions_reject_bad_phi(kind, phi):
    md = prepare(dataset(rec(m=3), rec("Georgia", m=7, n=30, N=300)), DesignSpec())
    params = ParamVector(np.array([0.5]), np.array([0.4]), phi=phi)
    with pytest.raises(ParameterError):
        loglik_kind(md, kind, params)
    with pytest.raises(ParameterError):
        score_and_hessian_kind(md, kind, params)


@pytest.mark.parametrize("kind, m", [("ztpo", 0), ("ztnb2", 0), ("zotnb2", 1)])
def test_full_data_functions_reject_count_below_support(kind, m):
    # Built directly: prepare() refuses m = 0 records before any kind is known.
    md = ModelData(
        m=np.array([3.0, m]), log_N=np.log([100.0, 300.0]),
        log_ratio=np.log([0.1, 0.1]), X=np.ones((2, 1)), Z=np.ones((2, 1)),
        index=["a", "b"],
    )
    params = ParamVector(np.array([0.5]), np.array([0.4]), phi=2.0)
    with pytest.raises(SupportError):
        loglik_kind(md, kind, params)
    with pytest.raises(SupportError):
        score_and_hessian_kind(md, kind, params)


@pytest.mark.parametrize("kind", ["po", "ztpo", "zotpo", "nb2", "ztnb2", "zotnb2", "zhang", "nb2-mixture"])
def test_full_data_functions_reject_non_integer_counts(kind):
    md = ModelData(
        m=np.array([3.0, 4.5]), log_N=np.log([100.0, 300.0]),
        log_ratio=np.log([0.1, 0.1]), X=np.ones((2, 1)), Z=np.ones((2, 1)),
        index=["a", "b"],
    )
    params = ParamVector(np.array([0.5]), np.array([0.4]), phi=2.0)
    with pytest.raises(SupportError, match="non-integer count"):
        loglik_kind(md, kind, params)
    with pytest.raises(SupportError, match="non-integer count"):
        score_and_hessian_kind(md, kind, params)


@pytest.mark.parametrize(
    "kind, alpha",
    [pytest.param(k, 60.0, id=k) for k in ("po", "ztpo", "zotpo", "nb2", "ztnb2", "zhang")]
    + [
        pytest.param(k, -60.0, id=f"{k}-underflow")
        for k in ("po", "ztpo", "zotpo", "nb2", "ztnb2", "zotnb2", "zhang")
    ],
)
def test_overflowing_mu_names_the_record(kind, alpha):
    # mu = N^60 overflows, and N^-60 underflows to 0, for N = 1e6 only; the
    # line search must see a NumericalError that names that record, not a
    # ParameterError or the truncation normalizer's unnamed error.
    records = [rec(m=3), rec("Georgia", m=7, n=30, N=10**6), rec("Belarus", m=4, n=9, N=90)]
    md = prepare(dataset(*records), DesignSpec())
    phi = 2.0 if kind_needs_phi(kind) else None
    params = ParamVector(np.array([alpha]), np.array([0.0]), phi=phi)
    with np.errstate(all="ignore"), pytest.raises(
        NumericalError, match=re.escape(str(records[1].key))
    ):
        loglik_kind(md, kind, params)


def test_nb2_large_phi_approaches_poisson():
    data = dataset(rec(m=3, n=10, N=100), rec("Georgia", m=7, n=30, N=300))
    nb2 = ModelSpec(family=CountFamily.from_token("nb2"), design=DesignSpec())
    po = ModelSpec(family=CountFamily.from_token("po"), design=DesignSpec())
    params_nb2 = ParamVector(np.array([0.5]), np.array([0.4]), phi=1e6)
    params_po = ParamVector(np.array([0.5]), np.array([0.4]))
    md = prepare(data, nb2.design)
    assert loglik_kind(md, nb2.family.token, params_nb2) == pytest.approx(
        loglik_kind(md, po.family.token, params_po), abs=1e-4
    )


def test_prepare_rejects_nonconforming_records():
    bad = dataset(rec(m=0, n=10, N=100))
    with pytest.raises(ValueError, match="apply_model_conditions"):
        prepare(bad, DesignSpec())


def test_param_vector_stack_round_trip():
    pv = ParamVector(np.array([0.7, 0.1]), np.array([0.8]), phi=2.5)
    back = ParamVector.unstack(pv.stacked(), 2, 1, True)
    assert np.allclose(back.alpha, pv.alpha)
    assert np.allclose(back.beta, pv.beta)
    assert back.phi == pv.phi
