"""Starting values, Newton-Raphson fitting, information criteria, xi."""

import dataclasses
import re

import numpy as np
import pytest

from popest import distributions, mle
from popest.dataio import Dataset, StratumRecord
from popest.distributions import CountFamily, SupportError
from popest.meanmodel import DesignSpec, ModelSpec, ParamVector, loglik_kind, prepare
from popest.mle import (
    Convergence,
    FitOptions,
    FittedModel,
    InitError,
    fit,
    information_criteria,
    linearized_init,
    xi_decompose,
    xi_from_alpha,
)

from conftest import fd_gradient, synth_dataset, synth_records


def noise_free_dataset(a=0.7, b=0.8, count=10):
    """Records whose m satisfies m/N = N^(a-1) (n/N)^b exactly."""
    rng = np.random.default_rng(2)
    records = []
    for i in range(count):
        N = int(np.round(np.exp(rng.uniform(np.log(1e3), np.log(1e5)))))
        n = int(np.clip(np.round(N * rng.uniform(0.05, 0.5)), 1, N - 1))
        m = N**a * (n / N) ** b  # float on purpose: exact interpolation case
        records.append(
            StratumRecord(period="Q1", country=f"c{i}", domain=(), m=m, n=n, N=N)
        )
    return Dataset(records=tuple(records), domain_names=())


def test_linearized_init_exact_recovery():
    a0, b0, phi0 = linearized_init(noise_free_dataset())
    assert abs(a0 - 0.7) < 1e-10
    assert abs(b0 - 0.8) < 1e-10
    # zero residual variance caps phi0
    assert phi0 == 1e6


def test_linearized_init_needs_three_records():
    data = noise_free_dataset(count=2)
    with pytest.raises(InitError):
        linearized_init(data)


def test_linearized_init_rank_deficient_falls_back():
    records = tuple(
        StratumRecord(period="Q1", country=f"c{i}", domain=(), m=2, n=10, N=100)
        for i in range(4)
    )
    with pytest.warns(UserWarning, match="rank-deficient"):
        a0, b0, phi0 = linearized_init(Dataset(records=records, domain_names=()))
    assert (a0, b0, phi0) == (0.5, 0.5, 1.0)


def test_information_criteria_reported_rows():
    aic, bic = information_criteria(-267.1, 3, 100)
    assert aic == pytest.approx(540.2, abs=0.05)
    assert bic == pytest.approx(548.0, abs=0.1)
    aic, _ = information_criteria(-733.1, 2, 100)
    assert aic == pytest.approx(1470.3, abs=0.2)
    aic, bic = information_criteria(0.0, 1, 1)
    assert (aic, bic) == (2.0, 0.0)


def test_fit_recovers_truth_within_three_se(ztnb2_dataset, ztnb2_model):
    fitted = fit(ztnb2_dataset, ztnb2_model)
    assert fitted.convergence.converged
    se = fitted.se
    assert abs(fitted.params.alpha[0] - 0.7) < 3 * se[0]
    assert abs(fitted.params.beta[0] - 0.8) < 3 * se[1]
    assert fitted.params.phi > 0
    assert fitted.ssq >= 0
    # covariance symmetric within tolerance
    cov = fitted.covariance
    assert np.max(np.abs(cov - cov.T)) < 1e-8
    # information criteria consistency with the reported loglik
    k = fitted.k
    aic, bic = information_criteria(fitted.loglik, k, len(ztnb2_dataset.records))
    assert fitted.aic == pytest.approx(aic)
    assert fitted.bic == pytest.approx(bic)


def test_fit_beta_zero_data():
    # m generated ignoring n (beta = 0): beta_hat should sit near 0.
    rng = np.random.default_rng(9)
    records = []
    for i in range(60):
        N = int(np.round(np.exp(rng.uniform(np.log(1e3), np.log(1e5)))))
        n = int(np.clip(np.round(N * rng.uniform(0.05, 0.5)), 1, N - 1))
        m = max(int(rng.poisson(N**0.6)), 1)
        records.append(
            StratumRecord(period="Q1", country=f"c{i}", domain=(), m=m, n=n, N=N)
        )
    data = Dataset(records=tuple(records), domain_names=())
    model = ModelSpec(family=CountFamily.from_token("po"), design=DesignSpec())
    fitted = fit(data, model)
    assert fitted.convergence.converged
    assert abs(fitted.params.beta[0]) < 3 * fitted.se[1]


def test_poisson_fit_has_no_phi(ztnb2_dataset):
    model = ModelSpec(family=CountFamily.from_token("po"), design=DesignSpec())
    fitted = fit(ztnb2_dataset, model)
    assert fitted.params.phi is None
    report = fitted.to_dict()
    assert "phi" not in report["params"]
    assert "phi" not in report["parameter_labels"]


def test_monotone_ascent(ztnb2_dataset, ztnb2_model):
    trace = []
    fit(ztnb2_dataset, ztnb2_model, FitOptions(trace=trace))
    diffs = np.diff(np.array(trace))
    assert len(trace) >= 2
    assert np.all(diffs >= 0)


def test_finite_difference_gradient_small_at_optimum(ztnb2_dataset, ztnb2_model):
    fitted = fit(ztnb2_dataset, ztnb2_model)
    md = prepare(ztnb2_dataset, ztnb2_model.design)
    theta = fitted.params.stacked()

    def f(th):
        return loglik_kind(
            md, "ztnb2", ParamVector(th[:1], th[1:2], phi=float(th[2]))
        )

    g_fd = fd_gradient(f, theta, h=1e-5)
    assert np.max(np.abs(g_fd)) < 1e-4


def test_xi_invariant_to_record_order(ztnb2_dataset, ztnb2_model):
    fitted = fit(ztnb2_dataset, ztnb2_model)
    shuffled = Dataset(
        records=tuple(reversed(ztnb2_dataset.records)),
        domain_names=ztnb2_dataset.domain_names,
    )
    fitted2 = fit(shuffled, ztnb2_model)
    assert fitted2.xi_hat == pytest.approx(fitted.xi_hat, rel=1e-8)


def test_ssq_matches_definition(ztnb2_dataset, ztnb2_model):
    fitted = fit(ztnb2_dataset, ztnb2_model)
    mu_hat = fitted.data.mu_values(fitted.params)
    assert fitted.ssq == pytest.approx(
        float(np.sum((fitted.data.m - mu_hat) ** 2)) / 1000.0, rel=1e-12
    )


def test_non_convergence_is_flagged_not_raised(ztnb2_dataset, ztnb2_model):
    fitted = fit(ztnb2_dataset, ztnb2_model, FitOptions(max_iter=1, grad_tol=1e-12))
    assert not fitted.convergence.converged
    assert fitted.convergence.status in ("max-iterations", "stalled")


@pytest.mark.parametrize("token", ["po", "ztpo", "nb2", "ztnb2"])
def test_each_iterate_is_evaluated_once(token, monkeypatch):
    # The covariance comes from the Hessian of the last pass, so the number of
    # score/Hessian evaluations is the reported iteration count.
    calls = []
    real = mle.score_and_hessian_kind

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mle, "score_and_hessian_kind", counted)
    model = ModelSpec(family=CountFamily.from_token(token), design=DesignSpec())
    fitted = fit(synth_dataset(11, 40), model)
    assert fitted.convergence.converged
    assert len(calls) == fitted.convergence.iterations


@pytest.mark.parametrize("token", ["po", "ztpo", "nb2", "ztnb2"])
def test_arguments_are_checked_once_per_evaluation(token, monkeypatch):
    # The line-search probes run the unchecked kernel; only the score/Hessian
    # evaluations go through the public term_derivatives and its checks.
    calls = []
    real = distributions._checked

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(distributions, "_checked", counted)
    model = ModelSpec(family=CountFamily.from_token(token), design=DesignSpec())
    fitted = fit(synth_dataset(11, 40), model)
    assert fitted.convergence.converged
    assert len(calls) == fitted.convergence.iterations


@pytest.mark.parametrize("token", ["po", "ztnb2"])
def test_last_allowed_step_is_tested_at_the_returned_point(token):
    # A fit converging after k evaluations takes k - 1 steps; allowed exactly
    # those steps, it must evaluate the point they reach and report the same fit.
    model = ModelSpec(family=CountFamily.from_token(token), design=DesignSpec())
    free = fit(synth_dataset(11, 40), model)
    k = free.convergence.iterations
    capped = fit(synth_dataset(11, 40), model, FitOptions(max_iter=k - 1))
    assert capped.convergence == free.convergence
    assert np.array_equal(capped.params.stacked(), free.params.stacked())
    assert np.array_equal(capped.covariance, free.covariance)
    assert capped.loglik == free.loglik


def test_count_below_support_names_the_record():
    records = synth_records(5, 30, token="zotnb2")  # every m >= 2
    records[7] = dataclasses.replace(records[7], m=1)
    data = Dataset(records=tuple(records), domain_names=("sex", "age"))
    model = ModelSpec(family=CountFamily.from_token("zotpo"), design=DesignSpec())
    with pytest.raises(SupportError, match=re.escape(f"record {records[7].key} has m=1")):
        fit(data, model)


def _manual_fit(records, alpha):
    data = Dataset(records=tuple(records), domain_names=("sex",))
    model = ModelSpec(family=CountFamily.from_token("po"), design=DesignSpec())
    md = prepare(data, model.design)
    params = ParamVector(np.array([alpha]), np.array([0.0]))
    return FittedModel(
        model=model,
        params=params,
        covariance=None,
        loglik=0.0,
        aic=0.0,
        bic=0.0,
        ssq=0.0,
        xi_hat=xi_from_alpha(md, params.alpha),
        xi_by_group={},
        convergence=Convergence(1, 0.0, "converged"),
        records=data.records,
        data=md,
        domain_names=data.domain_names,
    )


def srec(country, N, n=None, domain=("F",)):
    n = n or max(N // 10, 1)
    return StratumRecord(
        period="Q1", country=country, domain=tuple(domain), m=1, n=n, N=N
    )


def test_xi_decompose_power_sums():
    fitted = _manual_fit([srec("A", 100), srec("B", 16)], alpha=0.5)
    groups = xi_decompose(fitted, "country")
    assert groups["A"] == pytest.approx(10.0, rel=1e-12)
    assert groups["B"] == pytest.approx(4.0, rel=1e-12)
    assert fitted.xi_hat == pytest.approx(14.0, rel=1e-12)


def test_xi_decompose_constant_grouping():
    fitted = _manual_fit([srec("A", 100), srec("A", 16, n=3)], alpha=0.5)
    groups = xi_decompose(fitted, "country")
    assert set(groups) == {"A"}
    assert groups["A"] == pytest.approx(fitted.xi_hat, abs=1e-10)


def test_xi_decompose_partition_sums(ztnb2_dataset, ztnb2_model):
    fitted = fit(ztnb2_dataset, ztnb2_model)
    for by in ("country", "country:Ukraine", "sex", "age"):
        groups = xi_decompose(fitted, by)
        assert sum(groups.values()) == pytest.approx(fitted.xi_hat, abs=1e-10)
    with pytest.raises(ValueError, match="grouping"):
        xi_decompose(fitted, "height")


def test_fit_serialization_round_trip(ztnb2_dataset, ztnb2_model):
    import json

    fitted = fit(ztnb2_dataset, ztnb2_model)
    report = json.loads(json.dumps(fitted.to_dict()))
    assert report["params"]["alpha"][0] == pytest.approx(fitted.params.alpha[0])
    assert report["convergence"]["status"] == "converged"
    assert len(report["se"]) == fitted.k
    assert report["xi_hat"] == pytest.approx(fitted.xi_hat)
