"""Anscombe residuals, linearized-relationship checks, worst-fit report."""

import numpy as np
import pytest

from popest.dataio import Dataset, StratumRecord
from popest.diagnostics import anscombe_residual, diagnostics_report, linearized_check
from popest.distributions import CountFamily
from popest.meanmodel import DesignSpec, ModelSpec, ParamVector, prepare
from popest.mle import Convergence, FittedModel, linearized_init, xi_from_alpha
from popest.simulation import _init_from_arrays


def test_anscombe_zero_at_perfect_fit():
    for mu in (0.5, 1.0, 7.3, 120.0):
        for phi in (0.5, 1.0, 4.0, None):
            assert anscombe_residual(mu, mu, phi) == 0.0


def test_anscombe_reference_value():
    # kappa = 1: [3(5^(2/3) - 2^(2/3)) + 3(4^(2/3) - 1)] / (2 * 2^(1/6))
    expected = (
        3.0 * (5.0 ** (2 / 3) - 2.0 ** (2 / 3)) + 3.0 * (4.0 ** (2 / 3) - 1.0)
    ) / (2.0 * 2.0 ** (1 / 6))
    val = anscombe_residual(4, 1.0, 1.0)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val == pytest.approx(3.817, abs=2e-3)


def test_anscombe_sign_matches_deviation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mu = float(rng.uniform(0.2, 30))
        m = int(rng.integers(0, 60))
        phi = float(rng.uniform(0.3, 10))
        if m == mu:
            continue
        r = anscombe_residual(m, mu, phi)
        assert np.sign(r) == np.sign(m - mu)


def test_anscombe_poisson_branch_continuity():
    # the kappa -> 0 limit branch agrees with the NB form at tiny kappa
    near = anscombe_residual(4, 2.0, 1e7)  # NB branch, kappa = 1e-7
    limit = anscombe_residual(4, 2.0, None)  # Poisson branch
    assert near == pytest.approx(limit, rel=1e-6)


def test_anscombe_parameter_errors():
    with pytest.raises(ValueError):
        anscombe_residual(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        anscombe_residual(1, 1.0, -1.0)
    # zero dispersion, and NaN estimates, are refused before any arithmetic
    with pytest.raises(ValueError):
        anscombe_residual(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        anscombe_residual(1, float("nan"), 1.0)
    with pytest.raises(ValueError):
        anscombe_residual(1, 1.0, float("nan"))


def eq10_dataset(coef_logN=-0.4109, coef_logratio=0.5694, count=12):
    """Noise-free data following log(m/N) = c1 log N + c2 log(n/N)."""
    rng = np.random.default_rng(3)
    records = []
    for i in range(count):
        N = int(np.round(np.exp(rng.uniform(np.log(1e3), np.log(1e5)))))
        n = int(np.clip(np.round(N * rng.uniform(0.05, 0.5)), 1, N - 1))
        m = N * N**coef_logN * (n / N) ** coef_logratio  # float: exact case
        records.append(
            StratumRecord(
                period="Q1",
                country=f"c{i}",
                domain=(("F", "M")[i % 2],),
                m=m,
                n=n,
                N=N,
            )
        )
    return Dataset(records=tuple(records), domain_names=("sex",))


def test_linearized_check_recovers_generator_coefficients():
    check = linearized_check(eq10_dataset())
    assert check.coef_logN == pytest.approx(-0.4109, abs=1e-10)
    assert check.coef_logratio == pytest.approx(0.5694, abs=1e-10)
    # negative correlation with log N, positive with log(n/N): no flag
    assert check.corr_logN < 0
    assert check.corr_logratio > 0
    assert not check.assumption_flag
    assert set(check.by_group) == {"F", "M"}


def test_linearized_check_matches_init_coefficients():
    data = eq10_dataset(-0.3, 0.9)
    check = linearized_check(data)
    start = linearized_init(data)
    m = np.array([r.m for r in data.records])
    log_N = np.log([float(r.N) for r in data.records])
    log_ratio = np.log([float(r.n) for r in data.records]) - log_N
    assert _init_from_arrays(m, log_N, log_ratio) == start
    assert (1.0 + check.coef_logN, check.coef_logratio) == start[:2]


def test_linearized_check_constant_ratio_flags():
    records = tuple(
        StratumRecord(
            period="Q1", country=f"c{i}", domain=(), m=N // 10, n=N // 5, N=N
        )
        for i, N in enumerate((100, 1000, 10000, 50000))
    )
    check = linearized_check(Dataset(records=records, domain_names=()))
    assert check.corr_logN == 0.0
    assert check.corr_logratio == 0.0
    assert check.assumption_flag
    assert any("constant" in note for note in check.notes)


def test_linearized_check_permutation_invariant():
    data = eq10_dataset()
    flipped = Dataset(
        records=tuple(reversed(data.records)), domain_names=data.domain_names
    )
    a = linearized_check(data).to_dict()
    b = linearized_check(flipped).to_dict()
    for key in ("corr_logN", "corr_logratio", "coef_logN", "coef_logratio"):
        assert a[key] == pytest.approx(b[key], abs=1e-12)


def manual_fit(records, alpha=0.5, phi=2.0):
    data = Dataset(records=tuple(records), domain_names=("sex",))
    model = ModelSpec(family=CountFamily.from_token("ztnb2"), design=DesignSpec())
    md = prepare(data, model.design)
    params = ParamVector(np.array([alpha]), np.array([0.0]), phi=phi)
    return data, FittedModel(
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


def srec(country, m, N, domain=("F",)):
    return StratumRecord(
        period="Q1", country=country, domain=tuple(domain), m=m, n=max(N // 10, 1), N=N
    )


def test_report_perfect_fit_all_zero():
    # alpha = 0.5, beta = 0 gives mu = sqrt(N); squares make m = mu exact.
    records = [srec("A", 4, 16), srec("B", 10, 100), srec("C", 25, 625)]
    data, fitted = manual_fit(records)
    report = diagnostics_report(data, fitted, k=10)
    assert len(report.residuals) == 3  # k clamps to the record count
    # mu_hat carries exp(log(.)) rounding, so compare within float noise
    assert all(abs(row["residual"]) < 1e-12 for row in report.residuals)
    assert all(abs(row["delta"]) < 1e-9 for row in report.worst_fit)


def test_report_worst_fit_dominated_by_outlier():
    records = [
        srec("A", 4, 16),
        srec("B", 10, 100),
        srec("C", 414, 7635),  # mu_hat = sqrt(7635) = 87.4, delta = 326.6
    ]
    data, fitted = manual_fit(records)
    report = diagnostics_report(data, fitted, k=2)
    assert len(report.worst_fit) == 2
    top = report.worst_fit[0]
    assert top["m"] == 414
    assert top["mu_hat"] == pytest.approx(np.sqrt(7635), rel=1e-12)
    assert top["delta"] == pytest.approx(414 - np.sqrt(7635), rel=1e-10)
    assert top["residual"] > 0


def test_report_serializes(tmp_path):
    import json

    records = [srec("A", 4, 16), srec("B", 10, 100), srec("C", 30, 625)]
    data, fitted = manual_fit(records)
    report = diagnostics_report(data, fitted, k=2)
    text = json.dumps(report.to_dict())
    parsed = json.loads(text)
    assert len(parsed["worst_fit"]) == 2
    assert "linearized" in parsed
