"""Starting values, Newton-Raphson fitting, information criteria, xi."""

import dataclasses
import re

import numpy as np
import pytest

from popest import distributions, mle
from popest.dataio import Dataset, StratumRecord
from popest.distributions import CountFamily, SupportError
from popest.meanmodel import (
    DesignSpec,
    ModelData,
    ModelSpec,
    ParamVector,
    loglik_kind,
    prepare,
    score_and_hessian_kind,
)
from popest.mle import (
    FitOptions,
    InitError,
    fit,
    fit_kind,
    information_criteria,
    linearized_init,
    xi_decompose,
)

from conftest import fd_gradient, manual_fit, synth_dataset, synth_records


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


@pytest.mark.parametrize("grad_tol", [1e-6, 0.0])  # 0: only the decrement can stop
@pytest.mark.parametrize("token", ["po", "ztpo", "nb2", "ztnb2"])
def test_converged_fit_makes_no_probe_after_its_last_evaluation(
    token, grad_tol, monkeypatch
):
    events = []

    def recording(name, real):
        def wrapper(*args):
            events.append(name)
            return real(*args)

        return wrapper

    monkeypatch.setattr(mle, "loglik_kind", recording("ll", mle.loglik_kind))
    monkeypatch.setattr(
        mle, "score_and_hessian_kind", recording("sh", mle.score_and_hessian_kind)
    )
    model = ModelSpec(family=CountFamily.from_token(token), design=DesignSpec())
    fitted = fit(synth_dataset(11, 40), model, FitOptions(grad_tol=grad_tol))
    assert fitted.convergence.converged
    assert events[-1] == "sh"  # the stop rule ran before any probe


@pytest.mark.parametrize("token", ["po", "ztpo", "nb2", "ztnb2"])
def test_returned_point_meets_the_stop_rule(token):
    model = ModelSpec(family=CountFamily.from_token(token), design=DesignSpec())
    fitted = fit(synth_dataset(11, 40), model)
    assert fitted.convergence.converged
    g, H = score_and_hessian_kind(fitted.data, token, fitted.params)
    if fitted.params.phi is not None:
        # to the log(phi) scale that Newton iterates on
        phi, p = fitted.params.phi, len(g) - 1
        H[p, p] = phi**2 * H[p, p] + phi * g[p]
        H[:p, p] *= phi
        H[p, :p] *= phi
        g[p] *= phi
    grad_norm = float(np.max(np.abs(g)))
    assert grad_norm == fitted.convergence.grad_norm
    decrement = float(g @ np.linalg.solve(-H, g))
    assert grad_norm < FitOptions().grad_tol or decrement < mle._DECREMENT_TOL


def test_count_below_support_names_the_record():
    records = synth_records(5, 30, token="zotnb2")  # every m >= 2
    records[7] = dataclasses.replace(records[7], m=1)
    data = Dataset(records=tuple(records), domain_names=("sex", "age"))
    model = ModelSpec(family=CountFamily.from_token("zotpo"), design=DesignSpec())
    with pytest.raises(SupportError, match=re.escape(f"record {records[7].key} has m=1")):
        fit(data, model)


def test_non_integer_count_names_the_record():
    # Dataset(records=...) takes any count; parse_csv would have refused it.
    records = synth_records(5, 30)
    records[7] = dataclasses.replace(records[7], m=records[7].m + 0.5)
    data = Dataset(records=tuple(records), domain_names=("sex", "age"))
    model = ModelSpec(family=CountFamily.from_token("ztnb2"), design=DesignSpec())
    message = f"record {records[7].key} has m={records[7].m:g}, not an integer count of ztnb2"
    with pytest.raises(SupportError, match=re.escape(message)):
        fit(data, model)


@pytest.mark.parametrize("field", ["m", "N"])
def test_infinite_count_names_the_record(field):
    # np.floor(inf) == inf, so only a finiteness check stops an infinite
    # count before log m! and log N are taken; prepare names its record.
    records = synth_records(5, 30)
    records[7] = dataclasses.replace(records[7], **{field: float("inf")})
    data = Dataset(records=tuple(records), domain_names=("sex", "age"))
    model = ModelSpec(family=CountFamily.from_token("ztnb2"), design=DesignSpec())
    message = f"record {records[7].key} has {field}=inf, not a finite count"
    with pytest.raises(SupportError, match=re.escape(message)):
        fit(data, model)


def test_integral_float_counts_fit_as_counts():
    records = synth_records(5, 30)
    as_float = [dataclasses.replace(r, m=float(r.m)) for r in records]
    model = ModelSpec(family=CountFamily.from_token("ztnb2"), design=DesignSpec())
    a, b = (fit(Dataset(records=tuple(r), domain_names=("sex", "age")), model)
            for r in (records, as_float))
    assert a.convergence.converged and a.loglik == b.loglik and a.xi_hat == b.xi_hat


def test_count_below_support_names_the_position_when_index_is_empty():
    # A ModelData without record keys (index=[], as the acceptance gate
    # builds it) names a record by its position.
    md = ModelData(
        m=np.array([2.0, 0.0, 3.0]), log_N=np.log([100.0, 300.0, 50.0]),
        log_ratio=np.log([0.1, 0.2, 0.1]), X=np.ones((3, 1)), Z=np.ones((3, 1)),
        index=[],
    )
    start = ParamVector(np.array([0.5]), np.array([0.5]))
    with pytest.raises(SupportError, match="record 1 has m=0"):
        fit_kind(md, "ztpo", start)


def test_infinite_count_in_model_data_names_the_record():
    # Built directly, a ModelData skips prepare's finiteness check; its
    # distinct counts take log(inf!) without a warning, and fit_kind names
    # the record as prepare would.
    md = ModelData(
        m=np.array([2.0, np.inf, 3.0]), log_N=np.log([100.0, 300.0, 50.0]),
        log_ratio=np.log([0.1, 0.2, 0.1]), X=np.ones((3, 1)), Z=np.ones((3, 1)),
        index=[],
    )
    start = ParamVector(np.array([0.5]), np.array([0.5]), 2.0)
    with pytest.raises(SupportError, match=re.escape("record 1 has m=inf, not a finite count")):
        fit_kind(md, "ztnb2", start)


def test_nan_count_in_model_data_names_the_record():
    # As for an infinite count: the distinct counts take a NaN count without
    # a warning (log(nan!) is NaN), and fit_kind names its record.
    md = ModelData(
        m=np.array([2.0, np.nan, 3.0]), log_N=np.log([100.0, 300.0, 50.0]),
        log_ratio=np.log([0.1, 0.2, 0.1]), X=np.ones((3, 1)), Z=np.ones((3, 1)),
        index=[],
    )
    start = ParamVector(np.array([0.5]), np.array([0.5]), 2.0)
    with pytest.raises(SupportError, match=re.escape("record 1 has m=nan, not a finite count")):
        fit_kind(md, "ztnb2", start)


@pytest.mark.parametrize("start", [(0.3, 0.0, np.e**3), (0.3, 0.8, np.e**10)])
def test_nb2_converges_from_starts_with_an_indefinite_hessian(start):
    # From these starts -H is not positive definite; modified-Newton steps
    # reach the maximum that (0.7, 0.8, 2.5) reaches in 4 evaluations.
    md = prepare(synth_dataset(11, 40), DesignSpec())
    best = fit_kind(md, "nb2", ParamVector(np.array([0.7]), np.array([0.8]), 2.5))[1]
    assert best == pytest.approx(-243.286826, abs=1e-6)
    a, b, phi = start
    _, ll, _, conv = fit_kind(md, "nb2", ParamVector(np.array([a]), np.array([b]), phi))
    assert conv.converged and conv.iterations <= 20
    assert ll == pytest.approx(best, abs=1e-6)


def srec(country, N, n=None, domain=("F",)):
    n = n or max(N // 10, 1)
    return StratumRecord(
        period="Q1", country=country, domain=tuple(domain), m=1, n=n, N=N
    )


def test_xi_decompose_power_sums():
    data = Dataset(records=(srec("A", 100), srec("B", 16)), domain_names=("sex",))
    fitted = manual_fit(data, "po", alpha=0.5)
    groups = xi_decompose(fitted, "country")
    assert groups["A"] == pytest.approx(10.0, rel=1e-12)
    assert groups["B"] == pytest.approx(4.0, rel=1e-12)
    assert fitted.xi_hat == pytest.approx(14.0, rel=1e-12)


def test_xi_decompose_constant_grouping():
    data = Dataset(records=(srec("A", 100), srec("A", 16, n=3)), domain_names=("sex",))
    fitted = manual_fit(data, "po", alpha=0.5)
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


def test_xi_decompose_equals_a_per_record_loop(ztnb2_dataset, ztnb2_model):
    fitted = fit(ztnb2_dataset, ztnb2_model)
    assert fitted.dataset is ztnb2_dataset  # its cached codes group the records
    contributions = np.exp((fitted.data.X @ fitted.params.alpha) * fitted.data.log_N)
    keyers = {
        "country": lambda r: r.country,
        "country:Georgia": lambda r: "Georgia" if r.country == "Georgia" else "not Georgia",
        "country:Atlantis": lambda r: "not Atlantis",
        "age": lambda r: r.domain[1],
    }
    for by, keyer in keyers.items():
        expect: dict = {}
        for rec, c in zip(ztnb2_dataset.records, contributions):
            expect[keyer(rec)] = expect.get(keyer(rec), 0.0) + float(c)
        got = xi_decompose(fitted, by)
        assert list(got.items()) == list(expect.items())  # same order, same bits
    assert fitted.xi_by_group == xi_decompose(fitted, "country")


def test_fit_serialization_round_trip(ztnb2_dataset, ztnb2_model):
    import json

    fitted = fit(ztnb2_dataset, ztnb2_model)
    report = json.loads(json.dumps(fitted.to_dict()))
    assert report["params"]["alpha"][0] == pytest.approx(fitted.params.alpha[0])
    assert report["convergence"]["status"] == "converged"
    assert len(report["se"]) == fitted.k
    assert report["xi_hat"] == pytest.approx(fitted.xi_hat)


class _Stack:
    """A stack of smooth test log-likelihoods over 3 parameters (the last a
    log(phi), which ``_newton`` clips), one per row:
    f = -sum c u^2 - d sum u^4 + e u0 u1 with u = theta - a. Every quantity
    is elementwise per row, so a row gets the same bits whether it is
    evaluated alone or with others. Rows in ``stall`` have a probe
    log-likelihood that never rises; rows in ``nan`` return a NaN score once
    their theta[0] passes ``a[0] - 1``."""

    def __init__(self, a, c, d, e, stall=(), nan=()):
        self.a, self.c, self.d, self.e = a, c, d, e
        self.stall = np.isin(np.arange(len(a)), stall)
        self.nan = np.isin(np.arange(len(a)), nan)

    def f(self, rows, th):
        u = th - self.a[rows]
        quartic = self.d[rows] * (u**4).sum(1)
        return -(self.c[rows] * u**2).sum(1) - quartic + self.e[rows] * u[:, 0] * u[:, 1]

    def loglik(self, rows, th):
        return np.where(self.stall[rows], -1e300, self.f(rows, th))

    def grad_hess(self, rows, th):
        u = th - self.a[rows]
        c, d, e = self.c[rows], self.d[rows][:, None], self.e[rows]
        g = -2.0 * c * u - 4.0 * d * u**3
        g[:, 0] += e * u[:, 1]
        g[:, 1] += e * u[:, 0]
        g[self.nan[rows] & (th[:, 0] > self.a[rows, 0] - 1.0)] = np.nan
        H = np.zeros((len(rows), 3, 3))
        for j in range(3):
            H[:, j, j] = -2.0 * c[:, j] - 12.0 * d[:, 0] * u[:, j] ** 2
        H[:, 0, 1] = H[:, 1, 0] = e
        return g, H


def _reference_row(stack, r, th, value, options, has_phi):
    """The Newton iteration of ``_newton`` on row ``r`` alone, from ``th``
    and its log-likelihood ``value``: (status, theta, ll)."""
    if not np.isfinite(value):
        return "non-finite", th, value
    rows = np.array([r])
    for it in range(1, options.max_iter + 2):
        g, H = stack.grad_hess(rows, th[None])
        g, H = g[0], H[0]
        if not (np.isfinite(g).all() and np.isfinite(H).all()):
            return "non-finite", th, value
        if np.abs(g).max() < options.grad_tol:
            return "converged", th, value
        eigenvalues, V = np.linalg.eigh(-H)
        if eigenvalues[0] > 0:
            step = np.linalg.solve(-H, g)
            decrement = g @ step
        else:  # modified Newton: -H with its eigenvalues' floored magnitudes
            size = np.abs(eigenvalues)
            size = np.maximum(size, mle._EIGEN_FLOOR * max(size.max(), 1.0))
            step = np.linalg.solve((V * size) @ V.T, g)
            decrement = np.inf
        if decrement < mle._DECREMENT_TOL:
            return "converged", th, value
        if it > options.max_iter:
            break
        t = 1.0
        for _ in range(mle._MAX_HALVINGS + 1):
            cand = mle._clip_theta(th + t * step, has_phi)
            new = stack.loglik(rows, cand[None])[0]
            if np.isfinite(new) and new > value:
                th, value = cand, new
                break
            t *= 0.5
        else:
            return "stalled", th, value
    return "max-iterations", th, value


@pytest.mark.parametrize("has_phi", [True, False])
@pytest.mark.parametrize("max_iter", [200, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lockstep_newton_equals_a_per_row_loop(seed, max_iter, has_phi):
    # Rows that converge at the start, take steps, run into the log(phi)
    # clip (when the last coordinate is log(phi)), stall, go non-finite at the start or after a step, start non-finite,
    # or start where the Hessian is indefinite, all in one stack.
    rng = np.random.default_rng(seed)
    R = 14
    a = rng.uniform(-2.0, 2.0, (R, 3))
    c = rng.uniform(0.2, 3.0, (R, 3))
    d = rng.uniform(0.0, 0.5, R)
    e = rng.uniform(-0.2, 0.2, R)
    theta = a + rng.uniform(-3.0, 3.0, (R, 3))
    theta[0] = a[0]  # converged at the start
    a[1, 2], theta[1, 2] = 30.0, 10.0  # log(phi) runs into its clip
    c[2:4, 0] = -1.0  # convex in theta[0] near a[0]: indefinite there
    d[2:4] = 0.5
    theta[2:4, 0] = a[2:4, 0] + [0.1, 0.6]
    theta[5, 0] = a[5, 0] - 3.0  # goes non-finite after its first step
    stack = _Stack(a, c, d, e, stall=[4], nan=[5, 6])
    ll = stack.f(np.arange(R), theta)
    ll[7] = -np.inf  # not iterated
    options = FitOptions(max_iter=max_iter)
    assert np.linalg.eigvalsh(-stack.grad_hess(np.array([2]), theta[2:3])[1])[0, 0] < 0
    want = [_reference_row(stack, r, theta[r], ll[r], options, has_phi) for r in range(R)]
    got = mle._newton(theta, ll, stack.grad_hess, stack.loglik, options, has_phi)
    assert got == [status for status, _, _ in want]
    assert np.array_equal(theta, [th for _, th, _ in want])
    assert np.array_equal(ll, [value for _, _, value in want])
    assert {"converged", "stalled", "non-finite"} <= set(got)
    assert ("max-iterations" in got) == (max_iter == 3)
    if has_phi:
        assert theta[1, 2] == mle._LOG_PHI_MAX
    else:
        assert theta[1, 2] > mle._LOG_PHI_MAX
