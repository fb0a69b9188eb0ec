"""Likelihood-variant bias study: metrics, generator, variant agreement."""

import numpy as np
import pytest

from popest import mle, simulation
from popest.meanmodel import ModelData, ParamVector
from popest.meanmodel import loglik_kind
from popest.simulation import (
    PARAMETERS,
    SimDesign,
    VARIANT_KINDS,
    _draw,
    aggregate_metrics,
    run_simulation,
    synthetic_population,
)

from conftest import fail_refits


def test_metrics_forced_perfect_estimates():
    out = aggregate_metrics(np.array([0.7, 0.7, 0.7]), 0.7)
    assert out["rb_percent"] == 0.0
    assert out["rrmse_percent"] == 0.0


def test_metrics_symmetric_ten_percent():
    theta = 2.0
    out = aggregate_metrics(np.array([1.1 * theta, 0.9 * theta]), theta)
    assert out["rb_percent"] == pytest.approx(0.0, abs=1e-12)
    assert out["rrmse_percent"] == pytest.approx(10.0, abs=1e-12)


def test_rrmse_dominates_absolute_rb():
    rng = np.random.default_rng(2)
    for _ in range(30):
        est = rng.lognormal(0.0, 0.4, size=25)
        out = aggregate_metrics(est, 1.3)
        assert out["rrmse_percent"] >= abs(out["rb_percent"]) - 1e-12


def test_synthetic_population_contract():
    pop = synthetic_population(80, seed=4)
    assert pop == synthetic_population(80, seed=4)
    assert len(pop) == 80
    for N, n in pop:
        assert 1 <= n < N
    assert pop[0][0] == 170_000  # dominant stratum
    assert len(synthetic_population(1, seed=0)) == 1
    with pytest.raises(ValueError):
        synthetic_population(0, seed=1)


def test_design_validation():
    with pytest.raises(ValueError, match="variant"):
        SimDesign(variants=("bogus",), population=((10, 5),))
    with pytest.raises(ValueError, match="repeated variant"):
        SimDesign(variants=("nb2-closed", "zt-nb2", "nb2-closed"), population=((10, 5),))
    with pytest.raises(ValueError, match="0 < n < N"):
        SimDesign(population=((10, 10),))
    # A replicate keeps at most the population's strata and needs 3 to fit,
    # so a smaller population could only fail every replicate.
    population = tuple(synthetic_population(3, 1))
    for strata in range(3):
        with pytest.raises(ValueError, match=f"population has {strata} strata"):
            SimDesign(population=population[:strata])
    SimDesign(population=population)


def _design(B=20, seed=1, strata=40, **kw):
    return SimDesign(
        population=tuple(synthetic_population(strata, seed)), B=B, seed=seed, **kw
    )


def _replicate_args(design):
    N = np.array([p[0] for p in design.population], dtype=float)
    n = np.array([p[1] for p in design.population], dtype=float)
    log_N = np.log(N)
    log_ratio = np.log(n) - np.log(N)
    mu = np.exp(design.alpha_true * log_N + design.beta_true * log_ratio)
    return log_N, log_ratio, mu


def _per_replicate(design):
    """variant -> estimates or None, per replicate: the replicates that keep
    enough strata are refitted by ``mle.refit_many``, called as
    ``run_simulation`` calls it."""
    log_N, log_ratio, mu = _replicate_args(design)
    ones = np.ones((len(mu), 1))
    md = ModelData(m=ones[:, 0], log_N=log_N, log_ratio=log_ratio, X=ones, Z=ones, index=[])
    draw = lambda b: _draw(b, design, log_N, log_ratio, mu)
    out = [dict.fromkeys(design.variants) for _ in range(design.B)]
    fitted = [b for b in range(design.B) if draw(b) is not None]
    kinds = [VARIANT_KINDS[variant] for variant in design.variants]
    for b, (_, refits) in zip(fitted, mle.refit_many(md, design.B, draw, kinds), strict=True):
        for variant, params in zip(design.variants, refits):
            if params is not None:
                out[b][variant] = {"alpha": float(params.alpha[0]), "beta": float(params.beta[0]),
                                   "phi": float(params.phi), "xi": mle.xi_from_alpha(md, params.alpha)}
    return out


def test_exact_arms_agree_per_replicate():
    # exact-gamma and nb2-closed maximize the same likelihood, so they must
    # succeed or fail together.
    design = _design(B=8, variants=("exact-gamma", "nb2-closed"))
    for out in _per_replicate(design):
        eg, nc = out["exact-gamma"], out["nb2-closed"]
        assert (eg is None) == (nc is None)
        if eg is None:
            continue
        for key in ("alpha", "beta", "phi", "xi"):
            assert eg[key] == pytest.approx(nc[key], rel=1e-6, abs=1e-6)


def test_exact_arms_agree_over_a_run():
    design = _design(B=100, strata=80, variants=("exact-gamma", "nb2-closed"))
    report = run_simulation(design)
    assert report.failures["exact-gamma"] == report.failures["nb2-closed"]
    for parameter in PARAMETERS:
        for metric in ("rb_percent", "rrmse_percent"):
            assert report.metrics["exact-gamma"][parameter][metric] == pytest.approx(
                report.metrics["nb2-closed"][parameter][metric], rel=1e-6
            )


def test_fit_at_optimum_with_stalled_line_search_is_converged():
    # In replicate 15 of this design the zhang fit reaches its optimum with
    # max|g| above 1e-4 and no halving that raises the log-likelihood.
    design = _design(strata=80, variants=("zhang-approx",))
    out = _per_replicate(design)[15]
    assert out["zhang-approx"] is not None


def test_replicate_with_too_few_strata_fails_every_variant(monkeypatch):
    # Strata with mean below 1 often draw 0 and are dropped, leaving some
    # replicates fewer than 3 strata to fit. With every refit converging,
    # those replicates are the failures, in every variant.
    design = SimDesign(population=((100_000, 10_000),) + ((10, 1),) * 3, B=20, seed=4)
    log_N, log_ratio, mu = _replicate_args(design)
    dropped = [b for b in range(design.B) if _draw(b, design, log_N, log_ratio, mu) is None]
    assert 0 < len(dropped) < design.B
    truth = ParamVector(np.array([design.alpha_true]), np.array([design.beta_true]), design.phi_true)
    monkeypatch.setattr(simulation, "refit_many", lambda md, B, draw, kinds: (
        (None, [truth] * len(kinds)) for b in range(B) if draw(b) is not None))
    report = run_simulation(design)
    assert report.failures == dict.fromkeys(design.variants, len(dropped))
    assert report.metrics["zt-nb2"]["alpha"] == {"rb_percent": 0.0, "rrmse_percent": 0.0}


def test_zhang_loglik_differs_from_exact():
    design = _design(B=1)
    log_N, log_ratio, mu = _replicate_args(design)
    rng = np.random.default_rng([design.seed, 0])
    from popest.distributions import CountFamily, Family, Truncation, sample_many

    m = sample_many(CountFamily(Family.NB2, Truncation.NONE), mu, 2.5, rng)
    keep = m > 0
    ones = np.ones((int(keep.sum()), 1))
    md = ModelData(
        m=m[keep].astype(float),
        log_N=log_N[keep],
        log_ratio=log_ratio[keep],
        X=ones,
        Z=ones,
        index=[],
    )
    params = ParamVector(np.array([0.7]), np.array([0.8]), phi=2.5)
    assert abs(
        loglik_kind(md, "zhang", params) - loglik_kind(md, "nb2", params)
    ) > 1e-3


def test_report_csv_layout():
    design = _design(B=6, variants=("zt-nb2",))
    report = run_simulation(design)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "variant,parameter,rb_percent,rrmse_percent,failures"
    assert len(lines) == 1 + len(PARAMETERS)
    assert all(line.startswith("zt-nb2,") for line in lines[1:])


def test_run_is_deterministic_across_threads():
    design = _design(B=12)
    a = run_simulation(design, threads=1)
    b = run_simulation(design, threads=3)
    assert a.metrics == b.metrics
    assert a.failures == b.failures


def test_keep_zeros_makes_closed_form_unbiased():
    # Untruncated generator, untruncated NB2 fit: approximately unbiased.
    rng = np.random.default_rng(21)
    pop = []
    for _ in range(80):
        N = int(np.round(np.exp(rng.uniform(np.log(1e3), np.log(1e5)))))
        n = int(np.clip(np.round(N * rng.uniform(0.05, 0.5)), 1, N - 1))
        pop.append((N, n))
    design = SimDesign(
        population=tuple(pop),
        B=500,
        seed=21,
        variants=("nb2-closed",),
        drop_zeros=False,
    )
    report = run_simulation(design, threads=4)
    assert report.failures["nb2-closed"] <= 0.05 * design.B
    assert abs(report.metrics["nb2-closed"]["alpha"]["rb_percent"]) < 1.0


def test_truncated_variant_on_kept_zeros_fails_each_replicate():
    # Kept zero counts lie below zt-nb2's support: every refit is a counted
    # failure, and the run still completes.
    design = SimDesign(
        population=tuple(synthetic_population(80, 3)),
        B=5,
        seed=3,
        variants=("zt-nb2",),
        drop_zeros=False,
    )
    report = run_simulation(design)
    assert report.failures["zt-nb2"] == design.B


def test_variant_kinds_cover_all_arms():
    assert set(VARIANT_KINDS) == {"zhang-approx", "exact-gamma", "nb2-closed", "zt-nb2"}


def test_failed_refits_are_counted_per_variant(monkeypatch):
    design = _design(B=6, strata=30)
    clean = _per_replicate(design)
    assert all(row is not None for r in clean for row in r.values())
    failed = {"nb2": {1: "raise", 4: "stall"}, "ztnb2": {2: "raise"}}
    fail_refits(monkeypatch, mle, lambda kind, i: failed.get(kind, {}).get(i))
    report = run_simulation(design)
    assert report.failures == {"zhang-approx": 0, "exact-gamma": 0, "nb2-closed": 2, "zt-nb2": 1}
    N = np.array([p[0] for p in design.population], dtype=float)
    truth = {"alpha": design.alpha_true, "beta": design.beta_true, "phi": design.phi_true,
             "xi": float(np.sum(N**design.alpha_true))}
    for variant, kind in VARIANT_KINDS.items():
        rows = [r[variant] for b, r in enumerate(clean) if b not in failed.get(kind, {})]
        for parameter in PARAMETERS:
            est = np.array([row[parameter] for row in rows])
            assert report.metrics[variant][parameter] == aggregate_metrics(est, truth[parameter])
