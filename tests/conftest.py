"""Shared fixtures: synthetic datasets, hand-built fits, finite-difference
helpers, refits made to fail."""

import dataclasses

import numpy as np
import pytest

from popest.dataio import Dataset, StratumRecord
from popest.distributions import CountFamily, EtaPoint, sample
from popest.meanmodel import DesignSpec, ModelSpec, ParamVector, prepare
from popest.mle import Convergence, FittedModel, xi_from_alpha


COUNTRIES = ("Ukraine", "Georgia", "Belarus", "Vietnam", "India", "Moldova", "Nepal")
SEXES = ("F", "M")
AGES = ("0-30", "31-60", "61+")


def synth_records(
    seed: int,
    count: int,
    alpha: float = 0.7,
    beta: float = 0.8,
    phi: float = 2.5,
    token: str = "ztnb2",
    period: str = "Q1",
) -> list[StratumRecord]:
    """Strata with counts drawn from the given family at the power-link mean."""
    rng = np.random.default_rng(seed)
    fam = CountFamily.from_token(token)
    records = []
    for i in range(count):
        N = int(np.round(np.exp(rng.uniform(np.log(1e3), np.log(1e5)))))
        n = int(np.clip(np.round(N * rng.uniform(0.05, 0.5)), 1, N - 1))
        mu = N**alpha * (n / N) ** beta
        eta = EtaPoint(mu=mu, phi=phi if fam.has_dispersion else None)
        m = sample(fam, eta, rng)
        if m < 1:
            m = 1
        records.append(
            StratumRecord(
                period=period,
                # one country per block of six records, cycling all six
                # (sex, age) combinations inside the block keeps keys unique
                country=COUNTRIES[(i // 6) % len(COUNTRIES)],
                domain=(SEXES[i % 2], AGES[i % 3]),
                m=m,
                n=n,
                N=N,
            )
        )
    return records


def synth_dataset(seed: int, count: int, **kw) -> Dataset:
    return Dataset(
        records=tuple(synth_records(seed, count, **kw)),
        domain_names=("sex", "age"),
    )


@pytest.fixture
def ztnb2_dataset() -> Dataset:
    return synth_dataset(11, 40)


@pytest.fixture
def ztnb2_model() -> ModelSpec:
    return ModelSpec(family=CountFamily.from_token("ztnb2"), design=DesignSpec())


def manual_fit(dataset: Dataset, token: str, alpha: float, phi=None, covariance=None):
    """A converged-looking FittedModel on ``dataset`` at the given alpha
    (intercept only) and beta = 0, built without fitting."""
    model = ModelSpec(family=CountFamily.from_token(token), design=DesignSpec())
    md = prepare(dataset, model.design)
    params = ParamVector(np.array([alpha]), np.array([0.0]), phi=phi)
    return FittedModel(
        model=model,
        params=params,
        covariance=covariance,
        loglik=0.0,
        aic=0.0,
        bic=0.0,
        ssq=0.0,
        xi_hat=xi_from_alpha(md, params.alpha),
        xi_by_group={},
        convergence=Convergence(1, 0.0, "converged"),
        dataset=dataset,
        data=md,
    )


def fd_gradient(f, theta, h=1e-5):
    """Central finite differences of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for j in range(len(theta)):
        hj = h * max(1.0, abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += hj
        dn[j] -= hj
        g[j] = (f(up) - f(dn)) / (2.0 * hj)
    return g


def fd_jacobian(g, theta, h=1e-5):
    """Central finite differences of a vector function, column per parameter."""
    theta = np.asarray(theta, dtype=float)
    k = len(theta)
    J = np.zeros((k, k))
    for j in range(k):
        hj = h * max(1.0, abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += hj
        dn[j] -= hj
        J[:, j] = (np.asarray(g(up)) - np.asarray(g(dn))) / (2.0 * hj)
    return J


def fail_refits(monkeypatch, module, fails):
    """Make ``module.fit_kind`` fail on the calls ``fails`` picks, by
    ``fails(kind, i)`` for the i-th call of each kind: "raise" raises a
    RuntimeError, "stall" returns the real fit marked as stalled."""
    real, calls = module.fit_kind, {}

    def fit_kind(md, kind, start, options):
        i = calls[kind] = calls.get(kind, -1) + 1
        how = fails(kind, i)
        if how == "raise":
            raise RuntimeError("refit failed")
        params, loglik, cov, conv = real(md, kind, start, options)
        if how == "stall":
            conv = dataclasses.replace(conv, status="stalled")
        return params, loglik, cov, conv

    monkeypatch.setattr(module, "fit_kind", fit_kind)
