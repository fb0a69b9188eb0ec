"""Plug-in interval, percentile and SPIN intervals, parametric bootstrap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from popest import mle
from popest.dataio import Dataset, StratumRecord
from popest.distributions import CountFamily, DistinctCounts
from popest.meanmodel import DesignSpec, ModelSpec
from popest.mle import fit
from popest.uncertainty import (
    IntervalError,
    parametric_bootstrap,
    percentile_interval,
    plugin_interval,
    spin_interval,
)

from conftest import fail_refits, manual_fit, synth_dataset


def one_country_fit(alpha_se: float):
    """Single record with N=100, alpha_hat=0.5; covariance only on alpha."""
    records = (
        StratumRecord(period="Q1", country="A", domain=(), m=5, n=10, N=100),
    )
    cov = np.zeros((3, 3))
    cov[0, 0] = alpha_se**2
    data = Dataset(records=records, domain_names=())
    return manual_fit(data, "ztnb2", alpha=0.5, phi=1.0, covariance=cov)


def test_plugin_zero_se_degenerates():
    lo, hi = plugin_interval(one_country_fit(0.0), level=0.95)
    assert lo == pytest.approx(10.0, rel=1e-12)
    assert hi == pytest.approx(10.0, rel=1e-12)


def test_plugin_direct_powers():
    z = stats.norm.ppf(0.975)
    lo, hi = plugin_interval(one_country_fit(0.1 / z), level=0.95)
    assert lo == pytest.approx(100**0.4, abs=1e-3)
    assert hi == pytest.approx(100**0.6, abs=1e-3)
    assert lo == pytest.approx(6.310, abs=1e-3)
    assert hi == pytest.approx(15.849, abs=1e-3)


def test_plugin_monotone_in_se():
    widths = []
    for se in (0.01, 0.05, 0.1, 0.2):
        lo, hi = plugin_interval(one_country_fit(se), level=0.95)
        widths.append(hi - lo)
    assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_plugin_requires_covariance():
    f = one_country_fit(0.1)
    f.covariance = None
    with pytest.raises(IntervalError):
        plugin_interval(f)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2])
def test_bootstrap_level_outside_the_unit_interval_is_rejected(level):
    # level 1 gives an infinite plug-in bound, a level outside [0, 1] a
    # numpy error or lower bounds above upper ones.
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        parametric_bootstrap(one_country_fit(0.1), B=2, seed=1, level=level)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan")])
def test_plugin_level_outside_the_unit_interval_is_rejected(level):
    # level 1 gives an infinite bound
    with pytest.raises(ValueError, match="strictly between 0 and 1, got"):
        plugin_interval(one_country_fit(0.1), level)


@pytest.mark.parametrize("interval", [percentile_interval, spin_interval])
@pytest.mark.parametrize("level", [0.0, 1.5, -0.2, float("nan")])
def test_sample_interval_level_outside_the_unit_interval_is_rejected(interval, level):
    # level -0.2 gave a percentile lower bound above the upper one, and a
    # SPIN interval (0, 0); level 1, the whole sample, stays allowed.
    x = np.arange(20.0)
    with pytest.raises(ValueError, match="strictly between 0 and 1 or be 1, got"):
        interval(x, level)
    assert interval(x, 1.0) == (0.0, 19.0)


def test_percentile_constant_sample():
    assert percentile_interval([5.0, 5.0, 5.0], 0.95) == (5.0, 5.0)


def test_percentile_linear_interpolation_rule():
    samples = np.arange(1, 101, dtype=float)
    lo, hi = percentile_interval(samples, 0.95)
    # h = (n-1)p + 1: lower h = 3.475 -> 3.475, upper h = 95.025 + ... = 97.525
    assert lo == pytest.approx(3.475, abs=1e-12)
    assert hi == pytest.approx(97.525, abs=1e-12)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    samples=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
    level=st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([0.5, 0.9, 0.95, 1.0])),
)
def test_percentile_interval_is_numpys_linear_quantile(samples, level):
    tail = (1.0 - level) / 2.0
    want = np.quantile(np.array(samples), [tail, 1.0 - tail], method="linear")
    assert percentile_interval(samples, level) == (float(want[0]), float(want[1]))


def test_percentile_full_level():
    samples = [3.0, 1.0, 9.0, 4.0]
    assert percentile_interval(samples, 1.0) == (1.0, 9.0)


def test_percentile_needs_two_samples():
    with pytest.raises(IntervalError):
        percentile_interval([1.0], 0.95)


def _spin_oracle(samples, level):
    """Exhaustive window search, written independently of the implementation."""
    x = sorted(samples)
    n = len(x)
    k = int(np.ceil(level * n))
    best = None
    for i in range(n - k + 1):
        width = x[i + k - 1] - x[i]
        if best is None or width < best[0] - 1e-15:
            best = (width, x[i], x[i + k - 1])
    return best[1], best[2]


def test_spin_matches_exhaustive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        samples = rng.lognormal(0.0, 1.0, size=int(rng.integers(10, 200)))
        for level in (0.5, 0.8, 0.95):
            assert spin_interval(samples, level) == _spin_oracle(samples, level)


def test_spin_right_skewed_sample():
    samples = [1, 1, 1, 2, 2, 3, 5, 9, 20, 60]
    lo, hi = spin_interval(samples, 0.8)
    assert lo == 1.0  # anchored at the low end
    p_lo, p_hi = percentile_interval(samples, 0.8)
    assert (hi - lo) < (p_hi - p_lo)


def test_spin_symmetric_sample_close_to_percentile():
    samples = np.arange(1, 101, dtype=float)
    lo, hi = spin_interval(samples, 0.95)
    p_lo, p_hi = percentile_interval(samples, 0.95)
    gap = 1.0  # adjacent order statistics differ by 1 here
    assert abs((hi - lo) - (p_hi - p_lo)) <= gap + 1e-12


def test_spin_constant_sample():
    assert spin_interval([7.0] * 12, 0.9) == (7.0, 7.0)


def test_spin_needs_ten_samples():
    with pytest.raises(IntervalError):
        spin_interval([1.0] * 9, 0.9)


@pytest.fixture(scope="module")
def boot_fit():
    from conftest import synth_dataset

    data = synth_dataset(11, 40)
    model = ModelSpec(family=CountFamily.from_token("ztnb2"), design=DesignSpec())
    fitted = fit(data, model)
    assert fitted.convergence.converged
    return fitted


def test_bootstrap_determinism_across_threads(boot_fit):
    a = parametric_bootstrap(boot_fit, B=40, seed=3, threads=1)
    b = parametric_bootstrap(boot_fit, B=40, seed=3, threads=4)
    c = parametric_bootstrap(boot_fit, B=40, seed=3, threads=1)
    assert a.draws == b.draws == c.draws
    assert a.to_dict() == b.to_dict() == c.to_dict()


def test_bootstrap_accounting_and_rmse_identity(boot_fit):
    res = parametric_bootstrap(boot_fit, B=60, seed=5)
    assert len(res.draws) + res.failures == res.B == 60
    xs = np.array([d[0] for d in res.draws])
    xh = np.array([d[1] for d in res.draws])
    assert res.mse == pytest.approx(float(np.mean((xh - xs) ** 2)), rel=1e-12)
    assert res.rmse**2 * np.mean(xs) ** 2 == pytest.approx(res.mse, abs=1e-10 * res.mse)


def test_bootstrap_zero_covariance_degenerates(boot_fit):
    import copy

    frozen = copy.copy(boot_fit)
    frozen.covariance = np.zeros_like(boot_fit.covariance)
    res = parametric_bootstrap(frozen, B=30, seed=2)
    lo, hi = res.intervals["percentile"]
    assert lo == pytest.approx(boot_fit.xi_hat, rel=1e-12)
    assert hi == pytest.approx(boot_fit.xi_hat, rel=1e-12)
    assert all(xs == pytest.approx(boot_fit.xi_hat, rel=1e-12) for xs, _ in res.draws)


def test_bootstrap_intervals_contain_xi_hat(boot_fit):
    res = parametric_bootstrap(boot_fit, B=200, seed=8)
    for name in ("plugin", "percentile", "spin"):
        lo, hi = res.intervals[name]
        assert lo <= boot_fit.xi_hat <= hi, name


def test_bootstrap_env_thread_override(boot_fit, monkeypatch):
    monkeypatch.setenv("POPEST_THREADS", "3")
    a = parametric_bootstrap(boot_fit, B=20, seed=13)
    monkeypatch.setenv("POPEST_THREADS", "1")
    b = parametric_bootstrap(boot_fit, B=20, seed=13)
    assert a.draws == b.draws


@pytest.mark.parametrize("failed", [{3: "raise", 7: "stall", 12: "raise", 19: "stall"},
                                    {0: "stall", 5: "raise", 6: "raise", 9: "stall", 15: "raise"}])
def test_bootstrap_failed_refits_are_counted_and_left_out(boot_fit, monkeypatch, failed):
    B = 20
    clean = parametric_bootstrap(boot_fit, B=B, seed=6)
    assert clean.failures == 0 and len(clean.draws) == B
    fail_refits(monkeypatch, mle, lambda kind, i: failed.get(i))
    res = parametric_bootstrap(boot_fit, B=B, seed=6)
    kept = [d for b, d in enumerate(clean.draws) if b not in failed]
    assert res.failures == len(failed)
    assert res.unreliable == (len(failed) > 0.2 * B)  # 4 of 20 is reliable, 5 is not
    assert res.draws == kept
    xs, xh = (np.array(c) for c in zip(*kept))
    assert res.mse == float(np.mean((xh - xs) ** 2))
    assert res.intervals["percentile"] == percentile_interval(xs, 0.95)
    assert res.intervals["spin"] == spin_interval(xs, 0.95)
    assert res.intervals["plugin"] == clean.intervals["plugin"]


def test_bootstrap_with_every_refit_failed_reports_only_the_plugin_interval(monkeypatch):
    # Percentile and SPIN intervals come from the successful refits' xi*
    # draws; with none, they are not reported, rather than taken from the
    # draws of failed replicates.
    data = synth_dataset(11, 40)
    fitted = fit(data, ModelSpec(family=CountFamily.from_token("ztnb2"), design=DesignSpec()))
    fail_refits(monkeypatch, mle, lambda kind, i: "raise")
    res = parametric_bootstrap(fitted, B=20, seed=6)
    assert set(res.intervals) == {"plugin"}
    assert res.draws == []
    assert res.failures == 20
    assert np.isnan(res.mse)
    assert res.unreliable


def test_bootstrap_sorts_each_blocks_counts_once(boot_fit, monkeypatch):
    # Every certify call takes its row's share of the block's distinct
    # counts: one sort per block, none per replicate.
    sorted_shapes = []
    real = DistinctCounts.of

    def counted(m):
        sorted_shapes.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(DistinctCounts, "of", staticmethod(counted))
    expect = parametric_bootstrap(boot_fit, B=20, seed=13)
    monkeypatch.setattr(DistinctCounts, "of", staticmethod(real))
    assert sorted_shapes == [(20, len(boot_fit.data.m))]
    assert parametric_bootstrap(boot_fit, B=20, seed=13).to_dict() == expect.to_dict()
