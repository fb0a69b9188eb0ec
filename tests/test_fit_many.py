"""The replicate refits (``mle.refit_many``), their pre-solve
(``mle.fit_many``) and the per-row kernels it runs.

Bootstrap and simulation replicates are solved in lockstep, then each is
certified by its own ``fit_kind`` call. The result must match the serial
refits, which the replicates take when ``fit_many`` converges no row, and
every row that ``fit_many`` cannot finish must take the serial path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popest import mle
from popest.distributions import (
    CountFamily,
    DistinctCounts,
    NumericalError,
    kind_family,
    term_derivatives_kernel,
    term_loglik_kernel,
)
from popest.meanmodel import (
    DesignSpec, ModelData, ModelSpec, ParamVector, _chain_rule, prepare, score_and_hessian_kind,
)
from popest.mle import FitOptions, _log_phi_scale, fit, fit_kind, fit_many, linearized_start
from popest.simulation import PARAMETERS, SimDesign, run_simulation, synthetic_population
from popest.uncertainty import parametric_bootstrap

from conftest import fail_refits, synth_dataset

KINDS = ("po", "ztpo", "zotpo", "nb2", "ztnb2", "zotnb2", "zhang", "nb2-mixture")
DERIVS = ("d_mu", "d_mumu", "d_phi", "d_phiphi", "d_muphi")


def converge_no_row(monkeypatch, module):
    """Make ``module.fit_many`` converge no row, so that every replicate is
    refitted from its own start: the serial path."""

    def fit_many(md, M, kind, start, mask=None, counts=None):
        return [None] * len(M)

    monkeypatch.setattr(module, "fit_many", fit_many)


def record_statuses(monkeypatch, module) -> list:
    """(status or the exception's name, iterations or 0) of every
    ``module.fit_kind`` call."""
    real, seen = module.fit_kind, []

    def fit_kind(md, kind, start, options):
        try:
            out = real(md, kind, start, options)
        except Exception as exc:
            seen.append((type(exc).__name__, 0))
            raise
        seen.append((out[3].status, out[3].iterations))
        return out

    monkeypatch.setattr(module, "fit_kind", fit_kind)
    return seen


def _boot_fit(seed, token, alpha=(), beta=()):
    data = synth_dataset(seed, 40, token=token)
    design = DesignSpec.from_tokens(list(alpha), list(beta))
    return fit(data, ModelSpec(CountFamily.from_token(token), design))


def _assert_same_bootstrap(batched, serial):
    assert batched.failures == serial.failures
    assert len(batched.draws) == len(serial.draws)
    np.testing.assert_allclose(batched.draws, serial.draws, rtol=1e-10, atol=0)


def run_both(monkeypatch, module, fails, run) -> list:
    """The result of ``run()`` and the statuses of its ``fit_kind`` calls,
    with the pre-solve and then with every replicate on the serial path;
    ``fails`` is passed to ``fail_refits`` anew for each run. The certified
    refits must take fewer Newton iterations than the serial ones."""
    out, iterations = [], []
    for serial in (False, True):
        with monkeypatch.context() as mp:
            fail_refits(mp, module, fails)
            seen = record_statuses(mp, module)
            if serial:
                converge_no_row(mp, module)
            out.append((run(), [status for status, _ in seen]))
            iterations.append(sum(n for _, n in seen))
    assert iterations[0] < iterations[1]
    return out


@pytest.mark.parametrize(
    "seed, token, covariates, failed",
    [
        (11, "ztnb2", (), {}),
        (3, "nb2", (), {}),
        (5, "po", (), {}),
        (7, "ztpo", (), {}),
        (11, "ztnb2", ((["country:Ukraine", "sex:M"], ["age:0-30"])), {}),
        (11, "ztnb2", (), {2: "raise", 5: "stall", 11: "raise"}),
    ],
)
def test_batched_bootstrap_equals_the_serial_refits(monkeypatch, seed, token, covariates, failed):
    boot_fit = _boot_fit(seed, token, *covariates)
    assert boot_fit.convergence.converged
    (batched, statuses), (serial, serial_statuses) = run_both(
        monkeypatch, mle, lambda kind, i: failed.get(i),
        lambda: parametric_bootstrap(boot_fit, B=30, seed=4),
    )
    _assert_same_bootstrap(batched, serial)
    assert statuses == serial_statuses
    assert len(statuses) == 30  # one fit_kind call per replicate
    assert batched.failures == sum(s != "converged" for s in statuses) >= len(failed)


@pytest.mark.parametrize(
    "seed, strata, failed",
    [(1, 40, {}), (2, 80, {}), (3, 30, {"nb2": {1: "raise", 4: "stall"}, "ztnb2": {2: "raise"}})],
)
def test_batched_simulation_equals_the_serial_refits(monkeypatch, seed, strata, failed):
    design = SimDesign(population=tuple(synthetic_population(strata, seed)), B=12, seed=seed)
    (batched, statuses), (serial, serial_statuses) = run_both(
        monkeypatch, mle, lambda kind, i: failed.get(kind, {}).get(i),
        lambda: run_simulation(design),
    )
    assert batched.failures == serial.failures
    assert statuses == serial_statuses
    assert sum(batched.failures.values()) >= sum(len(f) for f in failed.values())
    for variant in design.variants:
        for parameter in PARAMETERS:
            for metric, value in batched.metrics[variant][parameter].items():
                want = serial.metrics[variant][parameter][metric]
                assert value == pytest.approx(want, rel=1e-8, abs=1e-10), (variant, parameter, metric)


def count_presolves(monkeypatch, module) -> list:
    """The number of rows of every ``module.fit_many`` call."""
    real, rows = module.fit_many, []

    def fit_many(md, M, kind, start, mask=None, counts=None):
        rows.append(len(M))
        return real(md, M, kind, start, mask, counts)

    monkeypatch.setattr(module, "fit_many", fit_many)
    return rows


@pytest.mark.parametrize("block, rows", [(5, [5] * 6), (3, [3] * 10), (0.5, [1] * 30)])
def test_bootstrap_presolves_blocks_of_every_size(monkeypatch, block, rows):
    # Blocks of 5 and of 3 replicates are pre-solved one at a time, and so is
    # each replicate where a block holds fewer records than one replicate.
    boot_fit = _boot_fit(11, "ztnb2")
    n = len(boot_fit.data.m)
    with monkeypatch.context() as mp:
        mp.setattr(mle, "_BLOCK_ELEMENTS", int(block * n))
        seen = count_presolves(mp, mle)
        blocked = parametric_bootstrap(boot_fit, B=30, seed=4)
    assert seen == rows
    converge_no_row(monkeypatch, mle)
    _assert_same_bootstrap(blocked, parametric_bootstrap(boot_fit, B=30, seed=4))


@pytest.mark.parametrize("block, rows", [(5, [5, 5, 2]), (3, [3] * 4), (0.5, [1] * 12)])
def test_simulation_presolves_blocks_of_every_size(monkeypatch, block, rows):
    design = SimDesign(population=tuple(synthetic_population(40, 2)), B=12, seed=2)
    with monkeypatch.context() as mp:
        mp.setattr(mle, "_BLOCK_ELEMENTS", int(block * 40))
        seen = count_presolves(mp, mle)
        blocked = run_simulation(design)
    assert seen == [r for r in rows for _ in design.variants]
    converge_no_row(monkeypatch, mle)
    serial = run_simulation(design)
    assert blocked.failures == serial.failures
    for variant in design.variants:
        for parameter in PARAMETERS:
            for metric, value in blocked.metrics[variant][parameter].items():
                want = serial.metrics[variant][parameter][metric]
                assert value == pytest.approx(want, rel=1e-8, abs=1e-10), (variant, parameter, metric)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(1, 5),
    n=st.integers(1, 30),
)
def test_row_kernels_equal_one_call_per_row(kind, seed, B, n):
    # A (B, n) matrix with one phi per row gives each row the values that a
    # call on that row alone gives.
    rng = np.random.default_rng(seed)
    fam = kind_family(kind)
    mu = np.exp(rng.uniform(np.log(1e-2), np.log(1e4), (B, n)))
    phi = np.exp(rng.uniform(np.log(0.05), np.log(1e3), (B, 1))) if fam.has_dispersion else None
    M = (fam.support_min + rng.integers(0, 40, (B, n))).astype(float)
    counts = DistinctCounts.of(M)
    assert np.array_equal(counts.values[counts.inverse], M)
    assert np.array_equal(counts.rows[counts.inverse], np.repeat(np.arange(B)[:, None], n, axis=1))
    ll = term_loglik_kernel(fam, kind, mu, phi, M, counts)
    t = term_derivatives_kernel(fam, kind, mu, phi, M, counts)
    for b in range(B):
        phi_b = None if phi is None else float(phi[b, 0])
        want = term_loglik_kernel(fam, kind, mu[b], phi_b, M[b])
        np.testing.assert_allclose(ll[b], want, rtol=1e-13, atol=0)
        tb = term_derivatives_kernel(fam, kind, mu[b], phi_b, M[b])
        for name in DERIVS:
            got, want = getattr(t, name), getattr(tb, name)
            if want is None:
                assert got is None
            else:
                np.testing.assert_allclose(got[b], want, rtol=1e-13, atol=0, err_msg=name)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(1, 5),
    n=st.integers(1, 30),
    masked=st.booleans(),
)
def test_stacked_chain_rule_equals_one_call_per_row(kind, seed, B, n, masked):
    # The score and Hessian that fit_many assembles for a (B, n) stack, with
    # one phi per row and with or without a keep-mask, are those of one
    # score_and_hessian_kind call per row on its kept strata.
    rng = np.random.default_rng(seed)
    fam = kind_family(kind)
    log_N = rng.uniform(np.log(50.0), np.log(5000.0), n)
    X = np.column_stack([np.ones(n), rng.integers(0, 2, n)])
    md = ModelData(
        m=np.ones(n), log_N=log_N, log_ratio=np.log(rng.uniform(0.05, 0.6, n)),
        X=X, Z=np.ones((n, 1)), index=[],
    )
    gamma = np.column_stack(
        [rng.uniform(0.3, 1.0, B), rng.uniform(-0.2, 0.2, B), rng.uniform(0.2, 1.0, B)]
    )
    phi = np.exp(rng.uniform(np.log(0.05), np.log(1e3), (B, 1))) if fam.has_dispersion else None
    keep = rng.random((B, n)) < 0.7 if masked else np.ones((B, n), dtype=bool)
    keep[:, 0] = True
    M = np.where(keep, fam.support_min + rng.integers(0, 40, (B, n)), fam.support_min).astype(float)
    params = [
        ParamVector(gamma[b, :2], gamma[b, 2:], None if phi is None else float(phi[b, 0]))
        for b in range(B)
    ]
    mu = np.array([md.mu_values(pv) for pv in params])
    t = term_derivatives_kernel(fam, kind, mu, phi, M, DistinctCounts.of(M))
    g, H = _chain_rule(md.W, mu, t, keep if masked else None)
    for b in range(B):
        k = keep[b]
        md_b = ModelData(
            m=M[b][k], log_N=md.log_N[k], log_ratio=md.log_ratio[k], X=md.X[k], Z=md.Z[k], index=[]
        ) if masked else md.with_counts(M[b])
        want_g, want_H = score_and_hessian_kind(md_b, kind, params[b])
        np.testing.assert_allclose(g[b], want_g, rtol=1e-13, atol=0)
        np.testing.assert_allclose(H[b], want_H, rtol=1e-13, atol=0)


def _assert_same_counts(got, want):
    for name in DistinctCounts._fields:
        x, y = getattr(got, name), getattr(want, name)
        assert (x is None and y is None) or (x.dtype == y.dtype and np.array_equal(x, y)), name


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(1, 8),
    n=st.integers(1, 30),
    top=st.integers(0, 50),
    data=st.data(),
)
def test_block_counts_equal_the_counts_of_the_rows(seed, B, n, top, data):
    # The distinct counts of a block, taken by row segment for an ascending
    # subset of its rows, equal those built from the subset itself.
    M = np.random.default_rng(seed).integers(0, top + 1, (B, n)).astype(float)
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, B - 1), min_size=1))))
    _assert_same_counts(DistinctCounts.of(M).take_rows(rows), DistinctCounts.of(M[rows]))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 8), n=st.integers(1, 30), top=st.integers(0, 200))
def test_each_rows_share_equals_the_counts_of_that_row(seed, B, n, top):
    # A certify call takes its row's share of the block's distinct counts in
    # 1-d form, instead of sorting the row again.
    M = np.random.default_rng(seed).integers(0, top + 1, (B, n)).astype(float)
    shares = DistinctCounts.of(M).split()
    assert len(shares) == B
    for b, share in enumerate(shares):
        _assert_same_counts(share, DistinctCounts.of(M[b]))


def test_fit_many_evaluates_with_the_counts_of_its_rows(monkeypatch):
    # Rows leave the lockstep at different passes, so the kernels see
    # subsets of the block; each call's counts are those of its own counts.
    md, M, starts = _rows_and_starts()
    M = np.vstack([M, M[::-1]])
    starts = np.vstack([starts, starts])
    starts[1] = (40.0, 0.0, 2.5)  # mu**2 overflows in the Hessian: leaves at once
    seen = []

    def checked(kernel):
        def run(fam, kind, mu, phi, m, counts):
            _assert_same_counts(counts, DistinctCounts.of(m))
            seen.append(len(m))
            return kernel(fam, kind, mu, phi, m, counts)
        return run

    for name in ("term_loglik_kernel", "term_derivatives_kernel"):
        monkeypatch.setattr(mle, name, checked(getattr(mle, name)))
    presolved = fit_many(md, M, "ztnb2", starts)
    assert presolved[1] is None and presolved.count(None) < len(M)
    assert len(set(seen)) > 2


def _rows_and_starts():
    """Strata of a synthetic panel, three count rows drawn on them, and a
    linearized start for each."""
    md = prepare(synth_dataset(11, 40), DesignSpec())
    M = np.array([synth_dataset(s, 40).columns[0] for s in (21, 22, 23)], dtype=float)
    starts = np.array([linearized_start(m, md.log_N, md.log_ratio) for m in M])
    return md, M, starts


def test_refit_many_blocks_skip_undrawn_replicates(monkeypatch):
    # Blocks of 4 replicates: replicate 0 (first of block 0), 7 (last of
    # block 1) and 8-11 (all of block 2) are not drawn. Odd replicates keep
    # two strata in three, even ones all of them.
    md = prepare(synth_dataset(11, 40), DesignSpec())
    M = np.array([synth_dataset(21 + b, 40).columns[0] for b in range(14)], dtype=float)
    keep = np.ones(M.shape, dtype=bool)
    keep[1::2, ::3] = False
    kinds = ("ztnb2", "nb2")
    undrawn = {0, 7, 8, 9, 10, 11}
    events = []

    def draw(b):
        events.append(("draw", b))
        if b in undrawn:
            return None
        k = keep[b]
        start = linearized_start(M[b][k], md.log_N[k], md.log_ratio[k])
        return np.where(k, M[b], 1.0), start, k, b

    def run():
        return list(mle.refit_many(md, len(M), draw, kinds))

    one_block = run()
    assert mle._BLOCK_ELEMENTS // md.n_obs >= len(M)
    real_many, real_kind = mle.fit_many, mle.fit_kind
    with monkeypatch.context() as mp:
        mp.setattr(mle, "_BLOCK_ELEMENTS", 4 * md.n_obs)
        mp.setattr(mle, "fit_many", lambda md, M, kind, *a: (
            events.append(("fit_many", len(M))) or real_many(md, M, kind, *a)))
        mp.setattr(mle, "fit_kind", lambda md, kind, *a: (
            events.append(("fit_kind", kind)) or real_kind(md, kind, *a)))
        events.clear()
        blocked = run()
    assert [extra for extra, _ in blocked] == [1, 2, 3, 4, 5, 6, 12, 13]
    assert [n for event, n in events if event == "fit_many"] == [3, 3, 3, 3, 2, 2]
    assert sum(event == "fit_kind" for event, _ in events) == 8 * len(kinds)
    # Block 2 draws its replicates and makes no fit_many or fit_kind call.
    i, j = events.index(("draw", 8)), events.index(("draw", 12))
    assert events[i:j] == [("draw", b) for b in (8, 9, 10, 11)]
    assert [extra for extra, _ in one_block] == [extra for extra, _ in blocked]
    converged = 0
    for (_, want), (_, got) in zip(one_block, blocked):
        for w, g in zip(want, got):
            assert (w is None) == (g is None)
            if w is not None:
                converged += 1
                np.testing.assert_allclose(g.stacked(), w.stacked(), rtol=1e-10)
    assert converged >= 12


def _start(theta):
    return ParamVector(np.array([theta[0]]), np.array([theta[1]]), phi=float(theta[2]))


def test_presolved_rows_are_certified_in_one_evaluation():
    md, M, starts = _rows_and_starts()
    presolved = fit_many(md, M, "ztnb2", starts)
    assert None not in presolved
    for m, pre, s in zip(M, presolved, starts):
        md_b = md.with_counts(m)
        params, ll, _, conv = fit_kind(md_b, "ztnb2", pre, FitOptions())
        serial, ll_serial, _, conv_serial = fit_kind(md_b, "ztnb2", _start(s), FitOptions())
        assert conv.status == conv_serial.status == "converged"
        assert conv.iterations == 1
        np.testing.assert_allclose(params.stacked(), serial.stacked(), rtol=1e-10)
        assert ll == pytest.approx(ll_serial, rel=1e-12)


def test_fit_many_drops_an_overflowing_row_and_solves_an_indefinite_start():
    md, M, starts = _rows_and_starts()
    # Row 0 is left as it is. Row 1 starts where mu reaches 1e200: its
    # log-likelihood is finite, but mu**2 overflows in the Hessian. Row 2
    # starts where the nb2 Hessian is not negative definite, and both paths
    # take the same modified-Newton steps from there.
    starts[1] = (40.0, 0.0, 2.5)
    starts[2] = (0.3, 0.8, 1.0)
    presolved = fit_many(md, M, "nb2", starts)
    assert [p is not None for p in presolved] == [True, False, True]
    with pytest.raises(NumericalError):
        fit_kind(md.with_counts(M[1]), "nb2", _start(starts[1]), FitOptions())
    md_b = md.with_counts(M[2])
    assert np.linalg.eigvalsh(-_internal_hessian(md_b, starts[2])).min() < 0
    serial, _, _, conv = fit_kind(md_b, "nb2", _start(starts[2]), FitOptions())
    assert conv.status == "converged"
    np.testing.assert_allclose(presolved[2].stacked(), serial.stacked(), rtol=0, atol=1e-10)
    # The Poisson row at the overflowing start fails the same way.
    assert fit_many(md, M[1:2], "po", starts[1, :2]) == [None]
    with pytest.raises(NumericalError):
        fit_kind(md.with_counts(M[1]), "po", ParamVector(np.array([40.0]), np.array([0.0])), FitOptions())


def _internal_hessian(md_b, start):
    """The nb2 Hessian at ``start`` on the log(phi) scale that Newton
    iterates on."""
    g, H = score_and_hessian_kind(md_b, "nb2", _start(start))
    return _log_phi_scale(g[None], H[None], np.array([[start[2]]]))[1][0]


@pytest.mark.parametrize("n", [200, 9])
def test_fit_many_converges_a_row_exactly_where_fit_kind_does_from_an_indefinite_start(
        monkeypatch, n):
    # nb2 starts from a grid where the Hessian is not negative definite, each
    # on its own draw of counts: lockstep and one-row fits take the same
    # steps, so the same rows converge, all of them in 200 iterations and
    # those that need at most 10 evaluations in 9.
    options = max_iter(monkeypatch, n)
    md = prepare(synth_dataset(11, 40), DesignSpec())
    grid = [(a, b, phi) for a in (0.3, 0.5, 0.9) for b in (0.0, 0.8) for phi in (np.e**3, np.e**10)]
    M = np.array([synth_dataset(s, 40).columns[0] for s in range(21, 21 + len(grid))], float)
    indefinite = [np.linalg.eigvalsh(-_internal_hessian(md.with_counts(m), s)).min() < 0
                  for m, s in zip(M, grid)]
    M, starts = M[indefinite], np.array(grid)[indefinite]
    assert len(M) >= 4
    presolved = fit_many(md, M, "nb2", starts)
    converged = [fit_kind(md.with_counts(m), "nb2", _start(s), options)[3].converged
                 for m, s in zip(M, starts)]
    assert [p is not None for p in presolved] == converged
    assert any(converged) and (all(converged) == (n == 200))


def max_iter(monkeypatch, n):
    """Give ``fit_many`` (which runs with ``FitOptions()``) ``max_iter=n``."""
    monkeypatch.setattr(mle, "FitOptions", lambda: FitOptions(max_iter=n))
    return FitOptions(max_iter=n)


def test_rows_that_reach_max_iter_are_unconverged(monkeypatch):
    md, M, starts = _rows_and_starts()
    options = max_iter(monkeypatch, 1)
    assert fit_many(md, M, "ztnb2", starts) == [None] * len(M)
    for m, s in zip(M, starts):
        conv = fit_kind(md.with_counts(m), "ztnb2", _start(s), options)[3]
        assert conv.status == "max-iterations"


def test_bootstrap_with_an_unfinished_presolve_equals_the_serial_refits(monkeypatch):
    # A pre-solve cut at two iterations leaves most rows unconverged; those
    # replicates take the serial path and the others are certified.
    boot_fit = _boot_fit(11, "ztnb2")
    real, seen = mle.fit_many, []

    def cut_short(md, M, kind, start, mask=None, counts=None):
        with monkeypatch.context() as mp:
            max_iter(mp, 2)
            presolved = real(md, M, kind, start, mask, counts)
        seen.append(sum(p is not None for p in presolved))
        return presolved

    monkeypatch.setattr(mle, "fit_many", cut_short)
    cut = parametric_bootstrap(boot_fit, B=30, seed=8)
    assert 0 < seen[0] < 30
    converge_no_row(monkeypatch, mle)
    _assert_same_bootstrap(cut, parametric_bootstrap(boot_fit, B=30, seed=8))


def test_masked_strata_are_left_out():
    # Rows whose dropped strata hold count 1 under the mask solve as the
    # kept strata alone do.
    md, M, starts = _rows_and_starts()
    keep = np.ones(M.shape, dtype=bool)
    keep[:, ::3] = False
    presolved = fit_many(md, np.where(keep, M, 1.0), "ztnb2", starts, mask=keep)
    assert sum(p is not None for p in presolved) >= 2
    for b in range(len(M)):
        ones = np.ones((int(keep[b].sum()), 1))
        md_b = ModelData(
            m=M[b][keep[b]], log_N=md.log_N[keep[b]], log_ratio=md.log_ratio[keep[b]],
            X=ones, Z=ones, index=[],
        )
        (alone,) = fit_many(md_b, md_b.m[None], "ztnb2", starts[b])
        assert (presolved[b] is None) == (alone is None)
        if alone is not None:
            np.testing.assert_allclose(presolved[b].stacked(), alone.stacked(), rtol=1e-12)


@pytest.mark.parametrize("masked", [False, True])
def test_refit_many_equals_one_fit_kind_per_row(monkeypatch, masked):
    # Pre-solved in one block of 3 rows, pre-solved one row a block (a block
    # holds fewer records than a row), or refitted from its start, each
    # row's refit of each kind is the fit_kind refit from its start on its
    # kept strata, and a refit that raises or stalls is None.
    md, M, starts = _rows_and_starts()
    keep = np.ones(M.shape, dtype=bool)
    if masked:
        keep[:, ::3] = False
    kinds = ("ztnb2", "nb2")
    fails = {"ztnb2": {1: "raise"}, "nb2": {2: "stall"}}
    out, presolves, statuses, iterations = [], [], [], []
    for elements in (mle._BLOCK_ELEMENTS, md.n_obs - 1, None):  # None: refitted from the start
        with monkeypatch.context() as mp:
            presolves.append(count_presolves(mp, mle))
            if elements is None:
                converge_no_row(mp, mle)
            else:
                mp.setattr(mle, "_BLOCK_ELEMENTS", elements)
            fail_refits(mp, mle, lambda kind, i: fails[kind].get(i))
            seen = record_statuses(mp, mle)
            counts = np.where(keep, M, 1.0)
            draw = lambda b: (counts[b], starts[b], keep[b] if masked else None, None)
            refits = [params for _, params in mle.refit_many(md, len(M), draw, kinds)]
            out.append(list(zip(*refits)))
        statuses.append([status for status, _ in seen])
        iterations.append(sum(n for _, n in seen))
    assert statuses[0] == statuses[1] == statuses[2] == [
        "converged", "converged", "RuntimeError", "converged", "converged", "stalled"
    ]
    assert presolves[:2] == [[3, 3], [1] * 6]
    assert max(iterations[:2]) < iterations[2]
    for kind, *presolved, serial in zip(kinds, *out):
        for b, want in enumerate(serial):
            if b in fails[kind]:
                assert want is None and all(got[b] is None for got in presolved)
                continue
            k = keep[b]
            md_b = ModelData(m=M[b][k], log_N=md.log_N[k], log_ratio=md.log_ratio[k],
                             X=md.X[k], Z=md.Z[k], index=[])
            params, _, _, conv = fit_kind(md_b, kind, _start(starts[b]), FitOptions())
            assert conv.converged
            np.testing.assert_allclose(want.stacked(), params.stacked(), rtol=0, atol=0)
            for got in presolved:
                np.testing.assert_allclose(got[b].stacked(), params.stacked(), rtol=1e-10)
