"""The benchmark workloads: inputs, the CLI invocations of one operation, and
the checks on each operation's outputs.

An operation is a pair of ``popest`` invocations: ``boot`` + ``simulate``
for ``replicates``, ``compare`` + ``diagnose`` for ``panel-40k``. Every
workload runs ``inputs_per_run`` distinct inputs per run, cycled in order, so
that one run's figures average over several inputs drawn from its seed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import inputs

BOOT_B = 200
SIM_B = 100
SIM_STRATA = 80
PANEL_DISTS = "po,ztpo,nb2,ztnb2"
PANEL_ALPHA_COVS = "intercept;intercept,country:C0,sex:M"
# replicates and panel-40k draw their panels from pools of seeded panels
# (panel j is inputs.panel_csv(j, *shape)) whose fitted values were recorded
# once by reference.py; the run seed picks which pool members a run uses.
BOOT_CANDIDATES = 40
BOOT_SHAPE = (1, 20, 3)  # periods, countries, age groups (x 2 sexes)
PANEL_POOL = 24
PANEL_SHAPE = (20, 100, 10)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
LOGLIK_RTOL = 1e-8
FITTED_RTOL = 1e-4


@functools.cache
def reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def boot_pool() -> list:
    """Candidate boot panels whose initial ztnb2 fit converged when recorded.

    At the recording commit the fit stalls on a few candidates (gradient just
    above mle's 1e-4 stall tolerance) and ``popest boot`` then exits 1; those
    panels are left out so that no operation fails. The same stall shows in
    the bootstrap refits, counted by ``mle.status.stalled``.
    """
    return sorted(int(j) for j, r in reference()["boot-panel"].items() if r["status"] == "converged")


@dataclass
class Op:
    key: str  # ops with the same key read the same input and must agree byte for byte
    argvs: list  # one argv list per CLI invocation
    outputs: list  # files the operation writes, in check order
    fits: int  # Newton fits the operation attempts
    pool: int | None = None  # pool member the input is, for the reference lookup
    threads: list | None = None  # POPEST_THREADS of each invocation; 1 if not given

    def thread_counts(self) -> list:
        return self.threads or [1] * len(self.argvs)


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(b), 1e-300)


def _derived_seed(seed: int, i: int) -> int:
    return int(np.random.default_rng([seed, i]).integers(1, 2**31 - 1))


def boot_argv(work: str, i: int, j: int, boot_seed: int | None) -> tuple[str, list, str]:
    """Write candidate panel j as input i: its sha256, the boot (or, without a
    seed, fit) argv, and the report path."""
    path = os.path.join(work, f"panel{i}.csv")
    out = os.path.join(work, f"boot{i}.json")
    digest = inputs.write(path, inputs.panel_csv(j, *BOOT_SHAPE))
    data = ["--data", path, "--schema", inputs.SCHEMA, "--dist", "ztnb2",
            "--audit", os.path.join(work, f"audit{i}.json"), "--output", out]
    if boot_seed is None:
        return digest, ["fit", *data, "--allow-nonconverged"], out
    return digest, ["boot", *data, "-B", str(BOOT_B), "--seed", str(boot_seed)], out


def check_boot(path: str, pool: int) -> int:
    """Validate a boot report; returns the number of converged fits."""
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    want = reference()["boot-panel"][str(pool)]["xi_hat"]
    _require(_close(rep["xi_hat"], want, FITTED_RTOL), f"xi_hat {rep['xi_hat']} != reference {want}")
    _require(rep["B"] == BOOT_B, f"B is {rep['B']}")
    failures = rep["failures"]
    _require(isinstance(failures, int) and 0 <= failures <= BOOT_B, f"failures {failures}")
    _require(rep["unreliable"] == (failures > 0.2 * BOOT_B), "unreliable flag disagrees with failures")
    _require(isinstance(rep["phi_redraw_count"], int) and rep["phi_redraw_count"] >= 0, "phi redraws")
    lo, hi = rep["intervals"]["plugin"]
    _require(lo <= rep["xi_hat"] <= hi, f"plug-in interval {lo, hi} misses xi_hat {rep['xi_hat']}")
    successes = BOOT_B - failures
    used = successes or BOOT_B  # with no successful refit, intervals use every xi* draw
    _require(("percentile" in rep["intervals"]) == (used >= 2), "percentile interval presence")
    _require(("spin" in rep["intervals"]) == (used >= 10), "spin interval presence")
    _require(math.isfinite(rep["mse"]) and rep["mse"] >= 0, f"mse {rep['mse']}")
    return 1 + successes  # the initial fit converged, or boot exits 1


SIM_VARIANTS = ("zhang-approx", "exact-gamma", "nb2-closed", "zt-nb2")


def read_simulation_csv(path: str) -> dict:
    """variant -> {"failures": int, parameter: (rb, rrmse)}."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == 4 * len(SIM_VARIANTS), f"{len(rows)} rows, expected 16")
    table: dict = {}
    for r in rows:
        rb, rrmse = float(r["rb_percent"]), float(r["rrmse_percent"])
        _require(math.isfinite(rb) and math.isfinite(rrmse), f"non-finite row {r}")
        cell = table.setdefault(r["variant"], {"failures": int(r["failures"])})
        _require(cell["failures"] == int(r["failures"]), f"failures differ within {r['variant']}")
        cell[r["parameter"]] = (rb, rrmse)
    _require(sorted(table) == sorted(SIM_VARIANTS), f"variants {sorted(table)}")
    return table


def check_simulation(path: str) -> int:
    """Validate a simulate table; returns the number of converged fits."""
    table = read_simulation_csv(path)
    for variant, cell in table.items():
        _require(0 <= cell["failures"] <= SIM_B, f"{variant} failures {cell['failures']}")
    zt, closed = abs(table["zt-nb2"]["alpha"][0]), abs(table["nb2-closed"]["alpha"][0])
    _require(zt < closed, f"|rb alpha| zt-nb2 {zt} not below nb2-closed {closed}")
    return len(SIM_VARIANTS) * SIM_B - sum(c["failures"] for c in table.values())


class Replicates:
    """``popest boot`` on a 120-stratum panel, then ``popest simulate``."""

    name = "replicates"
    inputs_per_run = 5
    min_ops = inputs_per_run + 1  # one repeat, for the determinism check

    def make_ops(self, seed: int, work: str) -> tuple[list, dict]:
        ops, hashes = [], {}
        pool = np.random.default_rng([seed, 120]).choice(boot_pool(), self.inputs_per_run, replace=False)
        for i, j in enumerate(pool):
            digest, boot, boot_out = boot_argv(work, i, int(j), _derived_seed(seed, 100 + i))
            hashes[f"panel{i}.csv (pool {j})"] = digest
            sim_seed = _derived_seed(seed, i)
            sim_out = os.path.join(work, f"sim{i}.csv")
            simulate = [
                "simulate", "--alpha", str(inputs.ALPHA), "--beta", str(inputs.BETA),
                "--phi", str(inputs.PHI), "-B", str(SIM_B), "--strata", str(SIM_STRATA),
                "--seed", str(sim_seed), "--output", sim_out,
            ]
            hashes[f"simulate-seed{i}"] = str(sim_seed)
            ops.append(Op(f"rep{i}", [boot, simulate], [boot_out, sim_out],
                          1 + BOOT_B + len(SIM_VARIANTS) * SIM_B, int(j), threads=[1, 2]))
        return ops, hashes

    def check(self, op: Op) -> int:
        return check_boot(op.outputs[0], op.pool) + check_simulation(op.outputs[1])


def read_compare_csv(path: str) -> dict:
    """(dist, alpha_covariates) -> {"loglik", "xi_hat", "status"}."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {
        (r["dist"], r["alpha_covariates"]): {
            "loglik": float(r["loglik"]),
            "xi_hat": float(r["xi_hat"]),
            "status": r["status"],
        }
        for r in rows
    }


def read_diagnose(report_path: str, residual_csv: str) -> dict:
    """Summaries of the diagnose fit that a correct fit reproduces."""
    with open(report_path, encoding="utf-8") as fh:
        rep = json.load(fh)
    mu = np.array([r["mu_hat"] for r in rep["residuals"]])
    res = np.array([r["residual"] for r in rep["residuals"]])
    with open(residual_csv, encoding="utf-8") as fh:
        csv_rows = sum(1 for _ in fh) - 1
    lin = rep["linearized"]
    return {
        "records": len(rep["residuals"]),
        "csv_rows": csv_rows,
        "mu_hat_sum": float(mu.sum()),
        "residual_ss": float(res @ res),
        "coef_logN": lin["coef_logN"],
        "coef_logratio": lin["coef_logratio"],
    }


def panel40k_ops(work: str, pool_indices) -> tuple[list, dict]:
    ops, hashes = [], {}
    for i, j in enumerate(pool_indices):
        path = os.path.join(work, f"panel{i}.csv")
        hashes[f"panel{i}.csv (pool {j})"] = inputs.write(path, inputs.panel_csv(int(j), *PANEL_SHAPE))
        cmp_out = os.path.join(work, f"compare{i}.csv")
        diag_out = os.path.join(work, f"diagnose{i}.json")
        resid = os.path.join(work, f"residuals{i}.csv")
        data = ["--data", path, "--schema", inputs.SCHEMA]
        compare = ["compare", *data, "--dists", PANEL_DISTS, "--alpha-covs", PANEL_ALPHA_COVS,
                   "--audit", os.path.join(work, f"audit{i}.json"), "--output", cmp_out]
        diagnose = ["diagnose", *data, "--dist", "ztnb2", "--csv", resid,
                    "--audit", os.path.join(work, f"audit{i}.json"), "--output", diag_out]
        ops.append(Op(f"panel{i}", [compare, diagnose], [cmp_out, diag_out, resid], 9, int(j)))
    return ops, hashes


class Panel40k:
    name = "panel-40k"
    inputs_per_run = 5  # about as many operations as a run makes, so each is on its own panel
    min_ops = 3

    def make_ops(self, seed: int, work: str) -> tuple[list, dict]:
        pool = np.random.default_rng([seed, 40_000]).choice(PANEL_POOL, self.inputs_per_run, replace=False)
        return panel40k_ops(work, pool)

    def check(self, op: Op) -> int:
        ref = reference()["panel-40k"][str(op.pool)]
        rows = read_compare_csv(op.outputs[0])
        _require(len(rows) == 8, f"{len(rows)} compare rows, expected 8")
        for key, want in ref["compare"].items():
            got = rows.get(tuple(key.split("|")))
            _require(got is not None, f"compare row {key} missing")
            _require(_close(got["loglik"], want["loglik"], LOGLIK_RTOL),
                     f"{key} loglik {got['loglik']} != reference {want['loglik']}")
            _require(_close(got["xi_hat"], want["xi_hat"], FITTED_RTOL),
                     f"{key} xi_hat {got['xi_hat']} != reference {want['xi_hat']}")
        diag = read_diagnose(op.outputs[1], op.outputs[2])
        want = ref["diagnose"]
        _require(diag["records"] == want["records"] == diag["csv_rows"], "diagnose record count")
        for name in ("mu_hat_sum", "residual_ss", "coef_logN", "coef_logratio"):
            _require(_close(diag[name], want[name], FITTED_RTOL),
                     f"diagnose {name} {diag[name]} != reference {want[name]}")
        # diagnose does not print its fit's status; it repeats the compare
        # ztnb2/intercept fit exactly, so that row's status stands for it.
        statuses = [r["status"] for r in rows.values()] + [rows[("ztnb2", "intercept")]["status"]]
        return sum(s == "converged" for s in statuses)


WORKLOADS = {w.name: w for w in (Replicates(), Panel40k())}
