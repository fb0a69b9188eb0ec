"""Command-line front end: prepare data, fit models, bootstrap, diagnose,
run the likelihood-variant simulation.

Exit codes: 0 success, 1 model/numerical failure, 2 usage, schema or file
error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import ExitStack
from itertools import chain, zip_longest

from . import dataio, diagnostics, mle, simulation, uncertainty
from .distributions import _FAMILY_TOKENS, CountFamily, ParameterError, SupportError
from .meanmodel import DesignError, DesignSpec, ModelSpec

DIST_CHOICES = tuple(_FAMILY_TOKENS)


class UsageError(ValueError):
    pass


def _parse_schema(text: str) -> dict:
    schema: dict = {"domain": []}
    for part in text.split(","):
        if "=" not in part:
            raise UsageError(f"bad schema entry {part!r}; expected key=column")
        key, value = part.split("=", 1)
        key = key.strip()
        if key == "domain":
            schema["domain"] = [c.strip() for c in value.split("+") if c.strip()]
        elif key in ("period", "country", "m", "n", "N"):
            schema[key] = value.strip()
        else:
            raise UsageError(f"unknown schema key {key!r}")
    missing = [k for k in ("period", "country", "m", "n", "N") if k not in schema]
    if missing:
        raise UsageError(f"schema is missing: {', '.join(missing)}")
    return schema


def _parse_pad(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad --pad value {text!r}; expected period:country:dom1,dom2")
    period, country, domain = (p.strip() for p in parts)
    return (period, country, tuple(d.strip() for d in domain.split(",") if d.strip()))


def _load_dataset(args) -> dataio.Dataset:
    schema = _parse_schema(args.schema)
    data = dataio.parse_csv(args.data, schema)
    for pad in args.pad or []:
        data = dataio.pad_empty_domain(data, _parse_pad(pad))
    data, audit = dataio.apply_model_conditions(data)
    if args.audit:
        _write([audit.to_json(), "\n"], args.audit)
    elif not audit.empty:
        print(audit.to_json(), file=sys.stderr)
    return data


def _model_spec(dist: str, alpha_cov: str | None, beta_cov: str | None) -> ModelSpec:
    family = CountFamily.from_token(dist)
    alpha = (alpha_cov or "intercept").split(",")
    beta = (beta_cov or "intercept").split(",")
    return ModelSpec(family=family, design=DesignSpec.from_tokens(alpha, beta))


def _load_and_fit(args) -> mle.FittedModel:
    data = _load_dataset(args)
    return mle.fit(data, _model_spec(args.dist, args.alpha_cov, args.beta_cov))


@dataio.collector_paused()
def _write(pieces, path: str | None, *more: tuple) -> None:
    """Write a report's pieces of text, which end in a newline, to ``path`` or
    stdout as they are formatted; the report exists before the file is opened.
    Each ``(pieces, path)`` of ``more`` is written with it, a piece of each in
    turn, so reports formatted from one pass (``DiagnosticsReport.pieces``)
    are written together; every file is opened before the first byte is
    written. The cyclic collector is paused meanwhile: formatting makes lists,
    tuples and str that hold no cycle."""
    outputs = [(pieces, path), *more]
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="utf-8", newline="")) if p
                 else sys.stdout for _, p in outputs]
        for parts in zip_longest(*(pieces for pieces, _ in outputs), fillvalue=""):
            for fh, part in zip(files, parts):
                fh.write(part)


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument(
        "--schema",
        required=True,
        help="column mapping: period=<col>,country=<col>,domain=<c1+c2>,m=<col>,n=<col>,N=<col>",
    )
    p.add_argument(
        "--pad",
        action="append",
        help="pad an empty domain: period:country:dom1,dom2 (sets m=0 to 1)",
    )
    p.add_argument("--audit", help="write the condition-filter audit JSON here")
    p.add_argument("--output", help="write the primary report here")


def _add_model_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", required=True, choices=DIST_CHOICES)
    p.add_argument("--alpha-cov", help="comma list, e.g. intercept,country:Ukraine")
    p.add_argument("--beta-cov", help="comma list, defaults to intercept")


def cmd_fit(args) -> int:
    fitted = _load_and_fit(args)
    _write([dataio.dumps(fitted.to_dict()), "\n"], args.output)
    if not fitted.convergence.converged and not args.allow_nonconverged:
        print("fit did not converge", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    data = _load_dataset(args)
    dists = [d.strip() for d in args.dists.split(",") if d.strip()]
    for d in dists:
        if d not in DIST_CHOICES:
            raise UsageError(f"unknown distribution token {d!r}")
    cov_sets = [s.strip() for s in args.alpha_covs.split(";")] if args.alpha_covs else ["intercept"]
    rows = []  # one (dist, label, loglik, aic, bic, xi_hat, status) per grid cell
    for dist in dists:
        for cov in cov_sets:
            spec = _model_spec(dist, cov, args.beta_cov)
            label = ",".join(t.label() for t in spec.design.alpha_covariates)
            try:
                fitted = mle.fit(data, spec)
                numbers = (fitted.loglik, fitted.aic, fitted.bic, fitted.xi_hat)
                status = fitted.convergence.status
            except mle.FIT_ERRORS as exc:
                numbers = (float("nan"), float("inf"), float("inf"), float("nan"))
                status = f"failed: {exc}"
            rows.append((dist, label, *numbers, status))
    rows.sort(key=lambda r: r[4])  # by bic
    header = ["dist", "alpha_covariates", "loglik", "aic", "bic", "xi_hat", "status"]
    rows = [(dist, label, *(f"{v:.4f}" for v in numbers), status)
            for dist, label, *numbers, status in rows]
    _write(dataio.csv_lines(header, rows), args.output)
    return 0


def cmd_boot(args) -> int:
    if args.B < 1:
        raise UsageError("-B must be a positive integer")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    if not 0.0 < args.quantile_level < 1.0:
        raise UsageError("--quantile-level must lie strictly between 0 and 1")
    fitted = _load_and_fit(args)
    if not fitted.convergence.converged:
        print("fit did not converge; bootstrap aborted", file=sys.stderr)
        return 1
    result = uncertainty.parametric_bootstrap(
        fitted, B=args.B, seed=args.seed, level=args.quantile_level
    )
    report = result.to_dict() | {"xi_hat": fitted.xi_hat}
    if args.draws_path:
        _write(dataio.csv_lines(["xi_star", "xi_hat_star"], result.draws), args.draws_path)
        report["draws_path"] = args.draws_path
    _write([dataio.dumps(report), "\n"], args.output)
    return 0


def cmd_diagnose(args) -> int:
    if args.top_k < 0:
        raise UsageError("--top-k must be nonnegative")
    if args.csv and args.output and os.path.realpath(args.csv) == os.path.realpath(args.output):
        raise UsageError("--csv and --output name the same file")  # both are written at once
    fitted = _load_and_fit(args)
    report = diagnostics.diagnostics_report(fitted, k=args.top_k)
    if args.csv:
        json_text, csv_text = report.pieces()
        _write(chain(json_text, ["\n"]), args.output, (csv_text, args.csv))
    else:
        _write(chain(report.json_pieces(), ["\n"]), args.output)
    return 0


def cmd_simulate(args) -> int:
    if args.B < 2:
        raise UsageError("-B must be at least 2")
    if args.strata < 1:
        raise UsageError("--strata must be positive")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    variants = tuple(v.strip() for v in args.variants.split(",")) if args.variants else tuple(
        simulation.VARIANT_KINDS
    )
    population = tuple(simulation.synthetic_population(args.strata, args.seed))
    try:
        design = simulation.SimDesign(
            alpha_true=args.alpha,
            beta_true=args.beta,
            phi_true=args.phi,
            B=args.B,
            seed=args.seed,
            population=population,
            variants=variants,
        )
    except ValueError as exc:  # an unknown --variants name, or --strata below 3
        raise UsageError(str(exc)) from None
    report = simulation.run_simulation(design)
    _write([report.to_csv()], args.output)
    for variant, lost in report.failures.items():
        if uncertainty.too_many_failures(lost, args.B):
            print(f"warning: {variant}: {lost} of {args.B} replicates failed, more than 20%",
                  file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popest",
        description="Estimate an unobserved population from aggregated administrative counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one model and emit a JSON report")
    _add_data_options(p)
    _add_model_options(p)
    p.add_argument("--allow-nonconverged", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="fit a model grid and emit a CSV")
    _add_data_options(p)
    p.add_argument("--dists", default="po,ztpo,nb2,ztnb2")
    p.add_argument("--alpha-covs", help="semicolon-separated covariate sets")
    p.add_argument("--beta-cov")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("boot", help="fit then parametric bootstrap")
    _add_data_options(p)
    _add_model_options(p)
    p.add_argument("-B", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quantile-level", type=float, default=0.95)
    p.add_argument("--draws-path", help="optional CSV of (xi*, xi_hat*) draws")
    p.set_defaults(func=cmd_boot)

    p = sub.add_parser("diagnose", help="residuals and linearized checks")
    _add_data_options(p)
    _add_model_options(p)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--csv", help="optional per-record residual CSV")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("simulate", help="likelihood-variant bias study")
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--beta", type=float, default=0.8)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("-B", type=int, default=500)
    p.add_argument("--strata", type=int, default=80)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--variants", help="comma list from: " + ",".join(simulation.VARIANT_KINDS))
    p.add_argument("--output")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # File errors too; UnicodeDecodeError is a ValueError, so it precedes FIT_ERRORS.
    except (UsageError, dataio.SchemaError, dataio.ParseError, dataio.DuplicateKeyError,
            dataio.PaddingError, DesignError, ParameterError, SupportError,
            OSError, csv.Error, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except mle.FIT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
