"""Benchmark of the popest command line.

    python3 bench/run.py --workload replicates --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

Run from the root of a popest checkout; the program is imported from its
``src/``. ``--trace 0`` times real ``popest`` subprocesses and reports the
end-to-end metrics; ``--trace 1`` runs one untraced CLI operation, then the
same operation in process with every layer boundary wrapped in spans, and
reports the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Everything the run
writes stays under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from workloads import WORKLOADS, CheckError, Op  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "refits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "op_success_share": "share",
}
MODULES = ("cli", "dataio", "distributions", "meanmodel", "mle", "uncertainty",
           "diagnostics", "simulation")
IMPORTTIME_PROBES = 3
CHILD = os.path.join(HERE, "cli_child.py")
WORKER = os.path.join(HERE, "trace_worker.py")


def child_env(root: str) -> dict:
    """Only the threads an operation names: BLAS pools pinned to one thread.
    ``POPEST_THREADS`` is set per invocation (``Op.threads``)."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        POPEST_THREADS="1",
    )
    return env


def spawn(argv: list, env: dict, cwd: str, stderr_path: str) -> dict:
    """Run one child to completion; spawn-to-exit wall time and its rusage."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,  # Linux reports KiB
    }


def stderr_tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-500:]


class Runner:
    def __init__(self, root: str, work: str, workload, env: dict):
        self.root, self.work, self.workload, self.env = root, work, workload, env
        self.digests: dict = {}
        self.errors: list = []

    def warm_up(self) -> None:
        """Import popest.cli once, untimed, so the bytecode cache is filled."""
        err = os.path.join(self.work, "warmup.err")
        if spawn([sys.executable, "-c", "import popest.cli"], self.env, self.root, err)["rc"] != 0:
            raise RuntimeError("import popest.cli failed: " + stderr_tail(err))

    def run_op(self, op: Op) -> dict:
        """All CLI invocations of one operation, then its output checks."""
        res = {"key": op.key, "fits": op.fits, "wall_s": 0.0, "post_setup_s": 0.0,
               "setup_s": [], "cpu_s": 0.0, "rss_mb": 0.0, "ok": False, "converged": 0}
        timing = os.path.join(self.work, "timing.json")
        err = os.path.join(self.work, "op.err")
        for argv, threads in zip(op.argvs, op.thread_counts()):
            if os.path.exists(timing):
                os.remove(timing)
            env = dict(self.env, POPEST_THREADS=str(threads))
            r = spawn([sys.executable, CHILD, timing, *argv], env, self.root, err)
            res["wall_s"] += r["wall_s"]
            res["cpu_s"] += r["cpu_s"]
            res["rss_mb"] = max(res["rss_mb"], r["rss_mb"])
            if r["rc"] != 0:
                self.errors.append(f"{op.key}: popest {argv[0]} exited {r['rc']}: {stderr_tail(err)}")
                return res
            with open(timing, encoding="utf-8") as fh:
                run_s = json.load(fh)["run_s"]
            res["post_setup_s"] += run_s
            res["setup_s"].append(r["wall_s"] - run_s)
        res["ok"], res["converged"] = self.check(op)
        return res

    def check(self, op: Op) -> tuple[bool, int]:
        try:
            converged = self.workload.check(op)
            digest = inputs.digest(op.outputs)
        except (CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.errors.append(f"{op.key}: output check failed: {type(exc).__name__}: {exc}")
            return False, 0
        first = self.digests.setdefault(op.key, digest)
        if digest != first:
            self.errors.append(f"{op.key}: output differs from an earlier run on the same input")
            return False, converged
        return True, converged


def run_end_to_end(runner: Runner, ops: list, seconds: float, record: dict) -> tuple:
    """Operations back to back, one at a time, until ``seconds`` are spent.

    Set-up is each invocation's spawn-to-exit time minus the time its command
    ran (interpreter start, ``import popest.cli``, exit), so every timed second
    goes to real invocations. Throughput is total fits over total command time.
    """
    w = runner.workload
    runner.warm_up()
    start = time.perf_counter()
    done: list = []
    while True:
        t0 = time.perf_counter()
        done.append(runner.run_op(ops[len(done) % len(ops)]))
        cycle = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(done) >= w.min_ops and elapsed + cycle > seconds:
            break
    attempted = sum(d["fits"] for d in done)
    converged = sum(d["converged"] for d in done)
    setups = [x for d in done for x in d["setup_s"]]
    record.update(
        operations=done,
        measured_s=time.perf_counter() - start,
        refit_failure_share=(attempted - converged) / attempted,
    )
    ok = [d for d in done if d["ok"]]
    post = sum(d["post_setup_s"] for d in done)
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(d["wall_s"] for d in done),
        "refits_per_s": sum(d["fits"] for d in done if d["post_setup_s"] > 0) / post if post else 0.0,
        "peak_rss_mb": statistics.median(d["rss_mb"] for d in done),
        "op_success_share": len(ok) / len(done),
    }, len(done), len(done) - len(ok)


def importtime(runner: Runner) -> tuple[dict, list]:
    """Cumulative import seconds of each popest module, median of fresh runs."""
    samples: dict = {}
    err = os.path.join(runner.work, "importtime.err")
    for _ in range(IMPORTTIME_PROBES):
        res = spawn([sys.executable, "-X", "importtime", "-c", "import popest.cli"],
                    runner.env, runner.root, err)
        if res["rc"] != 0:
            raise RuntimeError("import popest.cli failed: " + stderr_tail(err))
        with open(err, encoding="utf-8") as fh:
            for line in fh:
                if not line.startswith("import time:") or "|" not in line:
                    continue
                _, cumulative, name = (p.strip() for p in line[len("import time:"):].split("|"))
                if cumulative.isdigit() and (name == "popest" or name.startswith("popest.")):
                    samples.setdefault(name, []).append(int(cumulative) / 1e6)
    out, missing = {}, []
    for m in ("", *MODULES):
        module = f"popest.{m}".rstrip(".")
        if module in samples:
            out[f"{m or 'popest'}.import_s"] = statistics.median(samples[module])
        else:
            missing.append(module)
    return out, missing


def run_traced(runner: Runner, ops: list, seconds: float, record: dict) -> tuple:
    """One untraced CLI operation, then the worker's in-process runs of it."""
    start = time.perf_counter()
    runner.warm_up()
    op = ops[0]
    cli = runner.run_op(op)
    metrics, missing_modules = importtime(runner)
    metrics["cli.cpu_util"] = cli["cpu_s"] / cli["wall_s"]
    spec = os.path.join(runner.work, "trace_spec.json")
    result_path = os.path.join(runner.work, "trace_result.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({
            "argvs": op.argvs,
            "threads": op.thread_counts(),
            "outputs": op.outputs,
            "seconds": max(seconds - (time.perf_counter() - start), 0.0),
            "spans_path": os.path.join(runner.work, "spans.json"),
        }, fh)
    err = os.path.join(runner.work, "worker.err")
    res = spawn([sys.executable, WORKER, spec, result_path], runner.env, runner.root, err)
    if res["rc"] != 0:
        runner.errors.append(f"trace worker exited {res['rc']}: {stderr_tail(err)}")
        return metrics, 1, 1 - int(cli["ok"])
    with open(result_path, encoding="utf-8") as fh:
        worker = json.load(fh)
    runner.errors.extend(worker["errors"])
    failed = int(not cli["ok"]) + worker["failed"]
    for d in worker["digests"]:
        if d != runner.digests.get(op.key):
            runner.errors.append("in-process output differs from the CLI output")
            failed += 1
    traced = worker["traced"]
    for name in traced[0]:
        metrics[name] = statistics.median(t[name] for t in traced)
    metrics["trace.untraced_s"] = statistics.median(worker["untraced_s"])
    metrics["trace.traced_s"] = statistics.median(worker["traced_s"])
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    # Self-consistency: the traced run must see the fits the CLI output implies.
    fits = metrics.get("mle.fits")
    if fits != op.fits:
        runner.errors.append(f"traced run made {fits} fits; the CLI output implies {op.fits}")
        failed += 1
    elif round(fits * metrics["mle.refit_failure_share"]) != op.fits - cli["converged"]:
        runner.errors.append(
            f"traced refit failure share {metrics['mle.refit_failure_share']} differs from "
            f"the CLI's {(op.fits - cli['converged']) / op.fits}")
        failed += 1
    record.update(cli_operation=cli, missing=worker["missing"] + missing_modules,
                  measured_s=time.perf_counter() - start)
    return metrics, 1 + worker["attempted"], failed


def environment(root: str) -> dict:
    git = {"cwd": root, "capture_output": True, "text": True,
           "env": dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], **git).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src.update(name.encode() + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "note": "shared machine; other tenants' load shows in loadavg",
    }


def run_one(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "popest", "cli.py")):
        print("error: run from the root of a popest checkout (src/popest/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_work", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(root),
              "loadavg_before": os.getloadavg()}
    ops, record["inputs"] = workload.make_ops(args.seed, work)
    record["threads"] = ops[0].thread_counts()
    runner = Runner(root, work, workload, child_env(root))
    if args.trace:
        metrics, attempted, failed = run_traced(runner, ops, args.seconds, record)
        units = {}
    else:
        metrics, attempted, failed = run_end_to_end(runner, ops, args.seconds, record)
        units = END_TO_END
    record["loadavg_after"] = os.getloadavg()
    record["errors"] = runner.errors
    for op in ops:  # inputs and outputs are large and reproducible from the seed
        for path in op.outputs + [a for argv in op.argvs for a in argv if a.startswith(work)]:
            if os.path.exists(path):
                os.remove(path)
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units.get(name, '')}".rstrip())
    for e in runner.errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": failed == 0 and not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, unit_of(k))} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    parts = name.split(".")
    if any(p.endswith("_s") for p in parts):
        return "s"
    if any(p.startswith("term_ns_per") for p in parts):
        return "ns"
    if any(p.endswith(("_us_per_row", "_us_per_record")) for p in parts):
        return "us"
    if parts[-1].endswith(("_share", "_ratio", "_util")):
        return "share"
    if parts[-1] == "probes_per_iter":
        return "1/iter"
    return "count"


def run_all(args) -> int:
    """Every workload, untraced then traced; every metric by name and unit."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return out.returncode
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print(f"# {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"{name:17s} {metric:42s} {v['value']:14.6g} {v['unit']}")
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
