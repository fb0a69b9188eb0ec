"""Record the fitted values that the output checks compare with.

    python3 bench/reference.py [boot-panel|panel-40k ...]

Run from the root of a popest checkout, at the commit whose fits are taken as
correct. For every pooled panel it runs the CLI and writes the fitted values
to ``bench/reference.json`` (only the named workloads' sections, if any are
named). These fits draw no random numbers, so the values do not depend on
the sampler.

- boot-panel: ``popest fit --dist ztnb2`` on each of the BOOT_CANDIDATES
  panels: status, loglik and xi_hat. Candidates whose fit does not converge
  stay out of the pool (see ``workloads.boot_pool``).
- panel-40k: ``compare`` and ``diagnose`` on each of the PANEL_POOL panels.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import child_env  # noqa: E402
from workloads import (  # noqa: E402
    BOOT_CANDIDATES, PANEL_POOL, REFERENCE_PATH, boot_argv, panel40k_ops,
    read_compare_csv, read_diagnose,
)


def popest(argv: list, env: dict, root: str) -> None:
    subprocess.run([sys.executable, "-m", "popest.cli", *argv], env=env, cwd=root,
                   check=True, stdout=subprocess.DEVNULL)


def boot_panel(work: str, env: dict, root: str) -> dict:
    out = {}
    for j in range(BOOT_CANDIDATES):
        _, argv, report = boot_argv(work, 0, j, None)
        popest(argv, env, root)
        with open(report, encoding="utf-8") as fh:
            fit = json.load(fh)
        out[str(j)] = {"status": fit["convergence"]["status"], "loglik": fit["loglik"],
                       "xi_hat": fit["xi_hat"]}
        print("boot-panel", j, out[str(j)]["status"], flush=True)
    return out


def panel_40k(work: str, env: dict, root: str) -> dict:
    out = {}
    ops, _ = panel40k_ops(work, range(PANEL_POOL))
    for op in ops:
        for argv in op.argvs:
            popest(argv, env, root)
        rows = read_compare_csv(op.outputs[0])
        out[str(op.pool)] = {
            "compare": {f"{d}|{c}": v for (d, c), v in sorted(rows.items())},
            "diagnose": read_diagnose(op.outputs[1], op.outputs[2]),
        }
        print("panel-40k", op.pool, sorted(r["status"] for r in rows.values()), flush=True)
    return out


def main() -> int:
    sections = {"boot-panel": boot_panel, "panel-40k": panel_40k}
    names = sys.argv[1:] or list(sections)
    root = os.getcwd()
    env = child_env(root)
    reference = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    with tempfile.TemporaryDirectory(dir=root) as work:
        for name in names:
            reference[name] = sections[name](work, env, root)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
