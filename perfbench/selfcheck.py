"""Checks that keep the benchmark honest.  They are not timed.

    python3 perfbench/selfcheck.py negative-control [--seed N]
    python3 perfbench/selfcheck.py trace-determinism --workload NAME [--seed N]

``negative-control`` corrupts one reference datum for each heavy entry of
the genus-3 suite, in child processes, and runs that suite in exact and in
pit mode.  Exactly the entries listed in CORRUPTED must fail in both modes,
so a change that speeds a check up by no longer checking is caught.

``trace-determinism`` makes two traced runs of a workload with one seed and
requires every count of the trace (calls, term counts, bytes, entries, the
catalog hit ratio) to repeat exactly.  It prints the tracing overhead of
both runs beside them.

Each exits 0 when the check holds and 1 when it does not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from run import BENCH, ROOT, WORKLOADS, child_env, counted

CORRUPTED = [
    "g3.fields.detTcal_factor",
    "g3.fields.table.L3_L4",
    "g3.params.detT_eq_cR",
    "g3.params.tangency",
]


def corrupted_failures(mode: str, seed: int) -> list[str]:
    """Failing entry ids of the genus-3 suite run on corrupted reference data."""
    sys.path.insert(0, str(ROOT / "src"))
    from hyperlie import reference
    from hyperlie.suite import PitConfig, run_suite

    reference.DET_TCAL_FACTOR[3] = -63  # displayed: -64
    reference.DETT_R_CONSTANT[3] = Fraction(-65, 7)  # displayed: -64/7
    reference.TANGENCY_MULTIPLIERS[3][2] = "41*l4"  # displayed: 40*l4
    row = next(r for r in reference.BRACKET_TABLE[3] if r[:2] == ("L3", "L4"))
    row[2]["L3"] = "y4 - 2*l4"  # displayed: y4 - l4
    report = run_suite(3, mode=mode, pit=PitConfig(seed=seed))
    return sorted(e.id for e in report.failures())


def negative_control(seed: int) -> bool:
    def child(mode):
        out = subprocess.run(
            [sys.executable, __file__, "child", mode, "--seed", str(seed)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout)

    with ThreadPoolExecutor(2) as pool:
        failing = dict(zip(("exact", "pit"), pool.map(child, ("exact", "pit"))))
    ok = True
    for mode, ids in failing.items():
        good = ids == CORRUPTED
        ok &= good
        print(f"{mode}: {'ok' if good else 'WRONG'}: failing {ids}")
    return ok


def trace_determinism(workload: str, seed: int) -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    ok = all(r["correct"] for r in runs)
    for name in counted(spec):
        a, b = (r["metrics"][name]["value"] for r in runs)
        ok &= a == b
        print(f"{'same' if a == b else 'DIFFERENT':9s} {name} {a} {b}")
    ratios = [r["metrics"]["trace.overhead_ratio"]["value"] for r in runs]
    print(f"trace.overhead_ratio {ratios[0]:.4f} {ratios[1]:.4f}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("check", choices=["negative-control", "trace-determinism", "child"])
    parser.add_argument("mode", nargs="?", choices=["exact", "pit"])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.check == "child":
        print(json.dumps(corrupted_failures(args.mode, args.seed)))
        return 0
    if args.check == "negative-control":
        return 0 if negative_control(args.seed) else 1
    if args.workload is None:
        parser.error("trace-determinism needs --workload")
    return 0 if trace_determinism(args.workload, args.seed) else 1


if __name__ == "__main__":
    sys.exit(main())
