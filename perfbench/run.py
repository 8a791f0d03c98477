"""End-to-end benchmark of the ``hyperlie`` command line.

    python3 perfbench/run.py --workload verify-exact-all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A workload is a list of CLI commands.  Each command runs in a fresh
interpreter, one after another (a closed loop with one client), with the
default worker count and ``HYPERLIE_WORKERS`` unset.  Whole passes over the
list repeat while one more still fits in ``--seconds`` (at least one runs);
times are medians over passes.  Every output is checked, after its pass,
against data frozen in ``expected.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs each command under ``tracer.py`` and reports the per-layer metrics,
while an untraced copy of the pass runs beside it to give the tracing
overhead.  The last line of standard output is the JSON result; a record
with the host, the load average and every raw sample goes to
``perfbench/out/``.  ``--workload all`` runs every workload once, untraced,
and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 12

EXPORTS = [
    (what, genus, fmt)
    for what in ("fields", "map", "brackets", "matrices")
    for genus in (1, 2, 3)
    for fmt in ("json", "latex")
]

# Each workload maps a seed to its list of CLI argument vectors.  Only pit
# mode draws random numbers, so only verify-pit-all uses the seed.
WORKLOADS = {
    "verify-exact-all": lambda seed: [
        ["verify", "--genus", "all", "--mode", "exact", "--report", "json"]
    ],
    "verify-pit-all": lambda seed: [
        ["verify", "--genus", "all", "--mode", "pit", "--seed", str(seed),
         "--samples", "3", "--report", "json"]
    ],
    "export-all": lambda seed: [
        ["export", "--what", what, "--genus", str(genus), "--format", fmt]
        for what, genus, fmt in EXPORTS
    ],
}


def export_key(what, genus, fmt) -> str:
    return f"{what}-{genus}-{fmt}"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HYPERLIE_WORKERS"}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv, stdout_path: Path, env) -> dict:
    """Run one process to completion; its wall time and resource usage."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=env, cwd=ROOT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024,
        "rc": proc.returncode,
    }


def setup_time(env) -> float:
    """Seconds from spawning an interpreter until ``hyperlie.cli`` is imported.

    CLOCK_MONOTONIC is system-wide, so the child's reading is comparable.
    """
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import hyperlie.cli, time; print(time.monotonic())"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(out.stdout) - t0


class Gate:
    """Checks each command's output against the answers frozen in expected.json."""

    def __init__(self):
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        import jsonschema
        from hyperlie.report import schema_text

        self.validate = jsonschema.Draft7Validator(json.loads(schema_text())).validate
        self.invalid = (ValueError, jsonschema.ValidationError)
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.failures: list[str] = []

    def check(self, args, rc: int, output: bytes):
        problem = self._problem(args, rc, output)
        if problem:
            self.failures.append(f"{' '.join(args)}: {problem}")

    def _problem(self, args, rc, output):
        if rc != 0:
            return f"exit code {rc}"
        opts = dict(zip(args[1::2], args[2::2]))
        if args[0] == "export":
            key = export_key(opts["--what"], opts["--genus"], opts["--format"])
            digest = hashlib.sha256(output).hexdigest()
            if digest != self.expected["export_sha256"][key]:
                return f"output sha256 {digest} differs from the frozen digest"
            return None
        try:
            doc = json.loads(output)
            self.validate(doc)
        except self.invalid as exc:
            return f"report is not valid: {str(exc).splitlines()[0]}"
        genera = ["1", "2", "3"] if opts["--genus"] == "all" else [opts["--genus"]]
        want_ids = {i for g in genera for i in self.expected["entry_ids"][g]}
        got_ids = {e["id"] for e in doc["entries"]}
        failing = sorted(e["id"] for e in doc["entries"] if e["status"] != "pass")
        if failing or not doc["passed"]:
            return f"failing entries {failing}"
        if got_ids != want_ids:
            return (f"entry ids differ: missing {sorted(want_ids - got_ids)}, "
                    f"extra {sorted(got_ids - want_ids)}")
        if doc["mode"] != opts["--mode"]:
            return f"report mode {doc['mode']}"
        if opts["--mode"] == "pit" and doc["seed"] != int(opts["--seed"]):
            return f"report seed {doc['seed']}"
        return None


def run_pass(commands, scratch: Path, env, gate: Gate, traced: bool) -> dict:
    """Run the commands once, in order; totals for the pass.

    Outputs are checked after the last command exits, so the pass's wall
    time holds only the commands themselves.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    results = []
    for i, args in enumerate(commands):
        argv = [sys.executable, "-m", "hyperlie.cli", *args]
        if traced:
            agg, spans = scratch / f"agg-{i}.json", scratch / f"spans-{i}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(agg), str(spans),
                    "--", *args]
        results.append(spawn(argv, scratch / f"stdout-{i}", env))
    wall = time.perf_counter() - t0
    aggs = []
    for i, (args, res) in enumerate(zip(commands, results)):
        stdout = scratch / f"stdout-{i}"
        gate.check(args, res["rc"], stdout.read_bytes())
        stdout.unlink()
        if traced:
            agg = scratch / f"agg-{i}.json"
            aggs.append(json.loads(agg.read_text()) if agg.exists() else {})
    totals = {"wall": wall, "cpu": sum(r["cpu"] for r in results),
              "rss_mb": max(r["rss_mb"] for r in results), "attempted": len(commands)}
    if traced:
        totals["aggs"] = aggs
    return totals


def counted(spec) -> list[str]:
    """Per-layer metrics that are exact counts, so must repeat exactly."""
    return [m["name"] for m in spec["per_layer"]
            if m["unit"] in ("count", "bytes") or m["name"].endswith("hit_ratio")]


def layer_totals(aggs) -> dict:
    """Per-layer totals of one traced pass: sums over its commands."""
    total: dict[str, float] = {}
    for agg in aggs:
        for k, v in agg.items():
            total[k] = total.get(k, 0) + v
    lookups = total.get("genus_fields.catalog.hits", 0) + total.get(
        "genus_fields.catalog.misses", 0)
    total["genus_fields.catalog.hit_ratio"] = (
        total.get("genus_fields.catalog.hits", 0) / lookups if lookups else 0.0)
    return total


def host_record(seed) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit or None,
        "seed": seed,
    }


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    env = child_env()
    gate = Gate()
    commands = WORKLOADS[name](seed)
    stamp = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = OUT / stamp
    run_dir.mkdir(parents=True)
    record = {"workload": name, "trace": trace, "host": host_record(seed),
              "loadavg_start": loadavg()}

    # Host speed drifts over seconds to minutes, so half the set-up probes
    # run before the passes and half after them.
    setup_time(env)  # compiles the bytecode cache once; not timed
    setups = [setup_time(env) for _ in range(SETUP_PROBES // 2)]

    # Passes repeat while one more, at the median pass time so far, still
    # ends within --seconds; the first pass always runs.
    passes, plain = [], []
    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0
                         + statistics.median(p["wall"] for p in passes) <= seconds):
        pass_dir = run_dir / f"pass{len(passes)}"
        if not trace:
            passes.append(run_pass(commands, pass_dir, env, gate, traced=False))
            continue
        # The untraced copy runs at the same time on the other core, so both
        # see the same host load; it serves only trace.overhead_ratio.
        with ThreadPoolExecutor(2) as pool:
            traced = pool.submit(run_pass, commands, pass_dir, env, gate, True)
            untraced = pool.submit(run_pass, commands, pass_dir / "plain", env, gate, False)
            passes.append(traced.result())
            plain.append(untraced.result())

    setups += [setup_time(env) for _ in range(SETUP_PROBES - len(setups))]
    med = statistics.median
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        for p in passes:
            p["layers"] = layer_totals(p.pop("aggs"))
        per_pass = [{n: p["layers"].get(n, 0) for n in names} for p in passes]
        metrics = {n: med([v[n] for v in per_pass]) for n in names}
        metrics["trace.overhead_ratio"] = med(
            [p["wall"] / u["wall"] for p, u in zip(passes, plain)])
        for n in counted(spec):
            if len({v[n] for v in per_pass}) > 1:
                gate.failures.append(f"count {n} differs between passes")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "wall_s": med([p["wall"] for p in passes]),
            "cpu_s": med([p["cpu"] for p in passes]),
            "peak_rss_mb": med([p["rss_mb"] for p in passes]),
            "setup_s": med(setups),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for problem in gate.failures:
        print(f"FAIL {problem}", file=sys.stderr)
    record.update(
        loadavg_end=loadavg(), setups=setups, passes=passes, untraced_passes=plain,
        failures=gate.failures, metrics=metrics,
    )
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    # Keep the spans of the first traced pass only.
    for pass_dir in sorted(run_dir.glob("pass*"))[1:]:
        shutil.rmtree(pass_dir)
    shutil.rmtree(run_dir / "pass0" / "plain", ignore_errors=True)
    return {
        "correct": not gate.failures,
        "attempted": sum(p["attempted"] for p in passes + plain),
        "failed": len(gate.failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyperlie" / "cli.py").is_file():
        print(f"error: no hyperlie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result))
        return 0
    bad = 0
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        share = result["failed"] / result["attempted"]
        bad += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_share={share:g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
