"""Benchmark of the occupancy-entropy CLI and library.

    python3 perfbench/run.py --workload gas|urn|sample --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. A run repeats whole rounds of the workload's ops for about
``--seconds``. Each round is one fresh interpreter (perfbench/worker.py),
so every op runs cold, as a CLI invocation would, and every round times
one start-up. The worker also times a short fixed computation of its own
every 100 ms, from a timer signal, during the ops and between them. Timed
metrics are scaled to the host speed at which that computation takes
REFERENCE_PROBE_S, which takes out the slow phases of a shared host. The
last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

  --trace 0  setup_s      median over rounds of spawn -> `occupancy_entropy.cli`
                          imported, scaled by the round's median probe
             wall_s       sum over ops of each op's median scaled time
             peak_rss_mb  peak RSS of the process that runs the ops
  --trace 1  the per-layer metrics of tracing.TARGETS, from the fastest
             traced round, import times from ``-X importtime``, and
             trace.overhead_s (traced wall_s minus untraced wall_s; the
             run alternates untraced and traced rounds)

Outputs are checked against checks.py after the timed rounds; the full
report of the run, with the unscaled times, is written to .perfbench-out/
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BLAS and OpenMP pools stay at one thread: the host has 2 CPUs and is shared.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
ROUND_TIMEOUT_S = 120.0
MIN_ROUNDS = 2
# worker.probe_work() takes about this long in the fast phases of a 2-CPU
# shared host (its 5th percentile there); timed metrics are scaled to the
# host speed at which it takes exactly this long
REFERENCE_PROBE_S = 1.05e-3

PER_LAYER_SECONDS = [f"{name}.self_s" for name in tracing.TARGETS]
PER_LAYER_COUNTS = {
    "physics.box_spectrum.states": "count",
    "entropy.multinomial_entropy.calls": "count",
    "entropy.mvhg_entropy.calls": "count",
    "distributions.log_pmf.calls": "count",
    "distributions.log_pmf_batch.rows": "count",
    "distributions.sample.rows": "count",
    "combinatorics.support_matrix.calls": "count",
    "combinatorics.support_matrix.rows_built": "count",
    "combinatorics.support_matrix.hit_ratio": "ratio",
}
IMPORT_PACKAGES = {"numpy": "import.numpy_s", "scipy": "import.scipy_s",
                   "occupancy_entropy": "import.occupancy_entropy_s"}


class RoundError(RuntimeError):
    """A worker could not run a round at all (no program, crash, timeout)."""


def now() -> float:
    # system-wide clock, comparable between the parent and the worker
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(ops: list[dict], trace: bool) -> dict:
    """One fresh interpreter runs every op once."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd.append(str(HERE / "worker.py"))
    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONPATH", None)
    spawned = now()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, stderr = proc.communicate(json.dumps({"ops": ops, "trace": trace}),
                                          timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundError(f"a round took more than {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RoundError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    report = json.loads(stdout)
    if Path(report["module"]).resolve().parent.parent != ROOT / "src":
        raise RoundError(f"imported the program from {report['module']}, not from {ROOT / 'src'}")
    report["setup_s"] = report["ready"] - spawned
    if trace:
        report["imports"] = tracing.parse_importtime(stderr)
    return report


def scaled_op_seconds(report: dict) -> list[float]:
    """Each op's time at the reference host speed: scaled by
    REFERENCE_PROBE_S over the mean of the speed probes during and around it."""
    return [o["seconds"] * REFERENCE_PROBE_S / o["probe_s"] for o in report["ops"]]


def scaled_setup_seconds(report: dict) -> float:
    """The round's start at the reference host speed, scaled by the median
    probe of the round: the start itself runs before the probes do, and a
    round is shorter than the host's slow phases."""
    return report["setup_s"] * REFERENCE_PROBE_S / report["probe_median_s"]


def wall(rounds: list[dict]) -> float:
    """Sum over ops of each op's median scaled time across the rounds."""
    scaled = [scaled_op_seconds(r) for r in rounds]
    return sum(statistics.median(s[i] for s in scaled) for i in range(len(scaled[0])))


def raw_wall(rounds: list[dict]) -> float:
    """Sum over ops of each op's fastest unscaled time across the rounds."""
    return sum(min(r["ops"][i]["seconds"] for r in rounds)
               for i in range(len(rounds[0]["ops"])))


def measure(ops: list[dict], seconds: float, trace: bool) -> list[dict]:
    """Whole rounds until the next one would overrun ``seconds``.

    A traced run alternates untraced and traced rounds, starting untraced.
    """
    rounds: list[dict] = []
    start = now()
    while True:
        tracing_this = trace and len(rounds) % 2 == 1
        t0 = now()
        report = run_round(ops, tracing_this)
        report["traced"] = tracing_this
        report["round_s"] = now() - t0
        rounds.append(report)
        longest = max(r["round_s"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and now() - start + longest > seconds:
            return rounds


def check_outputs(ops: list[dict], rounds: list[dict]) -> tuple[list[str], int]:
    """Problems across all rounds, and the number of failed ops."""
    import checks  # scipy.stats is imported only after the timed rounds

    problems: list[str] = []
    failed = 0
    first = {o["id"]: o for o in rounds[0]["ops"]}
    for r in rounds:
        for o in r["ops"]:
            if o["rc"] != 0:
                failed += 1
            elif o["stdout"] != first[o["id"]]["stdout"]:
                problems.append(f"{o['id']}: output differs between rounds")
    good = {}
    for op in ops:
        o = first[op["id"]]
        if o["rc"] != 0:
            print(f"FAILED {op['id']}: exit {o['rc']}: {o['stderr']}", file=sys.stderr)
            continue
        good[op["id"]] = o["stdout"]
        problems += [f"{op['id']}: {p}" for p in checks.check(op, o["stdout"])]
    problems += checks.check_same_rows(ops, good)
    return problems, failed


def end_to_end(rounds: list[dict]) -> dict:
    return {
        "setup_s": {"value": statistics.median(scaled_setup_seconds(r) for r in rounds),
                    "unit": "s"},
        "wall_s": {"value": wall(rounds), "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
    }


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    best = min(traced, key=lambda r: sum(o["seconds"] for o in r["ops"]))
    summary = best["trace"]
    metrics = {}
    for name in PER_LAYER_SECONDS:
        metrics[name] = {"value": summary["self_s"].get(name[: -len(".self_s")], 0.0),
                         "unit": "s"}
    counts = summary["counts"]
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    calls = counts.get("combinatorics.support_matrix.calls", 0)
    metrics["combinatorics.support_matrix.hit_ratio"]["value"] = (
        counts.get("combinatorics.support_matrix.hits", 0) / calls if calls else 0.0)
    for pkg, name in IMPORT_PACKAGES.items():
        metrics[name] = {"value": min(r["imports"].get(pkg, 0.0) for r in traced), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall(traced) - wall(plain), "unit": "s"}
    return metrics


def self_time_gap(rounds: list[dict]) -> float:
    """Largest |sum of self times - traced op time| over the traced rounds.

    Speed probes run inside the spans, so their time is added back.
    """
    gaps = [abs(sum(r["trace"]["self_s"].values())
                - sum(o["seconds"] + o["probe_in_s"] for o in r["ops"]))
            for r in rounds if r["traced"]]
    return max(gaps, default=0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = workloads.make_ops(args.workload, args.seed)
    try:
        rounds = measure(ops, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems, failed = check_outputs(ops, rounds)
    if args.trace:
        metrics = per_layer(rounds)
        gap = self_time_gap(rounds)
        if gap > 1e-6:
            problems.append(f"self times miss the traced op time by {gap:.3g} s")
    else:
        metrics = end_to_end(rounds)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "raw": {"setup_s": min(r["setup_s"] for r in rounds), "wall_s": raw_wall(rounds)},
        "rounds": [{"traced": r["traced"], "setup_s": r["setup_s"], "round_s": r["round_s"],
                    "peak_rss_mb": r["peak_rss_mb"], "probe_median_s": r["probe_median_s"],
                    "probe_s": {o["id"]: o["probe_s"] for o in r["ops"]},
                    "op_s": {o["id"]: o["seconds"] for o in r["ops"]},
                    **({"trace": r["trace"], "imports": r["imports"]} if r["traced"] else {})}
                   for r in rounds],
        "problems": problems, "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1) + "\n")

    attempted = sum(len(r["ops"]) for r in rounds)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
