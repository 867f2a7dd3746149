"""Runs one round of ops in a fresh interpreter and reports on stdout.

Started by run.py, one process per round, so every round pays the CLI's
import as a user's invocation would. Reads ``{"ops": [...], "trace":
bool}`` on stdin and writes one JSON object: the moment the CLI module
finished importing, each op's time, exit code and output, the mean time
of the speed probes around each op and the median of all of them, the
peak RSS, and with tracing the per-layer summary.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import occupancy_entropy.cli as cli  # noqa: E402  (timed: spawn -> import)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import numpy as np  # noqa: E402

from occupancy_entropy import combinatorics, distributions, oracle, quantum  # noqa: E402

import tracing  # noqa: E402


def clear_program_caches() -> None:
    """Empty every functools cache in the package, so each op runs cold."""
    for name, mod in list(sys.modules.items()):
        if name == tracing.PKG or name.startswith(tracing.PKG + "."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


PROBE_INTERVAL_S = 0.1  # wall time between two speed probes
PROBE_WINDOW_S = 0.5  # an op's speed is gauged by the probes within this of it


def probe_work() -> float:
    """A fixed pure-Python loop of the benchmark's own, about 1.5 ms long.

    It never calls the program, and it makes only floats, which the
    garbage collector does not track: so its cost does not depend on the
    objects or the cache state an op leaves behind, while a slow phase of
    the host stretches it as it stretches the op it interrupts. (Shorter
    probes, or probes with small numpy calls, read up to 1.6x slower inside
    some ops than inside others on the same host.)
    """
    acc = 0.0
    for i in range(12_000):
        acc += math.sqrt(i) * 0.5
    return acc


class SpeedProbe:
    """Times probe_work() every PROBE_INTERVAL_S of wall time, from a timer
    signal, so the host's speed is sampled during each op as well as
    between ops. Python runs the handler between bytecodes of the main
    thread; a long numpy call only delays it."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        for _ in range(20):  # the first calls of the loop run on cold caches
            probe_work()
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds_within(self, start: float, end: float) -> float:
        return sum(s for t, s in self.samples if start <= t < end)

    def mean_near(self, start: float, end: float) -> float:
        near = [s for t, s in self.samples
                if start - PROBE_WINDOW_S <= t < end + PROBE_WINDOW_S]
        return sum(near) / len(near)

    def median(self) -> float:
        durations = sorted(s for _, s in self.samples)
        return durations[len(durations) // 2]


def _weights(op) -> list:
    return sorted([list(k.counts), w] for k, w in op.weights.items())


def run_call(call: str, args: dict):
    """One public library call; returns a JSON-ready result."""
    if call == "bayesian_marginal":
        p = distributions.OneParticleDistribution(np.asarray(args["probs"]))
        return quantum.BosonicDensityOperator.bayesian_marginal(args["U"], args["N"], p)
    if call == "trace_out_environment":
        urn = combinatorics.OccupancyVector(tuple(args["urn"]))
        return quantum.trace_out_environment(urn, args["N"])
    if call == "mc_entropy_estimate":
        spec = args["spec"]
        d = distributions.MvhgDist(combinatorics.OccupancyVector(tuple(spec["urn"])), spec["N"])
        return oracle.mc_entropy_estimate(d, args["samples"], seed=args["seed"])
    raise ValueError(f"unknown library call {call!r}")


def encode(call: str, result) -> str:
    if call in ("bayesian_marginal", "trace_out_environment"):
        return json.dumps({"N": result.N, "source": result.source, "weights": _weights(result)})
    return json.dumps(list(result))


def run_op(op: dict, tracer, probe=None) -> dict:
    """One op; its ``seconds`` leave out the time spent in speed probes."""
    out, err = io.StringIO(), io.StringIO()
    result = None
    rc = 0
    idx = tracer.enter(tracing.ROOT) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in op:
                rc = cli.main(op["argv"])
            else:
                result = run_call(op["call"], op["args"])
    except Exception as exc:  # an op that raises counts as failed, the round goes on
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    if tracer:
        tracer.leave(idx)
        start, end = tracer.spans[idx][1:3]
    probe_s = probe.seconds_within(start, end) if probe else 0.0
    text = out.getvalue() if "argv" in op else (encode(op["call"], result) if rc == 0 else "")
    return {"id": op["id"], "seconds": end - start - probe_s, "probe_in_s": probe_s,
            "start": start, "end": end, "rc": rc, "stdout": text,
            "stderr": err.getvalue()[-2000:]}


def main() -> int:
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    probe = SpeedProbe()
    probe.start()
    try:
        results = []
        for op in request["ops"]:
            clear_program_caches()
            results.append(run_op(op, tracer, probe))
        time.sleep(PROBE_WINDOW_S)  # the last op's window of probes
    finally:
        probe.stop()
    for r in results:
        r["probe_s"] = probe.mean_near(r.pop("start"), r.pop("end"))
    report = {
        "ready": READY,
        "module": cli.__file__,
        "ops": results,
        "probe_median_s": probe.median(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        report["trace"] = tracer.summary()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
