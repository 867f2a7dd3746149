"""In-memory span tracing of the program's public functions.

The benchmark wraps, from its own code, every module or class attribute
that holds a traced function (modules import each other's names, so one
function may sit under several attributes). Each call records a span
(name, start, end, parent span index) and may add to a named counter.
A layer's self time is its spans' durations minus the time covered by
their child spans. The program itself is not modified on disk.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PKG = "occupancy_entropy"

# metric name -> (defining module, attribute paths in it, counter)
TARGETS = {
    "cli.main": ("cli", ["main"], None),
    "physics.box_spectrum": ("physics", ["box_spectrum"], "states"),
    "physics.ideal_gas_entropy": ("physics", ["ideal_gas_entropy"], None),
    "physics.szilard_insertion": ("physics", ["szilard_insertion"], None),
    "entropy.multinomial_entropy": ("entropy", ["multinomial_entropy"], None),
    "entropy.mvhg_entropy": ("entropy", ["mvhg_entropy"], None),
    "entropy.entropy_by_enumeration": ("entropy", ["entropy_by_enumeration"], None),
    "distributions.log_pmf": (
        "distributions",
        [f"{cls}.{m}" for cls in ("MultinomialDist", "MvhgDist", "SzilardSplitDist")
         for m in ("log_pmf", "pmf")],
        None,
    ),
    "distributions.log_pmf_batch": (
        "distributions",
        [f"{cls}.log_pmf_batch" for cls in ("MultinomialDist", "MvhgDist", "SzilardSplitDist")],
        "rows",
    ),
    "distributions.sample": ("distributions", ["sample"], "rows"),
    "distributions.tv_distance": ("distributions", ["tv_distance"], None),
    "combinatorics.support_matrix": ("combinatorics", ["support_matrix"], "cache"),
    "quantum.holevo_chi": ("quantum", ["holevo_chi"], None),
    "quantum.bayesian_marginal": ("quantum", ["BosonicDensityOperator.bayesian_marginal"], None),
    "quantum.trace_out_environment": ("quantum", ["trace_out_environment"], None),
    "quantum.empirical_information": ("quantum", ["empirical_information"], None),
    "quantum.measurement_ledger": ("quantum", ["measurement_ledger"], None),
    "oracle.mc_entropy_estimate": ("oracle", ["mc_entropy_estimate"], None),
}

ROOT = "bench.op"


class Tracer:
    """Spans of one process, kept in memory until :meth:`summary`."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        if self._active[name] == 0:
            # a call nested in a call of the same layer is not a new call
            self.counts[f"{name}.calls"] += 1
        self._active[name] += 1
        self.spans[idx][1] = time.perf_counter()
        return idx

    def leave(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    def wrap(self, name: str, fn, counter):
        tracer = self

        if counter == "cache":
            def wrapper(*args, **kwargs):
                hits = fn.cache_info().hits
                idx = tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.leave(idx)
                if fn.cache_info().hits > hits:
                    tracer.counts[f"{name}.hits"] += 1
                else:
                    tracer.counts[f"{name}.rows_built"] += result.shape[0]
                return result
            wrapper.cache_clear = fn.cache_clear
            wrapper.cache_info = fn.cache_info
            return wrapper

        def wrapper(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if counter == "states":
                tracer.counts[f"{name}.states"] += len(result)
            elif counter == "rows":
                # log_pmf_batch(self, counts) and sample(d, count, ...)
                arg = args[1] if len(args) > 1 else kwargs.get("counts", kwargs.get("count"))
                tracer.counts[f"{name}.rows"] += arg if isinstance(arg, int) else len(arg)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every attribute in the loaded package that holds a target."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PKG or n.startswith(PKG + ".")]
        for name, (module, paths, counter) in TARGETS.items():
            home = sys.modules[f"{PKG}.{module}"]
            for path in paths:
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    self._patched.append((cls, attr, raw))
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, counter)))
                    else:
                        setattr(cls, attr, self.wrap(name, raw, counter))
                    continue
                original = getattr(home, path)
                wrapped = self.wrap(name, original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Self time per span name, and the counters."""
        return {"self_s": self_times(self.spans), "counts": dict(self.counts)}


def self_times(spans) -> dict[str, float]:
    """Each name's total duration minus the part covered by child spans."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        out[name] += end - start
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return dict(out)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per top-level package from ``-X importtime``.

    A package's figure sums its outermost entries: those whose importing
    entry belongs to another package. The output lists a module when its
    import ends, after the modules it imported, indented one level deeper.
    """
    entries = []  # (package, cumulative seconds, parent index)
    pending: list[tuple[int, int]] = []  # (depth, entry index) without parent
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        idx = len(entries)
        entries.append([name.strip().split(".")[0], int(cum) * 1e-6, -1])
        while pending and pending[-1][0] > depth:
            entries[pending.pop()[1]][2] = idx
        pending.append((depth, idx))
    out: dict[str, float] = defaultdict(float)
    for pkg, cum, parent in entries:
        if parent < 0 or entries[parent][0] != pkg:
            out[pkg] += cum
    return dict(out)
