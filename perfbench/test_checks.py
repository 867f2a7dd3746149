"""Self-tests of the benchmark: every check accepts the program's real
output and rejects a perturbed copy of it; the speed scaling and the trace
arithmetic add up.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a source checkout (the program is imported from
``src/``). The heaviest ops of each workload are left out to keep this
under a minute; they are checked by the same functions.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SKIP = {"gas_60nm_300K_N100", "holevo_U200_N20"}


def _outputs(workload: str) -> tuple[dict, dict]:
    ops = {op["id"]: op for op in workloads.make_ops(workload, SEED) if op["id"] not in SKIP}
    outs = {}
    for op_id, op in ops.items():
        worker.clear_program_caches()
        result = worker.run_op(op, None)
        assert result["rc"] == 0, result["stderr"]
        outs[op_id] = result["stdout"]
    return ops, outs


class CheckCase(unittest.TestCase):
    workload = ""

    @classmethod
    def setUpClass(cls):
        cls.ops, cls.outs = _outputs(cls.workload)

    def assert_passes(self, op_id):
        self.assertEqual(checks.check(self.ops[op_id], self.outs[op_id]), [])

    def assert_rejects(self, op_id, edit):
        """``edit`` changes the parsed JSON output in place."""
        out = json.loads(self.outs[op_id])
        edit(out)
        problems = checks.check(self.ops[op_id], json.dumps(out))
        self.assertNotEqual(problems, [], f"{op_id}: perturbed output accepted")


def scale(path, factor):
    def edit(out):
        obj = out
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] *= factor
    return edit


class GasChecks(CheckCase):
    workload = "gas"

    def test_real_outputs_pass(self):
        for op_id in self.ops:
            self.assert_passes(op_id)

    def test_perturbed_outputs_fail(self):
        for op_id in self.ops:
            for path in (["exact", "total"], ["exact", "expected_logW"],
                         ["exact", "microstate_term"], ["exact", "boltzmann"],
                         ["Z"], ["sackur_tetrode_kB"], ["relative_gap"]):
                with self.subTest(op=op_id, field=path):
                    self.assert_rejects(op_id, scale(path, 1 + 1e-6))

    def test_claimed_tail_bound_must_cover_the_omitted_weight(self):
        def edit(out):
            out["tail_bound_achieved"] = 0.0
        self.assert_rejects("gas_20nm_300K_N1000", edit)

    def test_sackur_tetrode_must_be_negative_in_the_cold_box(self):
        self.assert_rejects("gas_20nm_3K_N100", scale(["sackur_tetrode_kB"], -1.0))


class UrnChecks(CheckCase):
    workload = "urn"

    def test_real_outputs_pass(self):
        for op_id in self.ops:
            with self.subTest(op=op_id):
                self.assert_passes(op_id)

    def test_scaled_values_fail(self):
        cases = {
            "holevo_U60_N10": ["chi"],
            "entropy_mvhg3_N300": ["total"],
            "entropy_mvhg5_N400": ["expected_logW"],
            "empinfo_mvhg3_N500": ["empirical_information_nats"],
            "szilard_N1": ["S_half_kB"],
            "szilard_N2": ["S_after_kB"],
            "szilard_N3": ["S_before_kB"],
        }
        for op_id, path in cases.items():
            with self.subTest(op=op_id):
                self.assert_rejects(op_id, scale(path, 1 + 1e-6))

    def test_monte_carlo_chi_shifted_by_ten_se_fails(self):
        def edit(out):
            out["chi"] += 10 * out["standard_error"]
        self.assert_rejects("holevo_U1000_N100_mc", edit)

    def test_paper_szilard_numbers(self):
        def edit(out):
            out["S_before_kB"] += 0.02
            out["delta_kB"] += 0.02
        self.assert_rejects("szilard_N1", edit)

    def test_converge_rows(self):
        def scale_tv(out):
            out["rows"][3][1] *= 1 + 1e-6
        self.assert_rejects("converge_ladder", scale_tv)

        def swap(out):
            out["rows"][2], out["rows"][3] = out["rows"][3], out["rows"][2]
        self.assert_rejects("converge_ladder", swap)
        lines = self.outs["converge_pair"].splitlines()
        cells = lines[2].split(",")  # U = 4, the exact 1/6 row
        cells[1] = format(float(cells[1]) * (1 + 1e-9), ".12g")
        lines[2] = ",".join(cells)
        self.assertNotEqual(checks.check(self.ops["converge_pair"], "\n".join(lines)), [])

    def test_ledger_gain_must_be_pre_minus_post(self):
        def edit(out):
            out["steps"][0]["information_gained"] += 1e-9
        self.assert_rejects("ledger_bayesian", edit)

    def test_weights(self):
        for op_id in ("bayesian_marginal_U30_N6", "trace_out_U60_N20"):
            def nudge(out):
                out["weights"][0][1] += 1e-11
            self.assert_rejects(op_id, nudge)

            def drop(out):
                del out["weights"][-1]
            self.assert_rejects(op_id, drop)


class SampleChecks(CheckCase):
    workload = "sample"

    def test_real_outputs_pass(self):
        for op_id in self.ops:
            with self.subTest(op=op_id):
                self.assert_passes(op_id)
        self.assertEqual(checks.check_same_rows(list(self.ops.values()), self.outs), [])

    def test_one_changed_row_fails(self):
        for op_id in ("sample_mvhg_json", "sample_multinomial", "sample_szilard"):
            def move(out):
                row = out["samples"][0]
                i = next(c for c, v in enumerate(row) if v > 0)
                row[i] -= 1
                row[(i + 1) % len(row)] += 1
            with self.subTest(op=op_id):
                self.assert_rejects(op_id, move)

    def test_row_sum_and_bounds(self):
        def extra(out):
            out["samples"][-1][0] += 1
        self.assert_rejects("sample_mvhg_json", extra)

        def over_urn(out):
            spec = self.ops["sample_mvhg_json"]["params"]["spec"]
            row = out["samples"][-1]
            row[1] -= spec["urn"][0] + 1 - row[0]
            row[0] = spec["urn"][0] + 1
        self.assert_rejects("sample_mvhg_json", over_urn)

    def test_biased_means_fail(self):
        first = checks.FIRST_ROWS  # rows past these are checked only in aggregate

        def bias(out):
            for row in out["samples"][first:]:
                move = min(row[0], 3)
                row[0] -= move
                row[1] += move
        self.assert_rejects("sample_multinomial", bias)

        def left_bias(out):
            for row in out["samples"][first::2]:
                if row[0] > 0:
                    row[0] -= 1
                    row[-1] += 1
        self.assert_rejects("sample_szilard", left_bias)

    def test_json_and_csv_must_agree(self):
        outs = dict(self.outs)
        lines = outs["sample_mvhg_csv"].splitlines()
        a, b, c = map(int, lines[-1].split(","))
        lines[-1] = f"{a - 1},{b + 1},{c}" if a > 0 else f"{a + 1},{b - 1},{c}"
        outs["sample_mvhg_csv"] = "\n".join(lines) + "\n"
        self.assertNotEqual(checks.check_same_rows(list(self.ops.values()), outs), [])

    def test_mc_entropy_shifted_by_ten_se_fails(self):
        def edit(out):
            out[0] += 10 * out[1]
        self.assert_rejects("mc_entropy_small_mvhg", edit)


class RunChecks(unittest.TestCase):
    def test_outputs_must_agree_between_rounds(self):
        ops = [op for op in workloads.make_ops("urn", SEED) if op["id"] == "szilard_N1"]
        result = worker.run_op(ops[0], None)
        changed = dict(result, stdout=result["stdout"].replace("1.9", "1.8", 1))
        problems, failed = run.check_outputs(ops, [{"ops": [result]}, {"ops": [changed]}])
        self.assertEqual(failed, 0)
        self.assertTrue(any("differs between rounds" in p for p in problems))

    def test_failed_ops_are_counted(self):
        op = {"id": "bad", "kind": "gas", "argv": ["gas", "--model", "{}", "--particles", "1"],
              "params": {}}
        result = worker.run_op(op, None)
        self.assertEqual(result["rc"], 2)
        self.assertEqual(run.check_outputs([op], [{"ops": [result]}])[1], 1)

    def test_seed_fixes_inputs_and_not_sizes(self):
        for w in workloads.WORKLOADS:
            a, b = workloads.make_ops(w, 1), workloads.make_ops(w, 2)
            self.assertEqual(a, workloads.make_ops(w, 1))
            self.assertNotEqual(a, b)
            self.assertEqual([op["id"] for op in a], [op["id"] for op in b])


class SpeedScaling(unittest.TestCase):
    REF = run.REFERENCE_PROBE_S

    def _round(self, scale: float, setup: float = 0.4) -> dict:
        return {"setup_s": setup * scale, "probe_median_s": self.REF * scale,
                "ops": [{"seconds": 2.0 * scale, "probe_s": self.REF * scale},
                        {"seconds": 0.5 * scale, "probe_s": 2.0 * self.REF * scale}]}

    def test_a_uniformly_slower_host_reads_the_same(self):
        fast, slow = self._round(1.0), self._round(1.7)
        self.assertAlmostEqual(run.wall([fast, fast, fast]), run.wall([slow, slow, slow]))
        self.assertAlmostEqual(run.scaled_setup_seconds(fast), 0.4)
        self.assertAlmostEqual(run.scaled_setup_seconds(slow), 0.4)

    def test_ops_are_scaled_by_their_own_probes(self):
        for got, want in zip(run.scaled_op_seconds(self._round(1.0)), [2.0, 0.25]):
            self.assertAlmostEqual(got, want)

    def test_wall_takes_the_median_round_of_each_op(self):
        rounds = [self._round(1.0), self._round(1.0), self._round(1.0)]
        rounds[0]["ops"][0]["seconds"] = 9.0  # one burst of interference
        self.assertAlmostEqual(run.wall(rounds), 2.25)

    def test_probe_windows(self):
        probe = worker.SpeedProbe()
        probe.samples = [(0.0, 1.0), (1.0, 2.0), (1.5, 3.0), (5.0, 10.0)]
        self.assertEqual(probe.seconds_within(1.0, 2.0), 5.0)
        w = worker.PROBE_WINDOW_S  # the window takes in the probes at 1.0 and 1.5 only
        self.assertEqual(probe.mean_near(1.0 + w, 1.5 - w + 1e-3), 2.5)
        self.assertEqual(probe.median(), 3.0)

    def test_op_time_leaves_out_the_probes(self):
        probe = worker.SpeedProbe()
        probe.start()
        try:
            ops = [op for op in workloads.make_ops("urn", SEED) if op["id"] == "holevo_U1000_N100_mc"]
            result = worker.run_op(ops[0], None, probe)
        finally:
            probe.stop()
        self.assertEqual(result["rc"], 0)
        self.assertGreater(result["probe_in_s"], 0.0)
        self.assertAlmostEqual(result["seconds"] + result["probe_in_s"],
                               result["end"] - result["start"], delta=1e-9)

    def test_probe_does_not_call_the_program(self):
        self.assertGreater(worker.probe_work(), 0.0)
        self.assertFalse(any(name.startswith(tracing.PKG)
                             for name in worker.probe_work.__code__.co_names))


class TraceArithmetic(unittest.TestCase):
    def test_self_times_add_up_to_the_root(self):
        spans = [["bench.op", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0], ["b", 2.0, 3.0, 1],
                 ["a", 3.5, 4.0, 1], ["b", 7.0, 9.0, 0]]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs, {"bench.op": 3.0, "a": 4.0, "b": 3.0})
        self.assertEqual(sum(selfs.values()), 10.0)

    def test_traced_op_times_match_self_times(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            ops = [op for op in workloads.make_ops("urn", SEED)
                   if op["id"] in ("szilard_N2", "bayesian_marginal_U30_N6")]
            results = [worker.run_op(op, tracer) for op in ops]
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        self.assertAlmostEqual(sum(summary["self_s"].values()),
                               sum(r["seconds"] for r in results), delta=1e-9)
        self.assertGreater(summary["counts"]["entropy.entropy_by_enumeration.calls"], 0)
        self.assertEqual(summary["counts"]["quantum.bayesian_marginal.calls"], 1)
        from occupancy_entropy import cli, distributions
        self.assertIs(cli.sample, distributions.sample)
        self.assertNotIn("wrapper", distributions.MvhgDist.log_pmf.__qualname__)

    def test_importtime_parsing(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:        10 |         60 |   scipy",
            "import time:        40 |        100 |   scipy.special",
            "import time:       500 |        960 | occupancy_entropy",
        ])
        got = tracing.parse_importtime(text)
        self.assertAlmostEqual(got["numpy"], 300e-6)
        self.assertAlmostEqual(got["scipy"], 160e-6)
        self.assertAlmostEqual(got["occupancy_entropy"], 960e-6)


if __name__ == "__main__":
    unittest.main()
