"""tools/bench_record.py folds paired benchmark reports into a BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def write_report(checkout, workload, seed, trace, metrics, problems=()):
    out = checkout / ".perfbench-out"
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": workload, "seed": seed, "trace": trace, "problems": list(problems),
        "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()},
    }
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report))


def test_pairs_by_seed_with_quartiles_and_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    walls = {1: (0.10, 0.05), 2: (0.11, 0.12), 3: (0.09, 0.04), 4: (0.12, 0.06), 5: (0.1, 0.1)}
    for seed, (p, c) in walls.items():
        write_report(parent, "urn", seed, 0, {"setup_s": 0.3, "wall_s": p, "peak_rss_mb": 60})
        write_report(change, "urn", seed, 0, {"setup_s": 0.3, "wall_s": c, "peak_rss_mb": 60})
    # a seed run on one side only is not a pair
    write_report(parent, "urn", 9, 0, {"setup_s": 9.0, "wall_s": 9.0, "peak_rss_mb": 9})
    write_report(parent, "urn", 1, 1, {"cli.main.self_s": 0.04})
    write_report(change, "urn", 1, 1, {"cli.main.self_s": 0.01})
    write_report(change, "urn", 2, 1, {"cli.main.self_s": 0.02})
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), "--out", str(out),
                              "--parent-rev", "a", "--change-rev", "b", "--seconds", "35"]) == 0
    record = json.loads(out.read_text())
    wall = record["tier1"]["urn"]["wall_s"]
    assert wall["seeds"] == [1, 2, 3, 4, 5]
    assert wall["parent"]["median"] == 0.10
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (0.10, 0.11)
    assert wall["change"]["runs"] == [0.05, 0.12, 0.04, 0.06, 0.1]
    # ties count for neither side
    assert wall["change_wins"] == 3
    assert record["tier1"]["urn"]["setup_s"]["change_wins"] == 0
    assert record["tier2"]["urn"]["parent"] == {"traced_runs": 1,
                                                "metrics": {"cli.main.self_s": 0.04}}
    assert record["tier2"]["urn"]["change"]["metrics"]["cli.main.self_s"] == pytest.approx(0.015)


def test_a_run_with_problems_is_refused(tmp_path):
    write_report(tmp_path, "urn", 1, 0, {"wall_s": 0.1}, problems=["wrong output"])
    with pytest.raises(SystemExit, match="problems"):
        bench_record.load_reports(tmp_path)
