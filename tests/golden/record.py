"""Record the golden CLI corpus: run each case of ``cases.json`` and store
its exact stdout in ``<name>.out`` and its exit code in ``cases.json``.

    PYTHONPATH=src python tests/golden/record.py [NAME ...]

With no names, every case is recorded. A case whose stored bytes change
is a change of behaviour: the change that moves it lists the case and
shows that the new output is at least as close to an independent
reference (mpmath or ``oracle.py``) as the old one.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from occupancy_entropy.cli import main

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def load_cases() -> list[dict]:
    return json.loads(CASES.read_text())


def main_record(names: list[str]) -> int:
    cases = load_cases()
    known = {c["name"] for c in cases}
    unknown = set(names) - known
    if unknown:
        print(f"unknown cases: {sorted(unknown)}", file=sys.stderr)
        return 2
    for case in cases:
        if names and case["name"] not in names:
            continue
        case["exit"], stdout = run_case(case["argv"])
        (HERE / f"{case['name']}.out").write_bytes(stdout.encode())
    CASES.write_text(json.dumps(cases, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_record(sys.argv[1:]))
