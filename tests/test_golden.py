"""Live CLI output against the stored golden corpus in tests/golden/."""

import pytest

from golden.record import HERE, load_cases, run_case

CASES = load_cases()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_stdout_and_exit_code_match_stored_case(case):
    code, stdout = run_case(case["argv"])
    assert code == case["exit"]
    assert stdout.encode() == (HERE / f"{case['name']}.out").read_bytes()
