import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occupancy_entropy import cli
from occupancy_entropy.cli import (
    COMMANDS,
    PUBLIC_COMMANDS,
    SCHEMA_VERSION,
    _sample_json,
    build_parser,
    main,
)
from occupancy_entropy.constants import BOLTZMANN_KB, PLANCK_H

ELECTRON_BOX_1D = '{"mass_kg":9.11e-31,"temperature_K":300,"side_m":20e-9,"dims":1}'
ELECTRON_BOX_3D = '{"mass_kg":9.11e-31,"temperature_K":300,"side_m":20e-9,"dims":3}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# values that no spec field accepts as a count, and most refuse as a
# probability: NaN, infinities, bools, non-integers, strings, nulls,
# negatives, containers, an integer past 64 bits and one past float range
_BAD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, 2.5, -1, "3", None, [1], {}, 10**30, 10**400]
)
_PARTICLES = st.one_of(
    st.integers(0, 12), st.sampled_from([1000, 54_321, 10**5]), st.integers(0, 10**5)
)


@st.composite
def _simplex(draw):
    """Probabilities with zeros among them, or (with normalize) weights."""
    weights = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1e-300, 1e-9, 0.1, 1.0, 3.0]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=6,
        )
    )
    total = math.fsum(weights)
    if total == 0.0 or draw(st.booleans()):
        return weights, True
    return [w / total for w in weights], False


@st.composite
def _entropy_specs(draw):
    """A well-formed multinomial, mvhg or szilard spec, kept as it is or
    with one field or list element replaced by a bad value, one field
    dropped, or the kind unknown."""
    kind = draw(st.sampled_from(["multinomial", "mvhg", "szilard"]))
    spec = {"kind": kind}
    if kind == "mvhg":
        spec["urn"] = draw(st.lists(st.integers(0, 400), max_size=5))
        spec["N"] = draw(st.integers(0, sum(spec["urn"])))
    else:
        spec["N"] = draw(_PARTICLES)
        keys = ["probs"] if kind == "multinomial" else ["left_probs", "right_probs"]
        normalize = False
        for key in keys:
            spec[key], needs = draw(_simplex())
            normalize |= needs
        if normalize or draw(st.booleans()):
            spec["normalize"] = normalize
        if kind == "szilard":
            spec["volume_fraction"] = draw(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            )
    how = draw(st.sampled_from(["keep", "keep", "field", "element", "drop", "kind"]))
    key = draw(st.sampled_from(sorted(k for k in spec if k != "kind")))
    if how == "field":
        spec[key] = draw(_BAD_VALUES)
    elif how == "element" and isinstance(spec[key], list) and spec[key]:
        spec[key][draw(st.integers(0, len(spec[key]) - 1))] = draw(_BAD_VALUES)
    elif how == "drop":
        del spec[key]
    elif how == "kind":
        spec["kind"] = draw(st.one_of(st.sampled_from(["bogus", ""]), _BAD_VALUES))
    return spec


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return _finite_numbers(list(obj.values()))
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _run_captured(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_refused_with_a_message(code, out, err):
    # argparse refusals begin with the usage line, the CLI's own with "error: "
    assert code in (2, 3)
    assert out == ""
    assert "error: " in err
    assert "Traceback" not in err
    # a NaN or infinite result surfaces as json.dumps refusing it
    assert "JSON compliant" not in err


def _assert_finite_json_or_a_message(argv):
    """The payload of a CLI call that exits 0 with finite numbers only, or
    None when it is refused with a message."""
    code, out, err = _run_captured(argv)
    if code != 0:
        _assert_refused_with_a_message(code, out, err)
        return None
    assert err == ""
    assert "NaN" not in out and "Infinity" not in out
    payload = json.loads(out)
    assert _finite_numbers(payload)
    return payload


class TestEntropyFuzz:
    @settings(max_examples=300, deadline=None)
    @given(spec=_entropy_specs(), unit=st.sampled_from(["nats", "bits", "kB"]))
    def test_exits_cleanly_with_finite_numbers_or_a_message(self, spec, unit):
        # json.dumps writes NaN and Infinity tokens, which the CLI parses
        code, out, err = _run_captured(["entropy", json.dumps(spec), "--unit", unit])
        if code == 0:
            assert "NaN" not in out and "Infinity" not in out
            assert _finite_numbers(json.loads(out))
            assert err == ""
        else:
            assert err.startswith("error: ")
            _assert_refused_with_a_message(code, out, err)


def _rarely(draw, bad, good):
    """A value of ``bad`` one time in eight, else one of ``good``."""
    return draw(bad if draw(st.integers(0, 7)) == 3 else good)


# argv values the parser refuses, or that lie out of range
_BAD_COUNTS = st.sampled_from([-1, "x", "1.5", 10**30])
_BAD_SEEDS = st.sampled_from([-1, "seven", "2.0"])
_SEEDS = st.one_of(st.none(), st.integers(0, 2**64), st.just(2**128))


def _with_seed(argv, seed):
    return argv if seed is None else [*argv, "--seed", str(seed)]


class TestSampleFuzz:
    # specs of up to 10**5 particles and urns of up to 2,000 balls, at most
    # 4 rows: under a million uniforms an example
    @settings(max_examples=200, deadline=None)
    @given(spec=_entropy_specs(), fmt=st.sampled_from(["json", "csv"]), data=st.data())
    def test_rows_of_n_or_a_message(self, spec, fmt, data):
        count = _rarely(data.draw, _BAD_COUNTS, st.integers(0, 4))
        argv = ["sample", json.dumps(spec), "--count", str(count), "--format", fmt]
        code, out, err = _run_captured(_with_seed(argv, _rarely(data.draw, _BAD_SEEDS, _SEEDS)))
        if code != 0:
            _assert_refused_with_a_message(code, out, err)
            return
        assert err == ""
        if fmt == "json":
            rows = json.loads(out)["samples"]
        else:
            header, *lines = out.splitlines()
            assert header.startswith("n0") or header == ""
            # a row of no colours is an empty line
            rows = [[int(x) for x in line.split(",") if x] for line in lines]
        assert len(rows) == count
        assert all(sum(row) == spec["N"] and min(row, default=0) >= 0 for row in rows)


@st.composite
def _holevo_argv(draw):
    """holevo argv over universes of up to 2,000 particles, with Monte Carlo
    runs of at most 40 universes; now and then a value out of range or one
    the parser refuses."""
    universe = _rarely(draw, st.sampled_from([-1, "many", 10**30]), st.integers(0, 2000))
    top = universe if isinstance(universe, int) and universe >= 0 else 5
    draws = _rarely(draw, st.sampled_from([-1, top + 1]), st.integers(0, top))
    weights, normalize = draw(_simplex())
    tokens = [repr(w) for w in weights]
    tokens += _rarely(draw, st.sampled_from([["nan"], ["inf"], ["-0.5"], ["x"]]), st.just([]))
    argv = ["holevo", "--universe-size", str(universe), "--draws", str(draws),
            "--probs", ",".join(tokens)] + (["--normalize"] if normalize else [])
    mode = _rarely(draw, st.just("bogus"), st.sampled_from([None, "exact", "monte_carlo"]))
    if mode is not None:
        argv += ["--mode", mode]
    # the default 10,000 samples would make a Monte Carlo example slow
    if mode == "monte_carlo" or draw(st.booleans()):
        samples = _rarely(draw, st.sampled_from([-1, 0, 1]), st.integers(2, 40))
        argv += ["--mc-samples", str(samples)]
    return _with_seed(argv, _rarely(draw, _BAD_SEEDS, _SEEDS)), mode or "exact"


class TestHolevoFuzz:
    @settings(max_examples=200, deadline=None)
    @given(case=_holevo_argv())
    def test_finite_chi_or_a_message(self, case):
        argv, mode = case
        payload = _assert_finite_json_or_a_message(argv)
        if payload is None:
            return
        assert payload["mode"] == mode
        assert ("standard_error" in payload) == (mode == "monte_carlo")


def _tokens(draw, good):
    """Comma-joined values of ``good``, now and then with a token the CLI
    refuses."""
    tokens = [str(v) for v in draw(st.lists(good, max_size=4))]
    bad = st.sampled_from([["x"], ["1.5"], ["-1"], [str(10**30)]])
    return ",".join(tokens + _rarely(draw, bad, st.just([])))


@st.composite
def _converge_argv(draw):
    """converge argv over base urns of up to 4 colours of 6 balls, at most
    8 draws and 3 scales of up to 5, now and then under a small cap."""
    argv = ["converge", "--base-urn", _tokens(draw, st.integers(0, 6)),
            "--draws", str(_rarely(draw, _BAD_COUNTS, st.integers(0, 8))),
            "--scales", _tokens(draw, st.integers(0, 5))]
    fmt = draw(st.sampled_from([None, "csv", "json"]))
    if fmt is not None:
        argv += ["--format", fmt]
    if draw(st.booleans()):
        argv += ["--cap", str(draw(st.integers(-1, 60)))]
    return argv, fmt or "csv"


class TestConvergeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(case=_converge_argv())
    def test_finite_rows_or_a_message(self, case):
        argv, fmt = case
        if fmt == "json":
            payload = _assert_finite_json_or_a_message(argv)
            rows = None if payload is None else payload["rows"]
        else:
            code, out, err = _run_captured(argv)
            if code != 0:
                _assert_refused_with_a_message(code, out, err)
                return
            assert err == ""
            rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
            assert all(math.isfinite(x) for row in rows for x in row)
        if rows is not None:
            assert rows and all(len(row) == 5 for row in rows)


# box fields far out of the usual range: the energy unit h^2 / (8 m L^2)
# and its ratio to kT then overflow or underflow
_EXTREME_FLOATS = st.sampled_from([5e-324, 1e-300, 1e-30, 1e30, 1e300, -1.0, 0.0])


@st.composite
def _gas_argv(draw):
    """gas argv over electron-like boxes of at most 30,000 states (--max-states),
    now and then with a box field far out of range or of the wrong type."""
    model = {
        "mass_kg": _rarely(draw, _EXTREME_FLOATS, st.floats(1e-31, 1e-26)),
        "temperature_K": _rarely(draw, _EXTREME_FLOATS, st.floats(1e-3, 1e4)),
        "side_m": _rarely(draw, _EXTREME_FLOATS, st.floats(1e-10, 1e-7)),
    }
    if draw(st.booleans()):
        model["dims"] = _rarely(draw, st.sampled_from([1, 2]), st.just(3))
    if draw(st.integers(0, 7)) == 3:
        model[draw(st.sampled_from(sorted(model)))] = draw(_BAD_VALUES)
    particles = _rarely(draw, st.one_of(st.just(0), _BAD_COUNTS), st.integers(1, 50))
    argv = ["gas", "--model", json.dumps(model), "--particles", str(particles),
            "--max-states", str(_rarely(draw, st.sampled_from([0, -1]), st.integers(1, 30000)))]
    if draw(st.booleans()):
        argv += ["--tail-bound", str(_rarely(draw, st.sampled_from(["nan", 0, 1]),
                                             st.floats(1e-15, 0.5)))]
    return argv


class TestGasFuzz:
    @settings(max_examples=150, deadline=None)
    @given(argv=_gas_argv())
    def test_finite_entropy_or_a_message(self, argv):
        payload = _assert_finite_json_or_a_message(argv)
        if payload is not None:
            assert payload["exact"]["total"] >= 0
            assert 1 <= payload["states_retained"] <= int(argv[argv.index("--max-states") + 1])


@st.composite
def _ledger_scenario(draw):
    """A ledger scenario of up to 8 particles, urns of up to 4 colours of 6
    balls and up to 3 steps, now and then with a field or list element
    replaced by a bad value, or the start or steps not an object or list."""
    kind = draw(st.sampled_from(["bayesian", "empirical", "agnostic"]))
    start = {"kind": kind, "N": draw(st.integers(0, 8))}
    urns = st.lists(st.integers(0, 6), min_size=1, max_size=4)
    if kind == "bayesian":
        weights, _ = draw(_simplex())
        total = math.fsum(weights)
        start["probs"] = [w / total for w in weights] if total else weights
    elif kind == "empirical":
        start["urn"] = draw(urns)
    ops = ["pvm_on_universe", "povm_empirical_model", "pvm_on_system", "separate_system"]
    steps = []
    for op in draw(st.lists(st.sampled_from(ops), max_size=3)):
        step = {"op": op}
        if op in ("pvm_on_universe", "povm_empirical_model"):
            step["urn"] = start.get("urn") if draw(st.booleans()) else draw(urns)
        steps.append(step)
    target = draw(st.sampled_from([start, *steps]))
    how = draw(st.sampled_from(["keep", "keep", "field", "element", "drop", "whole"]))
    key = draw(st.sampled_from(sorted(target)))
    if how == "field":
        target[key] = draw(_BAD_VALUES)
    elif how == "element" and isinstance(target[key], list) and target[key]:
        target[key][draw(st.integers(0, len(target[key]) - 1))] = draw(_BAD_VALUES)
    elif how == "drop":
        del target[key]
    scenario = {"start": start, "steps": steps}
    if how == "whole":
        scenario[draw(st.sampled_from(["start", "steps"]))] = draw(_BAD_VALUES)
    return scenario


class TestLedgerFuzz:
    @settings(max_examples=200, deadline=None)
    @given(scenario=_ledger_scenario())
    def test_finite_ledger_or_a_message(self, scenario):
        payload = _assert_finite_json_or_a_message(["ledger", json.dumps(scenario)])
        if payload is not None:
            assert len(payload["steps"]) == len(scenario["steps"])


class TestEntropyCommand:
    def test_multinomial(self, capsys):
        code, out = run(
            capsys, "entropy", '{"kind":"multinomial","N":2,"probs":[0.5,0.5]}'
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["total"] == pytest.approx(1.039721, abs=1e-5)
        assert payload["unit"] == "nats"

    def test_mvhg(self, capsys):
        code, out = run(capsys, "entropy", '{"kind":"mvhg","urn":[2,2],"N":2}')
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(0.867563, abs=1e-5)

    def test_unit_conversion(self, capsys):
        spec = '{"kind":"multinomial","N":2,"probs":[0.5,0.5]}'
        _, nats = run(capsys, "entropy", spec)
        code, bits = run(capsys, "entropy", spec, "--unit", "bits")
        assert code == 0
        assert json.loads(bits)["total"] == pytest.approx(
            json.loads(nats)["total"] / math.log(2), abs=1e-9
        )

    def test_szilard_kind(self, capsys):
        spec = (
            '{"kind":"szilard","N":1,"volume_fraction":0.5,'
            '"left_probs":[0.5,0.5],"right_probs":[0.5,0.5]}'
        )
        code, out = run(capsys, "entropy", spec)
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_nan_probability_exit_2(self, capsys):
        code, out = run(
            capsys, "entropy", '{"kind":"multinomial","N":2,"probs":[NaN,1.0]}'
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("count", ["2.7", "true", '"3"'])
    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind":"multinomial","N":%s,"probs":[0.5,0.5]}',
            '{"kind":"mvhg","urn":[2,2],"N":%s}',
            '{"kind":"mvhg","urn":[2,%s],"N":2}',
            '{"kind":"szilard","N":%s,"volume_fraction":0.5,'
            '"left_probs":[1.0],"right_probs":[1.0]}',
        ],
    )
    def test_non_integer_count_exit_2(self, capsys, spec, count):
        code = main(["entropy", spec % count])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be an integer" in captured.err

    @pytest.mark.parametrize(
        "spec, field",
        [
            ('{"kind":"szilard","N":3,"volume_fraction":null,'
             '"left_probs":[1.0],"right_probs":[1.0]}', "volume_fraction"),
            ('{"kind":"multinomial","N":3,"probs":{}}', "probs"),
            ('{"kind":"multinomial","N":3,"probs":[0.5,[1]]}', "probs"),
            ('{"kind":"mvhg","N":3,"urn":5}', "urn"),
            ('{"kind":"szilard","N":3,"volume_fraction":"0.5",'
             '"left_probs":[1.0],"right_probs":[1.0]}', "volume_fraction"),
            ('{"kind":"multinomial","N":3,"probs":["0.5","0.5"]}', "probs"),
            # "no" is truthy: bool() would turn normalisation on
            ('{"kind":"multinomial","N":3,"probs":[1,3],"normalize":"no"}', "normalize"),
        ],
        ids=["null_fraction", "object_probs", "nested_probs", "scalar_urn",
             "string_fraction", "string_probs", "string_normalize"],
    )
    def test_mistyped_field_exit_2_naming_it(self, capsys, spec, field):
        code = main(["entropy", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} ") or f"of {field} " in captured.err

    def test_malformed_json_exit_2(self, capsys):
        assert run(capsys, "entropy", '{"kind":')[0] == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"kind":"multinomial","N":%d,"probs":[1.0]}' % 10**30, "N must be an integer of"),
            ('{"kind":"mvhg","N":1,"urn":[%d]}' % 10**30, "urn must be an integer of"),
            ('{"kind":"multinomial","N":1,"probs":[%d,1]}' % 10**400, "of float range"),
        ],
        ids=["N", "urn", "probs"],
    )
    def test_numbers_past_their_type_exit_2(self, capsys, spec, message):
        # an int64 array cannot hold the first two, nor a float the third
        code = main(["entropy", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_unknown_field_exit_2(self, capsys):
        code, _ = run(
            capsys, "entropy", '{"kind":"mvhg","urn":[2,2],"N":2,"oops":1}'
        )
        assert code == 2

    def test_unnormalized_probs_exit_2(self, capsys):
        assert (
            run(capsys, "entropy", '{"kind":"multinomial","N":2,"probs":[0.4,0.5]}')[0]
            == 2
        )

    def test_normalize_flag_in_spec(self, capsys):
        code, out = run(
            capsys,
            "entropy",
            '{"kind":"multinomial","N":2,"probs":[1,1],"normalize":true}',
        )
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(1.039721, abs=1e-5)

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind":"mvhg","urn":[2,2],"N":2}')
        code, out = run(capsys, "entropy", str(path))
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(0.867563, abs=1e-5)

    def test_missing_file_exit_2(self, capsys):
        assert run(capsys, "entropy", "no_such_file.json")[0] == 2


class TestConvergeCommand:
    def test_reference_rows(self, capsys):
        code, out = run(
            capsys, "converge", "--base-urn", "1,1", "--draws", "2",
            "--scales", "2,20",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "U,tv,hyper_entropy,multinomial_entropy,empirical_information"
        row1 = lines[1].split(",")
        row2 = lines[2].split(",")
        assert row1[0] == "4"
        assert float(row1[1]) == pytest.approx(1 / 6, abs=1e-6)
        assert row2[0] == "40"
        assert float(row2[1]) == pytest.approx(0.01282, abs=1e-5)

    def test_single_draw_tv_zero(self, capsys):
        code, out = run(
            capsys, "converge", "--base-urn", "1,1", "--draws", "1",
            "--scales", "1,2,4",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == pytest.approx(0.0, abs=1e-12)

    def test_undersized_urn_exit_3(self, capsys):
        code, _ = run(
            capsys, "converge", "--base-urn", "1,1", "--draws", "3", "--scales", "1"
        )
        assert code == 3

    def test_json_format(self, capsys):
        code, out = run(
            capsys, "converge", "--base-urn", "1,1", "--draws", "2",
            "--scales", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "U"
        assert payload["rows"][0][0] == 4

    def test_byte_identical_reruns(self, capsys):
        args = ("converge", "--base-urn", "1,2", "--draws", "2", "--scales", "2,4")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestGasCommand:
    def test_small_gas(self, capsys):
        code, out = run(capsys, "gas", "--model", ELECTRON_BOX_3D, "--particles", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"]["unit"] == "kB"
        assert payload["exact"]["total"] > 0
        assert payload["states_retained"] > 1000
        assert payload["Z"] == pytest.approx(4.1465**3, rel=1e-3)
        assert payload["relative_gap"] >= 0

    def test_one_d_model_exit_2(self, capsys):
        assert run(capsys, "gas", "--model", ELECTRON_BOX_1D, "--particles", "2")[0] == 2

    @pytest.mark.parametrize("dims", ["3.5", "true", '"3"'])
    def test_non_integer_dims_exit_2(self, capsys, dims):
        model = '{"mass_kg":9.11e-31,"temperature_K":300,"side_m":20e-9,"dims":%s}'
        code, out = run(capsys, "gas", "--model", model % dims, "--particles", "2")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("field", ["mass_kg", "temperature_K", "side_m"])
    def test_string_box_field_exit_2_naming_it(self, capsys, field):
        model = {"mass_kg": 9.11e-31, "temperature_K": 300, "side_m": 20e-9}
        model[field] = str(model[field])
        code = main(["gas", "--model", json.dumps(model), "--particles", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{field} must be a number" in captured.err

    @pytest.mark.parametrize("side", [1e300, 5e-324])
    def test_box_far_out_of_range_exit_2(self, capsys, side):
        # the axis energy h^2 / (8 m L^2) overflows at 1e300 and divides by
        # zero at 5e-324
        model = {"mass_kg": 9.11e-31, "temperature_K": 300, "side_m": side}
        code = main(["gas", "--model", json.dumps(model), "--particles", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "h^2 / (8 m L^2 kT)" in captured.err

    def test_nan_temperature_exit_2(self, capsys):
        model = '{"mass_kg":9.11e-31,"temperature_K":NaN,"side_m":20e-9,"dims":3}'
        code, out = run(capsys, "gas", "--model", model, "--particles", "2")
        assert code == 2
        assert out == ""


class TestSzilardCommand:
    def test_reference_entropy_values(self, capsys):
        code, out = run(capsys, "szilard", "--model", ELECTRON_BOX_1D)
        assert code == 0
        payload = json.loads(out)
        assert payload["S_before_kB"] == pytest.approx(1.988, abs=0.01)
        assert payload["S_half_kB"] == pytest.approx(1.243, abs=0.01)
        assert payload["delta_kB"] == pytest.approx(0.052, abs=0.01)
        assert payload["S_after_kB"] == pytest.approx(1.936, abs=0.01)

    def test_three_d_model_exit_2(self, capsys):
        assert run(capsys, "szilard", "--model", ELECTRON_BOX_3D)[0] == 2

    def test_forty_particles_match_mpmath_chain_rule(self, capsys):
        # enumerating the split support of 40 particles over 2 x 15 colours
        # is far over any cap; the chain rule needs no enumeration
        code, out = run(capsys, "szilard", "--model", ELECTRON_BOX_1D, "--particles", "40")
        assert code == 0
        payload = json.loads(out)
        want = szilard_after_mp(40, 9.11e-31, 300.0, 10e-9, payload["states_half"])
        assert payload["S_after_kB"] == pytest.approx(want, rel=1e-14)
        assert payload["delta_kB"] == payload["S_before_kB"] - payload["S_after_kB"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["szilard", "--model", ELECTRON_BOX_1D, "--particles", "2", "--cap", "10"],
            ["entropy", '{"kind":"multinomial","N":2,"probs":[0.5,0.5]}', "--cap", "10"],
            ["holevo", "--universe-size", "20", "--draws", "2", "--probs", "0.5,0.5",
             "--cap", "10"],
        ],
        ids=["szilard", "entropy", "holevo"],
    )
    def test_cap_flag_is_gone(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2

    def test_spectrum_far_past_the_cap_exits_3_without_walking_to_it(self):
        # a walk to 2^63 - 1 cutoffs never ends; the refusal stops short
        hot = '{"mass_kg":5e-324,"temperature_K":1e300,"side_m":1e30,"dims":1}'
        cap = "9223372036854775807"
        proc = subprocess.run(
            [sys.executable, "-m", "occupancy_entropy.cli", "szilard", "--model", hot,
             "--particles", "1", "--max-states", cap],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert f"over max_states={cap} " in proc.stderr


def szilard_after_mp(N, mass, temperature, half_side, states):
    """Entropy after a midpoint piston insertion, for N particles of a 1-D
    box whose half has ``states`` retained levels, by the chain rule
    H(Bin(N, 1/2)) + sum_b P(b) [S(b) + S(N - b)] in 30-digit arithmetic,
    with S(n) = n H(p) - ln n! + sum_c E{ln n_c!} over Bin(n, p_c)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        unit = mp.mpf(PLANCK_H) ** 2 / (8 * mp.mpf(mass) * mp.mpf(half_side) ** 2)
        alpha = unit / (mp.mpf(BOLTZMANN_KB) * mp.mpf(temperature))
        w = [mp.exp(-alpha * (k * k - 1)) for k in range(1, states + 1)]
        p = [x / mp.fsum(w) for x in w]
        h = -mp.fsum(x * mp.log(x) for x in p)

        def binom(n, q):
            return [mp.binomial(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1)]

        side = [
            n * h
            - mp.loggamma(n + 1)
            + mp.fsum(b * mp.loggamma(k + 1) for q in p for k, b in enumerate(binom(n, q)))
            for n in range(N + 1)
        ]
        split = binom(N, mp.mpf(1) / 2)
        h_split = -mp.fsum(q * mp.log(q) for q in split)
        mixed = mp.fsum(q * (side[b] + side[N - b]) for b, q in enumerate(split))
        return float(h_split + mixed)


class TestHolevoCommand:
    def test_exact_full_universe(self, capsys):
        code, out = run(
            capsys, "holevo", "--universe-size", "2", "--draws", "2",
            "--probs", "0.5,0.5",
        )
        assert code == 0
        assert json.loads(out)["chi"] == pytest.approx(1.039721, abs=1e-5)

    def test_exact_small(self, capsys):
        code, out = run(
            capsys, "holevo", "--universe-size", "4", "--draws", "2",
            "--probs", "0.5,0.5",
        )
        payload = json.loads(out)
        assert payload["chi"] == pytest.approx(0.367811, abs=1e-5)
        assert "standard_error" not in payload

    def test_monte_carlo(self, capsys):
        code, out = run(
            capsys, "holevo", "--universe-size", "64", "--draws", "2",
            "--probs", "0.5,0.5", "--mode", "monte_carlo",
            "--mc-samples", "200", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["chi"] >= -0.05
        assert payload["standard_error"] > 0

    def test_monte_carlo_refusal_is_prompt(self, capsys):
        # U = 10^12 would take 10^4 universes through the kernel before
        # printing a chi its rounding swamps; the bound refuses it first
        start = time.perf_counter()
        code = main(["holevo", "--universe-size", str(10**12), "--draws", "100",
                     "--probs", "0.5,0.3,0.2", "--mode", "monte_carlo"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "rounding bound 0.444 nats" in captured.err and "1e-12 nats" in captured.err
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "universe, draws, probs", [("5", "0", "0.5,0.5"), ("5", "3", "1.0")]
    )
    def test_exact_zero_is_positive(self, capsys, universe, draws, probs):
        code, out = run(
            capsys, "holevo", "--universe-size", universe, "--draws", draws,
            "--probs", probs,
        )
        assert code == 0
        assert '"chi": 0.0,' in out

    def test_draws_exceeding_universe_exit_2(self, capsys):
        code, _ = run(
            capsys, "holevo", "--universe-size", "2", "--draws", "3",
            "--probs", "0.5,0.5",
        )
        assert code == 2


class TestEmpiricalInfoCommand:
    def test_worked_example(self, capsys):
        code, out = run(capsys, "empirical-info", "--urn", "2,2", "--draws", "2")
        assert code == 0
        assert json.loads(out)["empirical_information_nats"] == pytest.approx(
            0.172158, abs=1e-5
        )


class TestLedgerCommand:
    SCENARIO = json.dumps(
        {
            "start": {"kind": "bayesian", "N": 2, "probs": [0.5, 0.5]},
            "steps": [{"op": "pvm_on_universe", "urn": [2, 2]},
                      {"op": "pvm_on_system"}],
        }
    )

    def test_bayesian_chain(self, capsys):
        code, out = run(capsys, "ledger", self.SCENARIO)
        assert code == 0
        payload = json.loads(out)
        assert payload["total_information"] == pytest.approx(1.039721, abs=1e-5)
        assert payload["steps"][1]["post_entropy"] == 0.0

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(self.SCENARIO)
        assert run(capsys, "ledger", str(path))[0] == 0

    def test_agnostic_total_is_null(self, capsys):
        scenario = json.dumps(
            {"start": {"kind": "agnostic", "N": 2},
             "steps": [{"op": "pvm_on_system"}]}
        )
        code, out = run(capsys, "ledger", scenario)
        assert code == 0
        payload = json.loads(out)
        assert payload["total_information"] is None
        assert payload["steps"][0]["information_gained"] is None

    @pytest.mark.parametrize("count", ["2.7", "true", '"3"'])
    def test_non_integer_count_exit_2(self, capsys, count):
        for start in (
            '{"kind":"bayesian","N":%s,"probs":[0.5,0.5]}' % count,
            '{"kind":"empirical","N":2,"urn":[%s,4]}' % count,
        ):
            scenario = '{"start":%s,"steps":[{"op":"pvm_on_system"}]}' % start
            code, out = run(capsys, "ledger", scenario)
            assert code == 2
            assert out == ""

    @pytest.mark.parametrize(
        "start, message",
        [
            ('{"kind":"bayesian","N":2,"probs":["0.5","0.5"]}', "each entry of probs must be"),
            ('{"kind":"bayesian","N":2,"probs":{}}', "probs must be a list"),
            ('{"kind":"empirical","N":2,"urn":5}', "urn must be a list"),
            ("5", "scenario start must be an object"),
        ],
        ids=["string_probs", "object_probs", "scalar_urn", "scalar_start"],
    )
    def test_mistyped_start_exit_2_naming_it(self, capsys, start, message):
        scenario = '{"start":%s,"steps":[{"op":"pvm_on_system"}]}' % start
        code = main(["ledger", scenario])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_ill_ordered_exit_2(self, capsys):
        scenario = json.dumps(
            {"start": {"kind": "bayesian", "N": 2, "probs": [0.5, 0.5]},
             "steps": [{"op": "pvm_on_system"}, {"op": "pvm_on_system"}]}
        )
        assert run(capsys, "ledger", scenario)[0] == 2


class TestSampleCommand:
    SPEC = '{"kind":"mvhg","urn":[3,2],"N":2}'

    def test_deterministic_json(self, capsys):
        code, first = run(
            capsys, "sample", self.SPEC, "--count", "5", "--seed", "7"
        )
        assert code == 0
        _, second = run(capsys, "sample", self.SPEC, "--count", "5", "--seed", "7")
        assert first == second
        payload = json.loads(first)
        assert len(payload["samples"]) == 5
        assert all(sum(row) == 2 for row in payload["samples"])

    def test_csv(self, capsys):
        code, out = run(
            capsys, "sample", self.SPEC, "--count", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n0,n1"
        assert len(lines) == 4

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=40),
        st.one_of(st.sampled_from([0, 2**31 - 2]), st.integers(0, 2**31 - 2)),
        st.sampled_from([0, 1, 9, 10**6, 2**31, 2**62]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_emitter_matches_json_dumps(self, n, k, seed, high, data_seed):
        counts = np.random.default_rng(data_seed).integers(
            0, high, size=(n, k), endpoint=True
        )
        want = json.dumps(
            {"schema_version": SCHEMA_VERSION, "seed": seed, "samples": counts.tolist()},
            sort_keys=True,
            indent=2,
            allow_nan=False,
        )
        assert _sample_json(seed, counts) == want


class TestOneSampleCall:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", TestSampleCommand.SPEC, "--count", "5"],
            ["oracle", "mc-entropy", TestSampleCommand.SPEC, "--samples", "50"],
        ],
        ids=["sample", "mc-entropy"],
    )
    def test_each_command_calls_sample_once(self, capsys, monkeypatch, argv):
        from occupancy_entropy import cli, distributions, oracle

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return distributions.sample(*args, **kwargs)

        monkeypatch.setattr(cli, "sample", counting)
        monkeypatch.setattr(oracle, "sample", counting)
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1


class TestSearchedCountLimit:
    # the count window's float64 search resolves at most 2**52 trials; past
    # it a support of more than one count is refused before any search
    N = str(2**62)

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", '{"kind":"multinomial","N":%s,"probs":[0.5,0.5]}' % N],
            ["gas", "--model", ELECTRON_BOX_3D, "--particles", N],
            ["holevo", "--universe-size", N, "--draws", "100", "--probs", "0.5,0.3,0.2"],
            ["entropy", '{"kind":"mvhg","urn":[%s,%d],"N":%s}' % (N, 2**62 - 1, N)],
        ],
        ids=["entropy_multinomial", "gas", "holevo_exact", "entropy_mvhg"],
    )
    def test_exits_3_at_once(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert f"over {self.N} trials" in captured.err and f"{2**52} (2**52)" in captured.err
        assert elapsed < 1.0

    def test_one_colour_holevo_still_runs(self, capsys):
        code, out = run(
            capsys, "holevo", "--universe-size", self.N, "--draws", "100", "--probs", "1")
        assert code == 0 and json.loads(out)["chi"] == 0.0


class TestDrawBudget:
    # every draw here is refused by the cell check before anything is
    # allocated or drawn
    CAP = 2**30

    @pytest.mark.parametrize(
        "argv, cells",
        [
            (["sample", '{"kind":"multinomial","N":3,"probs":[0.5,0.5]}', "--count", str(10**12)],
             3 * 10**12),
            (["sample", '{"kind":"mvhg","urn":[3,3],"N":3}', "--count", str(10**12)], 3 * 10**12),
            (["oracle", "mc-entropy", '{"kind":"mvhg","urn":[3,3],"N":3}', "--samples",
              str(10**12)], 3 * 10**12),
            (["sample", '{"kind":"mvhg","urn":[%d,%d],"N":%d}' % (10**12, 10**12, 10**12),
              "--count", "1"], 10**12),
            (["sample", '{"kind":"multinomial","N":%d,"probs":[0.5,0.5]}' % 2**62, "--count", "1"],
             2**62),
            (["holevo", "--universe-size", "100", "--draws", "10", "--probs", "0.5,0.5",
              "--mode", "monte_carlo", "--mc-samples", str(10**10)], 2 * 10**10),
            (["holevo", "--universe-size", "100", "--draws", "10", "--probs", "0.5,0.5",
              "--mode", "monte_carlo", "--mc-samples", str(2**62)], 2**63),
        ],
        ids=["multinomial_count", "mvhg_count", "mc_entropy", "mvhg_draws", "multinomial_2_62",
             "holevo_mc", "holevo_mc_2_62"],
    )
    def test_exits_3_at_once_with_the_cells_and_the_cap(self, capsys, argv, cells):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert f"= {cells} cells, over the cap of {self.CAP}" in captured.err
        assert elapsed < 1.0

    def test_memory_error_exits_3_with_its_message(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(cli, "sample", refuse)
        code = main(["sample", '{"kind":"multinomial","N":3,"probs":[0.5,0.5]}', "--count", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: Unable to allocate 8.00 GiB\n"


class TestUrnPast64Bits:
    URN = "9000000000000000000,9000000000000000000"

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["entropy", '{"kind":"mvhg","urn":[%s],"N":3}' % URN], 2),
            (["empirical-info", "--urn", URN, "--draws", "3"], 2),
            (["converge", "--base-urn", "4,6,10", "--draws", "10", "--scales", str(10**18)], 3),
        ],
        ids=["entropy", "empirical_info", "converge"],
    )
    def test_is_refused_at_once(self, capsys, argv, exit_code):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == exit_code and captured.out == ""
        assert "urn total must be an integer of at most 64 bits" in captured.err
        assert elapsed < 1.0


class TestOracleCommand:
    def test_mvhg_fractions(self, capsys):
        code, out = run(capsys, "oracle", "mvhg", "--urn", "2,2", "--draws", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["pmf"]["1 1"] == "2/3"

    def test_ptrace(self, capsys):
        code, out = run(capsys, "oracle", "ptrace", "--urn", "2,2", "--draws", "2")
        assert code == 0
        assert json.loads(out)["pmf"]["2 0"] == "1/6"

    def test_ptrace_long_urn_walks_without_recursion(self, capsys):
        # 1,001 microstates of 1,001 particles: 1,002,001 walk steps
        argv = ["oracle", "ptrace", "--urn", "1000,1", "--draws", "1"]
        code, out = run(capsys, *argv, "--cap", "1002001")
        assert code == 0
        assert json.loads(out)["pmf"] == {"1 0": "1000/1001", "0 1": "1/1001"}
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "1002001 steps" in err and "cap of 1000000" in err

    def test_ptrace_refuses_a_huge_urn_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["oracle", "ptrace", "--urn", "9223372036854775807,1", "--draws", "1"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert f"at least {2**63} steps" in captured.err and "cap of 1000000" in captured.err
        assert elapsed < 1.0

    def test_mc_entropy(self, capsys):
        code, out = run(
            capsys, "oracle", "mc-entropy", TestSampleCommand.SPEC,
            "--samples", "500", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entropy_estimate"] > 0
        assert payload["standard_error"] >= 0

    def test_hidden_from_advertised_commands(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "szilard" in out
        assert "oracle" not in out


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParsing:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gas", "--model", ELECTRON_BOX_3D, "--particles", "1" + "0" * 30],
            ["holevo", "--universe-size", "1" + "0" * 30, "--draws", "2", "--probs", "1"],
            ["converge", "--base-urn", "1,1", "--draws", "1" + "0" * 30, "--scales", "1"],
            ["empirical-info", "--urn", "1" + "0" * 30 + ",1", "--draws", "1"],
        ],
        ids=["particles", "universe_size", "draws", "urn"],
    )
    def test_integer_past_64_bits_exit_2(self, argv):
        # an int64 array cannot hold them; argparse refuses them up front
        code, out, err = _run_captured(argv)
        assert code == 2
        assert out == ""
        assert "integer" in err and "at most 64 bits" in err

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [[], ["nosuch"], ["entropy"]], ids=str)
    def test_usage_errors_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert "usage: occupancy-entropy" in capsys.readouterr().err

    def test_help_lists_every_public_command(self, capsys):
        public = ["entropy", "converge", "gas", "szilard", "holevo",
                  "empirical-info", "ledger", "sample"]
        assert list(PUBLIC_COMMANDS) == public
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(public) + "}" in out
        for name in public:
            assert f"\n    {name} " in out

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_single_command_parser_matches_the_full_tree(self, name):
        # compared within one process, so the terminal width is the same
        full = subparsers(build_parser())
        single = subparsers(build_parser(name))
        assert list(single) == [name]
        pairs = [(full[name], single[name])]
        if name == "oracle":
            nested_full, nested_single = subparsers(full[name]), subparsers(single[name])
            assert list(nested_single) == ["mvhg", "ptrace", "mc-entropy"]
            pairs += [(nested_full[n], nested_single[n]) for n in nested_full]
        for want, got in pairs:
            assert got.format_help() == want.format_help()
            assert got.format_usage() == want.format_usage()

    def test_unknown_word_builds_the_full_tree(self):
        assert list(subparsers(build_parser("nosuch"))) == list(COMMANDS)
        assert subparsers(build_parser()).keys() == subparsers(build_parser("-h")).keys()

    def test_console_script_wiring(self):
        proc = subprocess.run(
            [sys.executable, "-m", "occupancy_entropy.cli", "empirical-info",
             "--urn", "2,2", "--draws", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "empirical_information_nats" in proc.stdout
