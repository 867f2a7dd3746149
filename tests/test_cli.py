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
    main,
    parse_args,
)
from occupancy_entropy.combinatorics import OccupancyVector
from occupancy_entropy.constants import BOLTZMANN_KB, PLANCK_H
from occupancy_entropy.distributions import (
    MultinomialDist,
    MvhgDist,
    OneParticleDistribution,
    tv_distance,
)
from occupancy_entropy.entropy import multinomial_entropy, mvhg_entropy

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
        if mode == "exact":
            # chi = S(canonical) - E{S(traced)} >= 0 (a negative draw count
            # once gave a finite chi of about -0.008), up to the rounding of
            # its two entropies: each is an exact sum of level terms of a few
            # nats, each term within a few eps of itself, so a chi far below
            # eps, as at p = (1e-291, 1), can come out as -1.6e-287
            assert payload["chi"] >= -1e-13


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

    @pytest.mark.parametrize(
        "scales, draws, message",
        [("0", "2", "scales must be positive integers, got [0]"),
         ("", "2", "scales must be positive integers, got []"),
         ("1", "-1", "N must be non-negative")],
        ids=["zero_scale", "no_scales", "negative_draws"],
    )
    def test_bad_input_exit_2(self, scales, draws, message):
        code, out, err = _run_captured(
            ["converge", "--base-urn", "1,1", "--draws", draws, "--scales", scales])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

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

    # ladders whose rows must each have the bits of the per-rung calls: 10
    # rungs whose 30 levels x 201 counts would cross the 4,096-cell whole-grid
    # rule if pooled; 4 colours up to U = 10**6; one colour; N = 0; a rung of
    # U = N; a repeated scale; 1,000 rungs at N = 10
    @pytest.mark.parametrize(
        "base, draws, scales",
        [((300, 200, 500), 200, [1, 2, 3, 4, 5, 10, 15, 20, 30, 50]),
         ((1, 2, 3, 4), 12, [2, 3, 40, 409, 5000, 100_000]),
         ((5,), 3, [1, 2, 7]),
         ((4, 6, 10), 0, [1, 2, 3]),
         ((2, 3), 5, [1, 2, 9, 9]),
         ((4, 6, 10), 10, range(1, 1001))],
        ids=["crossing", "four_colours", "one_colour", "no_draws", "u_equals_n", "long"],
    )
    def test_ladder_rows_equal_the_per_rung_calls(self, base, draws, scales):
        argv = ["converge", "--base-urn", ",".join(map(str, base)), "--draws", str(draws),
                "--scales", ",".join(map(str, scales)), "--format", "json"]
        code, out, err = _run_captured(argv)
        assert (code, err) == (0, "")
        base = OccupancyVector(base)
        limit = MultinomialDist(draws, OneParticleDistribution.empirical_from_urn(base))
        s_limit = multinomial_entropy(limit).total
        want = []
        for k in scales:
            rung = MvhgDist(base.scaled(k), draws)
            hyper = mvhg_entropy(rung).total
            want.append([base.total * k, tv_distance(rung, limit), hyper, s_limit, s_limit - hyper])
        # JSON floats round-trip, so rows of equal reprs have equal bits
        assert [list(map(repr, row)) for row in json.loads(out)["rows"]] == [
            list(map(repr, row)) for row in want]

    # one urn and N: a converge row at scale 1, empirical-info and the
    # agnostic ledger's povm_empirical_model gain, across the exact zeros
    # (N = 1, one colour) and the crossing ladder's urn
    @pytest.mark.parametrize(
        "urn, draws",
        [((300, 200, 500), 200), ((4, 6, 10), 10), ((2, 3), 5), ((7, 3), 1), ((5, 0, 0), 3),
         ((1, 2, 3, 4), 4), ((30, 20, 10), 12)],
    )
    def test_row_info_and_ledger_gain_have_the_same_bits(self, urn, draws):
        text = ",".join(map(str, urn))
        row = json.loads(_run_captured(["converge", "--base-urn", text, "--draws", str(draws),
                                        "--scales", "1", "--format", "json"])[1])["rows"][0]
        info = json.loads(_run_captured(["empirical-info", "--urn", text, "--draws",
                                         str(draws)])[1])["empirical_information_nats"]
        scenario = {"start": {"kind": "agnostic", "N": draws},
                    "steps": [{"op": "povm_empirical_model", "urn": list(urn)}]}
        step = json.loads(_run_captured(["ledger", json.dumps(scenario)])[1])["steps"][0]
        assert row[3] - row[2] == row[4]
        assert (repr(row[4]), repr(info), repr(step["information_gained"])) == (repr(row[4]),) * 3
        assert (repr(step["pre_entropy"]), repr(step["post_entropy"])) == (
            repr(row[3]), repr(row[2]))


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

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_negative_draws_exit_2_never_a_number(self, mode):
        code, out, err = _run_captured(
            ["holevo", "--universe-size", "60", "--draws", "-1", "--probs", "0.5,0.5",
             "--mode", mode, "--mc-samples", "100"])
        assert (code, out) == (2, "")
        assert err == "error: draw count -1 outside [0, 60]\n"


class TestEmpiricalInfoCommand:
    def test_worked_example(self, capsys):
        code, out = run(capsys, "empirical-info", "--urn", "2,2", "--draws", "2")
        assert code == 0
        assert json.loads(out)["empirical_information_nats"] == pytest.approx(
            0.172158, abs=1e-5
        )


class TestEmpiricalInformationBounds:
    """Exact zeros where the two laws coincide, and refusals where rounding
    would swamp the empirical information."""

    def test_one_draw_gives_zero_information(self, capsys):
        for urn in ("300,200,500", "7,3"):
            code, out = run(capsys, "empirical-info", "--urn", urn, "--draws", "1")
            assert (code, json.loads(out)["empirical_information_nats"]) == (0, 0.0)
            assert '"empirical_information_nats": 0.0,\n' in out

    def test_one_colour_gives_zero_information_and_entropy(self, capsys):
        code, out = run(capsys, "empirical-info", "--urn", "5,0,0", "--draws", "3")
        assert (code, json.loads(out)["empirical_information_nats"]) == (0, 0.0)
        code, out = run(capsys, "entropy", '{"kind":"mvhg","urn":[5,0,0],"N":3}')
        report = json.loads(out)
        assert (code, report["total"], report["microstate_term"]) == (0, 0.0, 0.0)
        assert '"boltzmann": 0.0,\n' in out
        code, out = run(capsys, "converge", "--base-urn", "0,5", "--draws", "3", "--scales", "1,2")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert code == 0 and [row[0] for row in rows] == ["5", "10"]
        assert all(row[2:] == ["0", "0", "0"] for row in rows)

    @pytest.mark.parametrize("argv", [
        ["empirical-info", "--urn", "0,0", "--draws", "0"],
        ["empirical-info", "--urn", "", "--draws", "0"],
        ["converge", "--base-urn", "0,0", "--draws", "0", "--scales", "1"],
        ["ledger", '{"start":{"kind":"agnostic","N":0},'
                   '"steps":[{"op":"povm_empirical_model","urn":[0,0]}]}'],
    ], ids=["empirical_info", "empirical_info_no_colours", "converge", "ledger_povm"])
    def test_empty_urn_exits_2_at_no_draws(self, argv):
        # no draws from an empty urn once printed 0.0 on empirical-info alone
        assert _run_captured(argv) == (2, "", "error: empirical distribution needs a non-empty urn\n")

    def test_no_draws_give_zero_information(self, capsys):
        code, out = run(capsys, "empirical-info", "--urn", "30,20,10", "--draws", "0")
        assert code == 0 and '"empirical_information_nats": 0.0,\n' in out

    def test_one_draw_entropy_is_the_multinomial_one(self, capsys):
        urn = (300, 200, 500)
        spec = json.dumps({"kind": "mvhg", "urn": list(urn), "N": 1})
        total = json.loads(run(capsys, "entropy", spec)[1])["total"]
        limit = MultinomialDist(1, OneParticleDistribution.empirical_from_urn(OccupancyVector(urn)))
        assert total == multinomial_entropy(limit).total
        code, out = run(capsys, "converge", "--base-urn", "3,2,5", "--draws", "1",
                        "--scales", "1,7,100,1000", "--format", "json")
        rows = json.loads(out)["rows"]
        assert code == 0 and all(row[2] == row[3] == total and row[4] == 0.0 for row in rows)

    @staticmethod
    def bound_and_cap(urn, draws):
        """B at one sample, and half the leading-order information."""
        U, k_plus = sum(urn), sum(1 for c in urn if c)
        bound = (61 + math.log2(draws + 1) + math.log2(len(urn)) / 2) * 2.0**-52 * math.lgamma(U + 1)
        return bound, (k_plus - 1) / 4 * -math.log1p(-(draws - 1) / (U - 1))

    FOUND_URN = (4_000_000_000, 6_000_000_000, 10_000_000_000)

    @pytest.mark.parametrize(
        "argv, urn, draws",
        [(["empirical-info", "--urn", "4000000000,6000000000,10000000000", "--draws", "200"],
          FOUND_URN, 200),
         (["ledger", json.dumps({"start": {"kind": "agnostic", "N": 200}, "steps": [
             {"op": "povm_empirical_model", "urn": list(FOUND_URN)}]})], FOUND_URN, 200),
         (["ledger", json.dumps({"start": {"kind": "empirical", "N": 200, "urn": list(FOUND_URN)},
                                 "steps": [{"op": "separate_system"},
                                           {"op": "pvm_on_universe", "urn": list(FOUND_URN)}]})],
          FOUND_URN, 200),
         (["converge", "--base-urn", "4,6,10", "--draws", "10", "--scales", "500000"],
          (2_000_000, 3_000_000, 5_000_000), 10),
         (["converge", "--base-urn", "4,6,10", "--draws", "10", "--scales", "1,1000000"],
          (4_000_000, 6_000_000, 10_000_000), 10),
         (["converge", "--base-urn", "4,6,10", "--draws", "10", "--scales", "10000000"],
          (40_000_000, 60_000_000, 100_000_000), 10),
         (["converge", "--base-urn", "4,6,10", "--draws", "10", "--scales", "1000000000"],
          (4_000_000_000, 6_000_000_000, 10_000_000_000), 10),
         (["converge", "--base-urn", "1,1", "--draws", "2", "--scales", "1000000"],
          (1_000_000, 1_000_000), 2)],
        ids=["empirical_info", "ledger_povm", "ledger_empirical_start", "converge_1e7",
             "converge_2e7", "converge_2e8", "converge_2e10", "converge_pair_2e6"],
    )
    def test_past_the_rounding_bound_exits_3_naming_both_numbers(self, argv, urn, draws):
        code, out, err = _run_captured(argv)
        bound, cap = self.bound_and_cap(urn, draws)
        assert (code, out) == (3, "") and bound > cap
        assert err == (f"error: rounding bound {bound:.3g} nats at U = {sum(urn)} exceeds half "
                       f"the leading-order empirical information, {cap:.3g} nats\n")

    @pytest.mark.parametrize(
        "base, draws, scales",
        [("4,6,10", "10", "1,100000,200000"), ("1,1", "2", "1,100000"),
         ("3,0,0", "10", "10000000")],
    )
    def test_within_the_bound_runs(self, base, draws, scales):
        code, out, err = _run_captured(["converge", "--base-urn", base, "--draws", draws,
                                        "--scales", scales])
        assert (code, err) == (0, "")
        assert all(float(line.split(",")[4]) >= 0.0 for line in out.splitlines()[1:])


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

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ({"start": {"kind": "agnostic", "N": -5}, "steps": []},
             "N must be non-negative, got -5"),
            ({"start": {"kind": "agnostic", "N": -5},
              "steps": [{"op": "pvm_on_universe", "urn": [3, 3]}]},
             "N must be non-negative, got -5"),
            ({"start": {"kind": "agnostic", "N": 2}, "steps": [{"op": "pvm_on_universe"}]},
             "pvm_on_universe step: missing fields ['urn']"),
            ({"start": {"kind": "agnostic", "N": 2}, "steps": [{"op": "povm_empirical_model"}]},
             "povm_empirical_model step: missing fields ['urn']"),
            ({"start": {"kind": "bayesian", "N": 2, "probs": [1.0]}, "steps": math.nan},
             "steps must be a list, got nan"),
            # only the universe steps read an urn, so no other step may state one
            ({"start": {"kind": "bayesian", "N": 2, "probs": [0.5, 0.5]},
              "steps": [{"op": "separate_system", "urn": [5, "x"]}]},
             "separate_system step: unknown fields ['urn']"),
            ({"start": {"kind": "bayesian", "N": 2, "probs": [0.5, 0.5]},
              "steps": [{"op": "separate_system"}, {"op": "pvm_on_system", "urn": {}}]},
             "pvm_on_system step: unknown fields ['urn']"),
        ],
        ids=["agnostic_negative_n", "agnostic_negative_n_measured", "universe_without_urn",
             "povm_without_urn", "nan_steps", "separate_with_urn", "system_pvm_with_urn"],
    )
    def test_bad_scenario_exit_2_naming_the_field(self, scenario, message):
        code, out, err = _run_captured(["ledger", json.dumps(scenario)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_a_bug_is_not_an_input_error(self, monkeypatch):
        # only ValueError means bad input; any other exception is a bug
        # and propagates with its traceback
        def broken(start, steps):
            return {}["urn"]

        monkeypatch.setattr(cli, "measurement_ledger", broken)
        with pytest.raises(KeyError):
            main(["ledger", self.SCENARIO])

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


class TestBadValuesExit2:
    MVHG = '{"kind":"mvhg","urn":[3,2],"N":2}'
    HOLEVO = ["holevo", "--universe-size", "10", "--draws", "5", "--probs", "0.5,0.5"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["converge", "--base-urn", "4,6,10", "--draws", "10", "--scales", "1", "--cap", "-1"],
             "cap must be non-negative, got -1"),
            (["oracle", "mvhg", "--urn", "3,2", "--draws", "2", "--cap", "-1"],
             "cap must be non-negative, got -1"),
            (["oracle", "ptrace", "--urn", "3,2", "--draws", "2", "--cap", "-1"],
             "cap must be non-negative, got -1"),
            (HOLEVO + ["--mc-samples", "-5"], "mc_samples must be at least 2, got -5"),
            (HOLEVO + ["--mc-samples", "1", "--mode", "monte_carlo"], "at least 2, got 1"),
            (["sample", MVHG, "--count", "2", "--seed", "-1"], "seed must be a non-negative"),
            (["sample", MVHG, "--count", "0", "--seed", "-1"], "seed must be a non-negative"),
            (HOLEVO + ["--mode", "monte_carlo", "--seed", "-3"], "seed must be a non-negative"),
            (HOLEVO + ["--seed", "-3"], "seed must be a non-negative"),
            (["oracle", "mc-entropy", MVHG, "--samples", "4", "--seed", "-1"],
             "seed must be a non-negative"),
        ],
        ids=str,
    )
    def test_refused_with_a_message_naming_the_value(self, argv, message):
        code, out, err = _run_captured(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv",
        [["converge", "--base-urn", "4,6,10", "--draws", "10", "--scales", "1", "--cap", "0"],
         ["oracle", "mvhg", "--urn", "3,2", "--draws", "2", "--cap", "0"],
         ["oracle", "ptrace", "--urn", "3,2", "--draws", "2", "--cap", "0"]],
        ids=str,
    )
    def test_a_zero_cap_is_still_a_cap_error(self, argv):
        code, out, err = _run_captured(argv)
        assert (code, out) == (3, "")
        assert "cap" in err and "cap must be" not in err


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


def _reference_parser() -> argparse.ArgumentParser:
    """An argparse parser built from COMMANDS, the reference the CLI's own
    parser is checked against (as oracle.py's brute-force paths are for the
    kernels). Every subcommand level is required."""

    def add(parser, arguments, dest):
        if isinstance(arguments, dict):
            sub = parser.add_subparsers(dest=dest, required=True)
            for name, (func, _, sub_arguments) in arguments.items():
                child = sub.add_parser(name)
                if func:
                    child.set_defaults(func=func)
                add(child, sub_arguments, f"{name}_command")
        else:
            for flags, kwargs in arguments:
                # argparse derives a positional's dest from its name and refuses another
                kwargs = {k: v for k, v in kwargs.items() if k != "dest" or flags[0][0] == "-"}
                parser.add_argument(*flags, **kwargs)

    parser = argparse.ArgumentParser(prog="occupancy-entropy")
    add(parser, COMMANDS, "command")
    return parser


REFERENCE = _reference_parser()


def _outcome(parse, argv):
    """The namespace a parse gives, as a dict, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code


# (argv before the options, arguments) of every command and oracle subcommand
LEAVES = [
    ([name, *sub], arguments)
    for name, (_, _, table) in COMMANDS.items()
    for sub, arguments in (
        [((sub_name,), entry[2]) for sub_name, entry in table.items()]
        if isinstance(table, dict) else [((), table)]
    )
]

# values for any argument: valid ones for some type or choice, negative
# numbers (never with an exponent, which argparse versions read differently),
# option-like tokens, integers past 64 bits, bad numbers, JSON
_ANY_VALUE = st.sampled_from([
    "0", "1", "7", "60", "-1", "-3", "-0.5", "-.5", ".5", "1.5", "1e-3", "0.5,0.5",
    "-0.5,0.5", "1,2,3", "abc", "", "-", "-x", "--bogus", "1" + "0" * 30,
    "nats", "bits", "csv", "json", "exact", "monte_carlo", '{"kind":"mvhg","urn":[3,2],"N":2}',
])


@st.composite
def _argvs(draw):
    """An argv for one command or oracle subcommand: each argument given
    zero to two times (the last repeat wins), as `--opt value`,
    `--opt=value` or a prefix of either, with a valid value or any other,
    among unknown options, ambiguous prefixes, extra positionals and help,
    in any order."""
    path, arguments = draw(st.sampled_from(LEAVES))
    flags_all = ["--help", *(f for flags, _ in arguments for f in flags if f[0] == "-")]
    ambiguous = sorted({f[:n] for f in flags_all for n in range(3, len(f))
                        if sum(g.startswith(f[:n]) for g in flags_all) > 1})
    groups = []
    for flags, kw in arguments:
        required = kw.get("required") or flags[0][0] != "-"
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2] if required else [0, 0, 1, 2]))):
            good = [*kw.get("choices", []), *(["5", "-2"] if "type" in kw else [])]
            value = draw(st.sampled_from(good) | _ANY_VALUE if good else _ANY_VALUE)
            if flags[0][0] != "-":
                groups.append([value])
                continue
            flag = flags[0][: draw(st.integers(3, len(flags[0])))] if draw(
                st.booleans()) else flags[0]
            flag_only = kw.get("action") == "store_true"
            if draw(st.integers(0, 3)) == 0:
                groups.append([f"{flag}={value}"])
            else:
                groups.append([flag] if flag_only else [flag, value])
    noise = [["--bogus"], ["--bogus", "1"], ["--bogus=1"], ["-x"], ["extra"], ["--help"],
             *([[a] for a in ambiguous] + [[a, "1"] for a in ambiguous])]
    groups += draw(st.lists(st.sampled_from(noise), max_size=2))
    return path + [tok for group in draw(st.permutations(groups)) for tok in group]


HOLEVO_60 = ["holevo", "--universe-size", "60", "--draws", "10", "--probs", "0.5,0.5"]


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
        # an int64 array cannot hold them; the parser refuses them up front
        code, out, err = _run_captured(argv)
        assert code == 2
        assert out == ""
        assert "integer" in err and "at most 64 bits" in err

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, prog, message",
        [
            ([], "occupancy-entropy", "the following arguments are required: {entropy,"),
            (["nosuch"], "occupancy-entropy", "invalid choice: 'nosuch'"),
            (["entropy"], "occupancy-entropy entropy", "the following arguments are required: spec"),
            (["oracle"], "occupancy-entropy oracle", "required: {mvhg,ptrace,mc-entropy}"),
            (["holevo", "--universe-size", "60", "--draws", "10", "--probs", "0.5,0.5", "--bogus", "1"],
             "occupancy-entropy holevo", "unrecognized arguments: --bogus 1"),
            (["holevo", "--m", "exact"], "occupancy-entropy holevo",
             "ambiguous option: --m could match --mode, --mc-samples"),
            (["entropy", "--", "spec"], "occupancy-entropy entropy", "unrecognized arguments: --"),
        ],
        ids=str,
    )
    def test_usage_errors_exit_2(self, argv, prog, message):
        code, out, err = _run_captured(argv)
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: {prog} [-h/--help]")
        assert error.startswith(f"{prog}: error: ") and message in error

    def test_help_lists_every_public_command(self, capsys):
        public = ["entropy", "converge", "gas", "szilard", "holevo",
                  "empirical-info", "ledger", "sample"]
        assert list(PUBLIC_COMMANDS) == public
        for argv in (["--help"], ["-h"], ["--he"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: occupancy-entropy [-h/--help] {" + ",".join(public) + "} ...")
            for name in public:
                assert f"\n    {name} " in out

    @pytest.mark.parametrize("path, arguments", LEAVES, ids=[" ".join(p) for p, _ in LEAVES])
    def test_command_help_names_every_option(self, capsys, path, arguments):
        assert main([*path, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: occupancy-entropy {' '.join(path)} [-h/--help]")
        for flags, kw in arguments:
            assert flags[0] in out
            if "help" in kw:
                assert kw["help"] in out

    @pytest.mark.parametrize(
        "argv, values",
        [
            (["holevo", "--univ", "60", "--draws=10", "--probs", "-0.5", "--norm"],
             {"universe_size": 60, "draws": 10, "probs": "-0.5", "normalize": True}),
            (["sample", "--count", "-1", "spec", "--seed", "3", "--seed", "4"],
             {"spec": "spec", "count": -1, "seed": 4, "format": "json"}),
            (["oracle", "mvhg", "--urn", "3,2", "--d", "2"],
             {"oracle_command": "mvhg", "urn": "3,2", "draws": 2, "cap": 10}),
        ],
        ids=str,
    )
    def test_option_syntax(self, argv, values):
        args = vars(parse_args(argv))
        assert args["command"] == argv[0]
        assert {key: args[key] for key in values} == values

    @pytest.mark.parametrize(
        "argv",
        [[], ["-h"], ["nosuch"], ["-1"], ["--bogus", "entropy", "x"], ["oracle"],
         ["oracle", "bogus"], ["oracle", "--help"], ["oracle", "ptrace", "-h"],
         # a flag given a value, and tokens with a space, which are values
         HOLEVO_60 + ["--norm=1"], HOLEVO_60 + ["--help=1"], HOLEVO_60[:-1] + ["-0.5 0.5"],
         ["entropy", "-x y"], ["entropy", "--unit=bits", "--u", "kB", "spec"]],
        ids=str,
    )
    def test_edge_cases_match_argparse(self, argv):
        assert _outcome(parse_args, argv) == _outcome(REFERENCE.parse_args, argv)

    @settings(max_examples=1500, deadline=None)
    @given(_argvs())
    def test_same_values_or_both_refuse_as_argparse(self, argv):
        assert _outcome(parse_args, argv) == _outcome(REFERENCE.parse_args, argv)

    def test_console_script_wiring(self):
        proc = subprocess.run(
            [sys.executable, "-m", "occupancy_entropy.cli", "empirical-info",
             "--urn", "2,2", "--draws", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "empirical_information_nats" in proc.stdout
