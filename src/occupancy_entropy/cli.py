"""Command-line front end.

Every command is deterministic given its arguments (seeds default to a
fixed constant, never the clock) and emits machine-readable output:
JSON with sorted keys or CSV with fixed headers. Exit codes: 0 success,
2 input error, 3 resource-cap error. Schemas are documented in
docs/formats.md.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .combinatorics import (
    DEFAULT_CAP,
    CapExceededError,
    OccupancyVector,
    _require_fields,
    _require_list,
    _require_number,
    require_int,
)
from .distributions import (
    DEFAULT_SEED,
    MultinomialDist,
    MvhgDist,
    OneParticleDistribution,
    SzilardSplitDist,
    convergence_scan,
    sample,
)
from .entropy import (
    _unit_factor,
    multinomial_entropy,
    mvhg_entropy,
    szilard_split_entropy,
)
from .oracle import (
    DEFAULT_URN_CAP,
    brute_force_mvhg,
    brute_force_partial_trace,
    mc_entropy_estimate,
)
from .physics import (
    DEFAULT_TRUNCATION,
    BoxModel,
    SpectrumTruncation,
    ideal_gas_entropy,
    szilard_insertion,
)
from .quantum import _MC_SAMPLES, empirical_information, holevo_chi, measurement_ledger

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3


class InputSpecError(ValueError):
    """Malformed command input (maps to exit code 2)."""


def _load_json_arg(text: str, what: str) -> dict:
    """Accept inline JSON (starts with '{') or a path to a JSON file."""
    raw = text
    if not text.lstrip().startswith("{"):
        path = Path(text)
        if not path.is_file():
            raise InputSpecError(f"{what}: no such file {text!r}")
        raw = path.read_text()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputSpecError(f"{what}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise InputSpecError(f"{what}: expected a JSON object")
    return obj


def _int64(text: str) -> int:
    """An argparse type: an integer that fits in 64 bits."""
    try:
        return require_int(int(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most 64 bits, got {text!r}") from None


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [require_int(int(tok), what) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise InputSpecError(
            f"{what}: expected comma-separated integers of at most 64 bits") from exc


def _float_list(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise InputSpecError(f"{what}: expected comma-separated numbers") from exc


def _one_particle(probs, normalize: bool, what: str) -> OneParticleDistribution:
    arr = np.asarray(probs, dtype=np.float64)
    try:
        if normalize:
            return OneParticleDistribution.from_weights(arr)
        return OneParticleDistribution(arr)
    except ValueError as exc:
        raise InputSpecError(f"{what}: {exc}") from exc


def _spec_probs(spec: dict, key: str) -> OneParticleDistribution:
    """The one-particle distribution in ``spec[key]``, a list of numbers,
    normalised when the spec's ``normalize`` is true."""
    normalize = spec.get("normalize", False)
    if not isinstance(normalize, bool):
        raise InputSpecError(f"normalize must be true or false, got {normalize!r}")
    return _one_particle(_require_list(spec[key], key, _require_number), normalize, key)


def parse_distribution_spec(spec: dict):
    """Build a distribution from its JSON description. Counts must be JSON
    integers, probabilities and fractions JSON numbers, ``urn`` and the
    probability fields lists and ``normalize`` a boolean."""
    kind = spec.get("kind")
    if kind == "multinomial":
        _require_fields(spec, {"kind", "N", "probs"}, {"normalize"}, "multinomial spec")
        return MultinomialDist(require_int(spec["N"], "N"), _spec_probs(spec, "probs"))
    if kind == "mvhg":
        _require_fields(spec, {"kind", "N", "urn"}, set(), "mvhg spec")
        urn = OccupancyVector(tuple(_require_list(spec["urn"], "urn", require_int)))
        return MvhgDist(urn, require_int(spec["N"], "N"))
    if kind == "szilard":
        _require_fields(
            spec,
            {"kind", "N", "volume_fraction", "left_probs", "right_probs"},
            {"normalize"},
            "szilard spec",
        )
        return SzilardSplitDist(
            require_int(spec["N"], "N"),
            _require_number(spec["volume_fraction"], "volume_fraction"),
            _spec_probs(spec, "left_probs"),
            _spec_probs(spec, "right_probs"),
        )
    raise InputSpecError(f"distribution spec: unknown kind {kind!r}")


def parse_box_model(spec: dict) -> BoxModel:
    _require_fields(spec, {"mass_kg", "temperature_K", "side_m"}, {"dims"}, "box model")
    try:
        return BoxModel(
            mass=_require_number(spec["mass_kg"], "mass_kg"),
            temperature=_require_number(spec["temperature_K"], "temperature_K"),
            side_length=_require_number(spec["side_m"], "side_m"),
            dimensions=require_int(spec.get("dims", 3), "dims"),
        )
    except ValueError as exc:
        raise InputSpecError(f"box model: {exc}") from exc


def _emit_json(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def _sample_json(seed: int, counts: np.ndarray) -> str:
    """The text of ``json.dumps({"schema_version", "seed", "samples"},
    sort_keys=True, indent=2)`` for a (rows, colours) int array, written by
    one %-format of every count instead of the pure-Python encoder."""
    n, k = counts.shape
    samples = "[]"
    if n:
        row = ("[\n" + ",\n".join(["      %d"] * k) + "\n    ]") if k else "[]"
        rows = ",\n".join(["    " + row] * n) % tuple(counts.ravel().tolist())
        samples = "[\n" + rows + "\n  ]"
    return '{\n  "samples": %s,\n  "schema_version": %d,\n  "seed": %d\n}' % (
        samples,
        SCHEMA_VERSION,
        seed,
    )


def _sample_csv(counts: np.ndarray) -> str:
    """The text of ``_emit_csv`` for a (rows, colours) int array under its
    ``n0,n1,...`` header, written by one %-format of every count."""
    n, k = counts.shape
    header = ",".join(f"n{i}" for i in range(k))
    rows = ("\n" + ",".join(["%d"] * k)) * n % tuple(counts.ravel().tolist())
    return header + rows + "\n"


def _emit_csv(header: list[str], rows: list[list]) -> None:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_csv_cell(v) for v in row))
    sys.stdout.write("\n".join(out) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


# --- commands -----------------------------------------------------------------


def cmd_entropy(args) -> int:
    dist = parse_distribution_spec(_load_json_arg(args.spec, "distribution spec"))
    if isinstance(dist, MultinomialDist):
        report = multinomial_entropy(dist)
    elif isinstance(dist, MvhgDist):
        report = mvhg_entropy(dist)
    else:
        total = szilard_split_entropy(dist) * _unit_factor("nats", args.unit)
        _emit_json({"kind": "szilard", "total": total, "unit": args.unit})
        return EXIT_OK
    report = report.in_unit(args.unit)
    _emit_json({"kind": type(dist).__name__, **report.as_dict()})
    return EXIT_OK


def cmd_converge(args) -> int:
    base = OccupancyVector(tuple(_int_list(args.base_urn, "--base-urn")))
    scales = _int_list(args.scales, "--scales")
    if not scales or any(s < 1 for s in scales):
        raise InputSpecError("--scales: need positive integers")
    if args.draws < 0:
        raise InputSpecError("--draws must be non-negative")
    if base.total < 1:
        raise InputSpecError("--base-urn must hold at least one particle")
    limit = MultinomialDist(
        args.draws, OneParticleDistribution.empirical_from_urn(base)
    )
    limit_entropy = multinomial_entropy(limit).total
    rows = []
    try:
        for U, tv in convergence_scan(base, args.draws, scales, cap=args.cap):
            urn = base.scaled(U // base.total)
            hyper = mvhg_entropy(MvhgDist(urn, args.draws)).total
            rows.append([U, tv, hyper, limit_entropy, limit_entropy - hyper])
    except ValueError as exc:
        # a scaled urn smaller than the draw count ends the scan as a
        # resource failure, matching the documented exit-code contract
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    header = ["U", "tv", "hyper_entropy", "multinomial_entropy", "empirical_information"]
    if args.format == "json":
        _emit_json({"columns": header, "rows": rows})
    else:
        _emit_csv(header, rows)
    return EXIT_OK


def cmd_gas(args) -> int:
    model = parse_box_model(_load_json_arg(args.model, "box model"))
    trunc = SpectrumTruncation(args.tail_bound, args.max_states)
    result = ideal_gas_entropy(model, args.particles, trunc)
    gap = result.relative_gap if math.isfinite(result.relative_gap) else None
    _emit_json(
        {
            "exact": result.exact.as_dict(),
            "sackur_tetrode_kB": result.sackur_tetrode,
            "relative_gap": gap,
            "Z": result.partition_function,
            "states_retained": result.states_retained,
            "tail_bound_achieved": result.tail_bound_achieved,
        }
    )
    return EXIT_OK


def cmd_szilard(args) -> int:
    model = parse_box_model(_load_json_arg(args.model, "box model"))
    if model.dimensions != 1:
        raise InputSpecError("szilard: the box model must be 1-D")
    trunc = SpectrumTruncation(args.tail_bound, args.max_states)
    result = szilard_insertion(model, args.particles, trunc)
    _emit_json(
        {
            "S_before_kB": result.s_before,
            "S_half_kB": result.s_half_box,
            "S_after_kB": result.s_after,
            "delta_kB": result.delta,
            "Z_full": result.partition_full,
            "Z_half": result.partition_half,
            "states_full": result.states_full,
            "states_half": result.states_half,
            "tail_bound_achieved": result.tail_bound_achieved,
        }
    )
    return EXIT_OK


def cmd_holevo(args) -> int:
    probs = _float_list(args.probs, "--probs")
    p = _one_particle(probs, args.normalize, "--probs")
    if args.draws > args.universe_size:
        raise InputSpecError("--draws cannot exceed --universe-size")
    est = holevo_chi(
        args.universe_size,
        args.draws,
        p,
        mode=args.mode,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    payload = {"chi": est.chi, "mode": est.mode}
    if est.standard_error is not None:
        payload["standard_error"] = est.standard_error
    _emit_json(payload)
    return EXIT_OK


def cmd_empirical_info(args) -> int:
    urn = OccupancyVector(tuple(_int_list(args.urn, "--urn")))
    if args.draws > urn.total:
        raise InputSpecError("--draws cannot exceed the urn size")
    _emit_json(
        {"empirical_information_nats": empirical_information(urn, args.draws)}
    )
    return EXIT_OK


def cmd_ledger(args) -> int:
    scenario = _load_json_arg(args.scenario, "scenario")
    _require_fields(scenario, {"start", "steps"}, set(), "scenario")
    if not isinstance(scenario["steps"], list):
        raise InputSpecError(f"steps must be a list, got {scenario['steps']!r}")
    ledger = measurement_ledger(scenario["start"], scenario["steps"])
    _emit_json(
        {
            "steps": [
                {
                    "label": s.label,
                    "pre_entropy": s.pre_entropy,
                    "post_entropy": s.post_entropy,
                    "information_gained": s.information_gained,
                }
                for s in ledger.steps
            ],
            "total_information": ledger.total_information,
        }
    )
    return EXIT_OK


def cmd_sample(args) -> int:
    dist = parse_distribution_spec(_load_json_arg(args.spec, "distribution spec"))
    counts = sample(dist, args.count, seed=args.seed)
    if args.format == "csv":
        sys.stdout.write(_sample_csv(counts))
    else:
        sys.stdout.write(_sample_json(args.seed, counts) + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.oracle_command in ("mvhg", "ptrace"):
        urn = OccupancyVector(tuple(_int_list(args.urn, "--urn")))
        walk = brute_force_mvhg if args.oracle_command == "mvhg" else brute_force_partial_trace
        table = walk(urn, args.draws, args.cap)
        _emit_json(
            {"pmf": {" ".join(map(str, k.counts)): str(v) for k, v in table.items()}}
        )
    elif args.oracle_command == "mc-entropy":
        dist = parse_distribution_spec(_load_json_arg(args.spec, "distribution spec"))
        est, se = mc_entropy_estimate(dist, args.samples, seed=args.seed)
        _emit_json({"entropy_estimate": est, "standard_error": se})
    else:
        raise InputSpecError("oracle: choose one of mvhg, ptrace, mc-entropy")
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


_SPEC = _arg("spec", help="inline JSON or path to a distribution spec")
_MODEL = _arg("--model", required=True, help="inline JSON or path to a box model")
_TRUNCATION = [_arg("--tail-bound", type=float, default=DEFAULT_TRUNCATION.relative_tail_bound),
               _arg("--max-states", type=_int64, default=DEFAULT_TRUNCATION.max_states)]
_DRAWS = _arg("--draws", type=_int64, required=True)
_SEED = _arg("--seed", type=int, default=DEFAULT_SEED)
_CAP = _arg("--cap", type=_int64, default=DEFAULT_CAP)

# name -> (handler, help, arguments); a dict of arguments holds subcommands.
# "oracle", a debugging aid without help, is left out of the advertised list.
COMMANDS = {
    "entropy": (cmd_entropy, "decomposed entropy of a distribution spec",
                [_SPEC, _arg("--unit", choices=["nats", "bits", "kB"], default="nats")]),
    "converge": (cmd_converge, "TV distance along scaled urns", [
        _arg("--base-urn", required=True, help="comma-separated counts"),
        _arg("--draws", type=_int64, required=True, help="system particle count N"),
        _arg("--scales", required=True, help="comma-separated urn multipliers"),
        _arg("--format", choices=["csv", "json"], default="csv"), _CAP]),
    "gas": (cmd_gas, "exact ideal-gas entropy vs the closed form",
            [_MODEL, _arg("--particles", type=_int64, required=True), *_TRUNCATION]),
    "szilard": (cmd_szilard, "piston-insertion entropy ledger",
                [_MODEL, _arg("--particles", type=_int64, default=1), *_TRUNCATION]),
    "holevo": (cmd_holevo, "Holevo bound on accessible information", [
        _arg("--universe-size", type=_int64, required=True), _DRAWS,
        _arg("--probs", required=True, help="comma-separated probabilities"),
        _arg("--normalize", action="store_true"),
        _arg("--mode", choices=["exact", "monte_carlo"], default="exact"),
        _arg("--mc-samples", type=_int64, default=_MC_SAMPLES), _SEED]),
    "empirical-info": (cmd_empirical_info,
                       "entropy gap of the empirical model over the exact draw",
                       [_arg("--urn", required=True, help="comma-separated counts"), _DRAWS]),
    "ledger": (cmd_ledger, "measurement scenario entropy ledger",
               [_arg("scenario", help="inline JSON or path to a scenario file")]),
    "sample": (cmd_sample, "seeded occupancy samples", [
        _SPEC, _arg("--count", type=_int64, required=True), _SEED,
        _arg("--format", choices=["json", "csv"], default="json")]),
    "oracle": (cmd_oracle, None, {
        "mvhg": [_arg("--urn", required=True), _DRAWS,
                 _arg("--cap", type=_int64, default=DEFAULT_URN_CAP)],
        "ptrace": [_arg("--urn", required=True), _DRAWS, _CAP],
        "mc-entropy": [_arg("spec"), _arg("--samples", type=_int64, required=True), _SEED]}),
}
PUBLIC_COMMANDS = tuple(name for name, (_, help_text, _) in COMMANDS.items() if help_text)


def _add_arguments(parser: argparse.ArgumentParser, name: str, arguments) -> None:
    if isinstance(arguments, dict):
        sub = parser.add_subparsers(dest=f"{name}_command")
        for sub_name, sub_arguments in arguments.items():
            _add_arguments(sub.add_parser(sub_name), sub_name, sub_arguments)
        return
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's argument parser. When ``command`` names one of COMMANDS,
    only that command's subparser is built, which parses and documents its
    arguments as the full tree does; otherwise every subparser is built,
    for the top-level help and the usage errors."""
    parser = argparse.ArgumentParser(
        prog="occupancy-entropy",
        description="Exact occupancy-number distributions and entropies "
        "for bosonic systems.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{" + ",".join(PUBLIC_COMMANDS) + "}"
    )
    sub.required = True
    for name in [command] if command in COMMANDS else COMMANDS:
        func, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, **({"help": help_text} if help_text else {}))
        p.set_defaults(func=func)
        _add_arguments(p, name, arguments)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (CapExceededError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputSpecError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
