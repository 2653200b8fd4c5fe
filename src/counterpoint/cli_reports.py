"""Command-line reports over worlds, dichotomies, and scored passages.

Commands
--------
  worlds table    histogram and moments of a world
  worlds export   full count matrix or histogram as CSV
  step            symmetry count of one step
  compare         valid-step overlap of two worlds
  analyze         score file -> step counts -> effect size and chi-square
  noll            chord endomorphism report(s)
  scale-report    forbidden steps of a world inside a scale
  walk            seeded random walk over valid steps

Every command builds one report: its TEXT lines, its JSON payload and, where
tabular, its CSV.  ``main`` picks the form named by ``--output`` and one
emitter, ``_emit``, writes it to stdout.  TEXT renders at 4 decimals; JSON
is full precision with sorted keys and no timestamps — byte-identical across
reruns of the same tool version.  Exit codes: 0 success, 2 input error,
3 model error, 4 calibration-gate failure.  Every run builds its worlds from
scratch, so the calibration gate runs on every preset world a command uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import ROUND_UP, Decimal
from enum import Enum
from fractions import Fraction
from itertools import combinations

from . import __version__
from .dichotomies import (
    EVEN_WHOLE_TONE,
    Dichotomy,
    NotStrong,
    chord_endomorphisms,
    parse_pitch_class_set,
)
from .residue_algebra import DualNumber, Modulus, ModulusMismatch, NotInvertible, _Value
from .score_io import (
    COLUMN_CANTUS,
    Dedup,
    FixedCantus,
    ScoreFormat,
    _plain,
    extract_transitions,
    parse_score,
)
from .stats import (
    DegeneratePopulation,
    EmptyCategory,
    EmptySample,
    PopulationSpec,
    SdDivisor,
    _require_alpha,
    chi_square_gof,
    effect_size,
    sample_summary,
)
from .worlds import (
    DeadEnd,
    GateFailure,
    RestrictionMode,
    build_world,
    scale_restriction_report,
    score_against_world,
    walk,
    world_histogram_csv,
    world_matrix_csv,
    world_moments,
    world_overlap,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_GATE = 4

_INPUT_ERRORS = (ValueError, OSError)
_MODEL_ERRORS = (
    NotStrong,
    DegeneratePopulation,
    EmptyCategory,
    EmptySample,
    ModulusMismatch,
    DeadEnd,
    NotInvertible,
)


def _jsonable(value):
    if isinstance(value, Fraction):
        return {"fraction": f"{value.numerator}/{value.denominator}", "value": float(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, _Value):
        return {f: _jsonable(v) for f, v in zip(value.__slots__, value._key(value))}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(form: str, report: dict) -> None:
    """Write one form of a command's report to stdout: the only output path."""
    body = report[form]
    if form == "JSON":
        import json  # only JSON output reads it

        tool = {"name": "counterpoint", "version": __version__}
        body = json.dumps(_jsonable({"tool": tool, **body}), sort_keys=True, indent=2) + "\n"
    elif form == "TEXT":
        body = "".join(line + "\n" for line in body)
    sys.stdout.write(body)


def _f4(x) -> str:
    return f"{float(x):.4f}"


def _fp(p: float) -> str:
    """p-values: 4 decimals, switching to scientific below 1e-4."""
    return f"{p:.4e}" if 0 < p < 1e-4 else f"{p:.4f}"


def _ci_level(alpha: float) -> str:
    """100(1 - alpha) in as many decimals as it has, rounded down at 12 decimals.

    ``alpha`` is read as the decimal it prints as, so 0.05 gives ``95``,
    0.001 ``99.9`` and 1e-300 ``99.999999999999``, never ``100``.
    """
    miss = (100 * Decimal(repr(alpha))).quantize(Decimal("1e-12"), rounding=ROUND_UP)
    return f"{(100 - miss).normalize():f}"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


load_world = build_world  # the name perfbench imports


# ---------------------------------------------------------------------------
# commands: each returns its report as {"TEXT": lines, "JSON": payload, ...}


def cmd_worlds_table(args) -> dict:
    world = build_world(Dichotomy.parse(args.dichotomy))
    moments = world_moments(world)
    text = [
        f"world: {world.label} ({world.dichotomy.render()})",
        f"model-variant: {world.variant}",
        "symmetries  steps",
        *(f"{c:<11d} {world.histogram[c]}" for c in sorted(world.histogram)),
        f"mean: {_f4(moments.mean)} ({_frac(moments.mean)})  sd: {_f4(moments.sd)}",
    ]
    if moments.note:
        text.append(f"note: {moments.note}")
    return {
        "TEXT": text,
        "JSON": {
            "command": "worlds table",
            "world": world.label,
            "dichotomy": world.dichotomy.render(),
            "model_variant": world.variant,
            "histogram": world.histogram,
            "moments": {"mean": moments.mean, "variance": moments.variance, "sd": moments.sd},
            "note": moments.note,
        },
        "CSV": world_histogram_csv(world),
    }


def cmd_worlds_export(args) -> dict:
    world = build_world(Dichotomy.parse(args.dichotomy))
    export = world_matrix_csv if args.what == "matrix" else world_histogram_csv
    return {"CSV": export(world)}


def cmd_step(args) -> dict:
    world = build_world(Dichotomy.parse(args.dichotomy))
    src = DualNumber.parse(args.src)
    dst = DualNumber.parse(args.dst)
    count = world.count(src, dst)
    return {
        "TEXT": [f"{src.render()}>{dst.render()}: {count}"],
        "JSON": {
            "command": "step",
            "world": world.label,
            "model_variant": world.variant,
            "from": src.render(),
            "to": dst.render(),
            "count": count,
        },
    }


def cmd_compare(args) -> dict:
    world_a = build_world(Dichotomy.parse(args.a))
    world_b = build_world(Dichotomy.parse(args.b))
    overlap = world_overlap(world_a, world_b)
    total = world_a.total_steps
    return {
        "TEXT": [
            f"worlds: {world_a.label} vs {world_b.label}",
            f"p_a  = {world_a.valid_step_count}/{total} = {_f4(overlap.p_a)}",
            f"p_b  = {world_b.valid_step_count}/{total} = {_f4(overlap.p_b)}",
            f"p_ab = {int(overlap.p_ab * total)}/{total} = {_f4(overlap.p_ab)}",
            f"independence gap |p_ab - p_a*p_b| = {_f4(overlap.gap)}",
        ],
        "JSON": {
            "command": "compare",
            "a": world_a.label,
            "b": world_b.label,
            "p_a": overlap.p_a,
            "p_b": overlap.p_b,
            "p_ab": overlap.p_ab,
            "gap": overlap.gap,
        },
    }


def cmd_analyze(args) -> dict:
    fmt = ScoreFormat[args.format]
    if args.cantus_policy == "column":
        if args.cantus_pc is not None:
            raise ValueError("--cantus-pc applies only with --cantus-policy fixed")
        if fmt is ScoreFormat.DRONE:
            raise ValueError("DRONE input has no cantus; use --cantus-policy fixed --cantus-pc PC")
        policy, policy_text = COLUMN_CANTUS, "COLUMN_CANTUS"
    else:
        if args.cantus_pc is None:
            raise ValueError("--cantus-pc is required with --cantus-policy fixed")
        try:
            pc = Modulus().parse_residue(args.cantus_pc)
        except ValueError:
            raise ValueError(f"--cantus-pc {args.cantus_pc} is not a pitch class in 0..11") from None
        policy, policy_text = FixedCantus(pc), f"FIXED_CANTUS({pc})"
    dedup = Dedup[args.dedup]
    dichotomy = Dichotomy.parse(args.world)
    _require_alpha(args.alpha)
    with open(args.file, encoding="utf-8") as f:  # every flag is checked before the file is read
        events = parse_score(f.read(), fmt)
    world = build_world(dichotomy)
    seq = extract_transitions(events, policy, dedup)
    counts = score_against_world(seq, world)
    pop = PopulationSpec.from_histogram(world.histogram)
    sample = sample_summary(counts, pop.support, SdDivisor[args.divisor])
    effect = effect_size(sample, pop, args.alpha)
    chi = chi_square_gof(sample, pop, yates=not args.no_yates,
                         merge_low_expected=args.merge_low_expected)
    corr = "Yates" if chi.yates else "uncorrected"
    return {
        "TEXT": [
            f"world: {world.label} ({world.dichotomy.render()})",
            f"model-variant: {world.variant}",
            f"file: {args.file}  policy: {policy_text}  dedup: {dedup.value}",
            f"transitions: {len(counts)}",
            "per-step counts: " + " ".join(str(c) for c in counts),
            "observed: " + "  ".join(f"{k}:{v}" for k, v in sample.observed),
            f"sample mean: {_f4(sample.mean)}  sd: {_f4(sample.sd)} "
            f"(divisor {sample.divisor.value})",
            f"population mean: {_f4(pop.mean)}  sd: {_f4(pop.sd)}",
            f"effect size d: {_f4(effect.d)}  "
            f"{_ci_level(effect.alpha)}% CI: [{_f4(effect.ci_low)}, {_f4(effect.ci_high)}]  "
            f"(z = {_f4(effect.z)})",
            f"chi-square: {_f4(chi.statistic)} (df {chi.df}, {corr})  p-value: {_fp(chi.p_value)}",
        ],
        "JSON": {
            "command": "analyze",
            "world": world.label,
            "dichotomy": world.dichotomy.render(),
            "model_variant": world.variant,
            "file": os.path.basename(args.file),
            "policy": policy_text,
            "dedup": seq.dedup_applied,
            "transition_count": len(counts),
            "per_step_counts": counts,
            "steps": [f"{a.render()}>{b.render()}" for a, b in seq.steps],
            "sample": {
                "n": sample.n,
                "observed": dict(sample.observed),
                "overflow_values": sample.overflow_values,
                "mean": sample.mean,
                "sd": sample.sd,
                "sd_divisor": sample.divisor,
            },
            "population": {"mean": pop.mean, "sd": pop.sd},
            "effect_size": effect,
            "chi_square": chi,
        },
    }


def cmd_noll(args) -> dict:
    if args.scan:
        if args.chord:
            raise ValueError("give either a chord or --scan wt-triads, not both")
        even = sorted(EVEN_WHOLE_TONE)
        reports = [chord_endomorphisms(frozenset(tri)) for tri in combinations(even, 3)]
        all_false = not any(r.strong_verdict for r in reports)
        return {
            "TEXT": [
                *(
                    f"{','.join(str(c) for c in r.chord)}: "
                    f"{len(r.endomorphisms)} endomorphisms, verdict {r.strong_verdict}"
                    for r in reports
                ),
                f"all verdicts false: {all_false}",
            ],
            "JSON": {
                "command": "noll scan",
                "scan": "wt-triads",
                "reports": [
                    {
                        "chord": r.chord,
                        "endomorphism_count": len(r.endomorphisms),
                        "linear_parts": r.linear_parts,
                        "strong_verdict": r.strong_verdict,
                    }
                    for r in reports
                ],
                "all_strong_verdicts_false": all_false,
            },
        }
    if not args.chord:
        raise ValueError("either a chord or --scan wt-triads is required")
    report = chord_endomorphisms(parse_pitch_class_set(args.chord))
    endomorphisms = [m.render() for m in report.endomorphisms]
    return {
        "TEXT": [
            f"chord: {','.join(str(c) for c in report.chord)}",
            f"endomorphisms ({len(endomorphisms)}): " + " ".join(endomorphisms),
            f"linear parts: {','.join(str(v) for v in report.linear_parts)}",
            f"strong verdict: {report.strong_verdict}",
        ],
        "JSON": {
            "command": "noll",
            "chord": report.chord,
            "endomorphisms": endomorphisms,
            "endomorphism_count": len(endomorphisms),
            "linear_parts": report.linear_parts,
            "strong_verdict": report.strong_verdict,
        },
    }


def cmd_scale_report(args) -> dict:
    world = build_world(Dichotomy.parse(args.dichotomy))
    scale = parse_pitch_class_set(args.scale)
    report = scale_restriction_report(world, scale, RestrictionMode[args.mode])
    return {
        "TEXT": [
            f"world: {world.label}  scale: {','.join(str(p) for p in report.scale)}  "
            f"mode: {report.mode.value}",
            f"steps in domain: {report.restricted_step_count}",
            f"forbidden steps: {report.forbidden_step_count}",
            f"forbidden classes (k, d, l): {report.forbidden_class_count}",
            *(f"  k={k} d={d} l={l}" for k, d, l in report.forbidden_classes),
        ],
        "JSON": {
            "command": "scale-report",
            "world": world.label,
            "model_variant": world.variant,
            "scale": report.scale,
            "mode": report.mode,
            "restricted_step_count": report.restricted_step_count,
            "forbidden_step_count": report.forbidden_step_count,
            "forbidden_class_count": report.forbidden_class_count,
            "forbidden_classes": report.forbidden_classes,
            "forbidden_steps": [f"{a.render()}>{b.render()}" for a, b in report.forbidden_steps],
        },
    }


def cmd_walk(args) -> dict:
    world = build_world(Dichotomy.parse(args.dichotomy))
    start = DualNumber.parse(args.start)
    result = walk(world, start, args.length, args.seed)
    path = [z.render() for z in result.path]
    text = [" ".join(path)]
    if not result.completed:
        text.append(f"dead end after {result.steps_taken} steps")
    return {
        "TEXT": text,
        "JSON": {
            "command": "walk",
            "world": world.label,
            "model_variant": world.variant,
            "start": start.render(),
            "length": args.length,
            "seed": args.seed,
            "path": path,
            "completed": result.completed,
            "dead_end_at": result.dead_end_at,
        },
    }


# ---------------------------------------------------------------------------
# parser


def _plain_number(kind):
    """``kind`` read under the score-integer rule: ASCII, no ``_`` and no ``+``."""
    def read(text: str):
        if not _plain(text):
            raise ValueError(text)
        return kind(text)
    read.__name__ = kind.__name__  # argparse names the type in its usage error
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="counterpoint",
        description="Counterpoint worlds, dichotomy analysis, and score reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worlds = sub.add_parser("worlds", help="world tables and exports")
    worlds_sub = worlds.add_subparsers(dest="worlds_command", required=True)
    table = worlds_sub.add_parser("table", help="histogram and moments")
    table.add_argument("--dichotomy", required=True)
    table.add_argument("--output", choices=["TEXT", "JSON", "CSV"], default="TEXT")
    table.set_defaults(func=cmd_worlds_table)
    export = worlds_sub.add_parser("export", help="matrix or histogram CSV")
    export.add_argument("--dichotomy", required=True)
    export.add_argument("--what", choices=["matrix", "histogram"], default="matrix")
    export.set_defaults(func=cmd_worlds_export, output="CSV")

    step = sub.add_parser("step", help="symmetry count of one step")
    step.add_argument("--dichotomy", required=True)
    step.add_argument("--from", dest="src", required=True, metavar="X+EK")
    step.add_argument("--to", dest="dst", required=True, metavar="Y+EL")
    step.set_defaults(func=cmd_step)

    compare = sub.add_parser("compare", help="overlap of two worlds")
    compare.add_argument("--a", required=True)
    compare.add_argument("--b", required=True)
    compare.set_defaults(func=cmd_compare)

    analyze = sub.add_parser("analyze", help="score a passage against a world")
    analyze.add_argument("--file", required=True)
    analyze.add_argument("--format", choices=[f.value for f in ScoreFormat], required=True)
    analyze.add_argument("--world", required=True)
    analyze.add_argument("--cantus-policy", choices=["column", "fixed"], default="column")
    analyze.add_argument("--cantus-pc")
    analyze.add_argument("--dedup", choices=[d.value for d in Dedup], default="CONSECUTIVE")
    analyze.add_argument("--alpha", type=_plain_number(float), default=0.10)
    analyze.add_argument("--no-yates", action="store_true")
    analyze.add_argument("--merge-low-expected", action="store_true")
    analyze.add_argument("--divisor", choices=[d.value for d in SdDivisor], default="N")
    analyze.set_defaults(func=cmd_analyze)

    noll = sub.add_parser("noll", help="chord endomorphism report")
    noll.add_argument("chord", nargs="?")
    noll.add_argument("--scan", choices=["wt-triads"])
    noll.set_defaults(func=cmd_noll)

    scale = sub.add_parser("scale-report", help="forbidden steps inside a scale")
    scale.add_argument("--dichotomy", required=True)
    scale.add_argument("--scale", required=True)
    scale.add_argument(
        "--mode", choices=[m.value for m in RestrictionMode], default="CANTUS_ONLY"
    )
    scale.set_defaults(func=cmd_scale_report)

    walk_p = sub.add_parser("walk", help="seeded random walk over valid steps")
    walk_p.add_argument("--dichotomy", required=True)
    walk_p.add_argument("--start", required=True, metavar="X+EK")
    walk_p.add_argument("--length", type=_plain_number(int), default=8)
    walk_p.add_argument("--seed", type=_plain_number(int), default=0)
    walk_p.set_defaults(func=cmd_walk)

    # Added last so each command's usage and help keep their order.
    for command in (step, compare, analyze, noll, scale, walk_p):
        command.add_argument("--output", choices=["TEXT", "JSON"], default="TEXT")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        _emit(args.output, args.func(args))
        return EXIT_OK
    except GateFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except _MODEL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
