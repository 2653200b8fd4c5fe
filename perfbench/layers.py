"""Per-layer metrics of a traced run.

The traced run puts spans around the calls the benchmark makes into each
module's public functions: the workload's own operations, plus a probe of
the calls no workload operation makes (interpreter start, import, the
algebra, single engine and query calls, the CLI's ``load_world`` and
``main``).  A layer's time is the self time of its spans: span time minus
the time covered by child spans.

Spans sit outside the program, so the trace cannot split work that happens
inside one public call: the calibration gate inside ``build_world``, cache
encode and decode inside ``load_world``, ``model_tables`` inside the mystic
build and its import, and interpreter start versus import inside one CLI
request.  Those splits need spans inside the program.
"""

from __future__ import annotations

import contextlib
import io
import re
import statistics
from collections import defaultdict
from typing import Dict, List

from counterpoint import (
    Dichotomy,
    DualNumber,
    RestrictionMode,
    chord_endomorphisms,
    classify,
    counterpoint_symmetries,
    scale_restriction_report,
    step_count,
    strength,
    world_matrix_csv,
    world_overlap,
)
from counterpoint.cli_reports import load_world, main as cli_main

from inputs import FUX, MYSTIC, REQUEST_WORLDS
from ops import NULL_TRACER, Bench, Tracer, expect

MODULES = ("counterpoint", "counterpoint.residue_algebra", "counterpoint.dichotomies",
           "counterpoint.model_tables", "counterpoint.worlds", "counterpoint.stats",
           "counterpoint.score_io", "counterpoint.cli_reports")
# Request kind of the CLI round -> command whose in-process ``main`` is timed.
MAIN_PROBES = {"worlds-table-text": "worlds-table", "worlds-export": "worlds-export",
               "step": "step", "compare": "compare", "analyze": "analyze", "noll": "noll",
               "scale-report-cantus": "scale-report", "walk": "walk"}
CLI_COMMANDS = tuple(MAIN_PROBES.values())
SHARE_LAYERS = ("cli_process", "score_io", "stats", "worlds", "dichotomies", "bench")
PROCESS_REPEATS = 7  # fresh interpreters per start-up and import figure
IMPORTTIME_REPEATS = 5
CALL_REPEATS = 3  # in-process repeats of the slower single calls
BATCH = 2000  # calls per batch for the sub-microsecond calls

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [("interp_start_ms", "ms"), ("import_ms", "ms")]
    + [(f"import_self_ms.{m}", "ms") for m in MODULES]
    + [("dual_number_parse_us", "us"), ("dual_affine_invert_us", "us"),
       ("strength_ms", "ms"), ("classify_ms", "ms"),
       ("strong_atlas_ms.n12", "ms"), ("strong_atlas_ms.n14", "ms"),
       ("chord_endomorphisms_ms", "ms"), ("strong_classes.n14", "count"),
       ("counterpoint_symmetries_us", "us"), ("symmetries_total.fux", "count"),
       ("engine_survivor_ratio", "ratio"),
       ("build_world_ms.fux", "ms"), ("build_world_ms.mystic", "ms"),
       ("build_world_ms.n12_other", "ms"), ("build_world_ms.n14", "ms"),
       ("world_count_ns", "ns"), ("successors_us", "us"), ("walk_step_us", "us"),
       ("step_count_us", "us"), ("world_overlap_ms", "ms"),
       ("scale_restriction_report_ms", "ms"), ("world_matrix_csv_ms", "ms"),
       ("parse_score_us_per_event", "us"), ("extract_transitions_us_per_event", "us"),
       ("score_against_world_us_per_step", "us"),
       ("population_spec_us", "us"), ("sample_summary_us_per_obs", "us"),
       ("effect_size_us", "us"), ("chi_square_gof_us", "us"),
       ("load_world_hit_ms", "ms"), ("load_world_miss_ms", "ms")]
    + [(f"cli_main_ms.{c}", "ms") for c in CLI_COMMANDS]
    + [(f"self_share.{layer}", "share") for layer in SHARE_LAYERS]
    + [("trace_overhead_ratio", "ratio")]
)

# metric -> (span name, scale): self time per unit of the named spans, times scale.
SPAN_RATES = {
    "dual_number_parse_us": ("residue_algebra.DualNumber.parse", 1e6),
    "dual_affine_invert_us": ("residue_algebra.DualAffineMap.invert", 1e6),
    "strength_ms": ("dichotomies.strength", 1e3),
    "classify_ms": ("dichotomies.classify", 1e3),
    "strong_atlas_ms.n12": ("dichotomies.strong_atlas.n12", 1e3),
    "strong_atlas_ms.n14": ("dichotomies.strong_atlas.n14", 1e3),
    "chord_endomorphisms_ms": ("dichotomies.chord_endomorphisms", 1e3),
    "counterpoint_symmetries_us": ("worlds.counterpoint_symmetries", 1e6),
    "build_world_ms.fux": ("worlds.build_world.fux", 1e3),
    "build_world_ms.mystic": ("worlds.build_world.mystic", 1e3),
    "build_world_ms.n12_other": ("worlds.build_world.n12_other", 1e3),
    "build_world_ms.n14": ("worlds.build_world.n14", 1e3),
    "world_count_ns": ("worlds.World.count", 1e9),
    "successors_us": ("worlds.World.successors", 1e6),
    "walk_step_us": ("worlds.walk", 1e6),
    "step_count_us": ("worlds.step_count", 1e6),
    "world_overlap_ms": ("worlds.world_overlap", 1e3),
    "scale_restriction_report_ms": ("worlds.scale_restriction_report", 1e3),
    "world_matrix_csv_ms": ("worlds.world_matrix_csv", 1e3),
    "parse_score_us_per_event": ("score_io.parse_score", 1e6),
    "extract_transitions_us_per_event": ("score_io.extract_transitions", 1e6),
    "score_against_world_us_per_step": ("score_io.score_against_world", 1e6),
    "population_spec_us": ("stats.PopulationSpec.from_histogram", 1e6),
    "sample_summary_us_per_obs": ("stats.sample_summary", 1e6),
    "effect_size_us": ("stats.effect_size", 1e6),
    "chi_square_gof_us": ("stats.chi_square_gof", 1e6),
    "load_world_hit_ms": ("cli_reports.load_world.hit", 1e3),
    "load_world_miss_ms": ("cli_reports.load_world.miss", 1e3),
    **{f"cli_main_ms.{c}": (f"cli_reports.main.{c}", 1e3) for c in CLI_COMMANDS},
}


def self_times(spans) -> List[float]:
    """Span duration minus the duration of its direct children, at reference speed."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return [t * s.speed for t, s in zip(own, spans)]


def layer_metrics(tracer: Tracer, import_self_ms: Dict[str, float], overhead: float) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    time_by_name: Dict[str, float] = defaultdict(float)
    units_by_name: Dict[str, int] = defaultdict(int)
    for s, t in zip(spans, own):
        time_by_name[s.name] += t
        units_by_name[s.name] += s.units
    out = {}
    for metric, (name, scale) in SPAN_RATES.items():
        if units_by_name[name]:
            out[metric] = time_by_name[name] / units_by_name[name] * scale
    # Fresh-process import minus the bare interpreter, both as medians.
    imports = [t for s, t in zip(spans, own) if s.name == "import.counterpoint.cli_reports"]
    starts = [t for s, t in zip(spans, own) if s.name == "interpreter.start"]
    if imports and starts:
        out["import_ms"] = (statistics.median(imports) - statistics.median(starts)) * 1e3
        out["interp_start_ms"] = statistics.median(starts) * 1e3
    out.update({f"import_self_ms.{m}": ms for m, ms in import_self_ms.items()})
    out.update(tracer.counts)
    # Where the workload's operations spent their time, by layer.
    op_total = sum((s.end - s.start) * s.speed for s in spans
                   if s.parent is None and s.name.startswith("op."))
    shares: Dict[str, float] = defaultdict(float)
    in_ops = _inside_ops(spans)
    for s, t, inside in zip(spans, own, in_ops):
        if inside:
            layer = "bench" if s.name.startswith("op.") else s.name.split(".")[0]
            shares[layer] += t
    for layer in SHARE_LAYERS:
        out[f"self_share.{layer}"] = shares[layer] / op_total if op_total else 0.0
    out["trace_overhead_ratio"] = overhead
    return out


def _inside_ops(spans) -> List[bool]:
    inside = []
    for s in spans:
        if s.parent is None:
            inside.append(s.name.startswith("op."))
        else:
            inside.append(inside[s.parent])
    return inside


# ---------------------------------------------------------------------------
# probe: calls no workload operation makes


def probe(bench: Bench, tr: Tracer) -> Dict[str, float]:
    """Run every probe with spans; return import self times (ms) from ``-X importtime``."""
    for _ in range(PROCESS_REPEATS):
        with tr.span("interpreter.start"):
            bench.attempt("python -c pass", _spawn_ok, bench, ["-c", "pass"])
        with tr.span("import.counterpoint.cli_reports"):
            bench.attempt("import", _spawn_ok, bench, ["-c", "import counterpoint.cli_reports"])
    import_self = bench.attempt("-X importtime", _import_self_ms, bench) or {}
    bench.attempt("algebra probe", _probe_algebra, bench, tr)
    bench.attempt("dichotomies probe", _probe_dichotomies, bench, tr)
    bench.attempt("engine probe", _probe_engine, bench, tr)
    bench.attempt("queries probe", _probe_queries, bench, tr)
    bench.attempt("load_world probe", _probe_load_world, bench, tr)
    for req in bench.requests:
        if req.kind in MAIN_PROBES:
            bench.attempt(f"main {req.kind}", _probe_main, bench, tr, MAIN_PROBES[req.kind], req)
    return import_self


def _spawn_ok(bench: Bench, args: List[str]) -> None:
    _, code, _, err, _ = bench.spawn(args)
    expect(code == 0, f"exit status {code}: {err.strip()[:300]}")


def _import_self_ms(bench: Bench) -> Dict[str, float]:
    per_module: Dict[str, List[float]] = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, err, _ = bench.spawn(["-X", "importtime", "-c", "import counterpoint.cli_reports"])
        expect(code == 0, f"exit status {code}")
        for self_us, name in re.findall(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", err):
            if name in MODULES:
                per_module[name].append(int(self_us) / 1e3)
    expect(set(per_module) == set(MODULES), "importtime lists every package module")
    return {m: statistics.median(v) for m, v in per_module.items()}


def _probe_algebra(bench: Bench, tr: Tracer) -> None:
    rng = bench.rng
    texts = [f"{rng.randrange(12)}+e{rng.randrange(12)}" for _ in range(BATCH)]
    with tr.span("residue_algebra.DualNumber.parse", BATCH):
        parsed = [DualNumber.parse(t) for t in texts]
    expect([z.render() for z in parsed] == texts, "DualNumber round trip")
    fux = bench.worlds[FUX].dichotomy
    maps = [g for x, k in ((rng.randrange(12), rng.randrange(12)) for _ in range(8))
            for g in counterpoint_symmetries(fux, DualNumber(x, k))]
    maps = (maps * (BATCH // max(1, len(maps)) + 1))[:BATCH]
    with tr.span("residue_algebra.DualAffineMap.invert", len(maps)):
        inverses = [g.invert() for g in maps]
    expect(all(g.compose(h).is_identity() for g, h in zip(maps, inverses)), "g o g^-1 = id")


def _probe_dichotomies(bench: Bench, tr: Tracer) -> None:
    for name in REQUEST_WORLDS:
        d = Dichotomy.parse(name)
        with tr.span("dichotomies.strength"):
            cert = strength(d)
        expect(cert.is_strong, f"{name} is strong")
        with tr.span("dichotomies.classify"):
            cls = classify(d)
        expect(len(cls.canonical_representative) == 6, "classify")
    for report_expected in bench.scan_reports():
        with tr.span("dichotomies.chord_endomorphisms"):
            report = chord_endomorphisms(frozenset(report_expected.chord))
        expect(report == report_expected, "chord_endomorphisms is deterministic")


def _probe_engine(bench: Bench, tr: Tracer) -> None:
    world = bench.worlds[FUX]
    d = world.dichotomy
    n = d.modulus.n
    survivors = 0
    for xi in world.intervals():
        with tr.span("worlds.counterpoint_symmetries"):
            maps = counterpoint_symmetries(d, xi)
        survivors += len(maps)
    tr.count("symmetries_total.fux", survivors)
    pool = n * n * len(d.modulus.units()) * n * n  # phi(n) * n^2 maps per interval
    tr.count("engine_survivor_ratio", survivors / pool)


def _probe_queries(bench: Bench, tr: Tracer) -> None:
    rng = bench.rng
    fux, mystic = bench.worlds[FUX], bench.worlds[MYSTIC]
    intervals = list(fux.intervals())
    pairs = [(rng.choice(intervals), rng.choice(intervals)) for _ in range(BATCH)]
    with tr.span("worlds.World.count", len(pairs)):
        counts = [fux.count(a, b) for a, b in pairs]
    expect(counts == [fux.counts[12 * a.a + a.b][12 * b.a + b.b] for a, b in pairs], "World.count")
    with tr.span("worlds.World.successors", len(intervals)):
        rows = [fux.successors(xi) for xi in intervals]
    expect(sum(len(r) for r in rows) == fux.valid_step_count, "successors cover the valid steps")
    for a, b in pairs[:50]:
        with tr.span("worlds.step_count"):
            c = step_count(fux.dichotomy, a, b)
        expect(c == fux.count(a, b), "step_count agrees with the world")
    for _ in range(CALL_REPEATS):
        with tr.span("worlds.world_overlap"):
            overlap = world_overlap(fux, mystic)
        expect(0 < overlap.p_ab <= min(overlap.p_a, overlap.p_b), "overlap bounds")
        with tr.span("worlds.world_matrix_csv"):
            text = world_matrix_csv(fux)
        expect(text.count("\n") == fux.total_steps + 1, "matrix CSV rows")
    for _ in range(2 * CALL_REPEATS):
        scale = frozenset(rng.sample(range(12), 7))
        for mode in RestrictionMode:
            with tr.span("worlds.scale_restriction_report"):
                report = scale_restriction_report(fux, scale, mode)
            expect(report.forbidden_step_count <= report.restricted_step_count, "scale report")


def _probe_load_world(bench: Bench, tr: Tracer) -> None:
    with bench.in_process_env():
        for _ in range(CALL_REPEATS):
            bench.clear_cache()
            for outcome in ("miss", "hit"):
                with tr.span(f"cli_reports.load_world.{outcome}"):
                    world = load_world(Dichotomy.fux())
                expect(world.histogram == bench.frozen_histogram(world), f"load_world {outcome}")


def _probe_main(bench: Bench, tr: Tracer, command: str, req) -> None:
    argv = bench.cli_argv(req)
    with bench.in_process_env():
        for repeat in range(CALL_REPEATS + 1):  # the first, untimed call fills the cache
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    (tr if repeat else NULL_TRACER).span(f"cli_reports.main.{command}"):
                code = cli_main(argv)
            expect(code == 0, f"main {command} exit status {code}")
            bench.check_cli(req, out.getvalue())
