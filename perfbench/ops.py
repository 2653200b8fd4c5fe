"""Timed, checked operations of the three activities, and the span tracer.

Every operation is checked against an expectation the benchmark derives
through the library on the same generated input, so the checks hold for any
seed.  A failed check or an exception counts one failed operation; nothing
aborts the run.  An operation's time covers only the calls into the
program, never the benchmark's own checks.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Optional

from counterpoint import (
    Dedup,
    Dichotomy,
    DualNumber,
    Modulus,
    PopulationSpec,
    RestrictionMode,
    build_world,
    chi_square_gof,
    chord_endomorphisms,
    effect_size,
    extract_transitions,
    parse_pitch_class_set,
    parse_score,
    sample_summary,
    scale_restriction_report,
    score_against_world,
    step_count,
    strong_atlas,
    walk,
    world_histogram_csv,
    world_matrix_csv,
    world_moments,
    world_overlap,
)
from counterpoint.model_tables import EXPECTED_STEP_HISTOGRAMS, mystic_class_count

import inputs
from inputs import FUX, MYSTIC, REQUEST_WORLDS, Request, Score

# Strong classes per modulus: a property of the model, not of a seed.
STRONG_CLASS_COUNTS = {10: 3, 12: 6, 14: 9}
RECHECKED_STEPS_PER_SCORE = 3
REFERENCE_S = 0.004  # nominal time of one reference measurement
REFERENCE_EVERY_S = 0.25  # re-measure the reference when the last one is older
CLI_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 5


class Mismatch(AssertionError):
    """The program's output differs from what the library derives."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# tracing


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at the root
    op: int  # operation id shared by the spans of one operation
    units: int  # events, steps or calls covered, for per-unit rates
    speed: float  # reference speed factor when the span opened (see Bench)


class Tracer:
    """Spans kept in memory; read ``spans`` and ``counts`` when the run ends."""

    def __init__(self, speed=lambda: 1.0) -> None:
        self.speed = speed
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []
        self._op = 0

    def op(self, name: str):
        self._op += 1
        return self.span(name)

    @contextlib.contextmanager
    def span(self, name: str, units: int = 1):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        speed = self.speed()
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self._op, units, speed)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    _NULL = contextlib.nullcontext()

    def op(self, name: str):
        return self._NULL

    def span(self, name: str, units: int = 1):
        return self._NULL

    def count(self, name: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# machine speed


def _reference_work(n: int = 2000) -> int:
    """Fixed pure-Python work that uses no part of the program: sets, dicts, strings."""
    seen: Dict[frozenset, int] = {}
    total = 0
    for i in range(n):
        key = frozenset(((i * 7) % 13, (i * 11) % 17, i % 5))
        seen[key] = seen.get(key, 0) + 1
        total += len(f"{i}+e{i % 12}".split("+"))
    return total + len(seen)


def reference_seconds() -> float:
    """Best of three timings of the reference work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return min(times)


# ---------------------------------------------------------------------------
# results of a run


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# the benchmark's handle on the program


class Bench:
    """One run's generated inputs, library-derived expectations and results.

    Each activity draws its inputs once, from its own stream of the seed,
    and every pass replays them; per item, the median over the passes
    counts.  The machine's speed changes by up to a factor of two for
    seconds to minutes at a time, so every time is recorded at reference
    speed: multiplied by REFERENCE_S over the time of a fixed reference
    computation measured at most REFERENCE_EVERY_S before the operation.
    """

    def __init__(self, root: Path, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.rng = random.Random(f"{seed}:checks")  # step re-checks and probe inputs
        self.python = sys.executable
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            HOME=str(workdir / "home"),
            COUNTERPOINT_CACHE_DIR=str(self.cache_dir),
        )
        (workdir / "home").mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.times: Dict[tuple, List[float]] = {}  # (kind, item) -> seconds at reference speed
        self.work: Dict[tuple, int] = {}  # (kind, item) -> events or steps of the item
        self.speed = 1.0  # REFERENCE_S over the latest reference time
        self.reference_s: List[float] = []  # every reference time of the run
        self._reference_at = -math.inf
        self.cli_child_rss_kb = 0
        self.worlds = {name: build_world(Dichotomy.parse(name)) for name in REQUEST_WORLDS}
        self.starts = {name: inputs.walk_starts(self.worlds[name]) for name in (FUX, MYSTIC)}
        analysis_rng = random.Random(f"{seed}:analysis")
        self.requests = inputs.cli_requests(random.Random(f"{seed}:cli"), self.starts)
        self.scores = inputs.score_corpus(analysis_rng)
        self.walks = inputs.walk_set(analysis_rng, self.starts)
        self.sweep_rng = random.Random(f"{seed}:sweep")
        self.sweep: Optional[list] = None  # drawn from the first pass's atlases
        self._scan_reports = None

    # -- bookkeeping -------------------------------------------------------

    def attempt(self, label: str, fn, *args):
        """Run one operation; count it, and count and report it if it fails."""
        self.calibrate()
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation is recorded, never fatal
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"perfbench: {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    @contextlib.contextmanager
    def in_process_env(self):
        """The children's cache dir and HOME, for calls made in this process."""
        saved = {k: os.environ.get(k) for k in ("HOME", "COUNTERPOINT_CACHE_DIR")}
        os.environ.update(HOME=self.env["HOME"], COUNTERPOINT_CACHE_DIR=str(self.cache_dir))
        try:
            yield
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    def calibrate(self) -> None:
        """Re-measure the machine's speed unless the last measurement is recent."""
        if time.monotonic() - self._reference_at > REFERENCE_EVERY_S:
            self.reference_s.append(reference_seconds())
            self.speed = REFERENCE_S / self.reference_s[-1]
            self._reference_at = time.monotonic()

    def record(self, key: tuple, seconds: float, work: int = 1) -> None:
        """Keep one raw time of an item, scaled to reference speed.

        An operation longer than REFERENCE_EVERY_S is scaled by the mean of
        the speeds measured before and after it.
        """
        speed = self.speed
        if seconds > REFERENCE_EVERY_S:
            self.calibrate()
            speed = (speed + self.speed) / 2
        self.times.setdefault(key, []).append(seconds * speed)
        self.work[key] = work

    def medians(self, kind: str) -> List[float]:
        """Per item of a kind, its median time over the passes."""
        return [statistics.median(v) for (k, _), v in self.times.items() if k == kind]

    def rate(self, kind: str) -> float:
        """Work per second over the median times of every item of a kind."""
        keys = [key for key in self.times if key[0] == kind]
        seconds = sum(statistics.median(self.times[k]) for k in keys)
        return sum(self.work[k] for k in keys) / seconds if seconds else 0.0

    def clear_cache(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    # -- CLI ---------------------------------------------------------------

    def spawn(self, args: List[str]) -> tuple:
        """Run ``python *args``; return (wall seconds, exit code, stdout, stderr, max RSS KiB)."""
        err_path = self.workdir / "stderr"
        with open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [self.python, *args], env=self.env, cwd=self.workdir,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return elapsed, proc.returncode, out.decode(), err.read().decode(), usage.ru_maxrss

    def cli_argv(self, req: Request) -> List[str]:
        argv = list(req.argv)
        if req.score is not None:
            path = self.workdir / "score.csv"
            path.write_text(req.score.text)
            argv += ["--file", str(path)]
        return argv

    def run_request(self, req: Request, tr=NULL_TRACER) -> tuple:
        """One request as a fresh process; return (wall seconds, max RSS KiB). Raises on a wrong answer."""
        with tr.span(f"cli_process.{req.kind}"):
            elapsed, code, out, err, rss = self.spawn(
                ["-m", "counterpoint.cli_reports", *self.cli_argv(req)])
        expect(code == 0, f"exit status {code}: {err.strip()[:300]}")
        self.check_cli(req, out)
        return elapsed, rss

    def cli_pass(self, tr=NULL_TRACER) -> None:
        """Each request cold (empty cache) and then warm (its cold run just before)."""
        for i, req in enumerate(self.requests):
            self.clear_cache()
            for phase in ("cold", "warm"):
                with tr.op(f"op.cli.{phase}"):
                    got = self.attempt(f"{phase} {' '.join(req.argv)}", self.run_request, req, tr)
                if got is not None:
                    self.record((phase, i), got[0])
                    self.cli_child_rss_kb = max(self.cli_child_rss_kb, got[1])

    def check_cli(self, req: Request, out: str) -> None:
        kind, argv = req.kind, req.argv
        w = self.worlds.get(req.world)
        if kind == "worlds-table-text":
            hist = {int(c): int(f) for c, f in re.findall(r"^(\d+) +(\d+)$", out, re.M)}
            expect(hist == self.frozen_histogram(w), "TEXT histogram")
            expect(out.startswith(f"world: {w.label} ({w.dichotomy.render()})\n"), "TEXT header")
        elif kind == "worlds-table-json":
            data = json.loads(out)
            hist = {str(c): f for c, f in self.frozen_histogram(w).items()}
            expect(data["histogram"] == hist, "JSON histogram")
            mean = world_moments(w).mean
            expect(data["moments"]["mean"]["fraction"] == f"{mean.numerator}/{mean.denominator}",
                   "JSON mean")
        elif kind == "worlds-table-csv":
            expect(out == world_histogram_csv(w), "CSV histogram")
        elif kind == "worlds-export":
            expect(out == world_matrix_csv(w), "matrix CSV")
        elif kind == "step":
            src, dst = argv[argv.index("--from") + 1], argv[argv.index("--to") + 1]
            count = w.count(DualNumber.parse(src), DualNumber.parse(dst))
            expect(out == f"{src}>{dst}: {count}\n", "step line")
        elif kind == "compare":
            a, b = self.worlds[FUX], self.worlds[MYSTIC]
            overlap, total = world_overlap(a, b), a.total_steps
            want = [str(int(p * total)) for p in (overlap.p_a, overlap.p_b, overlap.p_ab)]
            expect(re.findall(rf"= (\d+)/{total} =", out) == want, "compare fractions")
        elif kind == "analyze":
            data = json.loads(out)
            score = req.score
            want = [w.count_at(x, k, y, l) for (x, k), (y, l) in score.expected_steps()]
            expect(data["per_step_counts"] == want, "analyze per-step counts")
            pop = PopulationSpec.from_histogram(w.histogram)
            chi = chi_square_gof(sample_summary(want, pop.support), pop)
            expect(data["chi_square"]["p_value"] == chi.p_value, "analyze chi-square p-value")
            expect(0.0 <= data["chi_square"]["p_value"] <= 1.0, "p-value outside [0, 1]")
        elif kind == "noll":
            report = chord_endomorphisms(parse_pitch_class_set(argv[1]))
            expect(f"endomorphisms ({len(report.endomorphisms)}):" in out, "noll count")
            expect(out.endswith(f"strong verdict: {report.strong_verdict}\n"), "noll verdict")
        elif kind == "noll-scan":
            reports = self.scan_reports()
            data = json.loads(out)
            expect([r["endomorphism_count"] for r in data["reports"]]
                   == [len(r.endomorphisms) for r in reports], "noll scan counts")
            expect(data["all_strong_verdicts_false"] == (not any(r.strong_verdict for r in reports)),
                   "noll scan verdict")
        elif kind.startswith("scale-report"):
            mode = RestrictionMode.BOTH_VOICES if "BOTH_VOICES" in argv else RestrictionMode.CANTUS_ONLY
            scale = parse_pitch_class_set(argv[argv.index("--scale") + 1])
            report = scale_restriction_report(w, scale, mode)
            want = (report.restricted_step_count, report.forbidden_step_count,
                    report.forbidden_class_count)
            if "JSON" in argv:
                data = json.loads(out)
                got = tuple(data[k] for k in ("restricted_step_count", "forbidden_step_count",
                                              "forbidden_class_count"))
            else:
                got = tuple(int(v) for v in re.findall(
                    r"^(?:steps in domain|forbidden steps|forbidden classes \(k, d, l\)): (\d+)$",
                    out, re.M))
            expect(got == want, "scale-report counts")
        elif kind == "walk":
            start = argv[argv.index("--start") + 1]
            length = int(argv[argv.index("--length") + 1])
            seed = int(argv[argv.index("--seed") + 1])
            path = walk(w, DualNumber.parse(start), length, seed).path
            expect(out.split("\n")[0] == " ".join(z.render() for z in path), "walk path")
        else:
            raise Mismatch(f"no expectation for request kind {kind!r}")

    def scan_reports(self) -> list:
        if self._scan_reports is None:
            even = sorted(parse_pitch_class_set("0,2,4,6,8,10"))
            self._scan_reports = [chord_endomorphisms(frozenset(t)) for t in combinations(even, 3)]
        return self._scan_reports

    @staticmethod
    def frozen_histogram(w) -> dict:
        """The frozen fingerprint for a preset; the library's own build otherwise."""
        return EXPECTED_STEP_HISTOGRAMS.get(w.label, w.histogram)

    # -- score analysis and walks -----------------------------------------

    def analyze_score(self, score: Score, tr=NULL_TRACER) -> float:
        """The whole analysis chain on one score; return its seconds. Raises on a wrong answer."""
        world = self.worlds[score.world]
        start = time.perf_counter()
        with tr.span("score_io.parse_score", score.events):
            events = parse_score(score.text, score.fmt)
        with tr.span("score_io.extract_transitions", score.events):
            seq = extract_transitions(events, score.policy, Dedup.CONSECUTIVE)
        with tr.span("score_io.score_against_world", len(seq.steps)):
            counts = score_against_world(seq, world)
        with tr.span("stats.PopulationSpec.from_histogram"):
            pop = PopulationSpec.from_histogram(world.histogram)
        with tr.span("stats.sample_summary", len(counts)):
            sample = sample_summary(counts, pop.support)
        with tr.span("stats.effect_size"):
            effect = effect_size(sample, pop)
        with tr.span("stats.chi_square_gof"):
            chi = chi_square_gof(sample, pop)
        elapsed = time.perf_counter() - start

        expect(len(events) == score.events, "event count")
        steps = [((a.a, a.b), (b.a, b.b)) for a, b in seq.steps]
        expect(steps == score.expected_steps(), "deduplicated steps")
        expect(len(counts) == len(steps), "one count per step")
        for i in self.rng.sample(range(len(steps)), min(RECHECKED_STEPS_PER_SCORE, len(steps))):
            expect(counts[i] == self.recount(score.world, seq.steps[i]), f"step count of step {i}")
        expect(sample.n == len(counts) and sample.mean == Fraction(sum(counts), len(counts)),
               "sample moments")
        expect(math.isfinite(effect.d), "effect size")
        expect(0.0 <= chi.p_value <= 1.0, "p-value outside [0, 1]")
        return elapsed

    def recount(self, world_name: str, step) -> int:
        """A step's count by a path independent of the world matrix."""
        (x, k), (y, l) = (step[0].a, step[0].b), (step[1].a, step[1].b)
        if world_name == MYSTIC:
            return mystic_class_count(k, (y - x) % 12, l)
        return step_count(self.worlds[world_name].dichotomy, *step)

    def walk_once(self, world_name: str, start, length: int, seed: int, tr=NULL_TRACER) -> tuple:
        """One seeded walk; return (steps taken, seconds). Raises on an invalid path."""
        world = self.worlds[world_name]
        t0 = time.perf_counter()
        with tr.span("worlds.walk", length):
            result = walk(world, start, length, seed)
        elapsed = time.perf_counter() - t0
        path = result.path
        expect(path[0] == start, "walk start")
        expect(all(world.count(a, b) > 0 for a, b in zip(path, path[1:])), "walk takes a zero step")
        expect(result.completed == (result.steps_taken == length), "walk completion flag")
        if not result.completed:
            expect(not world.successors(path[-1]), "walk stopped before a dead end")
        return result.steps_taken, elapsed

    def analysis_pass(self, tr=NULL_TRACER) -> None:
        """Every score through the chain, then every walk."""
        for i, score in enumerate(self.scores):
            with tr.op("op.analyze"):
                got = self.attempt(f"analyze {score.events} events", self.analyze_score, score, tr)
            if got is not None:
                self.record(("score", i), got, score.events)
        for i, (world_name, start, length, seed) in enumerate(self.walks):
            with tr.op("op.walk"):
                got = self.attempt(f"walk {world_name} {length}", self.walk_once,
                                   world_name, start, length, seed, tr)
            if got is not None:
                self.record(("walk", i), got[1], got[0])

    # -- world sweep -------------------------------------------------------

    def atlas(self, n: int, tr=NULL_TRACER) -> tuple:
        """strong_atlas at modulus n; return (classes, seconds)."""
        start = time.perf_counter()
        with tr.span(f"dichotomies.strong_atlas.n{n}"):
            classes = strong_atlas(Modulus(n))
        elapsed = time.perf_counter() - start
        expect(len(classes) == STRONG_CLASS_COUNTS[n], f"{len(classes)} strong classes at n={n}")
        tr.count(f"strong_classes.n{n}", len(classes))
        return classes, elapsed

    def build_checked(self, group: str, d: Dichotomy, tr=NULL_TRACER) -> float:
        """build_world then world_moments; return seconds. Raises on a wrong world."""
        start = time.perf_counter()
        with tr.span(f"worlds.build_world.{group}"):
            w = build_world(d)
        with tr.span("worlds.world_moments"):
            moments = world_moments(w)
        elapsed = time.perf_counter() - start
        n = d.modulus.n
        expect(sum(w.histogram.values()) == n ** 4, "histogram mass is not n^4")
        if group in EXPECTED_STEP_HISTOGRAMS:
            expect(w.histogram == EXPECTED_STEP_HISTOGRAMS[group], f"{group} histogram")
        mean = Fraction(sum(c * f for c, f in w.histogram.items()), n ** 4)
        expect(moments.mean == mean, "world mean")
        return elapsed

    def sweep_pass(self, tr=NULL_TRACER) -> None:
        """Atlas at n = 10, 12, 14, then a gated build of every strong class at each."""
        atlases = {}
        for n in inputs.SWEEP_MODULI:
            with tr.op("op.atlas"):
                got = self.attempt(f"strong_atlas n={n}", self.atlas, n, tr)
            if got is None:
                return
            atlases[n] = got[0]
            if n != 10:  # n = 10 only lists the classes to build
                self.record(("atlas", n), got[1])
        if self.sweep is None:
            self.sweep = inputs.sweep_dichotomies(self.sweep_rng, atlases)
        for i, (group, d) in enumerate(self.sweep):
            with tr.op("op.build"):
                got = self.attempt(f"build_world {group} {d.render()}", self.build_checked,
                                   group, d, tr)
            if got is not None:
                self.record(("build", i), got)
