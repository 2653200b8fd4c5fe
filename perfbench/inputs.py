"""Seeded inputs for the three workloads.

Everything here is a pure function of a ``random.Random`` built from the
benchmark's ``--seed``: the same seed gives the same scores, requests, walk
starts and sweep dichotomies.  The program only ever sees these generated
inputs.  Why each input property was chosen:

* Score sizes are log-uniform over 16..16384 events, stratified so that the
  corpus holds one score per size band.  Corpora mix short exercises with
  long pieces; stratifying keeps the corpus's total event count, and so its
  cost, nearly the same for every seed.
* A fixed share of events hold the previous interval.  Three equal intervals
  in a row give a repeated step, which is what ``Dedup.CONSECUTIVE`` removes,
  so deduplication always has work.
* Scores alternate TWO_VOICE (``COLUMN_CANTUS``) with DRONE (``FixedCantus``)
  and the fux with the mystic world, so both cantus policies and both world
  builds (engine and frozen table) are read.
* Walk starts are drawn only from intervals from which no dead end can be
  reached: all 144 in fux, 72 in mystic.  The mystic world has 16128 zero
  cells, so a random start is often a dead end, which the library reports
  as an error, not as work; and a walk that hits one later stops early, so
  the steps a walk set takes, and their cost, would depend on the seed.
* The CLI round is one request of each kind, in a seeded order with seeded
  arguments; fux, mystic and a non-preset class are each loaded by some
  kind.  Its composition is fixed, so per-request latency percentiles
  do not depend on which kinds the seed happened to draw.  Three of its
  twelve cold requests skip the engine build (two ``noll`` and the mystic
  table), so the cold median falls inside the cluster of engine builds
  rather than on the edge between the two clusters.
* Sweep dichotomies are seeded affine images of each strong class's
  canonical representative: the work per class is the same, but the
  library's per-dichotomy caches start cold in every sweep, as in a fresh
  process.  The two presets are swept as themselves, so their calibration
  gates run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from counterpoint import (
    FUX_HALF,
    MYSTIC_HALF,
    ColumnCantus,
    Dichotomy,
    FixedCantus,
    Modulus,
    ScoreFormat,
    World,
)

FUX = "fux"
MYSTIC = "mystic"
OTHER = "0,1,2,3,5,8"  # a strong class that is not a preset: never cached
REQUEST_WORLDS = (FUX, MYSTIC, OTHER)

SCORE_BANDS = 8  # scores per corpus, one per log-size band
SCORE_MIN_EVENTS, SCORE_MAX_EVENTS = 16, 16384
HOLD_SHARE = 0.2  # share of events that repeat the previous interval
WALK_BANDS = 4  # walks per world, one per log-length band
WALK_MIN, WALK_MAX = 16, 4096
CLI_SCORE_EVENTS = (200, 400)
CLI_WALK_LENGTH = (200, 400)
SWEEP_MODULI = (10, 12, 14)
PRESET_BY_ALIAS = {"Fux": ("fux", FUX_HALF), "78 (mystic)": ("mystic", MYSTIC_HALF)}


@dataclass(frozen=True)
class Score:
    """A generated score and what the library must make of it."""

    text: str
    fmt: ScoreFormat
    policy: object  # ColumnCantus or FixedCantus
    world: str  # FUX or MYSTIC
    intervals: Tuple[Tuple[int, int], ...]  # (cantus pc, interval) per event

    @property
    def events(self) -> int:
        return len(self.intervals)

    def expected_steps(self) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
        """Steps after CONSECUTIVE dedup, derived from the generator's own intervals."""
        steps = list(zip(self.intervals, self.intervals[1:]))
        return [s for i, s in enumerate(steps) if i == 0 or s != steps[i - 1]]


def log_stratified(rng: random.Random, count: int, low: int, high: int) -> List[int]:
    """One log-uniform draw from each of ``count`` equal log-width bands of [low, high]."""
    ratio = high / low
    return [round(low * ratio ** ((i + rng.random()) / count)) for i in range(count)]


def make_score(rng: random.Random, events: int, fmt: ScoreFormat, world: str) -> Score:
    drone_pc = rng.randrange(12)
    rows = ["measure,beat,pitch" if fmt is ScoreFormat.DRONE else "measure,beat,cantus,discant"]
    intervals = []
    cantus, pitch = 60, 64
    for i in range(events):
        if i == 0 or rng.random() >= HOLD_SHARE:
            cantus = rng.randrange(48, 73)
            pitch = rng.randrange(cantus, cantus + 24)
        measure, beat = divmod(i, 4)
        if fmt is ScoreFormat.DRONE:
            rows.append(f"{measure + 1},{beat + 1},{pitch}")
            intervals.append((drone_pc, (pitch - drone_pc) % 12))
        else:
            rows.append(f"{measure + 1},{beat + 1},{cantus},{pitch}")
            intervals.append((cantus % 12, (pitch - cantus) % 12))
    policy = FixedCantus(drone_pc) if fmt is ScoreFormat.DRONE else ColumnCantus()
    return Score("\n".join(rows) + "\n", fmt, policy, world, tuple(intervals))


def score_corpus(rng: random.Random) -> List[Score]:
    """One score per size band in a seeded order; each band has a fixed format and world."""
    sizes = log_stratified(rng, SCORE_BANDS, SCORE_MIN_EVENTS, SCORE_MAX_EVENTS)
    formats = (ScoreFormat.TWO_VOICE, ScoreFormat.DRONE)
    scores = [
        make_score(rng, size, formats[i % 2], (FUX, MYSTIC)[(i // 2) % 2])
        for i, size in enumerate(sizes)
    ]
    rng.shuffle(scores)
    return scores


def walk_starts(world: World) -> list:
    """Intervals of ``world`` from which no walk can reach a dead end."""
    successors = {xi: [eta for eta, _ in world.successors(xi)] for xi in world.intervals()}
    doomed = {xi for xi, nxt in successors.items() if not nxt}
    while True:
        more = {xi for xi, nxt in successors.items()
                if xi not in doomed and any(eta in doomed for eta in nxt)}
        if not more:
            return [xi for xi in successors if xi not in doomed]
        doomed |= more


def walk_set(rng: random.Random, starts: dict) -> List[Tuple[str, object, int, int]]:
    """(world, start, length, walk seed) per walk, in a seeded order.

    One length per band, walked in each world: both worlds get the same
    number of steps, whose cost per step differs, for every seed.
    """
    out = []
    for length in log_stratified(rng, WALK_BANDS, WALK_MIN, WALK_MAX):
        for world in (FUX, MYSTIC):
            out.append((world, rng.choice(starts[world]), length, rng.randrange(2 ** 31)))
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``argv`` after ``python -m counterpoint.cli_reports``."""

    kind: str
    argv: Tuple[str, ...]
    world: Optional[str] = None  # the dichotomy text the request loads, if any
    score: Optional[Score] = None  # written to a file for ``analyze``


def _scale(rng: random.Random) -> str:
    pcs = sorted(rng.sample(range(12), 7))
    return ",".join(map(str, pcs))


def cli_requests(rng: random.Random, starts: dict) -> List[Request]:
    """All 8 commands, 12 kinds, each world-loading kind on a fixed world, in a seeded order."""
    def pick_interval() -> str:
        return f"{rng.randrange(12)}+e{rng.randrange(12)}"

    chord = ",".join(map(str, sorted(rng.sample(range(12), rng.choice((3, 4))))))
    score_events = rng.randint(*CLI_SCORE_EVENTS)
    analyze_score = make_score(rng, score_events, ScoreFormat.TWO_VOICE, FUX)
    walk_start = rng.choice(starts[FUX]).render()
    requests = [
        Request("worlds-table-text", ("worlds", "table", "--dichotomy", FUX), FUX),
        Request("worlds-table-json",
                ("worlds", "table", "--dichotomy", MYSTIC, "--output", "JSON"), MYSTIC),
        Request("worlds-table-csv",
                ("worlds", "table", "--dichotomy", OTHER, "--output", "CSV"), OTHER),
        Request("worlds-export", ("worlds", "export", "--dichotomy", FUX, "--what", "matrix"), FUX),
    ]
    requests += [
        Request("step", ("step", "--dichotomy", FUX, "--from", pick_interval(),
                         "--to", pick_interval()), FUX),
        Request("compare", ("compare", "--a", FUX, "--b", MYSTIC), FUX),
        Request("analyze", ("analyze", "--format", "TWO_VOICE", "--world", FUX, "--output", "JSON"),
                FUX, analyze_score),
        Request("noll", ("noll", chord)),
        Request("noll-scan", ("noll", "--scan", "wt-triads", "--output", "JSON")),
        Request("scale-report-cantus",
                ("scale-report", "--dichotomy", FUX, "--scale", _scale(rng)), FUX),
        Request("scale-report-both",
                ("scale-report", "--dichotomy", FUX, "--scale", _scale(rng), "--mode",
                 "BOTH_VOICES", "--output", "JSON"), FUX),
        Request("walk", ("walk", "--dichotomy", FUX, "--start", walk_start, "--length",
                         str(rng.randint(*CLI_WALK_LENGTH)), "--seed", str(rng.randrange(10 ** 6))),
                FUX),
    ]
    rng.shuffle(requests)
    return requests


def sweep_dichotomies(rng: random.Random, atlases: dict) -> List[Tuple[str, Dichotomy]]:
    """(group, dichotomy) for every strong class at every swept modulus, in a seeded order.

    ``atlases`` maps n to that modulus's strong classes.  Groups name the
    per-layer build metrics: ``fux``, ``mystic``, ``n12_other``, ``n10``, ``n14``.
    """
    out = []
    for n in SWEEP_MODULI:
        modulus = Modulus(n)
        for cls in atlases[n]:
            canonical = tuple(cls.canonical_representative)
            if n == 12 and cls.alias in PRESET_BY_ALIAS:
                group, half = PRESET_BY_ALIAS[cls.alias]
            else:
                a = rng.choice(modulus.units())
                b = rng.randrange(n)
                half = frozenset((a * x + b) % n for x in canonical)
                group = "n12_other" if n == 12 else f"n{n}"
            out.append((group, Dichotomy(half, modulus)))
    rng.shuffle(out)
    return out

