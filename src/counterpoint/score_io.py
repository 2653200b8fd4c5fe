"""Score ingestion: two-voice CSV passages to contrapuntal step sequences.

Input formats (bit-exact headers, ASCII without ``+`` or ``_``, LF):

  * TWO_VOICE: ``measure,beat,cantus,discant`` — one event per row with both
    voices as MIDI pitches;
  * DRONE: ``measure,beat,pitch`` — upper voice only, the cantus being fixed
    and supplied separately as a pitch class.

Events map to dual intervals x + ek (cantus pc x, interval k mod 12);
consecutive intervals form steps, optionally deduplicated when a step
repeats its immediate predecessor.

The chain parses each distinct beat spelling once per call and builds each
distinct interval once per call.
"""

from __future__ import annotations

import csv
import io
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence

from .residue_algebra import DualNumber, Modulus, _fill, _set, _Value


class ParseError(ValueError):
    """Malformed score input; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class OrderError(ValueError):
    """Events are not strictly increasing in (measure, beat)."""


class TooFewEvents(ValueError):
    """Transition extraction needs at least two events."""


class ScoreFormat(Enum):
    TWO_VOICE = "TWO_VOICE"
    DRONE = "DRONE"


class Dedup(Enum):
    NONE = "NONE"
    CONSECUTIVE = "CONSECUTIVE"


_HEADERS = {
    ScoreFormat.TWO_VOICE: ["measure", "beat", "cantus", "discant"],
    ScoreFormat.DRONE: ["measure", "beat", "pitch"],
}


class ScoreEvent(_Value):
    """One first-species event: an upper-voice pitch over an optional cantus."""

    __slots__ = ("measure", "beat", "cantus_pitch", "pitch")

    def __init__(
        self, measure: int, beat: Fraction, cantus_pitch: Optional[int], pitch: int
    ) -> None:
        _set(self, "measure", measure)
        _set(self, "beat", beat)
        _set(self, "cantus_pitch", cantus_pitch)
        _set(self, "pitch", pitch)


class FixedCantus(_Value):
    """Interpret every event against a fixed cantus pitch class."""

    __slots__ = ("pc",)

    def __init__(self, pc: int) -> None:
        _set(self, "pc", pc)


class ColumnCantus(_Value):
    """Read the cantus for each event from its own cantus column."""

    __slots__ = ()


COLUMN_CANTUS = ColumnCantus()


class TransitionSequence(_Value):
    __slots__ = ("steps", "dedup_applied")  # steps: ((DualNumber, DualNumber), ...)

    def __init__(self, steps: tuple, dedup_applied: bool) -> None:
        _fill(self, steps, dedup_applied)


def _plain(text: str) -> bool:
    """No spelling that only int() or Fraction() reads: non-ASCII, ``+`` or ``_``."""
    return text.isascii() and "_" not in text and "+" not in text


def _parse_int(field: str, value: str, line: int, low: int, high: int) -> int:
    try:
        number = int(value)
    except ValueError as exc:
        raise ParseError(line, f"{field} must be an integer, got {value!r}") from exc
    if not low <= number <= high:
        raise ParseError(line, f"{field} {number} outside [{low}, {high}]")
    return number


def parse_score(text: str, fmt: ScoreFormat) -> List[ScoreEvent]:
    """Parse a score CSV; events must strictly increase in (measure, beat).

    Each distinct beat spelling is parsed once per call into its Fraction
    and an ordering key: the int numerator when the beat is integral, the
    Fraction otherwise, so integral stamps compare as ints.
    """
    header = _HEADERS[fmt]
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ParseError(1, "empty input")
    if rows[0] != header:
        raise ParseError(1, f"header must be {','.join(header)!r}, got {','.join(rows[0])!r}")
    two_voice = fmt is ScoreFormat.TWO_VOICE
    plain = _plain(text)
    beats = {}  # spelling -> (Fraction, ordering key)
    events: List[ScoreEvent] = []
    previous = None
    for index, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(index, f"expected {len(header)} fields, got {len(row)}")
        if not (plain or _plain("".join(row))):
            raise ParseError(index, f"non-ASCII, '+' or '_' in {','.join(row)!r}")
        measure = _parse_int("measure", row[0], index, -(10 ** 9), 10 ** 9)
        parsed = beats.get(row[1])
        if parsed is None:
            try:
                beat = Fraction(row[1])
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(index, f"beat must be a decimal rational, got {row[1]!r}") from exc
            parsed = beats[row[1]] = (beat, beat.numerator if beat.denominator == 1 else beat)
        beat, key = parsed
        if two_voice:
            cantus: Optional[int] = _parse_int("cantus", row[2], index, 0, 127)
            pitch = _parse_int("discant", row[3], index, 0, 127)
        else:
            cantus = None
            pitch = _parse_int("pitch", row[2], index, 0, 127)
        stamp = (measure, key)
        if previous is not None and stamp <= previous:
            raise OrderError(
                f"line {index}: event at measure {measure} beat {beat} does not "
                "advance (measure, beat)"
            )
        previous = stamp
        events.append(ScoreEvent(measure, beat, cantus, pitch))
    return events


def extract_transitions(
    events: Sequence[ScoreEvent],
    policy,
    dedup: Dedup = Dedup.CONSECUTIVE,
    modulus: Modulus = Modulus(),
) -> TransitionSequence:
    """Map events to dual intervals and pair them into steps.

    Every event gets one cantus: the policy's pitch class for FixedCantus,
    the event's own cantus for COLUMN_CANTUS; then
    xi = (cantus mod n) + e((pitch - cantus) mod n).  CONSECUTIVE dedup
    drops a step equal to the step just before it.
    """
    if len(events) < 2:
        raise TooFewEvents(f"need at least 2 events, got {len(events)}")
    if isinstance(policy, FixedCantus):
        cantus = [policy.pc] * len(events)
    elif isinstance(policy, ColumnCantus):
        cantus = [event.cantus_pitch for event in events]
        if None in cantus:
            raise ValueError(
                "COLUMN_CANTUS policy requires a cantus on every event; "
                "use FixedCantus for DRONE input"
            )
    else:
        raise ValueError(f"unknown cantus policy {policy!r}")
    # One DualNumber per distinct interval index n*x + k, shared by every
    # event with that interval; CONSECUTIVE dedup compares the int indices.
    n = modulus.n
    keys = [n * (c % n) + (event.pitch - c) % n for c, event in zip(cantus, events)]
    built = {key: DualNumber(key // n, key % n, modulus) for key in set(keys)}
    pairs = list(zip(keys, keys[1:]))
    if dedup is Dedup.CONSECUTIVE:
        pairs = pairs[:1] + [b for a, b in zip(pairs, pairs[1:]) if b != a]
    steps = tuple((built[x], built[y]) for x, y in pairs)
    return TransitionSequence(steps, dedup_applied=dedup is Dedup.CONSECUTIVE)

