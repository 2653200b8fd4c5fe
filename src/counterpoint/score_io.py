"""Score ingestion: two-voice CSV passages to contrapuntal step sequences.

Input formats (bit-exact headers, ASCII without ``+`` or ``_``, LF):

  * TWO_VOICE: ``measure,beat,cantus,discant`` — one event per row with both
    voices as MIDI pitches;
  * DRONE: ``measure,beat,pitch`` — upper voice only, the cantus being fixed
    and supplied separately as a pitch class.

Events map to dual intervals x + ek (cantus pc x, interval k mod 12);
consecutive intervals form steps, optionally deduplicated when a step
repeats its immediate predecessor.

The chain streams the CSV rows, so only the events outlive their row.  It
reads canonical note spellings from one table of the 128 MIDI numbers (any
other goes to ``int``), parses each distinct beat spelling and builds each
distinct interval once per call, and codes each step as one int of its two
interval indices: dedup compares ints, and equal steps share one tuple.
"""

from __future__ import annotations

import csv
import io
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence

from .residue_algebra import DualNumber, Modulus, _Value


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
_NOTES = {str(p): p for p in range(128)}  # canonical spelling -> MIDI pitch


class ScoreEvent(_Value):
    """One first-species event: an upper-voice pitch over an optional cantus."""

    __slots__ = ("measure", "beat", "cantus_pitch", "pitch")

    def __init__(
        self, measure: int, beat: Fraction, cantus_pitch: Optional[int], pitch: int
    ) -> None:
        _measure(self, measure)
        _beat(self, beat)
        _cantus_pitch(self, cantus_pitch)
        _pitch(self, pitch)


# The fields' slot descriptors, bound once: each write skips _Value.__setattr__.
_measure, _beat, _cantus_pitch, _pitch = (
    getattr(ScoreEvent, name).__set__ for name in ScoreEvent.__slots__
)


class FixedCantus(_Value):
    """Interpret every event against a fixed cantus pitch class."""

    __slots__ = ("pc",)


class ColumnCantus(_Value):
    """Read the cantus for each event from its own cantus column."""

    __slots__ = ()


COLUMN_CANTUS = ColumnCantus()


class TransitionSequence(_Value):
    __slots__ = ("steps", "dedup_applied")  # steps: ((DualNumber, DualNumber), ...)


def _plain(text: str) -> bool:
    """No spelling that only int() or Fraction() reads: non-ASCII, ``+`` or ``_``."""
    return text.isascii() and "_" not in text and "+" not in text


def _parse_int(field: str, value: str, reader, low: int, high: int) -> int:
    """``int(value)`` in [low, high], else a ParseError on ``reader``'s current line."""
    try:
        number = int(value)
    except ValueError as exc:
        raise ParseError(reader.line_num, f"{field} must be an integer, got {value!r}") from exc
    if not low <= number <= high:
        raise ParseError(reader.line_num, f"{field} {number} outside [{low}, {high}]")
    return number


def parse_score(text: str, fmt: ScoreFormat) -> List[ScoreEvent]:
    """Parse a score CSV; events must strictly increase in (measure, beat).

    Each distinct beat spelling is parsed once per call into its Fraction
    and an ordering key: the int numerator when the beat is integral, the
    Fraction otherwise, so integral stamps compare as ints.  Errors name the
    physical line the reader stopped at, which is a row's last line when a
    quoted field spans lines; a field over ``csv.field_size_limit()`` is a
    ParseError on that line too.
    """
    fmt = ScoreFormat(fmt)
    header = _HEADERS[fmt]
    reader = csv.reader(io.StringIO(text))
    two_voice = fmt is ScoreFormat.TWO_VOICE
    plain = _plain(text)
    beats = {}  # spelling -> (Fraction, ordering key)
    events: List[ScoreEvent] = []
    last_measure, last_key = -(10 ** 9) - 1, 0  # below every measure
    note = _NOTES.get  # misses any other spelling, and 0 (falsy): _parse_int reads those
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError(1, "empty input")
        if first != header:
            raise ParseError(1, f"header must be {','.join(header)!r}, got {','.join(first)!r}")
        for row in reader:  # reader.line_num is the row's last physical line
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(reader.line_num, f"expected {len(header)} fields, got {len(row)}")
            if not (plain or _plain("".join(row))):
                raise ParseError(reader.line_num, f"non-ASCII, '+' or '_' in {','.join(row)!r}")
            measure = _parse_int("measure", row[0], reader, -(10 ** 9), 10 ** 9)
            parsed = beats.get(row[1])
            if parsed is None:
                try:
                    beat = Fraction(row[1])
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(
                        reader.line_num, f"beat must be a decimal rational, got {row[1]!r}"
                    ) from exc
                parsed = beats[row[1]] = (beat, beat.numerator if beat.denominator == 1 else beat)
            beat, key = parsed
            if two_voice:
                cantus: Optional[int] = note(row[2]) or _parse_int("cantus", row[2], reader, 0, 127)
                pitch = note(row[3]) or _parse_int("discant", row[3], reader, 0, 127)
            else:
                cantus = None
                pitch = note(row[2]) or _parse_int("pitch", row[2], reader, 0, 127)
            if measure < last_measure or measure == last_measure and key <= last_key:
                raise OrderError(
                    f"line {reader.line_num}: event at measure {measure} beat {beat} does not "
                    "advance (measure, beat)"
                )
            last_measure, last_key = measure, key
            events.append(ScoreEvent(measure, beat, cantus, pitch))
    except csv.Error as exc:
        raise ParseError(reader.line_num, f"malformed CSV: {exc}") from exc
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
    dedup = Dedup(dedup)
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
    # One DualNumber per distinct interval index n*x + k, and one int n^2*i + j
    # per step of indices i, j: CONSECUTIVE dedup compares ints, equal steps share a tuple.
    n, span = modulus.n, modulus.n ** 2
    keys = [n * (c % n) + (event.pitch - c) % n for c, event in zip(cantus, events)]
    built = {key: DualNumber(key // n, key % n, modulus) for key in set(keys)}
    codes = [span * x + y for x, y in zip(keys, keys[1:])]
    if dedup is Dedup.CONSECUTIVE:
        codes = codes[:1] + [b for a, b in zip(codes, codes[1:]) if b != a]
    pairs = {code: (built[code // span], built[code % span]) for code in set(codes)}
    steps = tuple(map(pairs.__getitem__, codes))
    return TransitionSequence(steps, dedup is Dedup.CONSECUTIVE)

