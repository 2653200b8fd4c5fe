import csv
import io
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from counterpoint import (
    COLUMN_CANTUS,
    Dedup,
    DualNumber,
    FixedCantus,
    Modulus,
    ModulusMismatch,
    OrderError,
    ParseError,
    ScoreEvent,
    ScoreFormat,
    TooFewEvents,
    TransitionSequence,
    extract_transitions,
    parse_score,
    score_against_world,
)

TWO_VOICE_HEADER = "measure,beat,cantus,discant"
DRONE_HEADER = "measure,beat,pitch"

WORKED_SCORE = "\n".join(
    [
        TWO_VOICE_HEADER,
        "1,1,60,63",  # 0+e3
        "1,2,62,66",  # 2+e4
        "1,3,60,67",  # 0+e7
        "1,4,62,69",  # 2+e7
    ]
)


def reference_parse_score(text, fmt):
    """The per-row definition: every beat parsed and every stamp compared as a Fraction."""
    header = (TWO_VOICE_HEADER if fmt is ScoreFormat.TWO_VOICE else DRONE_HEADER).split(",")

    def parse_int(field, value, line, low, high):
        try:
            number = int(value)
        except ValueError as exc:
            raise ParseError(line, f"{field} must be an integer, got {value!r}") from exc
        if not low <= number <= high:
            raise ParseError(line, f"{field} {number} outside [{low}, {high}]")
        return number

    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ParseError(1, "empty input")
    if rows[0] != header:
        raise ParseError(1, f"header must be {','.join(header)!r}, got {','.join(rows[0])!r}")
    events = []
    previous = None
    for index, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(index, f"expected {len(header)} fields, got {len(row)}")
        measure = parse_int("measure", row[0], index, -(10 ** 9), 10 ** 9)
        try:
            beat = Fraction(row[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(index, f"beat must be a decimal rational, got {row[1]!r}") from exc
        if fmt is ScoreFormat.TWO_VOICE:
            cantus = parse_int("cantus", row[2], index, 0, 127)
            pitch = parse_int("discant", row[3], index, 0, 127)
        else:
            cantus = None
            pitch = parse_int("pitch", row[2], index, 0, 127)
        stamp = (measure, beat)
        if previous is not None and stamp <= previous:
            raise OrderError(
                f"line {index}: event at measure {measure} beat {beat} does not "
                "advance (measure, beat)"
            )
        previous = stamp
        events.append(ScoreEvent(measure, beat, cantus, pitch))
    return events


def reference_extract_transitions(events, policy, dedup):
    """The per-event definition: one DualNumber built for every event."""
    if isinstance(policy, FixedCantus):
        cantus = [policy.pc] * len(events)
    else:
        cantus = [event.cantus_pitch for event in events]
    intervals = [DualNumber(c, event.pitch - c) for c, event in zip(cantus, events)]
    steps = list(zip(intervals, intervals[1:]))
    if dedup is Dedup.CONSECUTIVE:
        steps = [step for i, step in enumerate(steps) if i == 0 or step != steps[i - 1]]
    return TransitionSequence(tuple(steps), dedup_applied=dedup is Dedup.CONSECUTIVE)


def outcome(parse, text, fmt):
    """("ok", events), or the exception's type, message and line."""
    try:
        return "ok", parse(text, fmt)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


BEAT_SPELLINGS = ["1", "2", "2.0", "4/2", "1.5", "3/2", "7/4", " 2"]
BAD_FIELDS = (
    (0, ["-1000000001", "1000000001", "1.0", "x"]),  # measure
    (1, ["1/0", "one"]),  # beat
    (2, ["-1", "128", "6.5", "sixty"]),  # cantus or pitch
    (-1, ["-1", "128", "6.5", "sixty"]),  # discant or pitch
)
# How an integer field is written: mostly as str() writes it, else in a
# spelling only int() reads (padded, zero-led, or -0 standing for 0).
INT_SPELLINGS = ("{}",) * 6 + (" {}", "{} ", "0{}", "-0")


def spell(draw, value):
    return draw(st.sampled_from(INT_SPELLINGS)).format(value)


@st.composite
def score_texts(draw):
    """CSV scores in either format mixing beat spellings, bad fields, short and blank rows."""
    fmt = draw(st.sampled_from(list(ScoreFormat)))
    header = TWO_VOICE_HEADER if fmt is ScoreFormat.TWO_VOICE else DRONE_HEADER
    width = header.count(",") + 1
    lines = [header]
    measure = 1
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        shape = draw(st.sampled_from(("event",) * 8 + ("bad", "short", "blank")))
        if shape == "blank":
            lines.append("")
            continue
        measure += draw(st.sampled_from((1, 1, 1, 1, 0, 0, -1)))
        fields = [spell(draw, measure), draw(st.sampled_from(BEAT_SPELLINGS))] + [
            spell(draw, draw(st.integers(min_value=0, max_value=127))) for _ in range(width - 2)
        ]
        if shape == "bad":
            position, values = draw(st.sampled_from(BAD_FIELDS))
            fields[position] = draw(st.sampled_from(values))
        elif shape == "short":
            fields = fields[: draw(st.integers(min_value=1, max_value=width - 1))]
        lines.append(",".join(fields))
    return fmt, "\n".join(lines) + draw(st.sampled_from(("", "\n")))


class TestParseScore:
    @given(score=score_texts())
    def test_equals_per_row_definition(self, score):
        fmt, text = score
        got = outcome(parse_score, text, fmt)
        assert got == outcome(reference_parse_score, text, fmt)
        if got[0] == "ok":
            assert all(type(event.beat) is Fraction for event in got[1])

    def test_equal_spellings_do_not_advance(self):
        with pytest.raises(OrderError):
            parse_score(f"{DRONE_HEADER}\n1,2,60\n1,2.0,62\n", ScoreFormat.DRONE)
        with pytest.raises(OrderError) as info:
            parse_score(f"{DRONE_HEADER}\n1,3/2,60\n1,1.5,62\n", ScoreFormat.DRONE)
        assert str(info.value) == (
            "line 3: event at measure 1 beat 3/2 does not advance (measure, beat)"
        )

    def test_zero_denominator_beat_reports_its_line(self):
        with pytest.raises(ParseError) as info:
            parse_score(f"{DRONE_HEADER}\n1,1/0,60\n", ScoreFormat.DRONE)
        assert info.value.line == 2

    def test_two_voice_events(self):
        for fmt in (ScoreFormat.TWO_VOICE, "TWO_VOICE"):
            events = parse_score(WORKED_SCORE, fmt)
            assert len(events) == 4
            first = events[0]
            assert (first.measure, first.beat) == (1, Fraction(1))
            assert (first.cantus_pitch, first.pitch) == (60, 63)

    def test_drone_events_have_no_cantus(self):
        text = f"{DRONE_HEADER}\n1,1,63\n1,2,64\n"
        for fmt in (ScoreFormat.DRONE, "DRONE"):
            events = parse_score(text, fmt)
            assert [e.pitch for e in events] == [63, 64]
            assert all(e.cantus_pitch is None for e in events)
        with pytest.raises(ValueError, match="not a valid ScoreFormat"):
            parse_score(text, "drone")

    def test_fractional_beats(self):
        text = f"{DRONE_HEADER}\n1,1,60\n1,1.5,62\n1,7/4,64\n"
        events = parse_score(text, ScoreFormat.DRONE)
        assert [e.beat for e in events] == [
            Fraction(1),
            Fraction(3, 2),
            Fraction(7, 4),
        ]

    def test_wrong_header_is_line_one_error(self):
        with pytest.raises(ParseError) as info:
            parse_score("measure,beat,note\n1,1,60\n", ScoreFormat.DRONE)
        assert info.value.line == 1
        with pytest.raises(ParseError, match="^line 1: empty input$"):
            parse_score("", ScoreFormat.DRONE)

    def test_field_count_error_reports_its_line(self):
        text = f"{DRONE_HEADER}\n1,1,60\n1,2\n"
        with pytest.raises(ParseError) as info:
            parse_score(text, ScoreFormat.DRONE)
        assert info.value.line == 3

    @pytest.mark.parametrize("pitch", ["-1", "128", "sixty"])
    def test_pitch_validation(self, pitch):
        text = f"{DRONE_HEADER}\n1,1,{pitch}\n"
        with pytest.raises(ParseError) as info:
            parse_score(text, ScoreFormat.DRONE)
        assert info.value.line == 2

    def test_bad_beat_reports_its_line(self):
        text = f"{DRONE_HEADER}\n1,one,60\n"
        with pytest.raises(ParseError) as info:
            parse_score(text, ScoreFormat.DRONE)
        assert info.value.line == 2

    @pytest.mark.parametrize("row", [
        "1_0,1,60,63", "2,1,60,6_4", "2,1,+11,63", "2,1,\u0666\u0660,63", "+2,1,60,63",
        "2,1_0,60,63", "2,+1,60,63", "2,\u0662,60,63",
    ])
    def test_only_ascii_spellings_without_plus_or_underscore_parse(self, row):
        text = f"{TWO_VOICE_HEADER}\n1,1,60,63\n{row}\n"
        with pytest.raises(ParseError) as info:
            parse_score(text, ScoreFormat.TWO_VOICE)
        assert info.value.line == 3

    def test_an_earlier_error_still_reports_first(self):
        text = f"{DRONE_HEADER}\n1,1,sixty\n2,1,6_0\n"
        with pytest.raises(ParseError, match="sixty") as info:
            parse_score(text, ScoreFormat.DRONE)
        assert info.value.line == 2

    def test_field_over_the_csv_limit_reports_its_line(self):
        huge = "6" * (csv.field_size_limit() + 1)
        text = f"{DRONE_HEADER}\n1,1,60\n2,1,{huge}\n"
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            parse_score(text, ScoreFormat.DRONE)
        assert info.value.line == 3
        text = f"{DRONE_HEADER}\n1,1,sixty\n2,1,{huge}\n"
        with pytest.raises(ParseError, match="sixty") as info:
            parse_score(text, ScoreFormat.DRONE)
        assert info.value.line == 2

    def test_row_errors_name_the_physical_line_after_a_multiline_field(self):
        text = f'{DRONE_HEADER}\n1,"1\n",60\n2,1,sixty\n'
        with pytest.raises(ParseError, match="got 'sixty'") as info:
            parse_score(text, ScoreFormat.DRONE)
        assert info.value.line == 4
        text = f'{DRONE_HEADER}\n1,"1\n",60\n1,1,62\n'
        with pytest.raises(OrderError, match="^line 4: "):
            parse_score(text, ScoreFormat.DRONE)
        text = f'{DRONE_HEADER}\n1,"1\n\n",sixty\n'
        with pytest.raises(ParseError) as info:
            parse_score(text, ScoreFormat.DRONE)
        assert info.value.line == 4

    def test_spaces_around_fields_still_parse(self):
        text = f"{DRONE_HEADER}\n 1, 2, 60 \n"
        assert parse_score(text, ScoreFormat.DRONE) == [ScoreEvent(1, Fraction(2), None, 60)]

    def test_events_must_strictly_increase(self):
        backwards = f"{DRONE_HEADER}\n2,1,60\n1,1,62\n"
        with pytest.raises(OrderError):
            parse_score(backwards, ScoreFormat.DRONE)
        duplicate = f"{DRONE_HEADER}\n1,1,60\n1,1,62\n"
        with pytest.raises(OrderError):
            parse_score(duplicate, ScoreFormat.DRONE)

    def test_beat_order_within_measure(self):
        text = f"{DRONE_HEADER}\n1,2,60\n1,1,62\n"
        with pytest.raises(OrderError):
            parse_score(text, ScoreFormat.DRONE)

    @pytest.mark.parametrize("row, line, error", [
        ("1,x,64", 3, ParseError),  # bad beat on a measure's second row
        ("1,3,sixty", 4, ParseError),  # bad pitch on its third row
        ("1,2,64", 5, OrderError),  # out of order on its fourth row
    ])
    def test_rows_that_repeat_a_measure_report_their_own_line(self, row, line, error):
        good = ["1,1,60", "1,2,62", "1,3,64", "1,4,65"]
        rows = good[: line - 2] + [row] + good[line - 1:]
        with pytest.raises(error, match=f"^line {line}: "):
            parse_score("\n".join([DRONE_HEADER, *rows]), ScoreFormat.DRONE)

    @pytest.mark.parametrize("measure", ["x", "1.0", "1000000001"])
    def test_a_bad_measure_after_a_run_of_one_spelling_reports_its_line(self, measure):
        text = f"{DRONE_HEADER}\n1,1,60\n1,2,62\n1,3,64\n{measure},4,65\n"
        with pytest.raises(ParseError, match="^line 5: measure ") as info:
            parse_score(text, ScoreFormat.DRONE)
        assert info.value.line == 5

    def test_a_new_spelling_of_the_same_measure_is_the_same_measure(self):
        events = parse_score(f"{DRONE_HEADER}\n1,1,60\n 1,2,62\n01,3,64\n", ScoreFormat.DRONE)
        assert [(e.measure, e.beat) for e in events] == [(1, 1), (1, 2), (1, 3)]
        with pytest.raises(OrderError, match="^line 3: "):
            parse_score(f"{DRONE_HEADER}\n1,2,60\n 1,1,62\n", ScoreFormat.DRONE)

    @pytest.mark.parametrize("fmt", list(ScoreFormat))
    def test_parsed_events_are_the_constructed_values(self, fmt):
        drone = f"{DRONE_HEADER}\n1,1,63\n1,3/2,64\n"
        text = WORKED_SCORE if fmt is ScoreFormat.TWO_VOICE else drone
        for event in parse_score(text, fmt):
            built = ScoreEvent(event.measure, event.beat, event.cantus_pitch, event.pitch)
            assert type(event) is ScoreEvent
            assert event == built and hash(event) == hash(built) and repr(event) == repr(built)
            with pytest.raises(AttributeError):
                event.pitch = 0


class TestScoreEvent:
    @pytest.mark.parametrize("cantus, pitch, message", [
        (None, 60.5, "^pitch must be an integer, got 60.5$"),
        (None, "60", "^pitch must be an integer, got '60'$"),
        (60, None, "^pitch must be an integer, got None$"),
        (60.0, 62, "^cantus_pitch must be an integer or None, got 60.0$"),
        ("60", 62, "^cantus_pitch must be an integer or None, got '60'$"),
    ])
    def test_non_integer_pitches_are_refused_at_construction(self, cantus, pitch, message):
        with pytest.raises(ValueError, match=message):
            ScoreEvent(1, 1, cantus, pitch)

    def test_integer_pitches_are_stored_as_given(self):
        assert ScoreEvent(1, Fraction(1), None, True).pitch is True
        assert ScoreEvent(1, Fraction(1), -3, 200).cantus_pitch == -3


class TestExtractTransitions:
    def test_column_cantus_arithmetic(self):
        events = parse_score(WORKED_SCORE, ScoreFormat.TWO_VOICE)
        seq = extract_transitions(events, COLUMN_CANTUS)
        assert [
            (a.render(), b.render()) for a, b in seq.steps
        ] == [
            ("0+e3", "2+e4"),
            ("2+e4", "0+e7"),
            ("0+e7", "2+e7"),
        ]

    def test_fixed_cantus_arithmetic(self):
        text = f"{DRONE_HEADER}\n1,1,63\n1,2,71\n"
        events = parse_score(text, ScoreFormat.DRONE)
        seq = extract_transitions(events, FixedCantus(4))
        (step,) = seq.steps
        assert step[0] == DualNumber(4, 11)  # (63 mod 12 - 4) mod 12
        assert step[1] == DualNumber(4, 7)

    def test_column_policy_requires_cantus_column(self):
        text = f"{DRONE_HEADER}\n1,1,60\n1,2,64\n"
        events = parse_score(text, ScoreFormat.DRONE)
        with pytest.raises(ValueError):
            extract_transitions(events, COLUMN_CANTUS)

    def test_unknown_policy_is_rejected(self):
        events = parse_score(WORKED_SCORE, ScoreFormat.TWO_VOICE)
        with pytest.raises(ValueError, match="unknown cantus policy"):
            extract_transitions(events, "column")

    def test_too_few_events(self):
        text = f"{DRONE_HEADER}\n1,1,60\n"
        events = parse_score(text, ScoreFormat.DRONE)
        with pytest.raises(TooFewEvents):
            extract_transitions(events, FixedCantus(0))

    def test_consecutive_dedup(self):
        text = f"{DRONE_HEADER}\n1,1,64\n1,2,64\n1,3,64\n1,4,67\n"
        events = parse_score(text, ScoreFormat.DRONE)
        four = DualNumber(0, 4)
        seven = DualNumber(0, 7)
        for dedup in (Dedup.CONSECUTIVE, "CONSECUTIVE"):
            deduped = extract_transitions(events, FixedCantus(0), dedup=dedup)
            assert deduped.steps == ((four, four), (four, seven))
            assert deduped.dedup_applied
        for dedup in (Dedup.NONE, "NONE"):
            kept = extract_transitions(events, FixedCantus(0), dedup=dedup)
            assert kept.steps == ((four, four), (four, four), (four, seven))
            assert not kept.dedup_applied
        with pytest.raises(ValueError):
            extract_transitions(events, FixedCantus(0), dedup="consecutive")

    @given(
        pitches=st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=12),
        pc=st.integers(min_value=0, max_value=11),
    )
    def test_octave_translation_invariance(self, pitches, pc):
        def seq_for(shift):
            rows = [DRONE_HEADER] + [
                f"1,{i + 1},{p + shift}" for i, p in enumerate(pitches)
            ]
            events = parse_score("\n".join(rows), ScoreFormat.DRONE)
            return extract_transitions(events, FixedCantus(pc))

        assert seq_for(0) == seq_for(12)

    @given(
        pitches=st.lists(st.integers(min_value=30, max_value=90), min_size=2, max_size=10)
    )
    def test_fixed_cantus_pins_every_base(self, pitches):
        rows = [DRONE_HEADER] + [f"1,{i + 1},{p}" for i, p in enumerate(pitches)]
        events = parse_score("\n".join(rows), ScoreFormat.DRONE)
        seq = extract_transitions(events, FixedCantus(5), dedup=Dedup.NONE)
        for a, b in seq.steps:
            assert a.a == 5 and b.a == 5


    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from([0, 48, 55, 61]), st.sampled_from([0, 60, 63, 64, 127])),
            min_size=2,
            max_size=16,
        ),
        fixed=st.one_of(st.none(), st.integers(min_value=-13, max_value=25)),
        dedup=st.sampled_from(list(Dedup)),
    )
    def test_equals_per_event_definition(self, pairs, fixed, dedup):
        events = [
            ScoreEvent(i + 1, Fraction(1), cantus, pitch)
            for i, (cantus, pitch) in enumerate(pairs)
        ]
        policy = COLUMN_CANTUS if fixed is None else FixedCantus(fixed)
        seq = extract_transitions(events, policy, dedup)
        assert seq == reference_extract_transitions(events, policy, dedup)
        ends = [end for step in seq.steps for end in step]
        assert len({id(end) for end in ends}) == len(set(ends))  # one object per interval


class TestScoreAgainstWorld:
    def test_worked_steps_through_full_pipeline(self, fux_world):
        events = parse_score(WORKED_SCORE, ScoreFormat.TWO_VOICE)
        seq = extract_transitions(events, COLUMN_CANTUS)
        counts = score_against_world(seq, fux_world)
        assert len(counts) == 3
        assert counts[0] == 2  # 0+e3 -> 2+e4
        assert counts[2] == 0  # 0+e7 -> 2+e7

    def test_empty_sequence(self, fux_world):
        seq = TransitionSequence((), dedup_applied=False)
        assert score_against_world(seq, fux_world) == []

    def test_source_modulus_mismatch_is_rejected(self, fux_world):
        seq = TransitionSequence(((DualNumber(0, 3, Modulus(10)), DualNumber(2, 4)),), False)
        with pytest.raises(ModulusMismatch, match="^mixed moduli 10 and 12$"):
            score_against_world(seq, fux_world)

    def test_target_modulus_mismatch_is_rejected(self, fux_world):
        seq = TransitionSequence(((DualNumber(0, 3), DualNumber(2, 4, Modulus(10))),), False)
        with pytest.raises(ModulusMismatch, match="^mixed moduli 10 and 12$"):
            score_against_world(seq, fux_world)
