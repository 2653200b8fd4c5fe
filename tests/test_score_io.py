from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from counterpoint import (
    COLUMN_CANTUS,
    Dedup,
    DualNumber,
    FixedCantus,
    OrderError,
    ParseError,
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


class TestParseScore:
    def test_two_voice_events(self):
        events = parse_score(WORKED_SCORE, ScoreFormat.TWO_VOICE)
        assert len(events) == 4
        first = events[0]
        assert (first.measure, first.beat) == (1, Fraction(1))
        assert (first.cantus_pitch, first.pitch) == (60, 63)

    def test_drone_events_have_no_cantus(self):
        text = f"{DRONE_HEADER}\n1,1,63\n1,2,64\n"
        events = parse_score(text, ScoreFormat.DRONE)
        assert [e.pitch for e in events] == [63, 64]
        assert all(e.cantus_pitch is None for e in events)

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
        deduped = extract_transitions(events, FixedCantus(0), dedup=Dedup.CONSECUTIVE)
        kept = extract_transitions(events, FixedCantus(0), dedup=Dedup.NONE)
        four = DualNumber(0, 4)
        seven = DualNumber(0, 7)
        assert deduped.steps == ((four, four), (four, seven))
        assert deduped.dedup_applied
        assert kept.steps == ((four, four), (four, four), (four, seven))
        assert not kept.dedup_applied

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


class TestTransitionSequence:
    @given(
        values=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
            ),
            max_size=10,
        )
    )
    def test_render_parse_round_trip(self, values):
        seq = TransitionSequence(
            tuple(
                (DualNumber(x, k), DualNumber(y, l)) for x, k, y, l in values
            ),
            dedup_applied=False,
        )
        assert TransitionSequence.parse(seq.render()) == seq

    def test_parse_reports_bad_lines(self):
        with pytest.raises(ParseError) as info:
            TransitionSequence.parse("0+e3>2+e4\n0+e3>2+e4>1+e1\n")
        assert info.value.line == 2

    def test_parse_skips_blank_lines(self):
        seq = TransitionSequence.parse("\n0+e3>2+e4\n\n")
        assert len(seq.steps) == 1


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
