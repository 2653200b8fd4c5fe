"""The paper's table as tallies, and two synthetic witness scores that carry them.

``PAPER_TALLIES`` holds the observed tallies for the paper's two passages:
counts per category, fux over 0..5 and mystic over {0, 1, 2, 4}.  They are
inferred from the published sample size, mean and chi-square of each
(passage, world) pair, as the one tally per pair that hits those anchors (the
quoted p decides between two candidates for fux on passage 1).

``WITNESS_1`` (30 steps) and ``WITNESS_2`` (52 steps) are SYNTHETIC
TWO_VOICE scores, not Scriabin's notes: (cantus, discant) MIDI pairs, one
event per beat, whose per-step counts tally to the passage's fux row in the
fux world and to its mystic row in the mystic world.  Each is the first
interval sequence found by a lexicographic depth-first search over the 144
intervals x+ek (index 12x + k ascending) of the fux engine world and the
frozen mystic table, with no step from an interval to itself, so CONSECUTIVE
dedup drops nothing.  Cantus pitch 60 + x, discant 60 + x + k.
"""

from counterpoint import (
    COLUMN_CANTUS,
    PopulationSpec,
    ScoreFormat,
    extract_transitions,
    parse_score,
    sample_summary,
    score_against_world,
)

PAPER_TALLIES = (
    # (passage, world, n, tally, chi-square, p, d, CI or None)
    (1, "fux", 30, (11, 2, 13, 4, 0, 0), "7.831936", "0.165744", "-0.061", ("-0.3614", "0.2393")),
    (1, "mystic", 30, (7, 3, 10, 10), "57.720714", "1.80e-12", "1.439", None),
    (2, "fux", 52, (7, 8, 34, 1, 2, 0), "36.384627", "7.96e-07", "0.1878", None),
    (2, "mystic", 52, (37, 2, 9, 4), "0.571841", "0.902847", "0.1506", None),
)

WITNESS_1 = (
    (60, 60), (60, 61), (60, 60), (60, 61), (60, 60), (60, 64), (60, 60), (60, 64),
    (60, 60), (60, 64), (60, 60), (60, 68), (60, 62), (60, 64), (60, 60), (62, 70),
    (60, 60), (62, 70), (60, 60), (62, 70), (60, 60), (62, 70), (60, 60), (62, 70),
    (60, 60), (63, 69), (61, 72), (70, 81), (67, 78), (65, 65), (62, 68),
)

WITNESS_2 = (
    (60, 60), (60, 61), (60, 60), (60, 61), (60, 60), (60, 61), (60, 60), (60, 61),
    (60, 60), (60, 61), (60, 60), (60, 61), (60, 60), (60, 61), (60, 60), (60, 64),
    (60, 62), (60, 61), (60, 62), (60, 64), (60, 62), (60, 64), (60, 62), (60, 64),
    (60, 62), (60, 64), (60, 62), (60, 71), (60, 62), (60, 71), (60, 62), (60, 71),
    (60, 62), (60, 71), (60, 62), (60, 71), (60, 63), (60, 60), (60, 66), (61, 71),
    (60, 62), (60, 71), (60, 63), (60, 60), (60, 66), (62, 72), (60, 60), (60, 66),
    (62, 72), (60, 71), (70, 72), (61, 72), (60, 62),
)

WITNESSES = {1: WITNESS_1, 2: WITNESS_2}


def witness_csv(events) -> str:
    """A witness as TWO_VOICE CSV text: four beats a measure, LF line ends."""
    rows = ["measure,beat,cantus,discant"] + [
        f"{i // 4 + 1},{i % 4 + 1},{cantus},{discant}"
        for i, (cantus, discant) in enumerate(events)
    ]
    return "\n".join(rows) + "\n"


def witness_sample(passage: int, world):
    """The witness's per-step counts in ``world``, summarized over its support.

    Runs the analysis chain: parse_score, extract_transitions (CONSECUTIVE
    dedup), score_against_world, sample_summary.  Returns (sample, population).
    """
    events = parse_score(witness_csv(WITNESSES[passage]), ScoreFormat.TWO_VOICE)
    counts = score_against_world(extract_transitions(events, COLUMN_CANTUS), world)
    pop = PopulationSpec.from_histogram(world.histogram)
    return sample_summary(counts, pop.support), pop
