"""Counterpoint toolkit: dichotomies, symmetry worlds, statistics, and reports.

The package models two-voice, note-against-note counterpoint over Z_n[eps]
(dual numbers mod n): a strong dichotomy of pitch classes induces, for every
step between contrapuntal intervals, a count of mediating symmetries.  On
top of the resulting worlds it provides exact overlap and moment statistics,
scale restrictions, effect sizes, chi-square goodness of fit, score
ingestion, and a CLI (``counterpoint``).
"""

__version__ = "0.1.0"

from .residue_algebra import (
    DualAffineMap,
    DualNumber,
    Modulus,
    ModulusMismatch,
    NotInvertible,
    ResidueAffineMap,
)
from .dichotomies import (
    AUGMENTED,
    DIMINISHED,
    EVEN_WHOLE_TONE,
    FUX_HALF,
    MAJOR,
    MINOR,
    MYSTIC_HALF,
    ODD_WHOLE_TONE,
    PRESETS,
    ChordEndomorphismReport,
    Dichotomy,
    DichotomyClass,
    NotStrong,
    StrengthCertificate,
    TriadCoverReport,
    all_class_orbit_sizes,
    chord_endomorphisms,
    classify,
    mystic_parity,
    parse_pitch_class_set,
    strength,
    strong_atlas,
    triad_covers,
    whole_tone_affinity,
)
from .worlds import (
    DeadEnd,
    GateFailure,
    RestrictionMode,
    ScaleRestrictionReport,
    WalkResult,
    World,
    WorldMoments,
    WorldOverlap,
    build_world,
    counterpoint_symmetries,
    scale_restriction_report,
    score_against_world,
    step_count,
    walk,
    world_histogram_csv,
    world_matrix_csv,
    world_moments,
    world_overlap,
)
from .stats import (
    ChiSquareResult,
    DegeneratePopulation,
    EffectSizeResult,
    EmptyCategory,
    EmptySample,
    PopulationSpec,
    SampleSummary,
    SdDivisor,
    chi_square_gof,
    chi_square_sf,
    effect_size,
    sample_summary,
)
from .score_io import (
    COLUMN_CANTUS,
    ColumnCantus,
    Dedup,
    FixedCantus,
    OrderError,
    ParseError,
    ScoreEvent,
    ScoreFormat,
    TooFewEvents,
    TransitionSequence,
    extract_transitions,
    parse_score,
)

# The public names above, without the submodules their imports bind.
__all__ = [n for n in dir() if n[0] != "_" and type(globals()[n]) is not type(stats)]
