"""Counterpoint toolkit: dichotomies, symmetry worlds, statistics, and reports.

The package models two-voice, note-against-note counterpoint over Z_n[eps]
(dual numbers mod n): a strong dichotomy of pitch classes induces, for every
step between contrapuntal intervals, a count of mediating symmetries.  On
top of the resulting worlds it provides exact overlap and moment statistics,
scale restrictions, effect sizes, chi-square goodness of fit, score
ingestion, and a CLI (``counterpoint``).

``import counterpoint`` loads none of its submodules.  Each public name
loads its home module on first use (PEP 562), so a process pays only for
the modules it reads: ``from counterpoint import strong_atlas`` loads
``residue_algebra`` and ``dichotomies`` and nothing else.
"""

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_HOMES = {
    "residue_algebra": (
        "DualAffineMap", "DualNumber", "Modulus", "ModulusMismatch", "NotInvertible",
        "ResidueAffineMap",
    ),
    "dichotomies": (
        "EVEN_WHOLE_TONE", "FUX_HALF", "MYSTIC_HALF", "PRESETS", "ChordEndomorphismReport",
        "Dichotomy", "DichotomyClass", "NotStrong", "StrengthCertificate",
        "all_class_orbit_sizes", "chord_endomorphisms", "classify", "parse_pitch_class_set",
        "strength", "strong_atlas",
    ),
    "worlds": (
        "DeadEnd", "GateFailure", "RestrictionMode", "ScaleRestrictionReport", "WalkResult",
        "World", "WorldMoments", "WorldOverlap", "build_world", "counterpoint_symmetries",
        "scale_restriction_report", "score_against_world", "step_count", "walk",
        "world_histogram_csv", "world_matrix_csv", "world_moments", "world_overlap",
    ),
    "stats": (
        "ChiSquareResult", "DegeneratePopulation", "EffectSizeResult", "EmptyCategory",
        "EmptySample", "PopulationSpec", "SampleSummary", "SdDivisor", "chi_square_gof",
        "chi_square_sf", "effect_size", "sample_summary",
    ),
    "score_io": (
        "COLUMN_CANTUS", "ColumnCantus", "Dedup", "FixedCantus", "OrderError", "ParseError",
        "ScoreEvent", "ScoreFormat", "TooFewEvents", "TransitionSequence",
        "extract_transitions", "parse_score",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# Submodules that resolve as attributes after a bare ``import counterpoint``.
_SUBMODULES = {"model_tables", *_HOMES}

__all__ = list(_HOME)


def __getattr__(name):
    """Import the module that defines ``name`` and bind ``name`` here."""
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
