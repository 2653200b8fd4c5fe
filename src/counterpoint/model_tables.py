"""Frozen model data for the two preset worlds.

``MYSTIC_STEP_TABLE`` defines the mystic-chord world directly: it stores the
symmetry count of every step class.  Step counts in this world are
translation-covariant, so a step x+ek -> y+el is fully described by the class
(k, d, l) with d = (y - x) mod 12, and

    count(x+ek -> y+el) = MYSTIC_STEP_TABLE[k][12*d + l],

one 144-byte slab per source species k.

The table is fitted, not the output of a rule: scripts/derive_step_table.py
places its values from the fiber-symmetry engine's counts and breaks ties
deterministically until the calibration targets below (the fingerprints)
match.  It is checked against those targets again at every world build.

``EXPECTED_STEP_HISTOGRAMS`` and the worked-step fingerprints are the
build-time gates: a world build that fails them aborts rather than hand back
an uncalibrated world.
"""

from __future__ import annotations

# 24 rows x 72 digits = 1728 entries, (k, d, l) in lexicographic order.
_TABLE_DIGITS = (
    "404000004004000000000000004000404004000000400000404040404004000000000000"
    "404040404004000000000000404040404004000000400000404040404004000000000000"
    "000100000100010100000100010100000100010100000100010100000100010100000100"
    "000100000100010100000100010100000100010100000100010100000100010100000100"
    "404040404000000000000000404040404004000040004000404040404004000000000000"
    "404040404000000000000000404040404004000040004000202020202002000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "202020202002002000200002202020202002002000200002202020202002202020202002"
    "202020202002202020202002202020202002202020202002202020202002202020202002"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "202020202004404020404002202020202004404020404002202020202004404020404002"
    "202020202004404020404002202020202004404020404002202020202004404020404002"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "202020202000202020202002202020202000202020202000202020202002202020202002"
    "202020202002202020202002202020202002202020202000202020202002202020202002"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000"
    "202020202002202020202002202020202002202020202002202020202002202020202002"
    "202020202002202020202002202020202002202020201001101010101001101010101001"
)

# Decoded bytewise: the translation maps each ASCII digit to its value.
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_DIGITS = _TABLE_DIGITS.encode().translate(_DIGIT_VALUES)
MYSTIC_STEP_TABLE = tuple(_DIGITS[144 * k : 144 * (k + 1)] for k in range(12))
assert len(_DIGITS) == 1728


def mystic_class_count(k: int, d: int, l: int) -> int:
    """Symmetry count of the mystic step class (k, d, l)."""
    return MYSTIC_STEP_TABLE[k % 12][12 * (d % 12) + (l % 12)]


# Build-time gates.  A preset world whose histogram deviates from these
# counts, or whose worked steps deviate, is rejected with GateFailure.
EXPECTED_STEP_HISTOGRAMS = {
    "fux": {0: 6720, 1: 4992, 2: 5568, 3: 1440, 4: 1152, 5: 864},
    "mystic": {0: 16128, 1: 576, 2: 2880, 3: 0, 4: 1152, 5: 0},
}

# label -> {((x, k), (y, l)): expected symmetry count}
WORKED_STEPS = {
    "fux": {((0, 3), (2, 4)): 2, ((0, 7), (2, 7)): 0},
}

# Identifiers of the frozen rule variants, embedded in report metadata so a
# report names the model revision that produced it.
FUX_MODEL_VARIANT = "fiber-engine/source-species-v1"
MYSTIC_MODEL_VARIANT = "frozen-table-v1"

MYSTIC_SD_NOTE = (
    "standard deviation 1.0926 is derived from the step-count histogram; "
    "a commonly quoted figure of 1.9026 for this world is inconsistent with "
    "the histogram (apparent digit transposition) and with effect sizes of "
    "1.438/0.151 on the reference samples, so the derived value is used "
    "throughout"
)
