#!/usr/bin/env python3
"""Reconstruct the frozen mystic step-class table and verify it.

The mystic world's published fingerprints (step-count histogram, overlap
with the Fuxian world, forbidden-class counts under the odd whole-tone
scale, reference effect sizes) cannot be reproduced by the fiber-symmetry
engine that generates the Fuxian world; they pin a different, tighter
structure.  This script derives that structure deterministically:

  1. run the engine on both preset dichotomies to get per-class counts
     (classes (k, d, l): source interval k, cantus shift d, target l);
  2. lay out the value structure forced by the fingerprints —
       * valid classes live in the marked-to-marked sector (KK) except for
         34 unmarked-to-unmarked (DD) classes placed on cells where the
         Fuxian world is forbidden (this keeps the worlds' overlap exact);
       * 350 KK classes are valid: every Fux-forbidden KK cell plus 248 of
         the 330 Fux-valid ones; the 82 KK zeros split into 8 even-shift
         cells (4 of them with both intervals even) and 74 odd-shift cells;
       * values: 96 fours and 240 twos on KK cells (preferring cells where
         the engine agrees), remaining valid cells get 1;
  3. choose every cell deterministically (engine-agreement first, then
     lexicographic (k, d, l)) so the reconstruction is reproducible;
  4. verify the rebuilt table byte-for-byte against the frozen table
     shipped in the package and re-check all calibration targets.

Exit status 0 iff every check passes.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from counterpoint.dichotomies import Dichotomy, MYSTIC_HALF
from counterpoint.model_tables import EXPECTED_STEP_HISTOGRAMS, mystic_class_count
from counterpoint.stats import PopulationSpec
from counterpoint.worlds import _engine_class_table

N = 12
MARKED = sorted(MYSTIC_HALF)
EVEN_INTERVALS = {0, 2, 4, 6, 8}  # marked intervals lying in the even whole-tone scale
CLASSES = [(k, dd, l) for k in range(N) for dd in range(N) for l in range(N)]


def engine_class_counts(d: Dichotomy) -> dict:
    """(k, d, l) -> engine count, read off the engine's class table.

    For the Fuxian dichotomy these are the world's counts: its class table
    is the engine's.
    """
    table = _engine_class_table(d)
    return {(k, dd, l): table[k][N * dd + l] for k, dd, l in CLASSES}


def derive_table(f_fux: dict) -> dict:
    t_engine = engine_class_counts(Dichotomy.mystic())

    marked = set(MARKED)
    kk = [c for c in sorted(t_engine) if c[0] in marked and c[2] in marked]
    dd_sector = [c for c in sorted(t_engine) if c[0] not in marked and c[2] not in marked]
    kk_fux_valid = [c for c in kk if f_fux[c] > 0]
    kk_fux_forbidden = [c for c in kk if f_fux[c] == 0]
    dd_fux_forbidden = [c for c in dd_sector if f_fux[c] == 0]

    # deterministic preference order: engine-zero cells first for zeros,
    # engine-valid cells first for valid placements; (k, d, l) breaks ties.
    prefer_engine_zero = lambda c: (t_engine[c] != 0, c)
    prefer_engine_valid = lambda c: (t_engine[c] == 0, c)

    even_shift = [c for c in kk_fux_valid if c[1] % 2 == 0]
    both_even = [c for c in even_shift if c[0] in EVEN_INTERVALS and c[2] in EVEN_INTERVALS]
    not_both_even = [c for c in even_shift if c not in set(both_even)]
    odd_shift = [c for c in kk_fux_valid if c[1] % 2 == 1]

    zeros = set()
    zeros.update(sorted(both_even, key=prefer_engine_zero)[:4])
    zeros.update(sorted(not_both_even, key=prefer_engine_zero)[:4])
    zeros.update(sorted(odd_shift, key=prefer_engine_zero)[:74])

    valid_kk = [c for c in kk if c not in zeros]
    valid_dd = sorted(dd_fux_forbidden, key=prefer_engine_valid)[:34]

    table = {c: 0 for c in t_engine}
    fours = sorted(valid_kk, key=lambda c: (t_engine[c] != 4, c))[:96]
    rest = [c for c in valid_kk if c not in set(fours)]
    twos = sorted(rest, key=lambda c: (t_engine[c] != 2, c))[:240]
    ones_kk = [c for c in rest if c not in set(twos)]
    for c in fours:
        table[c] = 4
    for c in twos:
        table[c] = 2
    for c in ones_kk + valid_dd:
        table[c] = 1
    return table


def verify(table: dict, f_fux: dict) -> list:
    failures = []
    frozen = {c: mystic_class_count(*c) for c in CLASSES}
    if table != frozen:
        diff = sum(1 for c in frozen if frozen[c] != table[c])
        failures.append(f"rebuilt table differs from frozen table on {diff} cells")

    histogram = {c: 0 for c in range(6)}
    for value in table.values():
        histogram[value] = histogram.get(value, 0) + 12  # 12 steps per class
    if histogram != EXPECTED_STEP_HISTOGRAMS["mystic"]:
        failures.append(f"histogram {histogram} != calibration target")

    pop = PopulationSpec.from_histogram(histogram)
    if f"{float(pop.mean):.4f}" != "0.5278" or not 1.0924 <= pop.sd <= 1.0927:
        failures.append(f"moments off: mean {float(pop.mean):.4f} sd {pop.sd:.4f}")

    total = N ** 4
    valid = sum(12 for v in table.values() if v)
    both = sum(12 for c, v in table.items() if v and f_fux[c] > 0)
    p_m, p_f = Fraction(valid, total), Fraction(14016, total)
    p_fm = Fraction(both, total)
    if (p_m, p_fm) != (Fraction(4608, total), Fraction(2976, total)):
        failures.append(f"overlap off: p_m {p_m}, p_fm {p_fm}")
    if abs(p_fm - p_f * p_m) >= Fraction(1, 110):
        failures.append("independence gap exceeds 1/110")
    return failures


def main() -> int:
    f_fux = engine_class_counts(Dichotomy.fux())
    table = derive_table(f_fux)
    failures = verify(table, f_fux)
    hist = {v: sum(12 for x in table.values() if x == v) for v in range(6)}
    print(f"classes: {len(table)}  step histogram: {hist}")
    print("frozen-table digits (k-major, 144 per source interval):")
    digits = "".join(str(table[c]) for c in sorted(table))
    for i in range(0, len(digits), 72):
        print("  " + digits[i : i + 72])
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("all checks passed: rebuilt table matches the frozen table")
    return 0


if __name__ == "__main__":
    sys.exit(main())
