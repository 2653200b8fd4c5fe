#!/usr/bin/env python3
"""Build both preset worlds and print their headline numbers.

Covers the histograms, exact moments, valid-step probabilities with the
independence gap, the worked Fuxian steps, and the odd whole-tone
restriction of the mystic world under both modes.
"""

from __future__ import annotations

from counterpoint.dichotomies import Dichotomy
from counterpoint.residue_algebra import DualNumber
from counterpoint.worlds import (
    RestrictionMode,
    build_world,
    scale_restriction_report,
    world_moments,
    world_overlap,
)


def main() -> int:
    fux = build_world(Dichotomy.fux())
    mystic = build_world(Dichotomy.mystic())

    for world in (fux, mystic):
        moments = world_moments(world)
        print(f"{world.label} ({world.dichotomy.render()}), variant {world.variant}")
        print(f"  histogram: {world.histogram}")
        print(
            f"  mean {float(moments.mean):.4f} "
            f"({moments.mean.numerator}/{moments.mean.denominator})  "
            f"sd {moments.sd:.4f}"
        )
        if moments.note:
            print(f"  note: {moments.note}")

    for src, dst in (((0, 3), (2, 4)), ((0, 7), (2, 7))):
        a, b = DualNumber(*src), DualNumber(*dst)
        print(f"fux step {a.render()} -> {b.render()}: {fux.count(a, b)}")
    print(f"fux max step count: {max(c for c, f in fux.histogram.items() if f)}")

    overlap = world_overlap(fux, mystic)
    print(
        f"overlap: p_f {overlap.p_a}  p_m {overlap.p_b}  p_fm {overlap.p_ab}  "
        f"gap {float(overlap.gap):.6f} (< 1/110: {overlap.gap < 1/110})"
    )

    odd_scale = (1, 3, 5, 7, 9, 11)
    for mode in RestrictionMode:
        report = scale_restriction_report(mystic, odd_scale, mode)
        print(
            f"mystic vs odd whole-tone, {mode.value}: "
            f"{report.forbidden_class_count} forbidden classes, "
            f"{report.forbidden_step_count} forbidden steps of "
            f"{report.restricted_step_count}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
