"""Tests of the benchmark itself: its checks catch wrong outputs and count them.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

from counterpoint import Dichotomy, ScoreFormat, build_world, walk  # noqa: E402
from counterpoint.cli_reports import main as cli_main  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402


@pytest.fixture()
def bench(tmp_path):
    return ops.Bench(ROOT, tmp_path, 7)


def step_request(src="0+e3", dst="2+e4"):
    return inputs.Request("step", ("step", "--dichotomy", "fux", "--from", src, "--to", dst), "fux")


def test_wrong_cli_stdout_is_a_failed_operation(bench, monkeypatch):
    spawn = bench.spawn

    def corrupted(args):
        elapsed, code, out, err, rss = spawn(args)
        return elapsed, code, out.replace(": 2", ": 3"), err, rss

    monkeypatch.setattr(bench, "spawn", corrupted)
    bench.requests = [step_request()]
    bench.cli_pass()
    assert (bench.attempted, bench.failed) == (2, 2)  # cold and warm
    assert bench.medians("cold") == bench.medians("warm") == []


def test_right_cli_stdout_passes(bench):
    bench.requests = [step_request()]
    bench.cli_pass()
    bench.cli_pass()
    assert (bench.attempted, bench.failed) == (4, 0)
    assert len(bench.medians("cold")) == len(bench.medians("warm")) == 1  # one item, two passes
    assert len(bench.times[("cold", 0)]) == 2


def test_wrong_step_count_is_a_failed_operation(bench):
    score = inputs.make_score(random.Random(1), 12, ScoreFormat.TWO_VOICE, inputs.FUX)
    fux = bench.worlds[inputs.FUX]
    rows = [bytearray(row) for row in fux.counts]
    for (x, k), (y, l) in score.expected_steps():
        rows[12 * x + k][12 * y + l] += 1
    bench.worlds[inputs.FUX] = dataclasses.replace(fux, counts=tuple(bytes(r) for r in rows))
    assert bench.attempt("analyze", bench.analyze_score, score) is None
    assert (bench.attempted, bench.failed) == (1, 1)


def test_wrong_world_histogram_is_a_failed_build(bench, monkeypatch):
    def tampered(d):
        w = build_world(d)
        hist = dict(w.histogram)
        hist[0] += 1
        return dataclasses.replace(w, histogram=hist)

    monkeypatch.setattr(ops, "build_world", tampered)
    assert bench.attempt("build", bench.build_checked, "fux", Dichotomy.fux()) is None
    assert bench.failed == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expectations_hold_for_any_seed(tmp_path, seed):
    bench = ops.Bench(ROOT, tmp_path, seed)
    with bench.in_process_env():
        for req in bench.requests:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli_main(bench.cli_argv(req)) == 0
            bench.check_cli(req, out.getvalue())
    bench.analysis_pass()
    assert bench.failed == 0
    assert len(bench.medians("score")) == inputs.SCORE_BANDS
    assert len(bench.medians("walk")) == 2 * inputs.WALK_BANDS


def test_sweep_pass_builds_every_strong_class(bench):
    bench.sweep_pass()
    assert bench.failed == 0
    assert len(bench.medians("build")) == sum(ops.STRONG_CLASS_COUNTS.values())
    assert len(bench.medians("atlas")) == 2  # n = 12 and n = 14
    assert {group for group, _ in bench.sweep} == {"fux", "mystic", "n12_other", "n10", "n14"}


def test_same_seed_same_inputs(bench):
    def draw(seed):
        rng = random.Random(seed)
        return (inputs.score_corpus(rng), inputs.walk_set(rng, bench.starts),
                inputs.cli_requests(rng, bench.starts))

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def test_scores_have_repeated_steps_to_deduplicate():
    score = inputs.make_score(random.Random(0), 2000, ScoreFormat.DRONE, inputs.MYSTIC)
    assert 0 < score.events - 1 - len(score.expected_steps()) < score.events // 5


def test_walks_from_the_starts_never_dead_end(bench):
    mystic = bench.worlds[inputs.MYSTIC]
    assert len(bench.starts[inputs.FUX]) == 144
    assert len(bench.starts[inputs.MYSTIC]) == 72
    for seed, start in enumerate(bench.starts[inputs.MYSTIC]):
        assert walk(mystic, start, 300, seed).completed


def test_self_time_subtracts_children():
    tr = ops.Tracer()
    with tr.op("op.x"):
        with tr.span("worlds.a"):
            pass
        with tr.span("stats.b"):
            pass
    own = layers.self_times(tr.spans)
    parent, a, b = tr.spans
    assert own[0] == pytest.approx((parent.end - parent.start) - (a.end - a.start) - (b.end - b.start))
    assert own[1] == a.end - a.start  # speed 1 by default
    assert {s.op for s in tr.spans} == {1}
    assert [s.parent for s in tr.spans] == [None, 0, 0]


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
