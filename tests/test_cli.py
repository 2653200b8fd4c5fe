import ast
import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import counterpoint
from counterpoint import cli_reports, worlds
from counterpoint.cli_reports import main
from paper_witnesses import WITNESS_1, WITNESS_2, witness_csv

TWO_VOICE_SCORE = "\n".join(
    [
        "measure,beat,cantus,discant",
        "1,1,60,63",  # 0+e3
        "1,2,62,66",  # 2+e4
        "1,3,60,67",  # 0+e7
        "1,4,62,69",  # 2+e7
    ]
)

# Golden inputs for the analyze variants: a 64-event TWO_VOICE passage and a
# 40-event DRONE line, both generated from a formula.
LONG_SCORE = "\n".join(
    ["measure,beat,cantus,discant"]
    + [
        f"{i // 4 + 1},{i % 4 + 1},{48 + (5 * i) % 12},"
        f"{48 + (5 * i) % 12 + [3, 4, 7, 8, 9, 2, 5][i % 7]}"
        for i in range(64)
    ]
)
DRONE_SCORE = "\n".join(
    ["measure,beat,pitch"]
    + [f"{i // 4 + 1},{i % 4 + 1},{60 + (7 * i) % 17}" for i in range(40)]
)
# A 60-event TWO_VOICE passage whose beats mix decimal, fraction and integer
# spellings, 1.5 and 3/2 or 2.0 and 2 naming one beat in alternate measures.
FRACTIONAL_BEATS = (("1", "1.5", "7/4", "2.0", "3"), ("1", "3/2", "7/4", "2", "4"))
FRACTIONAL_SCORE = "\n".join(
    ["measure,beat,cantus,discant"]
    + [
        f"{i // 5 + 1},{FRACTIONAL_BEATS[i // 5 % 2][i % 5]},{50 + (7 * i) % 12},"
        f"{50 + (7 * i) % 12 + [3, 4, 7, 8, 9, 0, 5, 2][i % 8]}"
        for i in range(60)
    ]
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWorldsTable:
    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys, "worlds", "table", "--dichotomy", "fux", "--output", "TEXT"
        )
        assert code == 0
        assert "world: fux (0,3,4,7,8,9)" in out
        assert "model-variant: fiber-engine/source-species-v1" in out
        assert "mean: 1.4167 (17/12)  sd: 1.3651" in out
        for line in ("0           6720", "5           864"):
            assert line in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "worlds", "table", "--dichotomy", "mystic", "--output", "JSON"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tool"] == {
            "name": "counterpoint",
            "version": counterpoint.__version__,
        }
        assert payload["model_variant"] == "frozen-table-v1"
        assert payload["histogram"] == {
            "0": 16128, "1": 576, "2": 2880, "3": 0, "4": 1152, "5": 0,
        }
        assert payload["moments"]["mean"]["fraction"] == "19/36"
        assert "1.9026" in payload["note"]

    def test_json_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run(
            capsys, "worlds", "table", "--dichotomy", "fux", "--output", "JSON"
        )
        _, second, _ = run(
            capsys, "worlds", "table", "--dichotomy", "fux", "--output", "JSON"
        )
        assert first == second

    def test_csv_output(self, capsys, mystic_world):
        from counterpoint import world_histogram_csv

        code, out, _ = run(
            capsys, "worlds", "table", "--dichotomy", "mystic", "--output", "CSV"
        )
        assert code == 0
        assert out == world_histogram_csv(mystic_world)

    def test_weak_dichotomy_is_model_error(self, capsys):
        code, _, err = run(
            capsys, "worlds", "table", "--dichotomy", "0,2,4,6,8,10"
        )
        assert code == 3
        assert "error:" in err

    def test_malformed_dichotomy_is_input_error(self, capsys):
        code, _, err = run(capsys, "worlds", "table", "--dichotomy", "0,1,zwei")
        assert code == 2
        assert "error:" in err


class TestWorldsExport:
    def test_matrix_export(self, capsys):
        code, out, _ = run(
            capsys, "worlds", "export", "--dichotomy", "fux", "--what", "matrix"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 144 * 144
        assert lines[0] == "from,to,count"
        assert "0+e3,2+e4,2" in lines

    def test_histogram_export(self, capsys):
        code, out, _ = run(
            capsys, "worlds", "export", "--dichotomy", "mystic", "--what", "histogram"
        )
        assert code == 0
        assert out.splitlines()[0] == "symmetries,steps"
        assert "3,0" in out.splitlines()


class TestStep:
    def test_worked_step_text(self, capsys):
        code, out, _ = run(
            capsys, "step", "--dichotomy", "fux", "--from", "0+e3", "--to", "2+e4"
        )
        assert code == 0
        assert out.strip() == "0+e3>2+e4: 2"

    def test_forbidden_step_json(self, capsys):
        code, out, _ = run(
            capsys,
            "step", "--dichotomy", "fux", "--from", "0+e7", "--to", "2+e7",
            "--output", "JSON",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 0
        assert payload["from"] == "0+e7"

    def test_malformed_interval(self, capsys):
        code, _, err = run(
            capsys, "step", "--dichotomy", "fux", "--from", "nonsense", "--to", "2+e4"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("src, dst", [("12+e15", "2+e4"), ("0+e3", "2+e12")])
    def test_interval_outside_the_residues_is_input_error(self, capsys, src, dst):
        code, out, err = run(capsys, "step", "--dichotomy", "fux", "--from", src, "--to", dst)
        assert code == 2
        assert out == ""
        assert "outside 0..11" in err


class TestCompare:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "compare", "--a", "fux", "--b", "mystic")
        assert code == 0
        assert "p_a  = 14016/20736 = 0.6759" in out
        assert "p_b  = 4608/20736 = 0.2222" in out
        assert "p_ab = 2976/20736 = 0.1435" in out
        assert "independence gap" in out and "0.0067" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--a", "fux", "--b", "mystic", "--output", "JSON"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_ab"]["fraction"] == "31/216"
        assert payload["gap"]["fraction"] == "13/1944"


class TestAnalyze:
    @pytest.fixture()
    def score_file(self, tmp_path):
        path = tmp_path / "passage.csv"
        path.write_text(TWO_VOICE_SCORE + "\n", encoding="utf-8")
        return path

    def test_full_pipeline_text(self, capsys, score_file):
        code, out, _ = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux",
        )
        assert code == 0
        assert "transitions: 3" in out
        assert "per-step counts: 2" in out.replace("\n", " ")
        assert "effect size d:" in out
        assert "chi-square:" in out and "df 5" in out

    def test_full_pipeline_json(self, capsys, score_file):
        code, out, _ = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--output", "JSON",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["transition_count"] == 3
        assert payload["per_step_counts"][0] == 2
        assert payload["per_step_counts"][2] == 0
        assert payload["steps"][0] == "0+e3>2+e4"
        assert payload["policy"] == "COLUMN_CANTUS"
        assert payload["chi_square"]["df"] == 5
        assert payload["sample"]["n"] == 3

    def test_json_is_byte_identical_across_runs(self, capsys, score_file):
        args = (
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--output", "JSON",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_fixed_cantus_policy(self, capsys, tmp_path):
        path = tmp_path / "drone.csv"
        rows = ["measure,beat,pitch"] + [
            f"1,{i + 1},{p}" for i, p in enumerate([63, 64, 67, 69, 64])
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "analyze", "--file", str(path), "--format", "DRONE",
            "--world", "fux", "--cantus-pc", "0",
            "--output", "JSON",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["policy"] == "FIXED_CANTUS(0)"
        assert payload["transition_count"] == 4

    @pytest.mark.parametrize("pc", ["12", "99", "-1"])
    def test_fixed_pitch_class_outside_the_residues_is_input_error(self, capsys, score_file, pc):
        code, out, err = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--cantus-pc", pc,
        )
        assert code == 2
        assert out == ""
        assert f"--cantus-pc {pc} is not a pitch class in 0..11" in err

    @pytest.mark.parametrize("pc", ["+3", "0_3", "\u0663", " 3"])
    def test_fixed_pitch_class_is_a_residue(self, capsys, score_file, pc):
        code, out, err = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--cantus-pc", pc,
        )
        assert code == 2
        assert out == ""
        assert f"--cantus-pc {pc} is not a pitch class in 0..11" in err

    @pytest.mark.parametrize("alpha", ["0", "1.5", "5e-324"])
    def test_alpha_outside_unit_interval_is_input_error(self, capsys, score_file, alpha):
        code, out, err = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--alpha", alpha,
        )
        assert code == 2
        assert out == ""
        assert "alpha" in err

    def test_alpha_is_checked_before_the_file_is_read(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "analyze", "--file", str(tmp_path / "missing.csv"), "--format", "TWO_VOICE",
            "--world", "fux", "--alpha", "0",
        )
        assert code == 2
        assert out == ""
        assert "alpha must lie strictly between 0 and 1" in err
        assert "missing.csv" not in err

    def test_tiny_alpha_is_accepted(self, capsys, score_file):
        code, out, err = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--alpha", "1e-300", "--output", "JSON",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["effect_size"]["alpha"] == 1e-300

    @pytest.mark.parametrize(
        "alpha, label",
        [("0.1", "90"), ("0.05", "95"), ("0.075", "92.5"), ("0.004", "99.6"),
         ("0.001", "99.9"), ("1e-300", "99.999999999999")],
    )
    def test_ci_label_tells_a_small_alpha_from_certainty(self, capsys, score_file, alpha, label):
        code, out, err = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--alpha", alpha,
        )
        assert (code, err) == (0, "")
        assert f"  {label}% CI: [" in out

    @pytest.mark.parametrize("alpha", ["0.1_0", "\u0661e-1", "+0.1"])
    def test_alpha_follows_the_score_integer_rule(self, capsys, score_file, alpha):
        code, out, err = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--alpha", alpha,
        )
        assert code == 2
        assert out == ""
        assert f"argument --alpha: invalid float value: {alpha!r}" in err

    def test_cantus_pc_fixes_the_cantus_of_a_two_voice_score(self, capsys, score_file):
        code, out, err = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--cantus-pc", "5", "--output", "JSON",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["policy"] == "FIXED_CANTUS(5)"
        assert payload["transition_count"] == 3

    def test_drone_under_column_policy_names_the_flags(self, capsys, tmp_path):
        path = tmp_path / "drone.csv"
        path.write_text("measure,beat,pitch\n1,1,60\n2,1,62\n3,1,64\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "analyze", "--file", str(path), "--format", "DRONE", "--world", "fux",
        )
        assert code == 2
        assert out == ""
        assert "DRONE input has no cantus; use --cantus-pc PC" in err

    @pytest.mark.parametrize("flags, message", [
        (["--format", "TWO_VOICE", "--cantus-policy", "fixed", "--cantus-pc", "0"],
         "unrecognized arguments: --cantus-policy fixed"),
        (["--format", "TWO_VOICE", "--cantus-pc", "+3"], "--cantus-pc +3 is not a pitch class"),
        (["--format", "DRONE"], "DRONE input has no cantus"),
        (["--format", "DRONE", "--cantus-pc", "12"], "--cantus-pc 12 is not a pitch class"),
        (["--format", "drone"], "argument --format: invalid choice"),
        (["--format", "TWO_VOICE", "--world", "nonsense"], "malformed pitch-class set"),
    ])
    def test_flags_are_checked_before_the_file_is_read(self, capsys, tmp_path, flags, message):
        argv = ["analyze", "--file", str(tmp_path / "missing.csv"), "--world", "fux", *flags]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err and "No such file" not in err

    def test_one_event_score_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("measure,beat,cantus,discant\n1,1,60,63\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "analyze", "--file", str(path), "--format", "TWO_VOICE", "--world", "fux",
        )
        assert code == 2
        assert out == ""
        assert "need at least 2 events" in err

    def test_field_over_the_csv_limit_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        huge = "6" * (csv.field_size_limit() + 1)
        path.write_text(f"measure,beat,pitch\n1,1,60\n2,1,{huge}\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "analyze", "--file", str(path), "--format", "DRONE", "--world", "fux",
            "--cantus-pc", "0",
        )
        assert code == 2
        assert out == ""
        assert "error: line 3: malformed CSV: field larger than field limit" in err

    def test_row_error_after_a_multiline_field_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('measure,beat,pitch\n1,"1\n",60\n2,1,sixty\n', encoding="utf-8")
        code, out, err = run(
            capsys,
            "analyze", "--file", str(path), "--format", "DRONE", "--world", "fux",
            "--cantus-pc", "0",
        )
        assert code == 2
        assert out == ""
        assert "error: line 4: pitch must be an integer, got 'sixty'" in err

    @pytest.mark.parametrize("make, message", [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"measure,beat,pitch\n1,1,6\xff\n"), "'utf-8' codec can't decode"),
    ], ids=["absent", "directory", "not-utf8"])
    def test_missing_file(self, capsys, tmp_path, make, message):
        path = tmp_path / "score.csv"
        make(path)
        code, out, err = run(
            capsys,
            "analyze", "--file", str(path), "--format", "DRONE", "--world", "fux",
            "--cantus-pc", "0",
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and message in err

    def test_unordered_score(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("measure,beat,pitch\n2,1,60\n1,1,62\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "analyze", "--file", str(path), "--format", "DRONE", "--world", "fux",
            "--cantus-pc", "0",
        )
        assert code == 2
        assert "error: line 3: event at measure 1 beat 1 does not advance" in err


class TestNoll:
    def test_major_triad_text(self, capsys):
        code, out, _ = run(capsys, "noll", "0,4,7")
        assert code == 0
        assert "endomorphisms (8):" in out
        assert "linear parts: 0,1,3,4,8,9" in out
        assert "strong verdict: True" in out

    def test_major_triad_json(self, capsys):
        code, out, _ = run(capsys, "noll", "0,4,7", "--output", "JSON")
        assert code == 0
        payload = json.loads(out)
        assert payload["endomorphism_count"] == 8
        assert payload["linear_parts"] == [0, 1, 3, 4, 8, 9]
        assert payload["strong_verdict"] is True

    def test_whole_tone_triad_scan(self, capsys):
        code, out, _ = run(capsys, "noll", "--scan", "wt-triads", "--output", "JSON")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 20
        assert payload["all_strong_verdicts_false"] is True

    USAGE = "usage: counterpoint noll [-h] (chord | --scan {wt-triads}) [--output {TEXT,JSON}]"

    def test_requires_chord_or_scan(self, capsys):
        code, out, err = run(capsys, "noll")
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == self.USAGE
        assert "error:" in err

    def test_help_shows_chord_or_scan(self, capsys):
        code, out, _ = run(capsys, "noll", "--help")
        assert code == 0
        assert out.splitlines()[0] == self.USAGE

    def test_chord_and_scan_are_exclusive(self, capsys):
        code, out, err = run(capsys, "noll", "0,4,8", "--scan", "wt-triads")
        assert code == 2
        assert out == ""
        assert "argument --scan: not allowed with argument chord" in err

    def test_empty_chord_with_scan_is_not_ignored(self, capsys):
        code, out, err = run(capsys, "noll", "", "--scan", "wt-triads")
        assert code == 2
        assert out == ""
        assert "not allowed with" in err

    def test_empty_chord_is_input_error(self, capsys):
        code, out, err = run(capsys, "noll", "")
        assert code == 2
        assert out == ""
        assert "chord must be nonempty" in err


class TestScaleReport:
    def test_cantus_only(self, capsys):
        code, out, _ = run(
            capsys,
            "scale-report", "--dichotomy", "mystic",
            "--scale", "1,3,5,7,9,11", "--mode", "CANTUS_ONLY",
        )
        assert code == 0
        assert "forbidden classes (k, d, l): 8" in out
        assert "forbidden steps: 48" in out

    def test_both_voices_json(self, capsys):
        code, out, _ = run(
            capsys,
            "scale-report", "--dichotomy", "mystic",
            "--scale", "1,3,5,7,9,11", "--mode", "BOTH_VOICES",
            "--output", "JSON",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["forbidden_class_count"] == 4
        assert payload["forbidden_classes"] == [
            [0, 0, 4], [0, 0, 6], [0, 2, 0], [0, 2, 4],
        ]

    def test_empty_scale_has_no_steps(self, capsys):
        code, out, _ = run(capsys, "scale-report", "--dichotomy", "fux", "--scale", "")
        assert code == 0
        assert "steps in domain: 0" in out


class TestResidueText:
    """Every residue read from the command line is ASCII digits naming 0..11."""

    @pytest.mark.parametrize("argv", [
        ("step", "--dichotomy", "0,3,4,7,8,21", "--from", "0+e3", "--to", "2+e4"),
        ("noll", "0,4,19"),
        ("scale-report", "--dichotomy", "mystic", "--scale", "1,3,5,7,9,23"),
    ])
    def test_pitch_class_outside_the_residues_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "outside 0..11" in err

    @pytest.mark.parametrize("argv", [
        ("noll", "0,-8,7"),
        ("noll", "0,+4,7"),
        ("noll", "0,4,\u0667"),
        ("step", "--dichotomy", "fux", "--from", "0+e3\n", "--to", "2+e4"),
        ("walk", "--dichotomy", "fux", "--start", "\u0660+e3"),
        ("step", "--dichotomy", "0,3,4,7,8,9,9", "--from", "0+e3", "--to", "2+e4"),
        ("noll", "0,4,4,7"),
        ("scale-report", "--dichotomy", "fux", "--scale", "1,1,3"),
    ])
    def test_malformed_residue_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "malformed" in err

    def test_spaces_after_commas_still_parse(self, capsys):
        assert run(capsys, "noll", "0, 4, 7") == run(capsys, "noll", "0,4,7")


class TestWalk:
    def test_deterministic_json(self, capsys):
        args = (
            "walk", "--dichotomy", "fux", "--start", "0+e3",
            "--length", "12", "--seed", "7", "--output", "JSON",
        )
        code, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert code == 0
        assert first == second
        payload = json.loads(first)
        assert payload["completed"] is True
        assert len(payload["path"]) == 13
        assert payload["path"][0] == "0+e3"

    def test_dead_end_start_is_model_error(self, capsys):
        code, _, err = run(
            capsys, "walk", "--dichotomy", "mystic", "--start", "0+e3"
        )
        assert code == 3
        assert "no valid successor" in err

    def test_dead_end_after_the_start_is_reported(self, capsys):
        code, out, err = run(
            capsys, "walk", "--dichotomy", "mystic", "--start", "0+e1",
            "--length", "30", "--seed", "0",
        )
        assert code == 0
        assert out == "0+e1 8+e9\ndead end after 1 steps\n"
        assert err == ""

    def test_start_outside_the_residues_is_input_error(self, capsys):
        code, out, err = run(capsys, "walk", "--dichotomy", "fux", "--start", "13+e0")
        assert code == 2
        assert out == ""
        assert "outside 0..11" in err

    @pytest.mark.parametrize("option, value", [("--length", "-5"), ("--seed", "-7")])
    def test_negative_length_is_input_error(self, capsys, option, value):
        code, out, err = run(
            capsys, "walk", "--dichotomy", "fux", "--start", "0+e3", option, value
        )
        assert code == 2
        assert out == ""
        assert "non-negative" in err

    @pytest.mark.parametrize("option, value", [
        ("--length", "\u0663"), ("--length", "+3"), ("--length", "1_0"),
        ("--seed", "1_0"), ("--seed", "+7"), ("--seed", "\u0667"),
    ])
    def test_numbers_follow_the_score_integer_rule(self, capsys, option, value):
        code, out, err = run(
            capsys, "walk", "--dichotomy", "fux", "--start", "0+e3", option, value
        )
        assert code == 2
        assert out == ""
        assert f"argument {option}: invalid int value: {value!r}" in err


# SHA-256 of stdout for every command in every output form, pinned so that
# any change to the rendering of a report shows (JSON digests include the
# tool version).  Run from a directory that holds TWO_VOICE_SCORE as
# passage.csv, LONG_SCORE as long.csv, DRONE_SCORE as drone.csv,
# FRACTIONAL_SCORE as fractional.csv and the synthetic paper witnesses as
# witness1.csv and witness2.csv, because TEXT analyze prints the path as given.
GOLDEN_STDOUT = [
    ("worlds table --dichotomy fux",
     "3fb0443e9e64f871dfa250ab2735c4789499b44719c8af4aa76b46d253cc6aeb"),
    ("worlds table --dichotomy fux --output JSON",
     "c7c242b12e5d47bc61ada085a35a03dccafbd68b1e097304d19a088dced8d0a6"),
    ("worlds table --dichotomy mystic --output JSON",
     "5c825b64aa92c5c0a94e08e94e697384a1fb81fa16351a4dba106a566bf0bddf"),
    ("worlds table --dichotomy mystic --output CSV",
     "aeac92af23e0d9052bba9bb5ce98c105606be50cfbf69238f58b09cd82d3404c"),
    ("worlds export --dichotomy fux",
     "1366b3c3cd7eb29d6d0fba260d70b9e0abc0790efed5e8ddd57ef38b27ed2d72"),
    ("worlds export --dichotomy mystic --what histogram",
     "aeac92af23e0d9052bba9bb5ce98c105606be50cfbf69238f58b09cd82d3404c"),
    ("step --dichotomy fux --from 0+e3 --to 2+e4",
     "73843096a420e41c8ab9c6fdeb625e1f1ac49d986f257241c4e76dded4bf75d5"),
    ("step --dichotomy fux --from 0+e7 --to 2+e7 --output JSON",
     "90ffb69df3f60748b5736baf90d4dec2a010dbc376b32f8ea44a40ce11db846f"),
    ("compare --a fux --b mystic",
     "42b6183f8850a05178288a347f2ee33bf5be8c62951c14f951d2988fed7f2e2c"),
    ("compare --a fux --b mystic --output JSON",
     "1396d22e2e08f2c6e4805f426b0cf04384e81ad31fc9e9dcf0eb394885ab443f"),
    ("analyze --file passage.csv --format TWO_VOICE --world fux",
     "397baf341bf864488c4e690573b134d584368aa0a3d1c0c0c54416b5396cf6f0"),
    ("analyze --file passage.csv --format TWO_VOICE --world fux --output JSON",
     "950fa5bd0fdf30b24f806b9f214d5e7507b07c3c5db8c692d3484e28e5b7c912"),
    ("noll 0,4,7",
     "de667123b9bc1661b7a605520096d6874f15cee831a40cd6200699c242c0afa6"),
    ("noll 0,4,7 --output JSON",
     "05908cee00f7d3e4efe15ddbea0afd1d7998f9b993f2247dcd078b85ec95d978"),
    ("noll --scan wt-triads",
     "a946c89151f8ac75ae9d387f88b1fdbdb27ceaad85a2f4d968dbcfb1470919d1"),
    ("noll --scan wt-triads --output JSON",
     "5e0b10cb6b93d1914b7adf225d76a4dc74e7852a79bf2ba073eb356237e6d220"),
    ("scale-report --dichotomy mystic --scale 1,3,5,7,9,11 --mode BOTH_VOICES",
     "a2f5f735972a4c373f58c3fbfafc2e0a8dc9568b3162b68e84079403d07f007c"),
    ("scale-report --dichotomy mystic --scale 1,3,5,7,9,11 --output JSON",
     "a6af85290c74a4efc56cc1088a05706a8a4fcdf31f95eaf98364791b11968f0e"),
    ("walk --dichotomy fux --start 0+e3 --length 12 --seed 7",
     "1931d96d4722bdfde78e14949e77cfc773ed84aef89914ddabc6e8e2faa8ebd1"),
    ("walk --dichotomy fux --start 0+e3 --length 12 --seed 7 --output JSON",
     "65bebed23f52d30d3e92e34101675bf1271002a27e0ad6eecb65d6595631dfb6"),
    ("analyze --file long.csv --format TWO_VOICE --world fux --divisor N_MINUS_1 --dedup NONE",
     "3bdb6d8852ee3d54b7ac6936ad585e6e91a0673b407c31d5e449b2f2422ca69e"),
    ("analyze --file long.csv --format TWO_VOICE --world fux --divisor N_MINUS_1 --dedup NONE --output JSON",
     "7c46091133d153f10c7f7741bfc4e7dc55241f55fa261357dd20fec7adaf6fed"),
    ("analyze --file long.csv --format TWO_VOICE --world fux --merge-low-expected --no-yates --output JSON",
     "d8701b140fdb8b6dd242d7a67f8514bb74526fa17e4910bf090edcc0affe7d9b"),
    ("analyze --file drone.csv --format DRONE --world fux --cantus-pc 0 --output JSON",
     "5d8b34db66910d93e5ad0d2a1f23e7d44d707e060d9e5bda02621ffd5b215c6c"),
    ("analyze --file fractional.csv --format TWO_VOICE --world fux",
     "abdfbb1fcd563cb123e4dd28ab8dc7e1011fec45475d4de839d8a0f2619f170e"),
    ("analyze --file fractional.csv --format TWO_VOICE --world fux --output JSON",
     "072fbe374d0e2cc20374b34ebd4afcfd1e5af5e2558092f7f0f918957a36220a"),
    ("analyze --file witness1.csv --format TWO_VOICE --world fux",
     "0bbc9d4efb34210fdcb2aca50fdf75b296ee6a1a11c61bde61bc528040fc5eae"),
    ("analyze --file witness1.csv --format TWO_VOICE --world mystic",
     "7831bc1064cdad58e13d486747b3b80bbd0e36f999f67996197572abc6b250d8"),
    ("analyze --file witness2.csv --format TWO_VOICE --world fux",
     "06067779713db741b204c816c7da9cc3bba05bccc84341914eaa6d99e368131b"),
    ("analyze --file witness2.csv --format TWO_VOICE --world mystic",
     "f056e7142f5049583eccb1176aa22543cd4636c0699a52097ebbc982ad3dd042"),
    ("analyze --file witness1.csv --format TWO_VOICE --world mystic --alpha 0.01 --output JSON",
     "5eab0575e07bf32417b505e4662833fcad586945edc2d3cfc77ac4e91d2d2990"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT, ids=[a for a, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, monkeypatch, tmp_path, argv, digest):
    for name, score in (
        ("passage.csv", TWO_VOICE_SCORE),
        ("long.csv", LONG_SCORE),
        ("drone.csv", DRONE_SCORE),
        ("fractional.csv", FRACTIONAL_SCORE),
    ):
        (tmp_path / name).write_text(score + "\n", encoding="utf-8")
    for name, events in (("witness1.csv", WITNESS_1), ("witness2.csv", WITNESS_2)):
        (tmp_path / name).write_text(witness_csv(events), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestEntryPoints:
    def test_usage_error_exits_two(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "counterpoint" in out

    @staticmethod
    def run_module(module, tmp_path):
        env = {
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(counterpoint.__file__).parents[1]),
            "PYTHONPYCACHEPREFIX": str(tmp_path / "pycache"),  # no bytecode left in the source tree
        }
        return subprocess.run(
            [sys.executable, "-m", module, "noll", "0,4,7"],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_console_script(self, tmp_path):
        result = self.run_module("counterpoint.cli_reports", tmp_path)
        assert result.returncode == 0
        assert "strong verdict: True" in result.stdout

    def test_package_runs_as_a_module(self, tmp_path):
        result = self.run_module("counterpoint", tmp_path)
        assert result.returncode == 0
        assert "strong verdict: True" in result.stdout


# The exit code of every exception the package exports: 2 input, 3 model, 4 gate.
EXIT_CODES = {
    "DeadEnd": 3, "DegeneratePopulation": 3, "EmptyCategory": 3, "EmptySample": 3,
    "GateFailure": 4, "ModulusMismatch": 3, "NotInvertible": 3, "NotStrong": 3,
    "OrderError": 2, "ParseError": 2, "TooFewEvents": 2,
}
EXPORTED_EXCEPTIONS = sorted(
    name for name in counterpoint.__all__
    if isinstance(getattr(counterpoint, name), type)
    and issubclass(getattr(counterpoint, name), BaseException)
)


@pytest.mark.parametrize("name", EXPORTED_EXCEPTIONS)
def test_every_exported_exception_has_a_typed_exit_code(capsys, monkeypatch, name):
    cls = getattr(counterpoint, name)
    exc = cls(1, "injected") if cls is counterpoint.ParseError else cls("injected")

    def build_world(d):
        raise exc

    monkeypatch.setattr(cli_reports, "build_world", build_world)
    code, out, err = run(capsys, "step", "--dichotomy", "fux", "--from", "0+e3", "--to", "2+e4")
    assert code == EXIT_CODES[name]
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("name", EXPORTED_EXCEPTIONS)
def test_exit_three_is_the_model_error_base(name):
    cls = getattr(counterpoint, name)
    assert issubclass(cls, counterpoint.residue_algebra._ModelError) == (EXIT_CODES[name] == 3)


def test_the_cli_names_no_model_error_of_its_own():
    """The CLI catches model errors by their base, not by a list of their classes."""
    tree = ast.parse(Path(cli_reports.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    exceptions = {
        name for name in imported
        if isinstance(getattr(cli_reports, name), type)
        and issubclass(getattr(cli_reports, name), BaseException)
    }
    assert exceptions == {"GateFailure", "_ModelError"}


@pytest.mark.parametrize("table, tamper", [
    ("EXPECTED_STEP_HISTOGRAMS", {"fux": {0: 6721, 1: 4991, 2: 5568, 3: 1440, 4: 1152, 5: 864}}),
    ("WORKED_STEPS", {"fux": {((0, 3), (2, 4)): 3}}),
], ids=["histogram", "worked-step"])
def test_gate_failure_exits_four_with_no_report(capsys, monkeypatch, table, tamper):
    monkeypatch.setattr(worlds, table, {**getattr(worlds, table), **tamper})
    code, out, err = run(capsys, "step", "--dichotomy", "fux", "--from", "0+e3", "--to", "2+e4")
    assert code == 4
    assert out == ""
    assert err.startswith("error: fux world failed its calibration gate: ")


PUBLIC_NAMES = [
    "COLUMN_CANTUS", "ChiSquareResult", "ChordEndomorphismReport", "ColumnCantus",
    "DeadEnd", "Dedup", "DegeneratePopulation", "Dichotomy", "DichotomyClass",
    "DualAffineMap", "DualNumber", "EVEN_WHOLE_TONE", "EffectSizeResult",
    "EmptyCategory", "EmptySample", "FUX_HALF", "FixedCantus", "GateFailure",
    "MYSTIC_HALF", "Modulus", "ModulusMismatch", "NotInvertible", "NotStrong",
    "OrderError", "PRESETS", "ParseError", "PopulationSpec", "ResidueAffineMap",
    "RestrictionMode", "SampleSummary", "ScaleRestrictionReport", "ScoreEvent",
    "ScoreFormat", "SdDivisor", "StrengthCertificate", "TooFewEvents",
    "TransitionSequence", "WalkResult", "World", "WorldMoments", "WorldOverlap",
    "all_class_orbit_sizes", "build_world", "chi_square_gof", "chi_square_sf",
    "chord_endomorphisms", "classify", "counterpoint_symmetries", "effect_size",
    "extract_transitions", "parse_pitch_class_set", "parse_score", "sample_summary",
    "scale_restriction_report", "score_against_world", "step_count", "strength",
    "strong_atlas", "walk", "world_histogram_csv", "world_matrix_csv", "world_moments",
    "world_overlap",
]


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from counterpoint import *", namespace)
    assert "sample_summary" in namespace
    namespace.pop("__builtins__")
    assert not any(type(value) is type(counterpoint) for value in namespace.values())
    assert sorted(counterpoint.__all__) == PUBLIC_NAMES
