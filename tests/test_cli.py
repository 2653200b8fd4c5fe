import json
import os
import subprocess
import sys

import pytest

import counterpoint
from counterpoint.cli_reports import main

TWO_VOICE_SCORE = "\n".join(
    [
        "measure,beat,cantus,discant",
        "1,1,60,63",  # 0+e3
        "1,2,62,66",  # 2+e4
        "1,3,60,67",  # 0+e7
        "1,4,62,69",  # 2+e7
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
            "--world", "fux", "--cantus-policy", "fixed", "--cantus-pc", "0",
            "--output", "JSON",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["policy"] == "FIXED_CANTUS(0)"
        assert payload["transition_count"] == 4

    @pytest.mark.parametrize("alpha", ["0", "1.5"])
    def test_alpha_outside_unit_interval_is_input_error(self, capsys, score_file, alpha):
        code, out, err = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--alpha", alpha,
        )
        assert code == 2
        assert out == ""
        assert "alpha" in err

    def test_fixed_policy_requires_pitch_class(self, capsys, score_file):
        code, _, err = run(
            capsys,
            "analyze", "--file", str(score_file), "--format", "TWO_VOICE",
            "--world", "fux", "--cantus-policy", "fixed",
        )
        assert code == 2
        assert "cantus-pc" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "analyze", "--file", str(tmp_path / "absent.csv"),
            "--format", "DRONE", "--world", "fux",
        )
        assert code == 2
        assert "error:" in err

    def test_unordered_score(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("measure,beat,pitch\n2,1,60\n1,1,62\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "analyze", "--file", str(path), "--format", "DRONE", "--world", "fux",
        )
        assert code == 2
        assert "error:" in err


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

    def test_requires_chord_or_scan(self, capsys):
        code, _, err = run(capsys, "noll")
        assert code == 2
        assert "error:" in err


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

    def test_negative_length_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "walk", "--dichotomy", "fux", "--start", "0+e3", "--length", "-5"
        )
        assert code == 2
        assert out == ""
        assert "non-negative" in err


class TestEntryPoints:
    def test_usage_error_exits_two(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "counterpoint" in out

    def test_console_script(self):
        env = {"PATH": "/usr/bin:/bin"}
        if "PYTHONPATH" in os.environ:
            env["PYTHONPATH"] = os.environ["PYTHONPATH"]
        result = subprocess.run(
            [sys.executable, "-m", "counterpoint.cli_reports", "noll", "0,4,7"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert "strong verdict: True" in result.stdout
