"""Tests for the command line front end."""

import json

import pytest

from safereq.cli import main

CLASSIFY_KEY = "Assign each requirement to exactly one function alias"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def make_project(tmp_path, config=None):
    """A two-task mock-backed project: classify, then local coverage."""
    (tmp_path / "input").mkdir(parents=True)
    (tmp_path / "input" / "reqs.csv").write_text(
        "ReqID,Requirements\n"
        "3000,The system shall hold its heading.\n"
        "3001,The system shall follow waypoints.\n",
        encoding="utf-8",
    )
    (tmp_path / "instructions.txt").write_text(CLASSIFY_KEY + ".\n", encoding="utf-8")
    (tmp_path / "resources.json").write_text(
        json.dumps({"ARCHITECTURE": {"NAV": "Drone/Navigation/Navigating"}}),
        encoding="utf-8",
    )
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "rules.tsv").write_text(
        f"{CLASSIFY_KEY}\tclassify.json\n", encoding="utf-8"
    )
    (fixtures / "classify.json").write_text(
        json.dumps(
            {
                "results": [
                    {
                        "ReqID": "3000",
                        "Function": "NAV",
                        "Type": "FUNC",
                        "Confidence": 90,
                        "System_Requirement": "The system shall hold its heading.",
                    },
                    {
                        "ReqID": "3001",
                        "Function": "NAV",
                        "Type": "FUNC",
                        "Confidence": 85,
                        "System_Requirement": "The system shall follow waypoints.",
                    },
                ]
            }
        ),
        encoding="utf-8",
    )
    if config is None:
        config = {
            "defaults": {
                "type": "GENERATIVE_ANALYSIS_TASK",
                "run": True,
                "delta": True,
                "dataset_name": "Bench Requirements",
                "dataset_id_column": "ReqID",
                "dataset_columns": ["Requirements"],
                "result_columns": ["Function", "Type", "Confidence"],
                "resources": "resources.json",
                "output_path": "results",
                "chunk_size": 10,
                "execute": True,
                "analyze": True,
            },
            "llm": {"backend": "mock", "fixture_dir": "fixtures"},
            "b_classify": {
                "input_file": "input/reqs.csv",
                "instructions": "instructions.txt",
                "analysis_function": "analyze_requirement_completeness",
            },
            "c_coverage": {
                "input_file": "results/joined/b_classify_joined.csv",
                "execute": False,
                "analysis_function": "analyze_coverage_gaps",
            },
        }
    config_path = tmp_path / "params.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path


def run_cli(config_path, *extra):
    return main(["run", "--config", str(config_path), "--version-tag", "TEST", *extra])


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------


def test_run_prints_task_lines_and_exits_zero(tmp_path, capsys):
    code = run_cli(make_project(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b_classify: Succeeded (2 requirements classified, 0 quarantined)"
    assert lines[1] == "c_coverage: Succeeded (2 functions, 1 with missing coverage)"
    assert lines[2] == f"reports: {tmp_path / 'results' / 'reports'}"


def test_run_writes_the_report_set(tmp_path, capsys):
    run_cli(make_project(tmp_path))
    capsys.readouterr()
    reports = tmp_path / "results" / "reports"
    assert (reports / "summary_TEST.md").exists()
    assert (reports / "classification_TEST.csv").exists()
    assert (reports / "coverage_TEST.csv").exists()


def test_verbose_adds_progress_calls_and_files(tmp_path, capsys):
    code = run_cli(make_project(tmp_path), "--verbose")
    out = capsys.readouterr().out
    assert code == 0
    assert "[b_classify] Succeeded: 2 requirements classified, 0 quarantined" in out
    assert "b_classify: Succeeded (2 requirements classified, 0 quarantined)" in out
    assert "[1 backend calls]" in out
    assert f"  wrote {tmp_path / 'results' / 'raw' / 'b_classify_TEST.json'}" in out


def test_task_flag_runs_one_task(tmp_path, capsys):
    code = run_cli(make_project(tmp_path), "--task", "b_classify")
    out = capsys.readouterr().out
    assert code == 0
    assert "b_classify: Succeeded" in out
    assert "c_coverage" not in out


def test_second_run_skips_via_delta_and_force_reruns(tmp_path, capsys):
    config_path = make_project(tmp_path)
    run_cli(config_path)
    capsys.readouterr()

    reports = tmp_path / "results" / "reports"
    code = run_cli(config_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "b_classify: Skipped (delta: reused 2 classified rows)" in out
    assert out.splitlines()[-1] == f"reports: {reports} (unchanged)"

    code = run_cli(config_path, "--force")
    out = capsys.readouterr().out
    assert code == 0
    assert "b_classify: Succeeded" in out
    assert out.splitlines()[-1] == f"reports: {reports}"


def test_dry_run_plans_without_writing(tmp_path, capsys):
    code = run_cli(make_project(tmp_path), "--dry-run")
    out = capsys.readouterr().out
    assert code == 0
    assert "b_classify: Planned (would execute)" in out
    assert "reports:" not in out
    assert not (tmp_path / "results").exists()


def test_backend_flag_overrides_config(tmp_path, capsys):
    config_path = make_project(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["llm"] = {
        "backend": "http",
        "endpoint_url": "https://unreachable.test/v1",
        "fixture_dir": "fixtures",
    }
    config_path.write_text(json.dumps(config), encoding="utf-8")
    # The override swaps in the offline mock, so the run still succeeds.
    code = run_cli(config_path, "--backend", "mock")
    out = capsys.readouterr().out
    assert code == 0
    assert "b_classify: Succeeded" in out


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------


def test_invalid_config_reports_problems_on_stderr(tmp_path, capsys):
    config_path = make_project(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["b_classify"]["chunk_size"] = 0
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli(config_path)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[0] == "invalid config:"
    assert "  b_classify.chunk_size: must be a positive integer" in captured.err


def test_a_config_path_that_is_a_directory_reports_invalid_config(tmp_path, capsys):
    code = run_cli(tmp_path)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines()[0] == "invalid config:"
    assert "Is a directory" in captured.err


def test_unknown_task_name_reports_invalid_config(tmp_path, capsys):
    code = run_cli(make_project(tmp_path), "--task", "z_missing")
    captured = capsys.readouterr()
    assert code == 1
    assert "invalid config:" in captured.err
    assert "z_missing" in captured.err


def test_failed_task_exits_one(tmp_path, capsys):
    config_path = make_project(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["b_classify"]["input_file"] = "input/absent.csv"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli(config_path)
    out = capsys.readouterr().out
    assert code == 1
    assert "b_classify: Failed (input file not found" in out


def test_a_report_set_that_cannot_be_written_exits_one(tmp_path, capsys):
    (tmp_path / "plain").write_text("not a directory", encoding="utf-8")
    config_path = make_project(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["c_coverage"]["output_path"] = str(tmp_path / "plain" / "x")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli(config_path)
    reports = tmp_path / "plain" / "x" / "reports"
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write the report set to {reports}: ")


def test_missing_config_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run"])
    assert exit_info.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["audit"])
    assert exit_info.value.code == 2
