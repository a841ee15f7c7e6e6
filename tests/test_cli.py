import hashlib
import json
import os
import shutil
import subprocess

import pytest

from trace_insight.cli import main
from trace_insight.pipeline import ANALYZE_FILENAMES

GRID_END = 39600 + 24 * 300
QUOTAS = "10,2,4,2,2,4,4,4"   # 32 machines over the eight types


def run_ok(argv):
    assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One full synth -> preprocess -> analyze -> report run, shared
    read-only by the assertions below."""
    root = tmp_path_factory.mktemp("cli")
    trace = root / "trace"
    out = root / "out"
    run_ok(["synth",
            "--machines", "32", "--quotas", QUOTAS,
            "--plants", "Idle:11;HeavyOnline:1", "--gaps", "3:cpu:5-6",
            "--noise", "0.02", "--seed", "9",
            "--out-dir", str(trace), f"grid_end={GRID_END}"])
    run_ok(["preprocess", "--input-dir", str(trace), "--out-dir", str(out),
            f"grid_end={GRID_END}"])
    run_ok(["analyze", "--input-dir", str(trace), "--out-dir", str(out),
            "--seed", "9", f"grid_end={GRID_END}"])
    run_ok(["report", "--out-dir", str(out)])
    return trace, out


def test_every_stage_leaves_its_artifacts(pipeline_dirs):
    trace, out = pipeline_dirs
    for name in ("server_event.csv", "server_usage.csv", "container_event.csv",
                 "container_usage.csv", "batch_task.csv", "batch_instance.csv",
                 "ground_truth.json", "manifest-synth.json"):
        assert (trace / name).exists(), name
    expected = set(ANALYZE_FILENAMES) | {
        "dense_usage.csv", "repair_log.csv", "removed_container_events.csv",
        "manifest-preprocess.json", "manifest-analyze.json",
        "report.json", "manifest-report.json"}
    assert expected <= set(os.listdir(out))


def test_later_stages_leave_preprocess_artifacts_untouched(pipeline_dirs):
    _, out = pipeline_dirs
    manifest = json.loads((out / "manifest-preprocess.json").read_text())
    for name, digest in manifest["outputs"].items():
        now = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert now == digest, f"{name} changed after preprocess"


def test_report_summarizes_the_run(pipeline_dirs):
    _, out = pipeline_dirs
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["grid"] == {"start": 39600, "end": GRID_END,
                              "step": 300, "interval_count": 24}

    pre = report["preprocess"]
    assert pre["machines"] == 32
    # the planted two-slot gap costs one repair per metric per slot
    assert pre["repairs"] == {"Interpolated": 12}
    assert pre["container_events_removed"] == 0

    # occupancy bits ignore usage noise, so the quotas come back exactly
    assert report["classification"]["k"] == 8
    assert report["classification"]["counts"] == {
        "Type1": 10, "Type2": 2, "Type3": 4, "Type4": 2,
        "Type5": 2, "Type6": 4, "Type7": 4, "Type8": 4}
    members = report["classification"]["members"]
    assert 11 in members["Type2"] and 1 in members["Type1"]

    sim = report["similarity"]
    assert sim["threshold"] == 3.0
    assert len(sim["standard_machines"]) == 4
    assert sim["flagged_count"] == len(sim["flagged"])
    assert sim["flagged_fraction"] == pytest.approx(sim["flagged_count"] / 32)

    anomalies = report["anomalies"]
    assert anomalies["machine_count"] == 32
    top_machines = [entry["machine"] for entry in anomalies["top"]]
    assert 1 in top_machines, "the heavy-online plant should stand out"
    heavy = next(e for e in anomalies["top"] if e["machine"] == 1)
    assert "HeavierOnlineServices" in heavy["causes"]

    assert report["plot_data"]["type_usage"] == "plot_type_usage.csv"


def test_report_validates_against_the_published_schema(pipeline_dirs):
    jsonschema = pytest.importorskip("jsonschema")
    _, out = pipeline_dirs
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "docs", "report.schema.json")) as fh:
        schema = json.load(fh)
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, schema)


def test_seed_flag_fans_out_to_all_three_stages(pipeline_dirs):
    _, out = pipeline_dirs
    config = json.loads((out / "manifest-analyze.json").read_text())["config"]
    assert config["dtw_seed"] == config["classify_seed"] \
        == config["anomaly_seed"] == "9"


def test_overrides_beat_flags_beat_config(pipeline_dirs, tmp_path):
    trace, _ = pipeline_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dtw_threshold=9.0\ngrid_end={GRID_END}\n")

    flag_out = tmp_path / "flag"
    run_ok(["analyze", "--config", str(cfg), "--input-dir", str(trace),
            "--out-dir", str(flag_out), "--seed", "1", "--threshold", "4.0",
            "--normalized", "--label-thresholds", "always=0.88"])
    config = json.loads((flag_out / "manifest-analyze.json").read_text())["config"]
    assert config["dtw_threshold"] == "4.0"
    assert config["dtw_normalized"] == "true"
    assert config["classify_always"] == "0.88"

    override_out = tmp_path / "override"
    run_ok(["analyze", "--config", str(cfg), "--input-dir", str(trace),
            "--out-dir", str(override_out), "--seed", "1",
            "--threshold", "4.0", "dtw_threshold=2.5"])
    config = json.loads((override_out / "manifest-analyze.json").read_text())["config"]
    assert config["dtw_threshold"] == "2.5"

    # neither run had a preprocess stage, so analyze worked off the raw
    # trace in memory without materializing a dense table
    assert not (flag_out / "dense_usage.csv").exists()
    assert set(ANALYZE_FILENAMES) <= set(os.listdir(flag_out))


def test_success_message_names_stage_and_directory(tmp_path, capsys):
    out = tmp_path / "t"
    run_ok(["synth", "--machines", "10", "--quotas", "3,1,1,1,1,1,1,1",
            "--seed", "5", "--out-dir", str(out),
            f"grid_end={39600 + 12 * 300}"])
    assert capsys.readouterr().out == f"synth: ok ({out})\n"


def test_missing_seed_is_spelled_out(pipeline_dirs, tmp_path, capsys):
    trace, _ = pipeline_dirs
    code = main(["analyze", "--input-dir", str(trace),
                 "--out-dir", str(tmp_path / "x"), f"grid_end={GRID_END}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("trace-insight: error [analyze]")
    assert "seeds must be explicit" in err


def test_report_before_analyze_fails(tmp_path, capsys):
    code = main(["report", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("trace-insight: error [report]")
    assert "analyze stage missing" in err


def test_config_file_errors_surface(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key=1\n")
    code = main(["synth", "--config", str(cfg), "--seed", "1",
                 "--out-dir", str(tmp_path / "t")])
    assert code == 2
    assert "unknown key 'not_a_key'" in capsys.readouterr().err


def test_bad_override_surfaces(tmp_path, capsys):
    code = main(["report", "--out-dir", str(tmp_path), "threshold"])
    assert code == 2
    assert "override must be key=value" in capsys.readouterr().err


def test_bad_label_threshold_name(tmp_path, capsys):
    code = main(["analyze", "--input-dir", str(tmp_path),
                 "--out-dir", str(tmp_path), "--seed", "1",
                 "--label-thresholds", "alwayz=0.5"])
    assert code == 2
    assert "unknown label threshold 'alwayz'" in capsys.readouterr().err


@pytest.mark.parametrize("override, problem", [
    ("synth_quotas=2,2,2,2,2,2,2,x", "config key 'synth_quotas'"),
    ("synth_plants=Idle:3:level=abc", "bad plant 'Idle:3:level=abc'"),
])
def test_bad_synth_numbers_exit_2_with_the_stage_named(tmp_path, capsys,
                                                       override, problem):
    code = main(["synth", "--machines", "16", "--seed", "1",
                 "--quotas", "2,2,2,2,2,2,2,2", "--out-dir", str(tmp_path / "t"),
                 override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"trace-insight: error [synth] {problem}")


def test_console_script_is_installed():
    exe = shutil.which("trace-insight")
    assert exe, "console script missing; install the package first"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for stage in ("synth", "preprocess", "analyze", "report"):
        assert stage in proc.stdout
