import argparse
import gc
import hashlib
import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from trace_insight.cli import build_parser, main
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
    run_ok(["analyze", "--out-dir", str(out), "--seed", "9",
            f"grid_end={GRID_END}"])
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


def test_overrides_beat_flags(pipeline_dirs, tmp_path):
    trace, _ = pipeline_dirs
    grid = f"grid_end={GRID_END}"
    flag_out, override_out = tmp_path / "flag", tmp_path / "override"
    for out in (flag_out, override_out):
        run_ok(["preprocess", "--input-dir", str(trace), "--out-dir", str(out),
                grid])
    # a flag beats the default (drawn standards and per_machine_mean)
    run_ok(["analyze", "--out-dir", str(flag_out), "--seed", "1",
            "--standards", "2,5,7", "dtw_normalized=true", "--mode",
            "per_interval", grid])
    config = json.loads((flag_out / "manifest-analyze.json").read_text())["config"]
    assert config["dtw_standards"] == "2,5,7"
    assert config["dtw_normalized"] == "true"
    assert config["anomaly_mode"] == "per_interval"

    # an override beats the flag
    run_ok(["analyze", "--out-dir", str(override_out), "--seed", "1",
            "--standards", "2,5,7", "dtw_standards=3,4", "--mode",
            "per_interval", "anomaly_mode=per_machine_mean", grid])
    config = json.loads((override_out / "manifest-analyze.json").read_text())["config"]
    assert config["dtw_standards"] == "3,4"
    histogram = json.loads((override_out / "dtw_histogram.json").read_text())
    assert histogram["standard_machines"] == [3, 4]
    assert config["anomaly_mode"] == "per_machine_mean"
    assert set(ANALYZE_FILENAMES) <= set(os.listdir(flag_out))


# deriving the flags from the config table must not add, drop or rename any
# of these
CLI_OPTIONS = {
    "synth": {"--machines", "--quotas", "--plants", "--gaps", "--noise",
              "--seed", "--out-dir"},
    "preprocess": {"--input-dir", "--out-dir"},
    "analyze": {"--out-dir", "--standards", "--mode", "--seed"},
    "report": {"--out-dir"},
}


def test_each_subcommand_keeps_its_options():
    subparsers, = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(CLI_OPTIONS)
    for command, sub in subparsers.choices.items():
        options = {option for action in sub._actions
                   for option in action.option_strings}
        assert options - {"-h", "--help"} == CLI_OPTIONS[command]


def test_success_message_names_stage_and_directory(tmp_path, capsys):
    out = tmp_path / "t"
    run_ok(["synth", "--machines", "10", "--quotas", "3,1,1,1,1,1,1,1",
            "--seed", "5", "--out-dir", str(out),
            f"grid_end={39600 + 12 * 300}"])
    assert capsys.readouterr().out == f"synth: ok ({out})\n"


def test_missing_seed_is_spelled_out(pipeline_dirs, tmp_path, capsys):
    trace, _ = pipeline_dirs
    code = main(["analyze", "--out-dir", str(tmp_path / "x"),
                 f"grid_end={GRID_END}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("trace-insight: error [analyze]")
    assert "seeds must be explicit" in err


def test_an_oversized_trace_cell_exits_2_with_preprocess_named(tmp_path, capsys):
    trace = tmp_path / "trace"
    run_ok(["synth", "--machines", "10", "--quotas", "3,1,1,1,1,1,1,1",
            "--seed", "5", "--out-dir", str(trace), f"grid_end={GRID_END}"])
    with open(trace / "server_event.csv", "a", encoding="utf-8") as fh:
        fh.write("0,1,softerror," + "x" * 140_000 + ",0,0,0\n")
    code = main(["preprocess", "--input-dir", str(trace),
                 "--out-dir", str(tmp_path / "out"), f"grid_end={GRID_END}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("trace-insight: error [preprocess] cannot read trace "
                          "file ")
    assert "server_event.csv: field larger than field limit (131072)" in err
    assert not (tmp_path / "out").exists()


def test_a_key_the_stage_does_not_read_is_named_and_left_out(pipeline_dirs,
                                                             tmp_path, capsys):
    trace, _ = pipeline_dirs
    out = tmp_path / "out"
    run_ok(["preprocess", "--input-dir", str(trace), "--out-dir", str(out),
            f"grid_end={GRID_END}"])
    analyze = ["analyze", "--out-dir", str(out), "--seed", "9",
               f"grid_end={GRID_END}"]
    run_ok(analyze)
    names = [*ANALYZE_FILENAMES, "manifest-analyze.json"]
    before = {name: (out / name).read_bytes() for name in names}
    capsys.readouterr()
    run_ok([*analyze, "input_dir=x"])
    assert capsys.readouterr().err == (
        "trace-insight: warning [analyze] config key 'input_dir' is not read "
        "by analyze; ignored\n")
    # the manifest records only what analyze read, so it too is unchanged
    for name in names:
        assert (out / name).read_bytes() == before[name], name
    config = json.loads((out / "manifest-analyze.json").read_text())["config"]
    assert "input_dir" not in config and config["dtw_seed"] == "9"


def test_an_output_path_that_is_a_file_exits_2_with_the_stage_named(
        pipeline_dirs, tmp_path, capsys):
    trace, _ = pipeline_dirs
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for argv in (["synth", "--machines", "10", "--quotas", "3,1,1,1,1,1,1,1",
                  "--seed", "5", "--out-dir", str(taken)],
                 ["preprocess", f"input_dir={trace}", f"output_dir={taken}",
                  f"grid_end={GRID_END}"]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"trace-insight: error [{argv[0]}] "), err
        assert str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_report_on_an_unreadable_artifact_exits_2(pipeline_dirs, tmp_path,
                                                  capsys):
    _, out = pipeline_dirs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / "dtw_histogram.json").unlink()
    (copy / "dtw_histogram.json").mkdir()
    assert main(["report", "--out-dir", str(copy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace-insight: error [report] ")
    assert str(copy / "dtw_histogram.json") in err


@pytest.mark.parametrize("name, spoil, key", [
    ("manifest-analyze.json", {"intervals": None}, "intervals"),
    ("manifest-analyze.json", {"intervals": "24"}, "intervals"),
    ("manifest-preprocess.json", {"machines": None, "repair_annotations": None},
     "machines"),
    ("manifest-preprocess.json", {"container_events_removed": None},
     "container_events_removed"),
], ids=["analyze-no-intervals", "analyze-intervals-as-text", "preprocess-no-machines",
        "preprocess-no-events-removed"])
def test_report_on_a_manifest_without_a_row_count_exits_2(pipeline_dirs, tmp_path,
                                                          capsys, name, spoil, key):
    # report copies these counts: a missing one is neither a traceback nor a 0
    _, out = pipeline_dirs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    manifest = json.loads((copy / name).read_text())
    manifest["row_counts"] = {k: v for k, v in {**manifest["row_counts"], **spoil}.items()
                              if v is not None}
    (copy / name).write_text(json.dumps(manifest))
    report = (copy / "report.json").read_bytes()
    assert main(["report", "--out-dir", str(copy)]) == 2
    writer = name.removeprefix("manifest-").removesuffix(".json")
    assert capsys.readouterr().err == (
        f"trace-insight: error [report] {name} in {copy} has no row count "
        f"{key!r}; rerun {writer}\n")
    assert (copy / "report.json").read_bytes() == report


def test_report_before_analyze_fails(tmp_path, capsys):
    code = main(["report", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("trace-insight: error [report]")
    assert "analyze stage missing" in err


def test_bad_override_surfaces(tmp_path, capsys):
    # a stray argument is refused the same way before and after a flag
    for argv in (["report", "--out-dir", str(tmp_path), "threshold"],
                 ["report", "threshold", "--out-dir", str(tmp_path)]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: threshold" in capsys.readouterr().err
    # so is the retired threshold flag, and a retired key is refused by name:
    # the flagging threshold and the skip limit are module constants now
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--out-dir", str(tmp_path), "--seed", "7",
              "--threshold", "4"])
    assert exit_info.value.code == 2
    # in command-line order, under the subcommand's usage line
    assert capsys.readouterr().err.splitlines() == [
        "usage: trace-insight analyze [flags] [key=value ...]",
        "trace-insight analyze: error: unrecognized arguments: --threshold 4"]
    for argv in (["analyze", "--seed", "7", "dtw_threshold=4"],
                 ["preprocess", "--input-dir", "trace", "max_skip_ratio=0.5"]):
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        key = argv[-1].split("=")[0]
        assert capsys.readouterr().err == (
            f"trace-insight: error [config] unknown override key {key!r}\n")
    assert not (tmp_path / "out").exists()


def test_overrides_may_sit_on_both_sides_of_a_flag(tmp_path, capsys):
    # the override after --seed reaches the config, and is refused there
    code = main(["analyze", "--out-dir",
                 str(tmp_path / "x"), "grid_end=54000", "--seed", "7",
                 "dtw_standards=0,1"])
    assert code == 2
    assert "config key 'dtw_standards' must be empty, or two or more " \
        "distinct ids >= 1, got '0,1'" in capsys.readouterr().err
    # overrides apply in command-line order, the last one winning
    code = main(["analyze", "--out-dir",
                 str(tmp_path / "x"), "dtw_normalized=x", "--seed", "7",
                 "dtw_normalized=y"])
    assert code == 2
    assert "config key 'dtw_normalized' must be true/false, got 'y'" \
        in capsys.readouterr().err
    # a leftover that is neither a flag nor key=value is still refused, as
    # is a flag of another stage: analyze reads no trace directory
    for stray in ("stray", "--stray=1", "--input-dir=trace"):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "grid_end=54000", "--seed", "7", stray])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {stray}" in capsys.readouterr().err


@pytest.mark.parametrize("override, problem", [
    ("synth_quotas=2,2,2,2,2,2,2,x", "config key 'synth_quotas'"),
    ("synth_plants=Idle:3:level=abc", "bad plant 'Idle:3:level=abc'"),
    ("synth_plants=Idle:abc", "bad plant 'Idle:abc'"),
])
def test_bad_synth_numbers_exit_2_with_the_stage_named(tmp_path, capsys,
                                                       override, problem):
    code = main(["synth", "--machines", "16", "--seed", "1",
                 "--quotas", "2,2,2,2,2,2,2,2", "--out-dir", str(tmp_path / "t"),
                 override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"trace-insight: error [synth] {problem}")


def test_synthetic_demo_script_runs_the_whole_pipeline(tmp_path, monkeypatch,
                                                       capsys):
    # the README's first command; it drives every stage through cli.main
    script = Path(__file__).resolve().parents[1] / "scripts"
    script /= "run_synthetic_demo.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--machines", "16",
                                      "--work-dir", str(tmp_path)])
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as stop:   # the script exits only when a stage fails
        pytest.fail(f"demo exited with {stop.code}")
    assert (tmp_path / "analysis" / "report.json").is_file()
    assert "pipeline finished" in capsys.readouterr().out


def test_reference_trace_script_runs_the_whole_pipeline(tmp_path, monkeypatch,
                                                       capsys):
    # the script the README points at for the real trace, here on a small
    # synthetic one on the default grid; too few machines for the published
    # standards, so it draws its own
    trace, out = tmp_path / "trace", tmp_path / "out"
    run_ok(["synth", "--machines", "16", "--quotas", "9,1,1,1,1,1,1,1",
            "--noise", "0.02", "--seed", "3", "--out-dir", str(trace)])
    script = Path(__file__).resolve().parents[1] / "scripts"
    script /= "run_reference_trace.py"
    monkeypatch.setattr(sys, "argv", [str(script), str(trace), "--out-dir",
                                      str(out), "--standards", ""])
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as stop:   # the script exits only when a stage fails
        pytest.fail(f"reference script exited with {stop.code}")
    assert (out / "report.json").is_file()
    assert "pipeline finished" in capsys.readouterr().out


# one run of every stage, its paths relative to the run's directory
RELATIVE_RUN = (
    ["synth", "--machines", "16", "--quotas", "9,1,1,1,1,1,1,1", "--seed", "3",
     "--out-dir", "trace", f"grid_end={GRID_END}"],
    ["preprocess", "--input-dir", "trace", "--out-dir", "out", f"grid_end={GRID_END}"],
    ["analyze", "--out-dir", "out", "--seed", "3", f"grid_end={GRID_END}"],
    ["report", "--out-dir", "out"],
)
SRC = Path(__file__).resolve().parents[1] / "src"


def child(cwd, *args):
    """``python args`` in a fresh interpreter with PYTHONPATH=src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def digests(root):
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*") if path.is_file()}


def test_main_in_process_freezes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    frozen = gc.get_freeze_count()
    for argv in RELATIVE_RUN:
        run_ok(argv)
    assert main(["report", "--out-dir", "nowhere"]) == 2
    assert gc.get_freeze_count() == frozen


def test_a_cli_child_exits_0_or_2_and_writes_what_main_writes(tmp_path,
                                                              monkeypatch):
    by_child, in_process = tmp_path / "child", tmp_path / "main"
    by_child.mkdir()
    for argv in RELATIVE_RUN:
        done = child(by_child, "-m", "trace_insight.cli", *argv)
        out_dir = argv[argv.index("--out-dir") + 1]
        assert (done.returncode, done.stdout) == (0, f"{argv[0]}: ok ({out_dir})\n"), \
            done.stderr
    failed = child(by_child, "-m", "trace_insight.cli", "analyze", "--out-dir",
                   "nowhere", "--seed", "3")
    assert failed.returncode == 2
    assert failed.stderr.startswith("trace-insight: error [analyze] ")
    in_process.mkdir()
    monkeypatch.chdir(in_process)
    for argv in RELATIVE_RUN:
        run_ok(argv)
    assert digests(by_child) == digests(in_process)


def test_run_freezes_before_the_exit_and_keeps_atexit(tmp_path):
    # the atexit handler still runs, after the freeze, and its output is
    # still flushed
    probe = """
import atexit, gc, sys
from trace_insight.cli import run
print("before", gc.get_freeze_count())
atexit.register(lambda: print("at exit", gc.get_freeze_count() > 0))
sys.argv = ["trace-insight", "report", "--out-dir", "nowhere"]
run()
"""
    done = child(tmp_path, "-c", probe)
    assert done.returncode == 2
    assert done.stdout.splitlines() == ["before 0", "at exit True"]
    assert done.stderr.startswith("trace-insight: error [report] ")


def test_console_script_is_installed():
    exe = shutil.which("trace-insight")
    assert exe, "console script missing; install the package first"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for stage in ("synth", "preprocess", "analyze", "report"):
        assert stage in proc.stdout
