import ast
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import oracles
from trace_insight import __version__, pipeline, trace_model
from trace_insight.anomaly import AnomalyReport, build_feature_matrix, iforest_fit
from trace_insight.classify import TYPE_LABELS, kmeans_fit
from trace_insight.pipeline import (
    ANALYZE_FILENAMES,
    run_analyze,
    run_preprocess,
    run_synth,
)
from trace_insight.preprocess import filter_container_events, supplement_server_usage
from trace_insight.stage import (
    CONFIG_KEYS,
    StageError,
    _parse_gaps,
    _parse_plants,
    apply_overrides,
    build_report,
    read_config,
    run_report,
    write_json,
    write_manifest,
)
from trace_insight.synth import PlantKind
from trace_insight.trace_model import (
    FILE_KEYS,
    PREPROCESS_COLUMNS,
    SAVED_COLUMNS,
    TRACE_FILENAMES,
    IntervalGrid,
    Table,
    load_columns,
    parse_trace_dir,
)


def test_stage_error_names_its_stage():
    err = StageError("analyze", "boom")
    assert str(err) == "[analyze] boom"
    assert err.stage == "analyze"
    assert err.message == "boom"


# ---------------------------------------------------------------------------
# overrides


def test_overrides_apply_last():
    merged = apply_overrides({"dtw_threshold": "8"},
                             ["dtw_threshold=3", "grid_step = 60"])
    assert merged == {"dtw_threshold": "3", "grid_step": "60"}
    # a key set twice takes the last value
    assert apply_overrides({}, ["dtw_threshold=3", "dtw_threshold=5"]) == \
        {"dtw_threshold": "5"}


def test_override_validation():
    with pytest.raises(StageError, match="override must be key=value"):
        apply_overrides({}, ["dtw_threshold"])
    for key in ("dtw_treshold", "classify_k", "anomaly_top_n"):
        with pytest.raises(StageError, match=f"unknown override key '{key}'"):
            apply_overrides({}, [f"{key}=3"])


# ---------------------------------------------------------------------------
# plant / gap syntax


def test_plant_syntax_round_trip():
    plants = _parse_plants("HeavyOnline:3; Idle:41", "synth")
    assert len(plants) == 2
    heavy, idle = plants
    assert heavy.kind is PlantKind.HEAVY_ONLINE
    assert heavy.machine == 3
    assert idle.kind is PlantKind.IDLE and idle.machine == 41
    assert _parse_plants("", "synth") == ()


def test_plant_syntax_errors():
    with pytest.raises(StageError, match="plant must be Kind:machine"):
        _parse_plants("Idle", "synth")
    with pytest.raises(StageError, match="unknown plant kind 'idle'"):
        _parse_plants("idle:4", "synth")
    # a plant is a kind and a machine, nothing more
    for item in ("HeavyOnline:3:containers", "HeavyOnline:3:containers=18",
                 "HeavyOnline:3:"):
        with pytest.raises(StageError, match=rf"^\[synth\] bad plant '{item}': "
                                             "a plant takes no parameters, "
                                             "only Kind:machine$"):
            _parse_plants(item, "synth")
    with pytest.raises(StageError, match="bad plant"):
        _parse_plants("Idle:four", "synth")


def test_gap_syntax_round_trip():
    gaps = _parse_gaps("5:cpu:10-12; 7:mem:3", "synth")
    assert [(g.machine, g.metric, g.slots) for g in gaps] == [
        (5, "cpu", (10, 11, 12)),
        (7, "mem", (3,)),
    ]
    assert _parse_gaps("", "synth") == ()


def test_gap_syntax_errors():
    with pytest.raises(StageError, match="gap must be machine:metric:lo-hi"):
        _parse_gaps("5:cpu", "synth")
    with pytest.raises(StageError, match="bad gap"):
        _parse_gaps("5:cpu:x-2", "synth")


# ---------------------------------------------------------------------------
# manifests


def test_write_json_leaves_no_file_when_the_data_does_not_serialize(tmp_path):
    path = tmp_path / "artifact.json"
    with pytest.raises(TypeError):
        write_json(str(path), {"machines": {1, 2}})
    assert not path.exists()
    write_json(str(path), {"b": [1.5], "a": None})
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1.5\n  ]\n}\n'


def test_manifest_layout_and_digests(tmp_path):
    (tmp_path / "a.csv").write_text("x\n")
    write_manifest(str(tmp_path), "demo", {"b": "2", "a": "1"},
                   inputs={"in.csv": "f" * 64}, outputs=["a.csv"],
                   row_counts={"rows": 1})
    raw = (tmp_path / "manifest-demo.json").read_bytes()
    manifest = json.loads(raw)
    assert set(manifest) == {"stage", "tool_version", "config", "inputs",
                             "outputs", "row_counts"}
    assert manifest["stage"] == "demo"
    assert manifest["tool_version"] == __version__
    assert list(manifest["config"]) == ["a", "b"]
    want = hashlib.sha256(b"x\n").hexdigest()
    assert manifest["outputs"] == {"a.csv": want}
    # reruns of the same inputs must not differ (no timestamps anywhere)
    write_manifest(str(tmp_path), "demo", {"b": "2", "a": "1"},
                   inputs={"in.csv": "f" * 64}, outputs=["a.csv"],
                   row_counts={"rows": 1})
    assert (tmp_path / "manifest-demo.json").read_bytes() == raw


# ---------------------------------------------------------------------------
# stage runners (artifact plumbing; analysis behavior is covered elsewhere)


def synth_config(out_dir, **extra):
    config = {
        "output_dir": str(out_dir),
        "grid_start": "39600",
        "grid_end": str(39600 + 12 * 300),
        "grid_step": "300",
        "synth_machines": "10",
        "synth_quotas": "3,1,1,1,1,1,1,1",
        "synth_seed": "5",
    }
    config.update(extra)
    return config


def test_run_synth_writes_trace_and_manifest(tmp_path):
    out = run_synth(synth_config(tmp_path / "trace"))
    assert out == str(tmp_path / "trace")
    manifest = json.loads(
        (tmp_path / "trace" / "manifest-synth.json").read_text())
    counts = manifest["row_counts"]
    assert counts["machines"] == 10
    assert counts["server_usage"] == 10 * 13
    assert counts["planted_anomalies"] == 0
    assert counts["planted_gaps"] == 0
    assert set(manifest["outputs"]) == {
        "server_event.csv", "server_usage.csv", "container_event.csv",
        "container_usage.csv", "batch_task.csv", "batch_instance.csv",
        "ground_truth.json"}
    assert manifest["inputs"] == {}


def test_run_synth_requires_an_explicit_seed(tmp_path):
    config = synth_config(tmp_path / "trace")
    del config["synth_seed"]
    with pytest.raises(StageError, match=r"\(seeds must be explicit\)"):
        run_synth(config)


def test_run_synth_names_the_key_or_plant_of_a_bad_number(tmp_path):
    out = tmp_path / "trace"
    with pytest.raises(StageError, match=r"^\[synth\] config key 'synth_quotas' "
                                         "must be a comma-separated list of "
                                         "integers, got '2,2,2,2,2,2,2,x'$"):
        run_synth(synth_config(out, synth_quotas="2,2,2,2,2,2,2,x"))
    with pytest.raises(StageError, match=r"^\[synth\] bad plant "
                                         "'Idle:abc': invalid literal for int"):
        run_synth(synth_config(out, synth_plants="Idle:abc"))
    assert not out.exists()


def test_run_synth_surfaces_generator_errors(tmp_path):
    config = synth_config(tmp_path / "trace", synth_quotas="10,0,0,0,0,0,0,1")
    with pytest.raises(StageError, match="quotas sum"):
        run_synth(config)


def test_a_failed_synth_leaves_the_trace_it_would_replace_untouched(tmp_path):
    trace = tmp_path / "trace"
    run_synth(synth_config(trace))
    before = {path.name: path.read_bytes() for path in trace.iterdir()}
    assert "manifest-synth.json" in before
    for bad, error in [
            ({"synth_machines": "15", "synth_quotas": "2,2,2,2,2,2,2,2"},
             r"^\[synth\] quotas sum to 16, expected machine_count 15"),
            ({"synth_gaps": "11:cpu:3"}, r"^\[synth\] gap machine 11 out of range"),
            # input that would plant nothing, or nothing different
            ({"synth_gaps": "5:cpu:12-10"},
             r"^\[synth\] bad gap '5:cpu:12-10': the slot range runs backwards$"),
            # a gap removes the whole sample, so a second gap on its slots
            # would find nothing left to remove
            ({"synth_gaps": "1:cpu:4-6;1:mem:5-7"},
             r"^\[synth\] cpu and mem gaps on machine 1 share slots \[5, 6\]; "),
            ({"synth_gaps": "1:cpu:4-6;1:cpu:4-6"},
             r"^\[synth\] cpu and cpu gaps on machine 1 share slots \[4, 5, 6\]; "),
            # a plant takes no parameters: its kind fixes what it does
            ({"synth_plants": "HeavyOnline:2:containers=18"},
             r"^\[synth\] bad plant 'HeavyOnline:2:containers=18': a plant "
             r"takes no parameters, only Kind:machine$"),
            # steps too short for a batch instance: the span draw had no
            # range at 5 s, and a 1 s run ended before it started
            ({"synth_machines": "8", "synth_quotas": "1,1,1,1,1,1,1,1",
              "synth_seed": "7", "grid_start": "0", "grid_end": "100",
              "grid_step": "5"},
             r"^\[synth\] grid_step must be >= 8 when any machine runs batch "
             r"work, got 5$"),
            ({"synth_machines": "1", "synth_quotas": "0,0,0,0,1,0,0,0",
              "synth_seed": "7", "grid_start": "0", "grid_end": "2",
              "grid_step": "1"},
             r"^\[synth\] grid_step must be >= 8 when any machine runs batch "
             r"work, got 1$")]:
        with pytest.raises(StageError, match=error):
            run_synth(synth_config(trace, **bad))
        assert {path.name: path.read_bytes() for path in trace.iterdir()} == before
    # gaps of one machine on slots apart are planted
    run_synth(synth_config(trace, synth_gaps="1:cpu:4-6;1:mem:9-11"))
    gaps = json.loads((trace / "ground_truth.json").read_text())["gaps"]
    assert [(g["machine"], g["metric"], len(g["timestamps"])) for g in gaps] == [
        (1, "cpu", 3), (1, "mem", 3)]


def test_run_preprocess_repairs_planted_gaps(tmp_path):
    trace = tmp_path / "trace"
    run_synth(synth_config(trace, synth_gaps="5:cpu:3-4"))
    config = {
        "input_dir": str(trace),
        "output_dir": str(tmp_path / "out"),
        "grid_start": "39600",
        "grid_end": str(39600 + 12 * 300),
        "grid_step": "300",
    }
    out = run_preprocess(config)
    for name in ("dense_usage.csv", "repair_log.csv",
                 "removed_container_events.csv", "manifest-preprocess.json"):
        assert os.path.exists(os.path.join(out, name)), name
    manifest = json.loads(
        (tmp_path / "out" / "manifest-preprocess.json").read_text())
    counts = manifest["row_counts"]
    # two missing rows, six metrics each, all interior
    assert counts["repairs_Interpolated"] == 12
    assert counts["repair_annotations"] == 12
    assert counts["machines"] == 10
    assert "dense_machines" not in counts
    assert counts["container_events_removed"] == 0
    assert set(manifest["inputs"]) == {
        "server_event.csv", "server_usage.csv", "container_event.csv",
        "container_usage.csv", "batch_task.csv", "batch_instance.csv"}


def stage_config(trace, out, **extra):
    config = {
        "input_dir": str(trace),
        "output_dir": str(out),
        "grid_start": "39600",
        "grid_end": str(39600 + 12 * 300),
        "grid_step": "300",
        "dtw_seed": "7",
        "classify_seed": "7",
        "anomaly_seed": "7",
    }
    config.update(extra)
    return config


def preprocess_and_analyze(trace, out, **extra):
    """Run preprocess, then analyze on what it handed over, under one
    config."""
    run_preprocess(stage_config(trace, out, **extra))
    run_analyze(stage_config(trace, out, **extra))


def noisy_trace(path, seed):
    run_synth(synth_config(path, synth_machines="16",
                           synth_quotas="9,1,1,1,1,1,1,1",
                           synth_noise="0.03", synth_seed=str(seed)))
    return path


def test_preprocess_counts_the_server_usage_rows_off_the_grid(tmp_path):
    trace = noisy_trace(tmp_path / "trace", seed=7)
    runs = {}
    for name in ("inside", "outside"):
        out = tmp_path / name
        run_preprocess(stage_config(trace, out))
        runs[name] = json.loads((out / "manifest-preprocess.json").read_text())
        # one row before the grid's start and one after its last slot
        with open(trace / "server_usage.csv", "a", encoding="utf-8") as fh:
            fh.write("100,1,10,20,30,1.0,1.0,1.0\n90000,2,10,20,30,1.0,1.0,1.0\n")
    inside, outside = runs["inside"]["row_counts"], runs["outside"]["row_counts"]
    assert inside["out_of_grid_server_usage_records"] == 0
    assert outside["out_of_grid_server_usage_records"] == 2
    assert outside["server_usage"] == inside["server_usage"] + 2
    # the repair drops them: every artifact is the same
    assert runs["outside"]["outputs"] == runs["inside"]["outputs"]


def test_a_trace_file_that_cannot_be_read_is_a_stage_error(tmp_path):
    def latin1_row(path):
        with open(path, "ab") as fh:
            fh.write(b"0,1,softerror,caf\xe9 down,0,0,0\n")

    def directory(path):
        path.unlink()
        path.mkdir()

    for name, spoil, problem in [
            ("server_event.csv", latin1_row, "'utf-8' codec can't decode"),
            ("batch_task.csv", directory, "Is a directory")]:
        trace = noisy_trace(tmp_path / name, seed=7)
        spoil(trace / name)
        out = tmp_path / f"out-{name}"
        with pytest.raises(StageError, match=rf"^\[preprocess\] cannot read "
                                             rf"trace file .*{name}: "
                                             f".*{problem}") as err:
            run_preprocess(stage_config(trace, out))
        assert err.value.stage == "preprocess"
        assert not out.exists(), name   # refused before any write


def analyze_counts(out):
    return json.loads((out / "manifest-analyze.json").read_text())["row_counts"]


CHAIN_BROKEN = (r"^\[report\] manifest-preprocess.json in .* vouches for other "
                r"parsed columns than manifest-analyze.json read; rerun analyze$")


def test_report_refuses_a_preprocess_run_after_analyze(tmp_path):
    # preprocess reran on another trace after analyze, so its repair counts
    # are not those of the trace analyze read
    trace_a = noisy_trace(tmp_path / "a", seed=7)
    trace_b = noisy_trace(tmp_path / "b", seed=8)
    out, clean = tmp_path / "out", tmp_path / "clean"
    preprocess_and_analyze(trace_a, out)
    run_preprocess(stage_config(trace_b, out))
    with pytest.raises(StageError, match=CHAIN_BROKEN) as err:
        run_report({"output_dir": str(out)})
    assert err.value.stage == "report"
    # analyze rerun on B's hand-off mends the chain, and its artifacts are
    # those of a directory that only ever saw B
    run_analyze(stage_config(trace_b, out))
    run_report({"output_dir": str(out)})
    preprocess_and_analyze(trace_b, clean)
    assert len(ANALYZE_FILENAMES) == 12
    for name in ANALYZE_FILENAMES:
        assert (out / name).read_bytes() == (clean / name).read_bytes(), name


def test_report_refuses_a_preprocess_run_that_does_not_match_analyze(tmp_path):
    trace = noisy_trace(tmp_path / "trace", seed=7)
    out = tmp_path / "out"
    preprocess_and_analyze(trace, out)
    run_report({"output_dir": str(out)})
    report = json.loads((out / "report.json").read_text())
    assert report["preprocess"]["machines"] == 16

    dense = out / "dense_usage.csv"
    body = dense.read_text()
    dense.write_text(body + "\n")
    with pytest.raises(StageError, match="dense_usage.csv in .* does not match "
                                         "its digest in manifest-preprocess.json"):
        run_report({"output_dir": str(out)})
    dense.write_text(body)

    manifest_path = out / "manifest-preprocess.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["trace_columns"]["trace_columns.bin"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StageError, match=CHAIN_BROKEN):
        run_report({"output_dir": str(out)})

    # without a preprocess manifest nothing vouches for the repair counts or
    # for the columns analyze read
    manifest_path.unlink()
    with pytest.raises(StageError, match=r"^\[report\] preprocess stage missing: "
                                         r"no manifest-preprocess.json in .*; "
                                         r"run preprocess first$"):
        run_report({"output_dir": str(out)})


def test_report_refuses_artifacts_a_failed_analyze_overwrote(tmp_path):
    trace_a = noisy_trace(tmp_path / "a", seed=7)
    trace_b = noisy_trace(tmp_path / "b", seed=8)
    out = tmp_path / "out"
    for run in (run_preprocess, run_analyze, run_report):
        run(stage_config(trace_a, out))
    run_preprocess(stage_config(trace_b, out))
    # a machine id the trace lacks shows only once it is parsed, after the
    # aggregate tables are written
    with pytest.raises(StageError, match=r"standard machines not present: \[99\]") as err:
        run_analyze(stage_config(trace_b, out, dtw_standards="1,99"))
    assert err.value.stage == "analyze"
    with pytest.raises(StageError) as err:
        run_report({"output_dir": str(out)})
    assert err.value.stage == "report"

    # an artifact changed outside any stage run is caught by its digest
    alone = tmp_path / "alone"
    preprocess_and_analyze(trace_a, alone)
    histogram = alone / "dtw_histogram.json"
    histogram.write_text(histogram.read_text() + "\n")
    with pytest.raises(StageError, match="dtw_histogram.json in .* does not "
                                         "match its digest in "
                                         "manifest-analyze.json; rerun"):
        run_report({"output_dir": str(alone)})


def test_a_failed_analyze_leaves_no_manifest_claiming_a_finished_run(tmp_path):
    trace = noisy_trace(tmp_path / "trace", seed=7)
    out = tmp_path / "out"
    for run in (run_preprocess, run_analyze, run_report):
        run(stage_config(trace, out))
    # the missing machine shows only after the aggregate CSVs are rewritten
    with pytest.raises(StageError, match=r"^\[analyze\] standard machines "
                                         r"not present: \[99\]"):
        run_analyze(stage_config(trace, out, dtw_standards="1,99"))
    assert (out / "machine_series.csv").exists()
    assert not (out / "manifest-analyze.json").exists()
    assert not (out / "manifest-report.json").exists()
    with pytest.raises(StageError, match=r"^\[report\] analyze stage missing"):
        run_report({"output_dir": str(out)})

    # preprocess takes back its own manifest and report's, not analyze's
    run_analyze(stage_config(trace, out))
    run_report({"output_dir": str(out)})
    run_preprocess(stage_config(trace, out))
    assert (out / "manifest-analyze.json").exists()
    assert not (out / "manifest-report.json").exists()
    run_report({"output_dir": str(out)})


BAD_CONFIG_VALUES = [
    ("analyze", "dtw_seed", "x", "must be an integer"),
    ("analyze", "dtw_standards", "1,a", "must be a comma-separated list of integers"),
    # an empty item is no integer; it used to be dropped without a word
    ("analyze", "dtw_standards", "16,,19", "must be a comma-separated list of integers"),
    ("synth", "synth_quotas", "3,,1,1,1,1,1,1,1",
     "must be a comma-separated list of integers"),
    ("analyze", "anomaly_mode", "worst", "anomaly_mode must be one of"),
    # ranges that need no data are checked up front too
    ("analyze", "dtw_standards", "2,2,3", "must be empty, or two or more distinct ids"),
    # one standard has no pairwise median; that needs no data to see
    ("analyze", "dtw_standards", "3", "must be empty, or two or more distinct ids"),
    # a standard id below 1 names no machine; it failed only after the
    # aggregate CSVs were written
    ("analyze", "dtw_standards", "0,1", "must be empty, or two or more distinct ids >= 1"),
    ("analyze", "classify_seed", "-1", "must be >= 0"),
    ("preprocess", "max_skip_ratio", "some", "must be a number"),
    ("analyze", "dtw_normalized", "Maybe", "must be true/false"),
    # values that parse but lie outside what their key allows
    ("preprocess", "max_skip_ratio", "nan", r"must be in \[0, 1\]"),
    ("preprocess", "max_skip_ratio", "1.5", r"must be in \[0, 1\]"),
    ("preprocess", "max_skip_ratio", "-1", r"must be in \[0, 1\]"),
    ("analyze", "dtw_threshold", "nan", "must be finite"),
    ("synth", "synth_noise", "nan", "must be >= 0"),
    ("synth", "synth_noise", "inf", "must be finite"),
    ("synth", "synth_noise", "-1", "must be >= 0"),
    # numpy refuses negative seeds, but only after the stage began writing
    ("analyze", "dtw_seed", "-1", "must be >= 0"),
    ("analyze", "anomaly_seed", "-2", "must be >= 0"),
    ("synth", "synth_seed", "-1", "must be >= 0"),
    ("synth", "synth_machines", "0", "must be >= 1"),
]


def test_bad_config_values_fail_before_any_input_is_opened(tmp_path):
    trace_a = noisy_trace(tmp_path / "a", seed=7)
    trace_b = noisy_trace(tmp_path / "b", seed=8)
    out = tmp_path / "out"
    run_preprocess(stage_config(trace_a, out))
    run_analyze(stage_config(trace_a, out))
    names = [*ANALYZE_FILENAMES, "dense_usage.csv", "repair_log.csv",
             "removed_container_events.csv", "manifest-preprocess.json",
             "manifest-analyze.json"]
    before = {name: (out / name).read_bytes() for name in names}
    runners = {"analyze": run_analyze, "preprocess": run_preprocess,
               # a synth that took the value would write its trace into out
               "synth": lambda config: run_synth({**synth_config(out), **config})}
    for stage, key, value, problem in BAD_CONFIG_VALUES:
        # a bad value beats a missing input directory, so nothing was opened
        for trace in (trace_b, tmp_path / "missing"):
            with pytest.raises(StageError, match=problem) as err:
                runners[stage](stage_config(trace, out, **{key: value}))
            assert str(err.value).startswith(f"[{stage}] "), key
            assert key in str(err.value) and repr(value) in str(err.value), key
    for name in names:
        assert (out / name).read_bytes() == before[name], name


REQUIRED = {key: "1" for key, row in CONFIG_KEYS.items() if row.default is None}


def test_every_default_passes_its_own_checks():
    for stage in ("synth", "preprocess", "analyze", "report"):
        values = read_config(REQUIRED, stage)
        assert set(values) == {key for key, row in CONFIG_KEYS.items()
                               if stage in row.stages}, stage


def test_a_blank_int_list_is_the_empty_list():
    for raw in ("", "  "):
        values = read_config({**REQUIRED, "dtw_standards": raw}, "analyze")
        assert values["dtw_standards"] == [], raw


def test_only_preprocess_reads_the_trace_directory_and_the_skip_limit():
    # analyze reads what preprocess handed over, never the trace itself
    for key in ("input_dir", "max_skip_ratio"):
        assert CONFIG_KEYS[key].stages == ("preprocess",), key
        assert key not in read_config(REQUIRED, "analyze"), key


def test_read_config_refuses_a_key_no_stage_reads():
    # a misspelled key must not leave its stage on the default value, and a
    # retired key must not look as if it still chose a code path
    for key in ("dtw_treshold", "has_header", "duration_weighted",
                "anomaly_normalize", "classify_always", "classify_none",
                "classify_gap_fraction", "anomaly_heavier_factor",
                "dtw_range_edges", "dtw_suitability_gap", "classify_k",
                "classify_max_iter", "classify_restarts", "anomaly_trees",
                "anomaly_subsample", "dtw_sample_num", "dtw_standard_count",
                "anomaly_top_n"):
        for stage in ("synth", "preprocess", "analyze", "report"):
            with pytest.raises(StageError, match=rf"^\[{stage}\] unknown config "
                                                 rf"key '{key}'$"):
                read_config({**REQUIRED, key: "true"}, stage)


@pytest.mark.parametrize("key", [
    key for key, row in CONFIG_KEYS.items()
    if row.kind == "float"])
def test_every_number_key_refuses_nan_and_infinities(key):
    stage = CONFIG_KEYS[key].stages[0]
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(StageError, match=rf"^\[{stage}\] config key "
                                             f"'{key}' must be "):
            read_config({**REQUIRED, key: value}, stage)


def config_table_lines():
    """The README's config table, rendered from CONFIG_KEYS."""
    lines = ["| key | default | range | stages | flag | meaning |",
             "| --- | --- | --- | --- | --- | --- |"]
    for key, row in CONFIG_KEYS.items():
        default = "required" if row.default is None else row.default or "(empty)"
        rule = row.rule[1] if row.rule else ""
        flag = f"`{row.flag}`" if row.flag else ""
        lines.append(f"| `{key}` | {default} | {rule} | {', '.join(row.stages)} "
                     f"| {flag} | {row.help} |")
    return lines


def test_readme_config_table_matches_the_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = readme.index(config_table_lines()[0])
    end = start
    while end < len(readme) and readme[end].startswith("|"):
        end += 1
    assert readme[start:end] == config_table_lines()


def test_report_without_analyze_artifacts_fails_loudly(tmp_path):
    with pytest.raises(StageError, match="analyze stage missing"):
        build_report(str(tmp_path))


@pytest.mark.parametrize("name, writer", [("manifest-analyze.json", "analyze"),
                                          ("manifest-preprocess.json", "preprocess")])
def test_report_names_a_manifest_cut_short(tmp_path, name, writer):
    trace = tmp_path / "trace"
    run_synth(synth_config(trace))
    out = tmp_path / "out"
    for run in (run_preprocess, run_analyze, run_report):
        run(stage_config(trace, out))
    report = (out / "report.json").read_bytes()
    manifest = out / name
    body = manifest.read_bytes()
    manifest.write_bytes(body[:len(body) // 2])   # a run killed mid-write
    with pytest.raises(StageError, match=rf"^\[report\] {name} in .* is not "
                                         rf"valid JSON .*; rerun {writer}$"):
        run_report({"output_dir": str(out)})
    manifest.write_bytes(body)
    run_report({"output_dir": str(out)})
    assert (out / "report.json").read_bytes() == report


def drop_key(key):
    def spoil(manifest):
        del manifest[key]
        return manifest
    return spoil


@pytest.mark.parametrize("name, writer, spoil, problem", [
    ("manifest-analyze.json", "analyze", drop_key("config"),
     "has no 'config' object"),
    ("manifest-preprocess.json", "preprocess", drop_key("row_counts"),
     "has no 'row_counts' object"),
    ("manifest-analyze.json", "analyze", lambda manifest: [],
     "is not a JSON object"),
    ("manifest-preprocess.json", "preprocess", lambda manifest: [],
     "is not a JSON object"),
], ids=["analyze-no-config", "preprocess-no-row-counts", "analyze-list",
        "preprocess-list"])
def test_report_names_a_misshapen_manifest(tmp_path, name, writer, spoil, problem):
    trace = tmp_path / "trace"
    run_synth(synth_config(trace))
    out = tmp_path / "out"
    for run in (run_preprocess, run_analyze, run_report):
        run(stage_config(trace, out))
    report = (out / "report.json").read_bytes()
    manifest = out / name
    body = manifest.read_bytes()
    manifest.write_text(json.dumps(spoil(json.loads(body))))
    with pytest.raises(StageError, match=rf"^\[report\] {name} in .* "
                                         rf"{problem}; rerun {writer}$"):
        run_report({"output_dir": str(out)})
    manifest.write_bytes(body)
    run_report({"output_dir": str(out)})
    assert (out / "report.json").read_bytes() == report


def test_report_takes_an_unreadable_recorded_value_for_a_disagreement(tmp_path):
    trace = tmp_path / "trace"
    run_synth(synth_config(trace))
    out = tmp_path / "out"
    preprocess_and_analyze(trace, out)
    for name, spoil in [
            ("manifest-preprocess.json",
             lambda manifest: manifest.update(trace_columns="maybe")),
            ("manifest-preprocess.json",
             lambda manifest: manifest.pop("trace_columns")),
            ("manifest-analyze.json",
             lambda manifest: manifest["inputs"].update({"trace_columns.bin": 7}))]:
        path = out / name
        body = path.read_text()
        manifest = json.loads(body)
        spoil(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(StageError, match=CHAIN_BROKEN):
            run_report({"output_dir": str(out)})
        path.write_text(body)
    run_report({"output_dir": str(out)})


def test_analyze_counts_what_aggregation_drops_in_its_manifest(tmp_path):
    trace = tmp_path / "trace"
    run_synth(synth_config(trace))
    with open(trace / "container_usage.csv", "a", encoding="utf-8") as fh:
        # no container event names instance 999999
        fh.write("39600,999999,10.0,10.0,1.0,1.0,0.0,0.0,0.0,1.5,1.2,2.0,1.8\n")
    out = tmp_path / "out"
    preprocess_and_analyze(trace, out)
    counts = json.loads((out / "manifest-analyze.json").read_text())["row_counts"]
    assert counts["unknown_instance_records"] == 1
    assert counts["out_of_grid_usage_records"] == 0
    assert counts["borrowed_core_machines"] == 0


def test_analyze_counts_its_dtw_pairs_and_cells_in_its_manifest(tmp_path):
    # 16 machines on 12 intervals: the 8 sampled curves give 8 * 7 / 2 pairs
    # and every machine meets 4 standards; each pair is 12 x 12 DP cells
    trace, out = noisy_trace(tmp_path / "trace", seed=7), tmp_path / "out"
    preprocess_and_analyze(trace, out)
    counts = analyze_counts(out)
    assert counts["dtw_pairs"] == 8 * 7 // 2 + 16 * 4
    assert counts["dtw_cells"] == counts["dtw_pairs"] * 12 ** 2
    # pinned standards are the whole sample
    run_analyze(stage_config(trace, out, dtw_standards="2,5,9"))
    counts = analyze_counts(out)
    assert counts["dtw_pairs"] == 3 * 2 // 2 + 16 * 3
    assert counts["dtw_cells"] == counts["dtw_pairs"] * 12 ** 2


def test_analyze_counts_the_forest_nodes_in_its_manifest(tmp_path, monkeypatch):
    fitted = []

    def recorded_fit(matrix, **settings):
        fitted.append((matrix, settings))
        return iforest_fit(matrix, **settings)

    monkeypatch.setattr(pipeline, "iforest_fit", recorded_fit)
    trace, out = noisy_trace(tmp_path / "trace", seed=7), tmp_path / "out"
    preprocess_and_analyze(trace, out)
    count = analyze_counts(out)["tree_nodes"]
    run_analyze(stage_config(trace, out))
    assert analyze_counts(out)["tree_nodes"] == count
    # the node total of the recursive build on the matrix the forest saw,
    # with the forest size and subsample iforest_fit takes by default
    (matrix, settings), _ = fitted
    defaults = inspect.signature(iforest_fit).parameters
    trees = oracles.isolation_trees(matrix, defaults["tree_count"].default,
                                    defaults["subsample"].default, settings["seed"])
    assert count == sum(len(oracles.isolation_tree_arrays(tree)[0])
                        for tree in trees)


def test_analyze_fits_the_papers_learners_with_the_library_defaults(tmp_path,
                                                                   monkeypatch):
    # k is the number of workload types, and every other setting of the two
    # learners is its library default: 100 Lloyd iterations, 10 restarts,
    # 100 trees of 256 rows
    calls = {}   # name: (the arguments given, every argument's value)

    def spy(name, fit):
        def recorded(*args, **kwargs):
            bound = inspect.signature(fit).bind(*args, **kwargs)
            given = set(bound.arguments)
            bound.apply_defaults()
            calls[name] = given, bound.arguments
            return fit(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, recorded)

    spy("kmeans_fit", kmeans_fit)
    spy("iforest_fit", iforest_fit)
    preprocess_and_analyze(noisy_trace(tmp_path / "trace", seed=7), tmp_path / "out",
                           classify_seed="3", anomaly_seed="4")
    (kmeans_given, kmeans), (forest_given, forest) = \
        calls["kmeans_fit"], calls["iforest_fit"]
    assert kmeans_given == {"matrix", "k", "seed"}
    assert forest_given == {"matrix", "seed"}
    assert (kmeans["k"], kmeans["seed"], kmeans["max_iter"], kmeans["n_init"]) == \
        (len(TYPE_LABELS), 3, 100, 10)
    assert (forest["tree_count"], forest["subsample"], forest["seed"]) == (100, 256, 4)
    assert analyze_counts(tmp_path / "out")["clusters"] == len(TYPE_LABELS) == 8


def test_analyze_refuses_a_non_finite_feature(tmp_path, monkeypatch):
    def features_with_a_nan(table, mode):
        matrix = build_feature_matrix(table, mode)
        matrix[2, 4] = np.nan
        return matrix

    monkeypatch.setattr(pipeline, "build_feature_matrix", features_with_a_nan)
    trace, out = noisy_trace(tmp_path / "trace", seed=7), tmp_path / "out"
    run_preprocess(stage_config(trace, out))
    with pytest.raises(StageError, match=r"^\[analyze\] feature row 2, column 4 "
                                         r"is not finite: nan$"):
        run_analyze(stage_config(trace, out))
    assert not (out / "manifest-analyze.json").exists()


def test_analyze_refuses_a_trace_with_fewer_occupancy_patterns_than_categories(
        tmp_path):
    # twelve Type1 machines binarize to one occupancy pattern; classification
    # runs before similarity, so no DTW artifact is written
    trace, out = tmp_path / "trace", tmp_path / "out"
    run_synth(synth_config(trace, synth_machines="12",
                           synth_quotas="12,0,0,0,0,0,0,0"))
    run_preprocess(stage_config(trace, out))
    with pytest.raises(StageError, match=r"^\[analyze\] the 8 workload categories "
                                         r"need 8 distinct occupancy patterns, "
                                         r"and the trace has 1$") as raised:
        run_analyze(stage_config(trace, out))
    assert raised.value.stage == "analyze"
    assert not (out / "manifest-analyze.json").exists()
    assert not (out / "dtw_distances.csv").exists()


def test_analyze_classifies_once_and_hands_every_step_one_category_array(
        tmp_path, monkeypatch):
    calls = {}   # name: (positional arguments, result) of every call
    names = ("label_clusters", "category_report", "diagnose",
             "write_assignments_csv", "write_scores_csv", "write_anomaly_json")

    def spy(name, original):
        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.setdefault(name, []).append((args, result))
            return result
        monkeypatch.setattr(pipeline, name, recorded)

    for name in names:
        spy(name, getattr(pipeline, name))
    preprocess_and_analyze(noisy_trace(tmp_path / "trace", seed=7), tmp_path / "out")
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(names, 1)
    ((_, report),) = calls["category_report"]
    ((diagnose_args, causes),) = calls["diagnose"]
    categories = report.categories
    assert isinstance(categories, np.ndarray) and categories.shape == (16,)
    assert diagnose_args[0] is categories
    for writer in ("write_assignments_csv", "write_scores_csv", "write_anomaly_json"):
        ((args, _),) = calls[writer]
        assert args[1] is categories, writer
    for writer in ("write_scores_csv", "write_anomaly_json"):
        ((args, _),) = calls[writer]
        assert args[2] is causes, writer
    # the report carries no labels of its own, and analyze patches none on
    assert {field.name for field in dataclasses.fields(AnomalyReport)}.isdisjoint(
        {"labels", "causes"})
    stores = [ast.unparse(node) for node in
              ast.walk(ast.parse(inspect.getsource(pipeline.run_analyze)))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
    assert stores == []


def test_the_artifacts_agree_on_every_machines_category(tmp_path):
    trace, out = noisy_trace(tmp_path / "trace", seed=7), tmp_path / "out"
    for run in (run_preprocess, run_analyze, run_report):
        run(stage_config(trace, out))

    def labels(name):
        """(machine, label) of every row of ``name``."""
        header, *lines = (out / name).read_text().splitlines()
        column = header.split(",").index("label")
        return [(int(cells[0]), cells[column])
                for cells in (line.split(",") for line in lines)]

    assigned = labels("assignments.csv")
    assert [machine for machine, _ in assigned] == list(range(1, 17))
    assert labels("anomaly_scores.csv") == assigned
    members = json.loads((out / "category_counts.json").read_text())["members"]
    top = json.loads((out / "anomaly_report.json").read_text())["top"]
    assert len(top) == 16
    for entry in top:
        assert entry["machine"] in members[entry["category"]], entry


# ---------------------------------------------------------------------------
# the analysis names, imported on first use


@pytest.fixture
def unbound_analysis_names(monkeypatch):
    """``pipeline`` as a fresh import leaves it: no analysis name bound yet
    (restored afterwards)."""
    for name in pipeline._HOME:
        monkeypatch.delitem(vars(pipeline), name, raising=False)


def test_an_analysis_name_is_its_modules_own(unbound_analysis_names):
    from trace_insight.pipeline import kmeans_fit as imported
    assert imported is kmeans_fit
    assert vars(pipeline)["kmeans_fit"] is kmeans_fit   # bound on first use
    for module, names in pipeline.ANALYSIS_NAMES.items():
        home = importlib.import_module(f"trace_insight.{module}")
        assert all(getattr(pipeline, name) is getattr(home, name)
                   for name in names), module


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'trace_insight.pipeline' "
                                             r"has no attribute 'no_such_name'$"):
        pipeline.no_such_name
    assert getattr(pipeline, "no_such_name", None) is None


def test_analyze_calls_a_wrapper_set_before_the_names_are_bound(
        tmp_path, monkeypatch, unbound_analysis_names):
    calls = []

    def recorded_fit(*args, **kwargs):
        calls.append(kwargs["seed"])
        return kmeans_fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "kmeans_fit", recorded_fit)
    preprocess_and_analyze(noisy_trace(tmp_path / "trace", seed=7), tmp_path / "out")
    assert calls == [7]
    assert pipeline.kmeans_fit is recorded_fit
    assert vars(pipeline)["iforest_fit"] is iforest_fit   # bound by analyze


# each planted anomaly kind, the machine it is planted on (the first or
# second of a type block of the 36,4,4,4,4,4,4,4 layout) and the cause tag
# it must earn
PLANTED_TAGS = {
    PlantKind.HEAVY_ONLINE: (1, "HeavierOnlineServices"),             # Type1
    PlantKind.LIGHTER_ONLINE_SKEW: (2, "UnbalancedLighterOnline"),    # Type1
    PlantKind.IDLE: (37, "NoWorkloadsScheduling"),                    # Type2
    PlantKind.FREQUENT_SOFT_ERROR: (49, "FrequentSoftError"),         # Type5
    PlantKind.SOFT_ERROR_WORKLOAD_STOP: (53, "SoftErrorWorkloadStop"),  # Type6
}


def test_every_planted_anomaly_kind_earns_its_cause_tag(tmp_path):
    trace, out = tmp_path / "trace", tmp_path / "out"
    grid_end = str(39600 + 48 * 300)
    plants = ";".join(f"{kind.value}:{machine}"
                      for kind, (machine, _tag) in PLANTED_TAGS.items())
    run_synth(synth_config(trace, grid_end=grid_end, synth_machines="64",
                           synth_quotas="36,4,4,4,4,4,4,4", synth_noise="0.03",
                           synth_seed="7", synth_plants=plants))
    preprocess_and_analyze(trace, out, grid_end=grid_end)
    header, *lines = (out / "anomaly_scores.csv").read_text().splitlines()
    assert header.split(",")[-1] == "tags"
    tags = {int(line.split(",")[0]): set(filter(None, line.split(",")[-1].split("|")))
            for line in lines}
    assert len(tags) == 64
    for kind, (machine, tag) in PLANTED_TAGS.items():
        assert tag in tags[machine], kind
    # the tags that rest on events and balance, not on the label alone, go
    # to the planted machines only (every Type2 machine is NoWorkloadsScheduling)
    planted = {machine for machine, _tag in PLANTED_TAGS.values()}
    for tag in ("HeavierOnlineServices", "UnbalancedLighterOnline",
                "FrequentSoftError", "SoftErrorWorkloadStop"):
        assert {m for m, got in tags.items() if tag in got} <= planted, tag


def test_stage_manifests_count_the_rows_each_file_lost(tmp_path):
    trace = tmp_path / "trace"
    run_synth(synth_config(trace))
    with open(trace / "container_usage.csv", "a", encoding="utf-8") as fh:
        fh.write("39600,not-an-instance,10.0\n")
    out = tmp_path / "out"
    run_preprocess(stage_config(trace, out))
    run_analyze(stage_config(trace, out))
    for stage in ("preprocess", "analyze"):
        manifest = json.loads((out / f"manifest-{stage}.json").read_text())
        skipped = {key: value for key, value in manifest["row_counts"].items()
                   if key.startswith("rows_skipped_")}
        assert skipped == {
            "rows_skipped_server_event": 0,
            "rows_skipped_server_usage": 0,
            "rows_skipped_container_event": 0,
            "rows_skipped_container_usage": 1,
            "rows_skipped_batch_task": 0,
            "rows_skipped_batch_instance": 0,
        }, stage


DEMO_GRID_END = str(39600 + 48 * 300)


@pytest.fixture(scope="module")
def demo_trace(tmp_path_factory):
    """The 64-machine trace of scripts/run_synthetic_demo.py at seed 7, on
    its 48-interval grid."""
    trace = tmp_path_factory.mktemp("demo") / "trace"
    run_synth(synth_config(
        trace, grid_end=DEMO_GRID_END, synth_machines="64",
        synth_quotas="36,4,4,4,4,4,4,4",
        synth_plants="Idle:37;HeavyOnline:1;LighterOnlineSkew:2;"
                     "FrequentSoftError:49;SoftErrorWorkloadStop:53",
        synth_gaps="3:cpu:10-14;4:mem:30-33", synth_noise="0.03", synth_seed="7"))
    return trace


def test_every_block_of_every_trace_file_takes_the_c_reader(demo_trace, monkeypatch):
    # a block that falls back to the row rule changes no byte, only the
    # time, so which reader the blocks take is checked here
    # numpy 1.x hands the converters bytes unless the call names an
    # encoding; the spy gives numpy 2 that default, so the call must name one
    taken, cell_types = {}, set()
    loadtxt = np.loadtxt

    def spy(lines, *args, **kwargs):
        kwargs.setdefault("encoding", "bytes")
        kwargs["converters"] = {
            i: lambda cell, parse=parse: cell_types.add(type(cell)) or parse(cell)
            for i, parse in kwargs["converters"].items()}
        table = loadtxt(lines, *args, **kwargs)
        if len(table) == len(lines):
            taken.setdefault(kwargs["dtype"].names, []).append(len(lines))
        return table

    monkeypatch.setattr(trace_model.np, "loadtxt", spy)
    bundle = parse_trace_dir(str(demo_trace))
    assert bundle.python_rows == 0
    for key, spec in trace_model._SPECS.items():
        rows = len(getattr(bundle, spec.attr))
        blocks = [min(trace_model.BLOCK_ROWS, rows - lo)
                  for lo in range(0, rows, trace_model.BLOCK_ROWS)]
        assert taken.pop(tuple(spec.fields)) == blocks, key
    assert taken == {}
    assert cell_types == {str}


def test_preprocess_counts_the_rows_the_c_reader_did_not_take(demo_trace, tmp_path):
    synth_counts = json.loads((demo_trace / "manifest-synth.json").read_text())["row_counts"]
    block_rows = trace_model.BLOCK_ROWS

    def crlf(trace):
        # CR line ends are csv.reader's to read, for the whole file
        path = trace / "server_usage.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))

    def bad_cell(trace):
        # a cell the C reader refuses sends its block, and no other, to the
        # row rule
        path = trace / "container_usage.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[block_rows + 5].split(",")
        cells[1] = "not-an-instance"
        lines[block_rows + 5] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")

    manifests = {}
    for run, edit in (("lf", None), ("crlf", crlf), ("bad_cell", bad_cell)):
        trace = tmp_path / run / "trace"
        shutil.copytree(demo_trace, trace)
        if edit is not None:
            edit(trace)
        out = tmp_path / run / "out"
        run_preprocess(stage_config(trace, out, grid_end=DEMO_GRID_END))
        manifests[run] = json.loads((out / "manifest-preprocess.json").read_text())
    counts = {run: manifest["row_counts"] for run, manifest in manifests.items()}
    assert counts["lf"]["rows_parsed_in_python"] == 0
    assert counts["crlf"]["rows_parsed_in_python"] == synth_counts["server_usage"]
    for key in ("outputs", "trace_columns"):
        assert manifests["crlf"][key] == manifests["lf"][key], key
    usage_rows = synth_counts["container_usage"]
    assert usage_rows > block_rows
    assert counts["bad_cell"]["rows_parsed_in_python"] == \
        min(block_rows, usage_rows - block_rows)
    assert counts["bad_cell"]["rows_skipped_container_usage"] == 1


# ---------------------------------------------------------------------------
# the hand-off from preprocess to analyze


def test_analyze_reuses_the_columns_preprocess_parsed(tmp_path):
    trace = noisy_trace(tmp_path / "trace", seed=7)
    with open(trace / "container_usage.csv", "a", encoding="utf-8") as fh:
        fh.write("39600,not-an-instance,10.0\n")
    out = tmp_path / "out"
    preprocess_and_analyze(trace, out)
    assert analyze_counts(out)["rows_skipped_container_usage"] == 1
    # the columns file is vouched for under its own key, not as an artifact,
    # and it is the one input analyze records
    manifest = json.loads((out / "manifest-preprocess.json").read_text())
    assert "trace_columns.bin" not in manifest["outputs"]
    digest = hashlib.sha256((out / "trace_columns.bin").read_bytes()).hexdigest()
    assert manifest["trace_columns"] == {"trace_columns.bin": digest}
    analyzed = json.loads((out / "manifest-analyze.json").read_text())
    assert analyzed["inputs"] == {"trace_columns.bin": digest}
    counts = manifest["row_counts"]
    assert counts["trace_columns_bytes"] == (out / "trace_columns.bin").stat().st_size
    # it holds the saved columns of the parse, with the container events
    # filtered, and the repaired cpu, mem and disk, every bit as preprocess
    # made them; no other column
    bundle, skipped, dense, grid = load_columns(str(out / "trace_columns.bin"))
    assert grid == IntervalGrid(39600, 39600 + 12 * 300, 300)
    parsed = parse_trace_dir(str(trace))
    parsed = dataclasses.replace(
        parsed, container_events=filter_container_events(parsed.container_events)[0])
    assert len(bundle.container_events) == \
        counts["container_events"] - counts["container_events_removed"]
    for attr, key in oracles.BUNDLE_FILES.items():
        got, want = getattr(bundle, attr).columns, getattr(parsed, attr).columns
        assert list(got) == list(SAVED_COLUMNS[key]), key
        for name in SAVED_COLUMNS[key]:
            assert got[name].dtype == want[name].dtype, (key, name)
            assert got[name].tobytes() == want[name].tobytes(), (key, name)
    assert bundle.machine_count == parsed.machine_count
    assert skipped["container_usage"] == 1
    repaired, _ = supplement_server_usage(parsed, IntervalGrid(39600, 39600 + 12 * 300,
                                                               300))
    assert dense.shape == (16, 13, 3)
    assert dense.tobytes() == repaired.values[..., :3].tobytes()


def test_analyze_reads_exactly_the_columns_preprocess_saves(tmp_path, monkeypatch):
    # every saved column is one that analyze reads, so the list cannot carry
    # a column the code dropped (a column it reads but is not saved fails
    # analyze outright)
    trace, out = tmp_path / "trace", tmp_path / "out"
    grid_end = str(39600 + 48 * 300)
    plants = ";".join(f"{kind.value}:{machine}"
                      for kind, (machine, _tag) in PLANTED_TAGS.items())
    run_synth(synth_config(trace, grid_end=grid_end, synth_machines="64",
                           synth_quotas="36,4,4,4,4,4,4,4", synth_noise="0.03",
                           synth_seed="7", synth_plants=plants))
    run_preprocess(stage_config(trace, out, grid_end=grid_end))
    read = set()
    column = Table.__getattr__

    def recorded(table, name):
        value = column(table, name)
        read.add((table.file_key, name))
        return value

    monkeypatch.setattr(Table, "__getattr__", recorded)
    saved = {(key, name) for key, names in SAVED_COLUMNS.items() for name in names}
    for extra in ({}, {"anomaly_mode": "per_interval", "dtw_normalized": "true"}):
        read.clear()
        run_analyze(stage_config(trace, out, grid_end=grid_end, **extra))
        assert read == saved, extra


def test_preprocess_keeps_only_the_columns_it_reads_or_saves(demo_trace, tmp_path,
                                                             monkeypatch):
    # every kept column is read by a call of run_preprocess (the parse's
    # machine count included) or saved for analyze, so the keep set cannot
    # carry a column the code dropped (a column read but not kept fails
    # preprocess outright)
    read = set()
    column = Table.__getattr__

    def recorded(table, name):
        value = column(table, name)
        read.add((table.file_key, name))
        return value

    monkeypatch.setattr(Table, "__getattr__", recorded)
    run_preprocess(stage_config(demo_trace, tmp_path / "out", grid_end=DEMO_GRID_END))
    kept = {(key, name) for key, names in PREPROCESS_COLUMNS.items() for name in names}
    saved = {(key, name) for key, names in SAVED_COLUMNS.items() for name in names}
    assert kept == {(key, name) for key, name in read if key in FILE_KEYS} | saved


def test_preprocess_counts_the_bytes_of_the_columns_it_parsed(demo_trace, tmp_path):
    out = tmp_path / "out"
    run_preprocess(stage_config(demo_trace, out, grid_end=DEMO_GRID_END))
    counts = json.loads((out / "manifest-preprocess.json").read_text())["row_counts"]
    full = parse_trace_dir(str(demo_trace))
    # the kept columns, a file that keeps none holding its first
    kept_bytes = sum(
        getattr(full, attr).columns[name].nbytes
        for attr, key in oracles.BUNDLE_FILES.items()
        for name in PREPROCESS_COLUMNS[key] or list(getattr(full, attr).columns)[:1])
    assert counts["parsed_column_bytes"] == kept_bytes
    assert kept_bytes < full.nbytes / 2


def test_analyze_reads_only_the_output_directory(tmp_path, monkeypatch):
    # once preprocess ran, the trace can go: analyze and report read only
    # what preprocess left in the output directory
    kept, gone = tmp_path / "kept", tmp_path / "gone"
    for root in (kept, gone):
        run_preprocess(stage_config(noisy_trace(root / "trace", seed=7),
                                    root / "out"))
    shutil.rmtree(gone / "trace")
    # nor does analyze parse or repair again what preprocess handed over
    for name in ("parse_trace_dir", "filter_container_events",
                 "supplement_server_usage"):
        monkeypatch.setattr(pipeline, name, None)
    for root in (kept, gone):
        run_analyze(stage_config(root / "trace", root / "out"))
        run_report({"output_dir": str(root / "out")})
    for name in (*ANALYZE_FILENAMES, "report.json"):
        assert (gone / "out" / name).read_bytes() == \
            (kept / "out" / name).read_bytes(), name


def flip_a_byte(out):
    path = out / "trace_columns.bin"
    body = bytearray(path.read_bytes())
    body[len(body) // 2] ^= 1
    path.write_bytes(bytes(body))


def truncate(out):
    path = out / "trace_columns.bin"
    path.write_bytes(path.read_bytes()[:-8])


def drop_the_manifest(out):
    (out / "manifest-preprocess.json").unlink()


def make_the_manifest_a_list(out):
    (out / "manifest-preprocess.json").write_text("[]\n")


def record_an_unreadable_columns_digest(out):
    path = out / "manifest-preprocess.json"
    manifest = json.loads(path.read_text())
    manifest["trace_columns"]["trace_columns.bin"] = "maybe"
    path.write_text(json.dumps(manifest))


def copy_in_another_traces_columns(out):
    other = out.parent / "other"
    run_preprocess(stage_config(noisy_trace(out.parent / "trace-8", seed=8), other))
    shutil.copyfile(other / "trace_columns.bin", out / "trace_columns.bin")


@pytest.mark.parametrize("spoil", [flip_a_byte, truncate, drop_the_manifest,
                                   make_the_manifest_a_list,
                                   record_an_unreadable_columns_digest,
                                   copy_in_another_traces_columns])
def test_analyze_refuses_a_hand_off_its_manifest_does_not_vouch_for(tmp_path,
                                                                    spoil):
    trace = noisy_trace(tmp_path / "trace", seed=7)
    out = tmp_path / "out"
    run_preprocess(stage_config(trace, out))
    spoil(out)
    refusal = r"^\[analyze\] .*preprocess.*(run preprocess first|rerun preprocess)$"
    with pytest.raises(StageError, match=refusal) as err:
        run_analyze(stage_config(trace, out))
    assert err.value.stage == "analyze"
    assert not (out / "manifest-analyze.json").exists()
    assert not any((out / name).exists() for name in ANALYZE_FILENAMES)


SHIFTED_GRID = {"grid_start": "39900", "grid_end": str(39900 + 12 * 300)}
OTHER_GRID = (r"^\[analyze\] trace_columns.bin in .* disagrees with this run "
              r"on grid_start, grid_end; rerun preprocess$")


def test_analyze_refuses_a_hand_off_made_on_another_grid(tmp_path):
    # a grid shifted by one step has as many intervals, so the saved dense
    # values have the shape build_machine_series checks; only the grid
    # the hand-off records tells the two apart
    trace = noisy_trace(tmp_path / "trace", seed=7)
    out = tmp_path / "out"
    run_preprocess(stage_config(trace, out, **SHIFTED_GRID))
    with pytest.raises(StageError, match=OTHER_GRID) as err:
        run_analyze(stage_config(trace, out))
    assert err.value.stage == "analyze"
    assert not (out / "manifest-analyze.json").exists()
    assert not (out / "machine_series.csv").exists()


def test_analyze_takes_the_grid_from_the_hand_off_not_from_the_manifest_config(
        tmp_path):
    # the manifest's config is what preprocess was given, not what the file
    # it vouches for holds: edited to match this run, it must not let the
    # columns of another grid through
    trace = noisy_trace(tmp_path / "trace", seed=7)
    out = tmp_path / "out"
    run_preprocess(stage_config(trace, out, **SHIFTED_GRID))
    path = out / "manifest-preprocess.json"
    manifest = json.loads(path.read_text())
    manifest["config"].update(grid_start="39600", grid_end=str(39600 + 12 * 300))
    path.write_text(json.dumps(manifest))
    with pytest.raises(StageError, match=OTHER_GRID):
        run_analyze(stage_config(trace, out))
    assert not (out / "manifest-analyze.json").exists()
    assert not (out / "machine_series.csv").exists()

    # and a hand-off on this run's grid loads whatever that config says
    run_preprocess(stage_config(trace, out))
    manifest = json.loads(path.read_text())
    manifest["config"].update(grid_start="39900", grid_step="maybe")
    path.write_text(json.dumps(manifest))
    run_analyze(stage_config(trace, out))
    assert analyze_counts(out)["intervals"] == 12


def test_analyze_refuses_a_vouched_for_hand_off_it_cannot_load(tmp_path):
    trace = noisy_trace(tmp_path / "trace", seed=7)
    out = tmp_path / "out"
    run_preprocess(stage_config(trace, out))
    path = out / "trace_columns.bin"
    body = path.read_bytes()
    older = io.BytesIO()   # the machine count first, as an older layout has it
    np.save(older, np.array([16], dtype=np.int64))
    # the name of the layout that saved every parsed column
    every_column = io.BytesIO()
    np.save(every_column, np.array(["trace columns, skipped counts, dense usage"]))
    records = io.BytesIO(body)
    np.load(records)   # past this layout's name
    after_the_name = records.tell()
    np.load(records)   # past the grid
    # the layout before the file recorded its grid
    gridless = io.BytesIO()
    np.save(gridless, np.array(["analyze columns, skipped counts, dense cpu/mem/disk"]))
    manifest_path = out / "manifest-preprocess.json"
    manifest = json.loads(manifest_path.read_text())
    for spoiled in (body[:len(body) // 2], older.getvalue() + body,
                    every_column.getvalue() + body[after_the_name:],
                    gridless.getvalue() + body[records.tell():]):
        # its digest recorded, as a preprocess run of that layout records it
        path.write_bytes(spoiled)
        manifest["trace_columns"]["trace_columns.bin"] = \
            hashlib.sha256(spoiled).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StageError, match=r"^\[analyze\] trace_columns.bin in "
                                             r".* does not load .*; rerun "
                                             r"preprocess$"):
            run_analyze(stage_config(trace, out))
    assert not (out / "manifest-analyze.json").exists()


def test_a_header_line_is_counted_as_a_rejected_row(tmp_path):
    trace = noisy_trace(tmp_path / "trace", seed=7)
    for key, name in TRACE_FILENAMES.items():
        header = ",".join(field for field, _ in oracles.PARSE_FIELDS[key])
        (trace / name).write_text(header + "\n" + (trace / name).read_text())
    out = tmp_path / "out"
    run_preprocess(stage_config(trace, out, max_skip_ratio="0.5"))
    counts = json.loads((out / "manifest-preprocess.json").read_text())["row_counts"]
    assert {key: counts[f"rows_skipped_{key}"] for key in TRACE_FILENAMES} == \
        dict.fromkeys(TRACE_FILENAMES, 1)
    with pytest.raises(StageError, match=r"^\[preprocess\] server_event.csv: "
                                         r"rejected 1/\d+ rows, above the 1.00% "
                                         r"limit$"):
        run_preprocess(stage_config(trace, out))


def test_a_parse_over_the_skip_limit_leaves_no_hand_off(tmp_path, caplog):
    trace = noisy_trace(tmp_path / "trace", seed=7)
    rows = len((trace / "server_usage.csv").read_text().splitlines())
    bad = rows // 49   # about 2% of the rows once they are added
    with open(trace / "server_usage.csv", "a", encoding="utf-8") as fh:
        fh.write("39600,1,not-a-percent,55,50,1.0,1.0,1.0\n" * bad)
    out = tmp_path / "out"
    with pytest.raises(StageError, match=r"^\[preprocess\] server_usage.csv: "
                                         rf"rejected {bad}/{rows + bad} rows, "
                                         r"above the 1.00% limit$"):
        run_preprocess(stage_config(trace, out))
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [f"server_usage.csv: skipped {bad} of {rows + bad} rows "
                        f"(first: line {rows + 1}, bad percent value 'not-a-percent')"]
    # the limit is applied once, by the parse; what it refuses is never saved
    assert not out.exists()
    with pytest.raises(StageError, match=r"^\[analyze\] preprocess stage missing: "
                                         r"no manifest-preprocess.json in .*; "
                                         r"run preprocess first$"):
        run_analyze(stage_config(trace, out))
    preprocess_and_analyze(trace, out, max_skip_ratio="0.5")
    assert analyze_counts(out)["rows_skipped_server_usage"] == bad
