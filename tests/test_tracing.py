"""The benchmark's tracer still binds to the program.

``perfbench/tracing.py`` wraps names of ``pipeline`` and ``synth`` and
computes its counts from the arguments of the wrapped calls. A name the
program no longer has, or a call whose arguments its count hook no longer
takes, lands in ``Tracer.absent`` rather than failing the benchmark, so a
refactor can silently stop a traced metric from being measured. This test
runs the four stages in-process under the tracer and refuses any absent
entry beyond the ones known today.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from trace_insight import pipeline, synth

TRACING_PY = Path(__file__).parents[1] / "perfbench" / "tracing.py"
GRID = {"grid_start": "39600", "grid_end": str(39600 + 12 * 300),
        "grid_step": "300"}

# names the tracer looks for that the program no longer has, and count hooks
# that read a model attribute the program no longer has
KNOWN_MISSING = {f"trace_insight.pipeline.{name}" for name in (
    "build_report", "read_dense_csv", "write_batch_agg_csv",
    "write_container_agg_csv", "write_machine_series_csv", "zscore_normalize")}
KNOWN_FAILING_HOOKS = ("count kmeans_fit: ", "count iforest_fit: ")


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_layer_it_finds_today(tracing, tmp_path):
    trace, out = tmp_path / "trace", tmp_path / "out"
    configs = {
        "synth": {**GRID, "output_dir": str(trace), "synth_machines": "16",
                  "synth_quotas": "9,1,1,1,1,1,1,1", "synth_seed": "7",
                  "synth_noise": "0.03",
                  "synth_plants": "Idle:10;HeavyOnline:1;LighterOnlineSkew:2",
                  "synth_gaps": "3:cpu:4-6"},
        "preprocess": {**GRID, "input_dir": str(trace), "output_dir": str(out)},
        "analyze": {**GRID, "output_dir": str(out), "dtw_seed": "7",
                    "classify_seed": "7", "anomaly_seed": "7"},
        "report": {"output_dir": str(out)},
    }
    tracer = tracing.Tracer()
    tracer.install({"pipeline": pipeline, "synth": synth})
    try:
        for stage, config in configs.items():
            tracer.run = stage
            getattr(pipeline, f"run_{stage}")(config)
    finally:
        tracer.uninstall()
    unexpected = sorted(entry for entry in tracer.absent - KNOWN_MISSING
                        if not entry.startswith(KNOWN_FAILING_HOOKS))
    assert unexpected == []
    # every name the program still has is called through the wrapper
    wrapped = {f"{module}.{name}" for _metric, module, names in tracing.LAYER_CALLS
               for name in names
               if f"trace_insight.{module}.{name}" not in KNOWN_MISSING}
    assert wrapped - {span.name for span in tracer.spans} == set()
    # and the hooks that bind count what they measure: 8 sampled curves
    # give 28 pairs, and 16 machines meet 4 standards
    analyze = tracer.counts["analyze"]
    assert analyze["similarity.dtw_pairs"] == 8 * 7 // 2 + 16 * 4
    assert analyze["similarity.dtw_cells"] == (28 + 16 * 4) * 12 ** 2
    assert analyze["aggregate.instances"] > 0
    assert tracer.counts["preprocess"]["trace_model.rows"] > 0
