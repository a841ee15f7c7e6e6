"""Each CLI stage, run as its own child process, loads only the modules it
runs: ``report`` no numpy, ``preprocess`` and ``analyze`` no
``trace_insight.synth``, ``synth`` and ``preprocess`` none of the four
analysis modules, ``analyze`` neither ``numpy.ma`` nor
``trace_insight.preprocess``, and ``import trace_insight`` no submodule at
all. Of the standard modules only a trace's parse or write needs
(``PARSE_ONLY``), ``analyze`` loads none and ``preprocess`` of a clean trace
only ``csv``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI on its arguments, then prints the loaded module names as one
# JSON line.
PROBE = """
import json, sys
from trace_insight.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""

GRID = ["grid_start=39600", f"grid_end={39600 + 12 * 300}", "grid_step=300"]
ANALYSIS_MODULES = {f"trace_insight.{name}" for name in
                    ("aggregate", "anomaly", "classify", "similarity")}


def loaded_modules(*args: str) -> set[str]:
    """The modules a fresh interpreter with PYTHONPATH=src has loaded at the
    end of ``python args``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def stage_modules(tmp_path_factory):
    """The modules each stage's CLI child had loaded when it finished."""
    root = tmp_path_factory.mktemp("startup")
    trace, out = root / "trace", root / "out"
    stages = {   # in the order they run
        "synth": [str(trace), "--machines", "10", "--quotas", "3,1,1,1,1,1,1,1",
                  "--seed", "5", *GRID],
        "preprocess": [str(out), f"input_dir={trace}", *GRID],
        "analyze": [str(out), "--seed", "7", *GRID],
        "report": [str(out)],
    }
    return {stage: loaded_modules("-c", PROBE, stage, "--out-dir", *args)
            for stage, args in stages.items()}


def test_report_loads_no_numpy(stage_modules):
    assert "trace_insight.cli" in stage_modules["report"]
    assert "numpy" not in stage_modules["report"]


@pytest.mark.parametrize("stage", ["preprocess", "analyze"])
def test_preprocess_and_analyze_load_no_synth(stage_modules, stage):
    assert "trace_insight.pipeline" in stage_modules[stage]
    assert "trace_insight.synth" not in stage_modules[stage]


@pytest.mark.parametrize("stage", ["synth", "preprocess"])
def test_synth_and_preprocess_load_no_analysis_module(stage_modules, stage):
    assert "trace_insight.pipeline" in stage_modules[stage]
    assert stage_modules[stage] & ANALYSIS_MODULES == set()


def test_analyze_loads_every_analysis_module(stage_modules):
    assert ANALYSIS_MODULES <= stage_modules["analyze"]


def test_analyze_loads_no_numpy_ma(stage_modules):
    # np.median's NaN check and the hash path of np.unique import it
    assert "numpy" in stage_modules["analyze"]
    assert "numpy.ma" not in stage_modules["analyze"]


# csv reads and writes traces, decimal converts a rare percent cell either
# way, and logging warns of skipped rows
PARSE_ONLY = {"csv", "decimal", "logging"}


def test_analyze_loads_neither_preprocess_nor_a_parse_module(stage_modules):
    assert "trace_insight.preprocess" not in stage_modules["analyze"]
    assert stage_modules["analyze"] & PARSE_ONLY == set()


def test_preprocess_of_a_clean_trace_loads_no_rare_cell_module(stage_modules):
    assert "trace_insight.preprocess" in stage_modules["preprocess"]
    assert stage_modules["preprocess"] & PARSE_ONLY == {"csv"}


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_modules(
        "-c", "import json, sys, trace_insight; print(json.dumps(list(sys.modules)))")
    assert "trace_insight" in loaded
    assert sorted(m for m in loaded if m.startswith("trace_insight.")) == []
