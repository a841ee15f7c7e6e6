"""Each CLI stage, run as its own child process, loads only the modules it
runs: ``report`` no numpy, ``preprocess`` and ``analyze`` no
``trace_insight.synth``, ``analyze`` no ``numpy.ma``, and
``import trace_insight`` no submodule at all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trace_insight.pipeline import run_synth

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
    run_synth({"output_dir": str(trace), "synth_machines": "10",
               "synth_quotas": "3,1,1,1,1,1,1,1", "synth_seed": "5",
               **dict(item.split("=") for item in GRID)})
    stages = {
        "preprocess": [f"input_dir={trace}", *GRID],
        "analyze": ["--seed", "7", *GRID],
        "report": [],
    }
    return {stage: loaded_modules("-c", PROBE, stage, "--out-dir", str(out),
                                  *overrides)
            for stage, overrides in stages.items()}


def test_report_loads_no_numpy(stage_modules):
    assert "trace_insight.cli" in stage_modules["report"]
    assert "numpy" not in stage_modules["report"]


@pytest.mark.parametrize("stage", ["preprocess", "analyze"])
def test_preprocess_and_analyze_load_no_synth(stage_modules, stage):
    assert "trace_insight.pipeline" in stage_modules[stage]
    assert "trace_insight.synth" not in stage_modules[stage]


def test_analyze_loads_no_numpy_ma(stage_modules):
    # np.median's NaN check and the hash path of np.unique import it
    assert "numpy" in stage_modules["analyze"]
    assert "numpy.ma" not in stage_modules["analyze"]


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_modules(
        "-c", "import json, sys, trace_insight; print(json.dumps(list(sys.modules)))")
    assert "trace_insight" in loaded
    assert sorted(m for m in loaded if m.startswith("trace_insight.")) == []
