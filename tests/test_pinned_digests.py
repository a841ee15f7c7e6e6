"""Every benchmark workload, run in-process through the stage runners at the
pinned seed, writes artifacts whose sha256 digests are the ones pinned in
``perfbench/pinned.json``; the benchmark checks the same digests on its CLI
runs, so a change of output bytes shows up here first."""

import importlib.util
import json
import os
import sys

import pytest

from trace_insight.pipeline import STAGE_RUNNERS

PERFBENCH_RUN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "run.py")


@pytest.fixture(scope="module")
def perfbench():
    name = "perfbench_run"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their own module up in sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("workload", ["ref", "wide", "long"])
def test_every_stage_writes_the_pinned_artifacts(perfbench, workload, tmp_path):
    with open(perfbench.PINNED_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    expected = pinned["workloads"][workload]
    configs = perfbench.stage_configs(
        perfbench.WORKLOADS[workload], pinned["seed"],
        str(tmp_path / "trace"), str(tmp_path / "out"))
    stages = ("synth", *perfbench.PIPELINE_STAGES)
    assert set(expected) == set(stages)
    for stage in stages:
        STAGE_RUNNERS[stage](configs[stage])
        # sha256 of every artifact the stage manifest lists in its outputs
        digests = perfbench.stage_digests(configs[stage]["output_dir"], stage)
        assert digests == expected[stage], stage
