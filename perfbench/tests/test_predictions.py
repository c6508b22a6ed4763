"""Prediction checks on the traced runs of each workload.

Each workload runs once traced and once untraced, at its pinned seed,
in fresh interpreters (the wrappers patch classes process-wide).  The
tests pin what the benchmark's workloads are *for*: which layers they
exercise and which they bypass.  Run with::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("static-fabric", "punt-storm", "tenant-mix")
BYPASSED_ON_STATIC = ("southbound", "controller", "apps", "networkx")


def _child(workload: str, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           os.path.join(BENCH, "workloads", f"{workload}.json")]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload: str, trace: bool) -> dict:
        if (workload, trace) not in cache:
            cache[workload, trace] = _child(workload, trace)
        return cache[workload, trace]

    return get


def _pin(workload: str) -> dict:
    with open(os.path.join(BENCH, "workloads", f"{workload}.json")) as fh:
        return json.load(fh)["pin"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_match_the_pin(runs, workload):
    pin = _pin(workload)
    for trace in (False, True):
        report = runs(workload, trace)
        assert report["digest"] == pin["digest"]
        assert report["flows_started"] == pin["flows_started"]
        assert report["flows_completed"] == pin["flows_completed"]


def test_static_fabric_bypasses_the_control_plane(runs):
    layers = runs("static-fabric", True)["layers"]
    for layer in BYPASSED_ON_STATIC:
        assert layers[f"{layer}.calls"] == 0, layer
        assert layers[f"{layer}.setup_calls"] == 0, layer
    assert layers["dataplane.punt_ratio"] == 0.0


def test_packet_is_the_largest_layer_on_static_fabric(runs):
    layers = runs("static-fabric", True)["layers"]
    shares = {name[:-len(".share")]: value
              for name, value in layers.items() if name.endswith(".share")}
    assert max(shares, key=shares.get) == "packet"


def test_punt_storm_punts_every_reception(runs):
    layers = runs("punt-storm", True)["layers"]
    assert layers["dataplane.rx"] > 0
    assert layers["dataplane.punt_ratio"] == 1.0


def test_control_plane_outweighs_packet_on_punt_storm(runs):
    layers = runs("punt-storm", True)["layers"]
    assert (layers["controller.self_s"] + layers["networkx.self_s"]
            > layers["packet.self_s"])


def test_tenant_mix_has_both_punts_and_fast_path_hits(runs):
    layers = runs("tenant-mix", True)["layers"]
    assert 0.0 < layers["dataplane.punt_ratio"] < 1.0
    assert layers["dataplane.fastpath_hit_ratio"] > 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_window_self_times_cover_the_traced_window(runs, workload):
    report = runs(workload, True)
    layers = report["layers"]
    covered = sum(value for name, value in layers.items()
                  if name.endswith(".self_s")
                  and not name.endswith(".setup_self_s"))
    assert covered <= report["run_s"] * 1.0001
    assert covered >= report["run_s"] * 0.9
