"""Every name the benchmark's tracer patches still exists, and the
reports its workloads check still carry what they read.

`perfbench/tracer.py` wraps package functions by module and attribute
path; a rename or deletion would otherwise surface only in a traced
benchmark run.  The tables are read without building any wrapper.
"""

import importlib.util
from pathlib import Path

import pytest

from masures.cli import run_campaign

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _tracer()


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the tracer swaps a method in the class body that defines it, so an
    # inherited attribute would not do
    return vars(owner)[attr]


@pytest.mark.parametrize(
    "module_name, path",
    [(module, path) for _, module, path, _ in TRACER_MODULE.TARGETS],
)
def test_target_resolves(module_name, path):
    assert callable(_resolve(module_name, path))


@pytest.mark.parametrize("name", TRACER_MODULE.LINALG_FUNCTIONS)
def test_linalg_function_resolves(name):
    assert callable(_resolve("masures.linalg", name))


def test_tables_are_not_empty():
    assert TRACER_MODULE.TARGETS and TRACER_MODULE.LINALG_FUNCTIONS


def test_window_too_small_resolves():
    # the tracer's check_MA2 hook counts it as a window retry
    assert issubclass(_resolve("masures.errors", "WindowTooSmall"), Exception)


@pytest.mark.parametrize("model", ["tree", "sl3"])
def test_one_trial_campaign_has_what_the_workloads_check(model):
    """`CampaignWorkload.check` in `perfbench/workloads.py` reads the
    summary's verdict counts and `window_retries`, the trial's
    `window_radius` (the configured one shifted left by the retries) and
    the `hits` certificate of its MA2 report."""
    report = run_campaign({"model": model, "trials": 1, "seed": 5})
    summary = report["summary"]
    assert (summary["pass"], summary["fail"], summary["inconclusive"]) == (1, 0, 0)
    assert summary["window_retries"] == 0
    trial = report["trials"][0]
    assert trial["window_radius"] == report["config"]["window_radius"] << summary["window_retries"]
    certificates = {c["name"]: c["value"] for c in trial["ma2"]["certificates"]}
    assert isinstance(certificates["hits"], int) and certificates["hits"] > 0
