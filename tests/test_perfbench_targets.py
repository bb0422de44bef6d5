"""Every name the benchmark's tracer patches still exists.

`perfbench/tracer.py` wraps package functions by module and attribute
path; a rename or deletion would otherwise surface only in a traced
benchmark run.  The tables are read without building any wrapper.
"""

import importlib.util
from pathlib import Path

import pytest

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
