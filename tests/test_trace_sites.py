"""The benchmark's traced run still works on the program.

``perfbench/spans.py`` wraps each layer's functions by the name they are
imported under in the calling module, so renaming or dropping one of those
imports breaks the benchmark's traced run while the program still works;
the site tests only import and look them up. The benchmark's own tests
(``python -m pytest perfbench``) also require each workload to reach
every layer of its per-layer table, for instance Spark jobs in instance
enumeration; ``test_benchmark_workload_reaches_its_layers`` runs that
check here, on the session's Spark, so a change that stops a layer from
running fails the tests under ``tests/`` too. ``perfbench/`` is read, not
edited.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """Module ``perfbench/<name>.py``, loaded as ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


SITES = [(layer, site) for layer, sites, _ in _load("spans").LAYERS for site in sites]


@pytest.mark.parametrize("layer, site", SITES, ids=[s for _, s in SITES])
def test_trace_site_resolves(layer, site):
    mod_name, attr = site.split(":")
    assert callable(getattr(importlib.import_module(mod_name), attr)), layer


@pytest.fixture(scope="module")
def perfbench_tests():
    """perfbench/test_perfbench.py, which imports its siblings by bare name."""
    sys.path.insert(0, str(_PERFBENCH))
    try:
        yield _load("test_perfbench")
    finally:
        sys.path.remove(str(_PERFBENCH))


@pytest.mark.parametrize("workload", sorted(_load("workloads").WORKLOADS))
def test_benchmark_workload_reaches_its_layers(spark, perfbench_tests, workload):
    perfbench_tests.test_tiny_workload_passes_checks_and_traces(spark, workload)
