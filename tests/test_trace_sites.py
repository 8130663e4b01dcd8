"""Every import site the benchmark tracer wraps still resolves.

``perfbench/spans.py`` wraps each layer's functions by the name they are
imported under in the calling module, so renaming or dropping one of those
imports breaks the benchmark's traced run while the program still works.
No Spark session is started: the sites are only imported and looked up.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod.LAYERS


SITES = [(layer, site) for layer, sites, _ in _layers() for site in sites]


@pytest.mark.parametrize("layer, site", SITES, ids=[s for _, s in SITES])
def test_trace_site_resolves(layer, site):
    mod_name, attr = site.split(":")
    assert callable(getattr(importlib.import_module(mod_name), attr)), layer
