"""One phase clock for every algorithm: wall seconds per phase.

Every ``DSDResult.timings``, and the ``info["timings"]`` of the two
k_max-core finders, holds exactly the keys of ``PHASES`` plus ``total``,
with 0.0 for a phase the algorithm never reaches:

* ``enumerate`` — listing and collecting instances, the edge collect
  included (Spark is lazy, so its jobs run where the rows are collected);
* ``decompose`` — every peel (Alg. 3 levels, the Alg. 2 heap, the
  classical peel behind CoreApp's gamma, the Nucleus h-index fixpoint);
* ``locate`` — bounds, components and density recounts;
* ``build`` — flow networks, Lemma 8 included;
* ``flow`` — max-flow probes;
* ``total`` — the whole call, from the clock's creation.

Phases do not nest, so they sum to at most ``total``. DESIGN.md lists
which code each phase covers, per algorithm.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

PHASES = ("enumerate", "decompose", "locate", "build", "flow")


class PhaseClock:
    """Seconds spent in each phase of one algorithm call."""

    def __init__(self):
        self._start = time.perf_counter()
        self._seconds = dict.fromkeys(PHASES, 0.0)

    @contextmanager
    def phase(self, name: str):
        """Add the wall time of the ``with`` body to phase ``name``, one of
        ``PHASES``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._seconds[name] += time.perf_counter() - t0

    def timings(self) -> dict:
        """Seconds per phase, and ``total`` since the clock was created."""
        return {**self._seconds, "total": time.perf_counter() - self._start}
