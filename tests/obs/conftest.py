"""Observability-suite isolation: every test starts with a clean registry.

Tracing state is module-global (the active tracer, the ``REPRO_TRACE`` /
``REPRO_TRACE_ROOT`` env exports) and the metrics registry is process-wide;
a test that leaked either would bleed spans or counters into its neighbours.
"""

from __future__ import annotations

import pytest

# reset stays in src/ as this fixture's clean-registry hook between tests.
from repro.obs import metrics, trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    trace.configure(None, sample=1)
    metrics.reset()
    yield
    trace.configure(None, sample=1)
    metrics.reset()
