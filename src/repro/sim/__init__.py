"""Deterministic simulation substrate: crash injection, execution
tracing, and the crash-at-every-step harness.

The paper's guarantees (Section 3) are *fault-tolerance* guarantees, so
the reproduction's test and benchmark suites must exercise failures
systematically.  This package provides:

* :class:`~repro.sim.crash.FaultInjector` — named crash points; code under
  test calls ``injector.reach("point")`` and the harness arms a crash at
  any (point, hit-count) pair.
* :class:`~repro.sim.trace.TraceRecorder` — a global, append-only record
  of protocol events, consumed by :mod:`repro.core.guarantees`.
* :func:`~repro.sim.harness.crash_every_step` — run a scenario once to
  enumerate its crash points, then re-run it once per point with a crash
  injected there, applying a caller-supplied recovery procedure.
"""

from repro.sim.crash import FaultInjector, CrashPlan
from repro.sim.trace import TraceRecorder, TraceEvent
from repro.sim.harness import crash_every_step, CrashStepResult

__all__ = [
    "FaultInjector",
    "CrashPlan",
    "TraceRecorder",
    "TraceEvent",
    "crash_every_step",
    "CrashStepResult",
]
