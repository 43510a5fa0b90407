"""Discrete-event simulation kernel.

A compact, deterministic, generator-based DES in the style of SimPy:
processes are Python generators that ``yield`` events; the
:class:`~repro.simcore.environment.Environment` advances a virtual clock and
resumes processes when the events they wait on trigger.

Determinism guarantee: events scheduled for the same virtual time are
processed in (priority, insertion-order) — there is no wall-clock or hash
nondeterminism anywhere in the kernel, so a simulation with a fixed seed is
bit-reproducible.

Example
-------
>>> from repro.simcore import Environment
>>> env = Environment()
>>> def proc(env):
...     yield env.timeout(5.0)
...     return "done"
>>> p = env.process(proc(env))
>>> env.run()
>>> env.now, p.value
(5.0, 'done')
"""

from repro._lazy import lazy_exports

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "Process",
    "QuorumBarrier",
    "Resource",
    "SimulationError",
    "Timeout",
    "URGENT",
    "NORMAL",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".events": ("AllOf", "Event", "EventAlreadyTriggered", "Interrupt", "Timeout"),
        ".environment": ("Environment", "SimulationError"),
        ".process": ("Process",),
        ".resources": ("QuorumBarrier", "Resource"),
        ".priority": ("URGENT", "NORMAL"),
    },
)
