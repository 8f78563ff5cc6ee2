"""Event-loop discipline: ``repro.core`` schedules through the scheduler.

The event-driven refactor moved the coordinator/cluster seam onto the
deterministic virtual-time scheduler in :mod:`repro.core.eventloop` —
its ``(tick, band, seq)`` total order is what makes two runs of the
same workload fire the same events in the same order.  That guarantee
only holds if nothing else in the core builds its own callback or timer
machinery.  This rule bans:

* importing host concurrency/timer modules (``threading``, ``asyncio``,
  ``sched``, ``_thread``, ``concurrent``, ``queue``, ``signal``) inside
  ``repro.core`` — the virtual-time loop is the only scheduler, and any
  OS thread or wall-clock timer would race it nondeterministically;
* raw one-shot scheduling (``.call_at(...)``) outside the loop itself
  and its driver, :mod:`repro.core.router` — everywhere else, periodic
  work must register through ``EventLoop.every(...)``, whose tasks fire
  after the tick's one-shot events and never block quiescence.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import (
    Checker,
    FileContext,
    Finding,
    module_matches,
    register,
)

_SCOPE = ("repro.core",)

#: Modules that may call ``call_at`` directly: the loop itself, and the
#: coordinator (arrival/flush/delivery events are genuinely one-shot).
_RAW_SCHEDULING_MODULES = ("repro.core.eventloop", "repro.core.router")

_BANNED_MODULES = frozenset(
    {
        "threading",
        "_thread",
        "asyncio",
        "sched",
        "concurrent",
        "concurrent.futures",
        "queue",
        "signal",
    }
)


def _banned_import(name: str) -> bool:
    top = name.split(".", 1)[0]
    return top in _BANNED_MODULES or name in _BANNED_MODULES


@register
class EventLoopDisciplineChecker(Checker):
    rule = "eventloop-discipline"
    description = (
        "repro.core schedules only through repro.core.eventloop: no host "
        "thread/timer modules, no raw call_at outside the loop "
        "and its driver (periodic work registers via EventLoop.every)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not module_matches(ctx.module, _SCOPE):
            return
        raw_scheduling_ok = module_matches(ctx.module, _RAW_SCHEDULING_MODULES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _banned_import(alias.name):
                        yield ctx.finding(
                            self.rule,
                            node,
                            f"import {alias.name} in {ctx.module} — host "
                            "threads and wall-clock timers race the "
                            "deterministic event loop; schedule through "
                            "repro.core.eventloop instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module is not None and _banned_import(node.module):
                    yield ctx.finding(
                        self.rule,
                        node,
                        f"from {node.module} import ... in {ctx.module} — "
                        "host threads and wall-clock timers race the "
                        "deterministic event loop; schedule through "
                        "repro.core.eventloop instead",
                    )
            elif isinstance(node, ast.Call) and not raw_scheduling_ok:
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "call_at":
                    yield ctx.finding(
                        self.rule,
                        node,
                        f".call_at(...) in {ctx.module} — ad-hoc one-shot "
                        "callbacks belong to the loop and its driver; "
                        "register periodic work with EventLoop.every(...) "
                        "so it fires after the tick's events, in a fixed order",
                    )
