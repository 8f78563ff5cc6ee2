"""Determinism rule: ``repro.core`` owns no wall clock and no entropy.

PR 5's crash-point fuzzing replays whole cluster histories; that only
works because the core's notion of time is the replication tick clock
and every random draw comes from an explicitly seeded generator.  One
``time.time()`` or unseeded ``default_rng()`` in ``repro.core`` makes a
failing fuzz case unreproducible.  This rule bans wall-clock reads, OS
entropy (``os.urandom``/``secrets``/``uuid``), the module-level
``random.*`` functions (shared global state), and unseeded generator
construction (``random.Random()`` / ``np.random.default_rng()`` with no
arguments) inside ``repro.core`` — and, since PR 9, inside
``repro.obs``, whose tick-stamped traces must replay the same way.

It also bans importing host concurrency and timer modules
(``threading``, ``_thread``, ``asyncio``, ``sched``, ``concurrent``,
``queue``, ``signal``) there: the coordinator's per-tick agenda is the
only scheduler, and an OS thread or timer would race it, so two runs of
one tape would no longer do the same work in the same order.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import (
    Checker,
    FileContext,
    Finding,
    call_name,
    module_matches,
    register,
)

_SCOPE = ("repro.core", "repro.obs")

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)

_OS_ENTROPY_EXACT = frozenset({"os.urandom", "os.getrandom"})
_OS_ENTROPY_PREFIXES = ("secrets.", "uuid.")

#: Generator constructors that are fine *with* a seed, banned without.
_SEEDED_CONSTRUCTORS = frozenset(
    {"random.Random", "np.random.default_rng", "numpy.random.default_rng", "default_rng"}
)

#: Host concurrency / timer modules, banned at import (any submodule too).
_HOST_SCHEDULERS = frozenset(
    {"threading", "_thread", "asyncio", "sched", "concurrent", "queue", "signal"}
)


def _imported_modules(node: ast.AST) -> list[str]:
    """The absolute modules an import statement names (none for any other
    node, and none for a package-relative ``from .queue import ...``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module is not None and not node.level:
        return [node.module]
    return []


@register
class DeterminismChecker(Checker):
    rule = "determinism"
    description = (
        "no wall-clock, OS entropy, global random state, unseeded "
        "generators or host threads/timers in repro.core/repro.obs "
        "(replayability contract)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not module_matches(ctx.module, _SCOPE):
            return
        for node in ast.walk(ctx.tree):
            for module in _imported_modules(node):
                if module.split(".", 1)[0] in _HOST_SCHEDULERS:
                    yield ctx.finding(
                        self.rule,
                        node,
                        f"import {module} in {ctx.module} — a host thread or "
                        "timer races the coordinator's tick agenda, the only "
                        "scheduler",
                    )
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if name in _WALL_CLOCK:
                yield ctx.finding(
                    self.rule,
                    node,
                    f"{name}() in {ctx.module} — the replication tick clock is "
                    "the only time source (crash-point fuzzing replays "
                    "depend on it)",
                )
            elif name in _OS_ENTROPY_EXACT or name.startswith(_OS_ENTROPY_PREFIXES):
                yield ctx.finding(
                    self.rule,
                    node,
                    f"{name}() in {ctx.module} — OS entropy makes runs "
                    "unreplayable; draw from an explicitly seeded generator",
                )
            elif name in _SEEDED_CONSTRUCTORS:
                first = node.args[0] if node.args else None
                unseeded = (not node.args and not node.keywords) or (
                    isinstance(first, ast.Constant) and first.value is None
                )
                if unseeded:
                    yield ctx.finding(
                        self.rule,
                        node,
                        f"unseeded {name}() in {ctx.module} — pass an explicit "
                        "seed so failing runs replay byte-for-byte",
                    )
            elif name.startswith("random.") and name not in _SEEDED_CONSTRUCTORS:
                yield ctx.finding(
                    self.rule,
                    node,
                    f"{name}() in {ctx.module} uses the process-global RNG — "
                    "construct a seeded random.Random(seed) instead",
                )
