"""Bundled zlint checkers; importing this package registers every rule.

One module per invariant family — see each module's docstring for the
contract it enforces and ``docs/ANALYSIS.md`` for the catalog mapping
rule ids to the PRs that introduced the underlying contracts.
"""

from repro.analysis.checkers import (
    consistency,
    crypto,
    determinism,
    epoch,
    exceptions,
    exports,
    imports,
    obs,
    replication,
    typed_defs,
)

__all__ = [
    "consistency",
    "crypto",
    "determinism",
    "epoch",
    "exceptions",
    "exports",
    "imports",
    "obs",
    "replication",
    "typed_defs",
]
