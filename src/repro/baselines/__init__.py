"""Baseline systems the paper compares against or builds upon.

* :class:`ZerberSystem` — Zerber (EDBT 2008): encrypted merged lists in
  random order; top-k only client-side after downloading whole lists.
* :class:`MuServIndex` — μ-Serv-style probabilistic index (Bawa et al.):
  false positives, no centralized ranking.
* :class:`OrderPreservingIndex` — order-preserving score mapping
  (Swaminathan et al.): per-term uniformisation without merging; leaks
  document frequency and needs rebuilds on insert.

The unprotected yardstick is :class:`~repro.index.inverted.OrdinaryInvertedIndex`
itself, which the Fig. 11–13 scripts query directly.
"""

from repro.baselines.zerber import ZerberClient, ZerberServer, ZerberSystem
from repro.baselines.mu_serv import MuServConfig, MuServIndex
from repro.baselines.ops_index import OrderPreservingIndex

__all__ = [
    "ZerberSystem",
    "ZerberServer",
    "ZerberClient",
    "MuServConfig",
    "MuServIndex",
    "OrderPreservingIndex",
]
