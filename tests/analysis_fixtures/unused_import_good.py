"""Good: every import is read, exported, quoted in an annotation or kept
for its side effect."""

from __future__ import annotations

import os.path
import sqlite3  # noqa: F401  (imported for its side effect)
from collections import OrderedDict
from typing import TYPE_CHECKING

from json import (  # noqa: F401
    dumps as _dumps,
)

if TYPE_CHECKING:
    from decimal import Decimal as _Decimal

__all__ = ["OrderedDict", "half"]


def half(value: "_Decimal") -> str:
    return os.path.join(str(value), "half")
