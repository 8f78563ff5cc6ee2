"""Bad: __all__ names a ghost and an import is silently re-exported."""

from json import dumps  # noqa: F401  (kept, yet missing from __all__)

__all__ = ["encode", "decode"]


def encode(payload: dict) -> str:
    return repr(payload)
