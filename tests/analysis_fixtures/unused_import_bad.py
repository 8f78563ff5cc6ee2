"""Bad: imports nobody reads, at top level and inside a function."""

import os.path
from collections import OrderedDict, deque
from json import dumps as encode


def width(items: list) -> int:
    from math import floor

    return len(deque(items))
