"""Good (linted as a repro.core module): every def fully annotated."""

from collections.abc import Callable


def typed(a: int, /, b: int = 0, *args: int, flag: bool = False, **kwargs: str) -> int:
    return a + b


class Thing:
    def __init__(self, size: int) -> None:
        self.size = size

    def method(self, other: int) -> int:
        def nested(x: int) -> int:
            return x

        return nested(other)

    @classmethod
    def build(cls, size: int) -> "Thing":
        return cls(size)

    @staticmethod
    def static(first: int, second: int) -> int:
        return first + second

    async def fetch(self, *, timeout: float) -> None:
        return None

    def key(self) -> Callable[[int], int]:
        return lambda x: x + self.size  # lambdas carry no annotations
