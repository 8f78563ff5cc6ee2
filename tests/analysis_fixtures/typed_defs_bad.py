"""Bad (linted as a repro.core module): defs the strict mypy gate rejects."""


def untyped(a, b):
    return a + b


def no_return(a: int, b: int):
    return a + b


def half_typed(a: int, b) -> int:
    return a + b


def star_args(*args, **kwargs: int) -> None:
    return None


class Thing:
    def __init__(self, size: int):
        self.size = size

    def method(self, other) -> int:
        def nested(x):
            return x

        return nested(other)

    @staticmethod
    def static(first, second: int) -> int:
        return second

    async def fetch(self, *, timeout) -> None:
        return None
