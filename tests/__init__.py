"""Tier-1 test suite (a package, so its conftest helpers import by name)."""
