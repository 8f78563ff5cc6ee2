"""The repo must satisfy its own gates: zlint clean, exports resolvable."""

import importlib
from pathlib import Path

import pytest

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

AUDITED_PACKAGES = [
    "repro",
    "repro.core",
    "repro.crypto",
    "repro.persist",
    "repro.analysis",
]


def test_zlint_runs_clean_on_own_source():
    findings, files_checked = analyze_paths([SRC])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"zlint findings on src/:\n{rendered}"
    assert files_checked > 50  # the walk actually saw the tree


def test_no_unused_import_in_src_or_tests():
    """``unused-import`` is the one rule that also holds over tests/, the
    other rules' fixtures included; only its own bad fixture may fire."""
    findings, files_checked = analyze_paths(
        [SRC, REPO_ROOT / "tests"], rules=["unused-import"]
    )
    rendered = "\n".join(f.render() for f in findings)
    assert {Path(f.path).name for f in findings} == {"unused_import_bad.py"}, rendered
    assert files_checked > 150


@pytest.mark.parametrize("package", AUDITED_PACKAGES)
def test_dunder_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} must declare __all__"
    assert sorted(set(exported)) == sorted(exported), f"{package}: duplicate exports"
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists unresolvable {name!r}"


def test_mypy_strict_packages():
    """Strict typing gate; skipped where mypy is not installed (CI runs it)."""
    pytest.importorskip("mypy")
    from mypy import api as mypy_api

    stdout, stderr, status = mypy_api.run(
        [
            "--config-file",
            str(REPO_ROOT / "mypy.ini"),
            "-p",
            "repro.core",
            "-p",
            "repro.crypto",
            "-p",
            "repro.persist",
            "-p",
            "repro.analysis",
        ]
    )
    assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"
