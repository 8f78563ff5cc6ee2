"""Smoke tests: every shipped example must run end-to-end.

Each example is executed in-process (importing its ``main``) so failures
surface as ordinary test failures with tracebacks, and the suite keeps the
documentation honest — an API change that breaks an example breaks CI.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# mobile_topk and attack_analysis are exercised by the benchmark suite's
# heavier machinery; the remaining examples each run once below (an example
# that both runs and has its key claim asserted is covered by one test).


def test_sigma_tuning_runs(capsys):
    _load_example("sigma_tuning").main()
    out = capsys.readouterr().out
    assert "cross-validated optimum" in out


def test_quickstart_reports_equivalence(capsys):
    _load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "matches ordinary inverted index ranking: True" in out


def test_enterprise_sharing_enforces_acl(capsys):
    _load_example("enterprise_sharing").main()
    out = capsys.readouterr().out
    assert "not a member of group 'gamma'" in out
    assert "(none — no readable documents)" in out


def test_persistent_index_roundtrip_confirmed(capsys):
    _load_example("persistent_index").main()
    out = capsys.readouterr().out
    assert "matches the original deployment: True" in out
