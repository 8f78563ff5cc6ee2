"""Per-rule checker tests driven by the fixture snippets.

Scoped rules (``determinism`` watches ``repro.core``,
``exception-discipline`` watches ``repro.persist``/``repro.cli``) are fed
their fixture sources under an explicit in-scope module name, since
fixture paths derive neutral bare-stem modules.
"""

from configparser import ConfigParser
from pathlib import Path

import pytest

from repro.analysis import all_checkers, analyze_source
from repro.analysis.checkers.typed_defs import STRICT_PACKAGES

FIXTURES = Path(__file__).parent / "analysis_fixtures"

# rule id -> (fixture stem base, module the fixture is linted as)
RULE_FIXTURES = {
    "crypto-construct": ("crypto_construct", None),
    "crypto-key-leak": ("crypto_key_leak", None),
    "replication-bypass": ("replication_bypass", None),
    "epoch-discipline": ("epoch_discipline", "repro.core.router"),
    "determinism": ("determinism", "repro.core.fixture_mod"),
    "exception-discipline": ("exception_discipline", "repro.persist.fixture_mod"),
    "consistency-exhaustiveness": ("consistency", None),
    "export-sanity": ("export_sanity", None),
    "obs-discipline": ("obs_discipline", "repro.core.fixture_mod"),
    "typed-defs": ("typed_defs", "repro.core.fixture_mod"),
    "unused-import": ("unused_import", None),
}


def _lint(stem: str, module: str | None):
    path = FIXTURES / f"{stem}.py"
    return analyze_source(
        path.read_text(), module=module or stem, path=str(path)
    )


def test_every_registered_rule_has_a_fixture_pair():
    assert set(RULE_FIXTURES) == set(all_checkers())
    for base, _ in RULE_FIXTURES.values():
        assert (FIXTURES / f"{base}_bad.py").exists()
        assert (FIXTURES / f"{base}_good.py").exists()


def test_issue_floor_of_six_distinct_rules():
    assert len(all_checkers()) >= 6


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_bad_fixture_fires_only_its_rule(rule):
    base, module = RULE_FIXTURES[rule]
    findings = _lint(f"{base}_bad", module)
    assert findings, f"{rule}: bad fixture produced no findings"
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_good_fixture_is_clean(rule):
    base, module = RULE_FIXTURES[rule]
    assert _lint(f"{base}_good", module) == []


def test_bad_fixtures_report_real_locations():
    for rule, (base, module) in sorted(RULE_FIXTURES.items()):
        path = FIXTURES / f"{base}_bad.py"
        lines = path.read_text().splitlines()
        for finding in _lint(f"{base}_bad", module):
            assert 1 <= finding.line <= len(lines), (rule, finding)
            assert finding.col >= 1


def test_a_match_over_a_consistency_enum_must_cover_every_member():
    """A ``match`` is checked like an if/elif chain: cases that miss a
    member with no wildcard give one finding; covering them, or a
    ``case _``, gives none."""
    bad = _lint("consistency_match_bad", None)
    assert [f.rule for f in bad] == ["consistency-exhaustiveness"]
    assert "match over ReadConsistency" in bad[0].message and "QUORUM" in bad[0].message
    assert _lint("consistency_match_good", None) == []


def test_a_host_thread_or_timer_import_in_the_core_fails_determinism():
    """``repro.core`` has one scheduler, the coordinator's tick agenda: a
    host thread or timer module is refused at import, submodules too."""
    imports = {
        f.message.split(" in ")[0]
        for f in _lint("determinism_bad", "repro.core.fixture_mod")
        if f.message.startswith("import ")
    }
    assert imports == {"import threading", "import sched"}
    source = "import concurrent.futures\nfrom asyncio import sleep\nUSED = concurrent, sleep\n"
    assert [f.rule for f in analyze_source(source, module="repro.core.router")] == [
        "determinism",
        "determinism",
    ]
    assert analyze_source(source, module="repro.index.fixture_mod") == []


@pytest.mark.parametrize(
    "module", ["threading", "_thread", "asyncio", "sched", "concurrent", "queue", "signal"]
)
def test_each_host_concurrency_module_is_refused_in_the_core(module):
    source = f"import {module}\nimport {module}.sub\nfrom {module} import x\nUSED = {module}, x\n"
    findings = analyze_source(source, module="repro.obs.fixture_mod")
    assert [(f.rule, f.line) for f in findings] == [
        ("determinism", 1),
        ("determinism", 2),
        ("determinism", 3),
    ]


def test_a_relative_import_of_a_like_named_sibling_is_not_a_host_module():
    source = (
        "from .queue import Backlog\nfrom ..signal import Tone\nimport queued\n"
        "USED = Backlog, Tone, queued\n"
    )
    assert analyze_source(source, module="repro.core.fixture_mod") == []


def test_typed_defs_reports_each_def_once_naming_what_is_missing():
    messages = {
        f.message.split(" in ")[0]: f.message.split(" leaves ")[1].split(" unannotated")[0]
        for f in _lint("typed_defs_bad", "repro.core.fixture_mod")
    }
    assert messages == {
        "def untyped()": "a, b, return",
        "def no_return()": "return",
        "def half_typed()": "b",
        "def star_args()": "args",
        "def __init__()": "return",
        "def method()": "other",
        "def nested()": "x, return",
        "def static()": "first",  # no self to skip on a staticmethod
        "def fetch()": "timeout",
    }


def test_typed_defs_is_silent_outside_the_strict_packages():
    path = FIXTURES / "typed_defs_bad.py"
    for module in ("repro.index.fixture_mod", "repro.corefoo", "typed_defs_bad"):
        assert analyze_source(path.read_text(), module=module, path=str(path)) == []


def test_typed_defs_package_list_matches_mypy_ini():
    """The rule's scope must track the strict sections of mypy.ini."""
    config = ConfigParser()
    config.read(Path(__file__).parents[1] / "mypy.ini")
    strict = {
        section.removeprefix("mypy-").removesuffix(".*")
        for section in config.sections()
        if config.getboolean(section, "disallow_untyped_defs", fallback=False)
        and config.getboolean(section, "disallow_incomplete_defs", fallback=False)
    }
    assert strict == STRICT_PACKAGES


def test_a_placement_read_fires_outside_its_owning_layers_only():
    """Any layer but the cluster and persist ones that own the placement
    table is flagged for reading it; a batch built anywhere, the router
    included, carries no epoch and is nobody's finding."""
    routed = _lint("epoch_discipline_bad", "repro.core.router")
    assert [f.rule for f in routed] == ["epoch-discipline"]
    assert "placement table" in routed[0].message
    for owner in ("repro.core.cluster", "repro.persist.clusterstate"):
        assert _lint("epoch_discipline_bad", owner) == []
    batch = "from repro.core.protocol import BatchFetchRequest\nBatchFetchRequest(())\n"
    assert analyze_source(batch, module="repro.core.router", path="batch.py") == []


@pytest.mark.parametrize("module", [None, "repro.persist.fixture_mod"])
def test_every_list_mutator_named_in_the_bad_fixture_is_flagged(module):
    """``repro.persist`` has no exemption either: restore replays the log."""
    messages = " ".join(f.message for f in _lint("replication_bypass_bad", module))
    for mutator in ("add_sorted_by_trs", "pop_at"):
        assert f"MergedPostingList.{mutator}()" in messages
    assert "apply_replicated_ops()" in messages and "(._lists)" in messages


_APPLY_CALLERS = ("repro.core.cluster", "repro.core.replication", "repro.core.server")


def test_replica_ops_are_applied_only_by_the_write_pipeline():
    """One mutation path: ``apply_replicated_ops`` is called by the
    cluster (a primary's ops), the replication manager (a follower's)
    and the server that defines it, and nowhere else."""
    for module in ("repro.core.system", "repro.persist.clusterstate", None):
        (finding,) = _lint("replication_apply_bad", module)
        assert finding.rule == "replication-bypass"
        assert "apply_replicated_ops()" in finding.message
    for module in _APPLY_CALLERS:
        assert _lint("replication_apply_bad", module) == []
        assert _lint("replication_apply_good", module) == []


def test_a_shard_is_built_only_by_the_cluster():
    """One deployment shape: ``ZerberRServer(...)`` anywhere but
    ``repro.core.cluster`` is a server with no log and no write gate."""
    source = "from repro.core import server\nshard = server.ZerberRServer(keys, 3)\n"
    (finding,) = analyze_source(source, module="repro.core.system", path="s.py")
    assert finding.rule == "replication-bypass" and "ZerberRServer" in finding.message
    assert analyze_source(source, module="repro.core.cluster", path="c.py") == []


def test_unused_import_names_each_unread_binding_once():
    """``import a.b`` binds ``a``; an alias binds its alias; an import
    inside a function is checked too."""
    names = [f.message.split("'")[1] for f in _lint("unused_import_bad", None)]
    assert names == ["os", "OrderedDict", "encode", "floor"]
