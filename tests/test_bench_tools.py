"""The bookkeeping of the tools in ``tools/``: the pair table's signs and
verdicts, the committed record's shape, the count gate's exact comparison
— on hand-made reports, without running a benchmark — and the
reachability census: its classes on a tiny package of its own, and its
rows and pinned e2e targets against the defs under ``src/repro``."""

from __future__ import annotations

import functools
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import bench_counts  # noqa: E402
import bench_pairs  # noqa: E402
import reach  # noqa: E402

COUNTS = {
    "requests_per_query": 2.048,
    "elements_per_query": 50.316,
    "bytes_per_query": 3176.41,
    "replication.ops_logged_per_write": 151.64,
    "views.full_builds_per_op": 0.0,
    "router.coalesce_ratio": 0.0,
    "router.server_calls_per_query": 0.0,
    "cluster.server_calls_per_op": 3.11167,
    "router.ticks_per_query": 0.0,
    "index.decode_calls_per_op": 25.5,
}


def _run(seed: int, setup_s: float, throughput: float) -> dict:
    """One run's reports by workload, shaped as ``run.py --output`` writes them."""
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput_ops_s": {"value": throughput, "unit": "ops/s"},
    }
    end_to_end.update(
        (name, {"value": COUNTS[name], "unit": "count"})
        for name in ("requests_per_query", "elements_per_query", "bytes_per_query")
    )
    per_layer = {
        name: {"value": value, "unit": "count"}
        for name, value in COUNTS.items()
        if name not in end_to_end
    }
    environment = {"seed": seed, "seconds": 10.0, "quick": False, "commit": "unknown"}
    report = {"end_to_end": end_to_end, "per_layer": per_layer, "environment": environment}
    return {"mixed-write-read": report}


def test_pair_rows_sign_each_pair_in_the_metrics_direction():
    base = [_run(s, 2.0 + s / 100, 1000.0) for s in range(1, 11)]
    new = [_run(s, 1.7 + s / 100, 1000.0 if s == 1 else 1100.0) for s in range(1, 11)]
    rows = {row["metric"]: row for row in bench_pairs.pair_rows(base, new)}
    setup = rows["setup_s"]
    assert (setup["signs"], setup["won"], setup["verdict"]) == ("+" * 10, 10, "gain")
    assert round(setup["base"], 9) == 2.055 and round(setup["change"], 4) == -0.146
    # Higher is better for throughput; a tie counts for neither side, so
    # nine wins in ten is exactly enough.
    throughput = rows["throughput_ops_s"]
    assert throughput["signs"] == "=" + "+" * 9 and throughput["verdict"] == "gain"
    # Identical counts: all ties, no verdict.
    bytes_row = rows["bytes_per_query"]
    assert bytes_row["signs"] == "=" * 10 and bytes_row["verdict"] == "—"


def test_a_win_inside_the_base_spread_is_no_gain():
    base = [_run(s, [1.0, 2.0][s % 2], 1000.0) for s in range(1, 11)]
    new = [_run(s, [0.99, 1.99][s % 2], 1000.0) for s in range(1, 11)]
    setup = {row["metric"]: row for row in bench_pairs.pair_rows(base, new)}["setup_s"]
    assert setup["won"] == 10 and setup["verdict"] == "—"


def test_the_record_holds_medians_environment_and_the_seed_one_counts():
    runs = [_run(s, 1.0 + s, 900.0 + s) for s in (3, 1, 2)]
    runs[0]["mixed-write-read"]["end_to_end"]["bytes_per_query"]["value"] = 1.0
    record = bench_pairs.make_record(runs, [3, 1, 2], "abc123")
    setup = record["workloads"]["mixed-write-read"]["end_to_end"]["setup_s"]
    assert setup["median"] == 3.0 and setup["unit"] == "s"
    assert setup["q1"] <= setup["median"] <= setup["q3"]
    assert record["environment"]["seeds"] == [3, 1, 2]
    assert record["environment"]["commit"] == "abc123"
    assert "seed" not in record["environment"]
    assert record["counts"] == {"seed": 1, "workloads": {"mixed-write-read": COUNTS}}


def test_the_count_gate_compares_exactly():
    assert bench_counts.differences(COUNTS, dict(COUNTS)) == []
    moved = dict(COUNTS, bytes_per_query=3176.41 + 1e-9)
    (line,) = bench_counts.differences(COUNTS, moved)
    assert line.startswith("bytes_per_query: recorded 3176.41, measured 3176.41")
    assert bench_counts.differences({}, COUNTS)[0].startswith("requests_per_query")


def test_the_count_gate_refuses_medians_the_counts_have_left():
    """A timed median of a paper unit more than 5 % from the record's own
    count is a stale record; one 4 % off is not."""
    runs = [_run(s, 1.0, 900.0) for s in (1, 2, 3)]
    record = bench_pairs.make_record(runs, [1, 2, 3], "abc123")
    assert bench_counts.stale_medians(record) == []
    medians = record["workloads"]["mixed-write-read"]["end_to_end"]
    medians["elements_per_query"]["median"] = COUNTS["elements_per_query"] * 1.04
    assert bench_counts.stale_medians(record) == []
    medians["bytes_per_query"]["median"] = 1.27 * COUNTS["bytes_per_query"]
    (line,) = bench_counts.stale_medians(record)
    assert line.startswith("mixed-write-read: bytes_per_query median 4034.")


PACKAGE = """
from typing import overload


def used():
    return 1


def test_only():
    return 2


def unreached():
    return 3


@overload
def stub(x: int) -> int: ...
def stub(x):
    return x


class Base:
    def hook(self):
        raise NotImplementedError
"""


def test_the_census_classes_each_def_by_what_enters_it(tmp_path):
    """Run under the hook, a user and a test of a tiny package class its
    defs; the overload stub and a ``NotImplementedError`` body are not
    counted, and a row whose def is used or gone is stale."""
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text(textwrap.dedent(PACKAGE))
    run = [sys.executable, "-c"]
    users = reach.record([[*run, "import pkg; pkg.used(); pkg.stub(1)"]], tmp_path / "u", src)
    tests = reach.record([[*run, "import pkg; pkg.used(); pkg.test_only()"]], tmp_path / "t", src)
    rows = {"pkg:test_only": "reference", "pkg:used": "observer", "pkg:gone": "fault"}
    classes, problems = reach.classify(reach.defs(src), users, tests, rows, set())
    named = {kind: [(d.key, reason) for d, reason in defs] for kind, defs in classes.items()}
    assert named == {
        "used": [("pkg:used", ""), ("pkg:stub", "")],
        "test-only": [("pkg:test_only", "reference")],
        "unreached": [("pkg:unreached", "")],
    }
    assert problems == [
        "unreached: pkg:unreached (2 lines)",
        "stale row: pkg:used covers no test-only def",
        "stale row: pkg:gone covers no test-only def",
    ]
    # Without its row the test-only def is a finding of its own.
    _, problems = reach.classify(reach.defs(src), users, tests, {}, set())
    assert "no row: pkg:test_only (2 lines) is reached only by tests" in problems


def test_a_source_file_edited_during_the_census_fails_it(tmp_path):
    """A file edited while the commands run would leave its defs matched
    against line numbers it no longer has; the census names it instead."""
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    init = src / "pkg" / "__init__.py"
    init.write_text(textwrap.dedent(PACKAGE))
    before = reach.sources(src)
    reach.check_unchanged(src, before)
    run = [sys.executable, "-c"]
    edit = f"import pathlib; p = pathlib.Path({str(init)!r}); p.write_text('#\\n' + p.read_text())"
    reach.record([[*run, "import pkg; pkg.used()"], [*run, edit]], tmp_path / "u", src)
    with pytest.raises(RuntimeError) as excinfo:
        reach.check_unchanged(src, before)
    assert str(excinfo.value) == f"{init} changed during the census; rerun"


@functools.cache
def _census_keys() -> tuple[frozenset[str], frozenset[str]]:
    """The keys of every counted ``src/repro`` def, and of those ``pinned``."""
    defs = reach.defs(reach.SRC)
    return frozenset(d.key for d in defs), frozenset(reach.pinned(defs))


@pytest.mark.parametrize("row", sorted(reach.ROWS))
def test_each_census_row_names_a_def_in_src_and_one_reason(row):
    """A row whose def was renamed or deleted is stale: tier-1 sees that at
    once, without the census's runs, and a module row must still hold defs."""
    assert reach.REASON.fullmatch(reach.ROWS[row])
    keys, _ = _census_keys()
    assert row in keys if ":" in row else any(key.startswith((f"{row}:", f"{row}.")) for key in keys)


_spec = importlib.util.spec_from_file_location("e2e_tracing", reach.TARGETS_FILE)
tracing = importlib.util.module_from_spec(_spec)  # type: ignore[arg-type]
_spec.loader.exec_module(tracing)  # type: ignore[union-attr]


@pytest.mark.parametrize(
    "target", tracing.TARGETS, ids=[".".join(filter(None, t[2:])) for t in tracing.TARGETS]
)
def test_each_harness_target_is_a_pinned_def(target):
    """``pinned`` maps every e2e ``TARGETS`` row to the def it wraps (an
    alias such as ``coalesced_fetch`` to the def it is bound to), so a
    wrapped def needs no hand-written row."""
    _, module, owner, attr = target
    raw = vars(tracing.target_owner(module, owner))[attr]
    function = getattr(raw, "__func__", raw)
    assert f"{function.__module__}:{function.__qualname__}" in _census_keys()[1]
