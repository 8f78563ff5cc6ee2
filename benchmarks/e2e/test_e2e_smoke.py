"""Smoke test of the e2e benchmark harness (``--quick`` path, tiny corpus).

Collected by the tier-1 ``pytest`` run.  It checks the harness, not the
system's speed: the output schema, the correctness checker's teeth, the
span arithmetic, that tracing leaves nothing behind, seed determinism,
``compare.py``'s verdicts and the driver contract of ``run.py``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import metrics as catalog  # noqa: E402
import run as run_cli  # noqa: E402
import tracing  # noqa: E402
from workloads import QUICK, WORKLOAD_CLASSES, DirectHot  # noqa: E402


def _quick(name: str, seed: int, workdir: Path, trace: bool = True) -> dict:
    return harness.run_workload(
        name, seed=seed, seconds=0, trace=trace, scale=QUICK, workdir=workdir, passes=2
    )


@pytest.fixture(scope="module")
def reports(tmp_path_factory: pytest.TempPathFactory) -> dict[str, dict]:
    workdir = tmp_path_factory.mktemp("e2e")
    return {name: _quick(name, 1, workdir) for name in catalog.WORKLOADS}


@pytest.fixture(scope="module")
def hot() -> DirectHot:
    workload = DirectHot(QUICK, 1)
    workload.build()
    workload.prepare()
    return workload


def test_reports_carry_every_named_metric_with_its_unit(reports):
    for name, report in reports.items():
        for section, metrics in (
            ("end_to_end", catalog.END_TO_END),
            ("per_layer", catalog.PER_LAYER),
        ):
            expected = {m.name: m.unit for m in metrics if name in m.workloads}
            found = {metric: entry["unit"] for metric, entry in report[section].items()}
            assert found == expected, (name, section)
            for entry in report[section].values():
                assert isinstance(entry["value"], (int, float))
        assert report["passes"] == 2
        assert report["failed"] == 0, report["failure_reasons"]
        assert report["end_to_end"]["failed_ops_fraction"]["value"] == 0
    for metric in catalog.BY_NAME.values():
        assert catalog.NAME_RE.match(metric.name) and catalog.UNIT_RE.match(metric.unit)


def test_traced_pass_separates_the_layers(reports):
    def layer(workload: str, metric: str) -> float:
        return reports[workload]["per_layer"][metric]["value"]

    for name in catalog.WORKLOADS:
        on_router = name == "coordinator-concurrent"
        assert (layer(name, "router.self_us_per_op") > 0) == on_router
        writes = name == "mixed-write-read"
        assert (layer(name, "replication.ops_logged_per_write") > 0) == writes
        assert (layer(name, "replication.record_self_us_per_write") > 0) == writes
        assert (layer(name, "views.patch_self_us_per_write") > 0) == writes
    assert layer("mixed-write-read", "persist.snapshot_bytes") > 0
    assert not reports["mixed-write-read"]["guard_violations"]
    assert not reports["coordinator-concurrent"]["guard_violations"]


def test_benchmark_json_agrees_with_the_catalog():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["run_seconds"] == run_cli.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in document["workloads"]} == catalog.WORKLOADS
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.driver_end_to_end()
    ]
    assert document["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.driver_per_layer()
    ]
    assert any(m["name"] == "setup_s" for m in document["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in document["workloads"])


def test_checker_flags_corrupted_and_unreadable_results(hot, monkeypatch):
    clean = hot.run_pass()
    assert clean.samples and hot.verify(clean) == []
    who, terms, ranked = next(s for s in clean.samples if len(s[2]) >= 2)

    def reasons_for(forged):
        forged_pass = copy.copy(clean)
        forged_pass.samples = [(who, terms, tuple(forged))]
        return hot.verify(forged_pass)

    # A corrupted score breaks the top-k bound (or the ordering).
    doc_id, score = ranked[0]
    assert reasons_for([(doc_id, score * 3 + 1.0), *ranked[1:]])
    # A reordered ranking breaks the shape check.
    assert "not descending" in reasons_for(list(reversed(ranked)))[0]
    # A document of a group the principal is not enrolled in: access control.
    foreign = next(
        doc for doc, group in hot.model.doc_group.items() if group not in hot.groups[who]
    )
    assert "access control" in reasons_for([(foreign, score), *ranked[1:]])[0]
    # A dropped top document is noticed as missing.
    assert reasons_for(ranked[1:])

    # And the harness books a failed check as a failed op.
    real = hot.run_pass

    def forging_pass(tracer=None):
        result = real(tracer)
        result.samples[0] = (who, terms, ((foreign, score),))
        return result

    monkeypatch.setattr(hot, "run_pass", forging_pass)
    result, _ = harness._one_pass(hot)
    assert result.failed == 1 and "access control" in result.reasons[0]


def test_span_self_times_sum_to_the_root_and_wrappers_are_removed(hot, tmp_path):
    def raw_targets():
        return [
            tracing.target_owner(module_name, class_name).__dict__[attr]
            for _, module_name, class_name, attr in tracing.TARGETS
        ]

    before = raw_targets()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(a is not b for a, b in zip(raw_targets(), before))
        who, terms = hot.tape[0]
        with tracer.root("op.query", 7):
            hot.clients[who].query_multi_batched(terms, hot.k)
    assert all(a is b for a, b in zip(raw_targets(), before))

    spans, selfs = tracer.finished(), tracer.self_times()
    assert spans[0].name == "op.query" and spans[0].parent == -1
    assert len(spans) > 5 and all(span.op == 7 for span in spans)
    assert {s.name.split(".")[0] for s in spans} >= {"client", "cluster", "server", "views"}
    assert all(self_s >= 0 for self_s in selfs)
    assert sum(selfs) == pytest.approx(spans[0].duration, rel=1e-9)
    # The per-layer totals are the same sum, net of the wrappers' own cost.
    accounted = sum(entry["self_s"] for entry in tracer.by_name().values())
    assert 0.5 * spans[0].duration < accounted < spans[0].duration

    tracer.write(tmp_path / "trace-direct-hot.json", "direct-hot")
    written = json.loads((tmp_path / "trace-direct-hot.json").read_text())
    assert len(written["spans"]) == len(spans)
    assert len(written["spans"][0]) == len(written["columns"])


def test_one_seed_repeats_the_counts_and_another_changes_the_tape(reports, tmp_path):
    name = "mixed-write-read"
    again = _quick(name, 1, tmp_path)
    for metric in (
        "requests_per_query", "elements_per_query", "bytes_per_query", "failed_ops_fraction",
    ):
        assert again["end_to_end"][metric]["value"] == reports[name]["end_to_end"][metric]["value"]
    for metric in catalog.COUNT_LAYER_METRICS:
        assert again["per_layer"][metric]["value"] == reports[name]["per_layer"][metric]["value"]

    def tape(seed: int) -> list:
        workload = WORKLOAD_CLASSES["direct-hot"](QUICK, seed)
        workload.build()
        workload.prepare()
        return workload.tape

    assert tape(1) == tape(1)
    assert tape(1) != tape(2)


def test_compare_verdicts(reports, tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"workloads": reports}))
    assert compare.main([str(base), str(base)]) == 0
    table = capsys.readouterr().out
    assert "regressed" not in table and "(base " in table
    assert sum(line.startswith("mixed-write-read") for line in table.splitlines()) == len(
        catalog.END_TO_END
    )

    worse = copy.deepcopy(reports)
    worse["direct-hot"]["end_to_end"]["throughput_ops_s"]["value"] /= 2
    worse["direct-cold"]["end_to_end"]["elements_per_query"]["value"] += 0.001
    new = tmp_path / "new.json"
    new.write_text(json.dumps({"workloads": worse}))
    assert compare.main([str(base), str(new)]) == 1
    rows = {
        tuple(line.split()[:2]): line for line in capsys.readouterr().out.splitlines()
    }
    assert rows[("direct-hot", "throughput_ops_s")].split()[-1] == "regressed"
    assert rows[("direct-cold", "elements_per_query")].endswith("regressed exact")
    assert rows[("direct-hot", "setup_s")].split()[-1] == "ok"

    # Spread wider than the bound with overlapping samples: cannot tell.
    metric = catalog.BY_NAME["throughput_ops_s"]
    verdict, *_ = compare.judge(metric, [100, 140, 60, 100], [90, 130, 50, 95], True)
    assert verdict == "unresolved"


def test_run_py_prints_the_driver_contract_line(monkeypatch, capsys):
    monkeypatch.setenv("PYTHONHASHSEED", "0")  # measure in-process, no respawn
    for trace, wanted in ((0, catalog.driver_end_to_end()), (1, catalog.driver_per_layer())):
        argv = ["--workload", "direct-cold", "--quick", "--seed", "3", "--trace", str(trace)]
        code = run_cli.main(argv)
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        # QUICK shrinks direct-cold below the view LRU, so its guard fires
        # (reported, not enforced at this scale).
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
        assert list(result["metrics"]) == [m.name for m in wanted]
        assert all(
            entry["unit"] == m.unit and isinstance(entry["value"], (int, float))
            for entry, m in zip(result["metrics"].values(), wanted)
        )
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_run_py_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "direct-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},  # no PYTHONPATH: only the copied files
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
