"""Targeted cases for the ``obs-discipline`` rule.

The checker reads the metric names off the live catalog, so there is no
mirror to drift.  That every ``*Stats`` field is exported is checked on
the real export, in ``tests/test_cli_obs.py``.
"""

import pytest

from repro.analysis import analyze_source


def _lint(source: str, module: str):
    return analyze_source(source, module=module, rules=["obs-discipline"])


class TestCatalogNameSubRule:
    """The literal-name check applies outside repro.core too."""

    def test_undeclared_literal_name_fires(self):
        findings = _lint(
            "def wire(registry):\n"
            "    return registry.counter('made_up_total')\n",
            module="repro.obs.instruments",
        )
        assert [f.rule for f in findings] == ["obs-discipline"]
        assert "made_up_total" in findings[0].message

    def test_catalog_literal_is_clean(self):
        findings = _lint(
            "def wire(registry):\n"
            "    return registry.counter('cluster_reads_total')\n",
            module="repro.obs.instruments",
        )
        assert findings == []

    @pytest.mark.parametrize(
        "module", ["repro.obs.instruments", "repro.obs.registry", "repro.persist.mod"]
    )
    def test_dynamic_names_fire_everywhere_repro_obs_included(self, module):
        findings = _lint(
            "def wire(registry, name):\n"
            "    return registry.histogram(f'{name}_total')\n",
            module=module,
        )
        assert [f.rule for f in findings] == ["obs-discipline"]
        assert "non-literal" in findings[0].message

    def test_bare_function_named_counter_is_not_instrument_creation(self):
        findings = _lint(
            "def counter(x):\n"
            "    return x\n"
            "def use():\n"
            "    return counter('anything')\n",
            module="repro.persist.fixture_mod",
        )
        assert findings == []


class TestCoreSubRules:
    def test_span_inside_with_is_sanctioned(self):
        findings = _lint(
            "def serve(tracer):\n"
            "    with tracer.span('serve') as span:\n"
            "        span.annotate(ok=True)\n",
            module="repro.core.fixture_mod",
        )
        assert findings == []

    def test_span_outside_with_fires_even_when_assigned(self):
        findings = _lint(
            "def serve(tracer):\n"
            "    span = tracer.span('serve')\n"
            "    return span\n",
            module="repro.core.fixture_mod",
        )
        assert [f.rule for f in findings] == ["obs-discipline"]

    def test_begin_and_end_trace_are_exempt(self):
        findings = _lint(
            "def session(tracer):\n"
            "    trace_id = tracer.begin_trace('query')\n"
            "    tracer.end_trace(trace_id)\n",
            module="repro.core.fixture_mod",
        )
        assert findings == []

    def test_rule_is_scoped(self):
        source = "print('telemetry by stdout')\n"
        assert _lint(source, module="repro.core.cluster")
        assert _lint(source, module="repro.cli") == []
        assert _lint(source, module="bare_fixture") == []
