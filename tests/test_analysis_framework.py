"""zlint framework tests: suppressions, CLI contract, report shape."""

import json
from pathlib import Path

from repro.analysis import (
    Finding,
    all_checkers,
    analyze_source,
    main,
    module_name_for_path,
)

FIXTURES = Path(__file__).parent / "analysis_fixtures"

BAD_SNIPPET = """\
from repro.crypto.cipher import StreamCipher


def rogue(key: bytes) -> StreamCipher:
    return StreamCipher(key)
"""


def test_bad_snippet_fires_without_suppression():
    findings = analyze_source(BAD_SNIPPET, module="fixture_mod")
    assert [f.rule for f in findings] == ["crypto-construct"]


def test_line_suppression_silences_matching_rule():
    source = BAD_SNIPPET.replace(
        "return StreamCipher(key)",
        "return StreamCipher(key)  # zlint: disable=crypto-construct -- test",
    )
    assert analyze_source(source, module="fixture_mod") == []


def test_line_suppression_ignores_other_rules():
    source = BAD_SNIPPET.replace(
        "return StreamCipher(key)",
        "return StreamCipher(key)  # zlint: disable=determinism",
    )
    findings = analyze_source(source, module="fixture_mod")
    assert [f.rule for f in findings] == ["crypto-construct"]


def test_line_suppression_only_covers_its_own_line():
    source = "# zlint: disable=crypto-construct\n" + BAD_SNIPPET
    findings = analyze_source(source, module="fixture_mod")
    assert [f.rule for f in findings] == ["crypto-construct"]


def test_file_suppression_covers_whole_file():
    source = "# zlint: disable-file=crypto-construct\n" + BAD_SNIPPET
    assert analyze_source(source, module="fixture_mod") == []


def test_suppression_accepts_comma_separated_rules():
    source = BAD_SNIPPET.replace(
        "return StreamCipher(key)",
        "return StreamCipher(key)  # zlint: disable=determinism, crypto-construct",
    )
    assert analyze_source(source, module="fixture_mod") == []


def test_syntax_error_becomes_pseudo_finding():
    findings = analyze_source("def broken(:\n", module="fixture_mod")
    assert len(findings) == 1
    assert findings[0].rule == "syntax-error"


def test_finding_render_format():
    finding = Finding(
        rule="crypto-construct", message="no", path="src/x.py", line=3, col=5
    )
    assert finding.render() == "src/x.py:3:5: crypto-construct: no"


def test_module_name_for_path_anchors_at_src():
    assert module_name_for_path(Path("src/repro/core/server.py")) == "repro.core.server"
    assert module_name_for_path(Path("src/repro/__init__.py")) == "repro"
    assert (
        module_name_for_path(Path("tests/analysis_fixtures/determinism_bad.py"))
        == "determinism_bad"
    )


def test_rules_argument_restricts_checkers():
    source = (FIXTURES / "crypto_construct_bad.py").read_text()
    none = analyze_source(source, module="fixture_mod", rules=["determinism"])
    some = analyze_source(source, module="fixture_mod", rules=["crypto-construct"])
    assert none == []
    assert {f.rule for f in some} == {"crypto-construct"}


# -- command line -------------------------------------------------------------


def test_main_exit_zero_on_clean_path(capsys):
    assert main([str(FIXTURES / "crypto_construct_good.py")]) == 0
    assert "0 finding(s) in 1 file(s)" in capsys.readouterr().err


def test_main_exit_one_and_renders_findings(capsys):
    assert main([str(FIXTURES / "crypto_construct_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "crypto-construct" in out
    assert "crypto_construct_bad.py:9:" in out


def test_main_exit_two_on_missing_path(capsys):
    assert main(["tests/does_not_exist_anywhere"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_main_exit_two_on_unknown_rule(capsys):
    assert main([str(FIXTURES), "--rules", "not-a-rule"]) == 2
    assert "unknown rule id(s): not-a-rule" in capsys.readouterr().err


def test_main_json_report_shape(capsys):
    main([str(FIXTURES / "crypto_construct_bad.py"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["files_checked"] == 1
    assert report["findings"]
    finding = report["findings"][0]
    assert set(finding) == {"rule", "message", "path", "line", "col", "severity"}


def test_main_writes_report_file(tmp_path, capsys):
    report_path = tmp_path / "zlint-report.json"
    main([str(FIXTURES / "crypto_construct_bad.py"), "--output", str(report_path)])
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["files_checked"] == 1
    assert {f["rule"] for f in report["findings"]} == {"crypto-construct"}


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_checkers():
        assert rule in out


def test_cli_lint_subcommand_roundtrip(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["lint", str(FIXTURES / "crypto_construct_good.py")]) == 0
    assert cli_main(["lint", str(FIXTURES / "crypto_construct_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "crypto-construct" in out
