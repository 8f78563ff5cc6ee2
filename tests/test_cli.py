"""End-to-end tests for the repro-index CLI."""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import DEFAULT_SECRET, _corpus_from_directory, main
from repro.crypto.keys import GroupKeyService
from repro.persist import load_cluster


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    alpha = root / "alpha"
    beta = root / "beta"
    alpha.mkdir()
    beta.mkdir()
    (alpha / "a1.txt").write_text(
        "reactor calibration reactor dosing schedule reactor"
    )
    (alpha / "a2.txt").write_text("dosing budget meeting notes calibration")
    (beta / "b1.txt").write_text("camera calibration defect detection camera")
    (beta / "b2.txt").write_text("defect catalogue revision maintenance")
    return root


@pytest.fixture(scope="module")
def index_file(docs_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("idx") / "index.json"
    code = main(
        [
            "build",
            "--input",
            str(docs_dir),
            "--output",
            str(path),
            "--r",
            "1.5",
        ]
    )
    assert code == 0
    return path


class TestBuild:
    def test_index_written(self, index_file):
        assert index_file.exists()
        assert index_file.stat().st_size > 0

    def test_missing_input_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(
            ["build", "--input", str(empty), "--output", str(tmp_path / "i.json")]
        )
        assert code == 2


class TestInfo:
    def test_info_prints_stats(self, index_file, capsys):
        assert main(["info", "--index", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "posting elements" in out
        assert "alpha" in out and "beta" in out


class TestQuery:
    def test_query_finds_documents(self, index_file, capsys):
        code = main(
            ["query", "--index", str(index_file), "--term", "reactor", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "a1.txt" in out

    def test_group_restriction(self, index_file, capsys):
        code = main(
            [
                "query",
                "--index",
                str(index_file),
                "--term",
                "calibration",
                "--k",
                "5",
                "--groups",
                "beta",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "b1.txt" in out
        assert "a1.txt" not in out and "a2.txt" not in out

    def test_wrong_secret_no_results(self, index_file, capsys):
        code = main(
            [
                "--secret",
                "ab" * 32,
                "query",
                "--index",
                str(index_file),
                "--term",
                "reactor",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no readable results" in out

    def test_default_secret_is_documented_constant(self):
        assert len(bytes.fromhex(DEFAULT_SECRET)) >= 32


@pytest.fixture(scope="module")
def snapshot_file(docs_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("snap") / "cluster.json"
    code = main(
        [
            "snapshot",
            "--input",
            str(docs_dir),
            "--output",
            str(path),
            "--servers",
            "3",
            "--replication",
            "2",
            "--lag",
            "2",
            "--r",
            "1.5",
        ]
    )
    assert code == 0
    return path


class TestSnapshotRestore:
    def test_snapshot_written(self, snapshot_file):
        assert snapshot_file.exists()
        assert snapshot_file.stat().st_size > 0

    def test_restore_prints_state(self, snapshot_file, capsys):
        assert main(["restore", "--snapshot", str(snapshot_file)]) == 0
        out = capsys.readouterr().out
        assert "posting elements" in out
        assert "catch-up backlog" in out

    def test_restore_converge_and_query(self, snapshot_file, capsys):
        code = main(
            [
                "restore",
                "--snapshot",
                str(snapshot_file),
                "--converge",
                "--term",
                "reactor",
                "--k",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "a1.txt" in out

    def test_restore_group_restriction(self, snapshot_file, capsys):
        code = main(
            [
                "restore",
                "--snapshot",
                str(snapshot_file),
                "--term",
                "calibration",
                "--k",
                "5",
                "--groups",
                "beta",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "b1.txt" in out
        assert "a1.txt" not in out and "a2.txt" not in out

    def test_restore_reads_a_build_output_and_info_a_snapshot(
        self, index_file, snapshot_file, capsys
    ):
        """One dump format: ``build`` writes a one-server cluster's."""
        argv = ["restore", "--snapshot", str(index_file), "--term", "reactor"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "servers          : 1 (replication=1" in out and "a1.txt" in out
        assert main(["info", "--index", str(snapshot_file)]) == 0
        assert "alpha, beta" in capsys.readouterr().out


class TestUnreadableDumps:
    """A dump path that is missing or names a directory ends in one
    ``error:`` line naming it and exit 2, never a traceback."""

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize(
        "argv",
        ["query --index {} --term reactor", "restore --snapshot {}", "cluster-status --snapshot {}"],
    )
    def test_one_error_line_and_exit_2(self, argv, kind, tmp_path, capsys):
        path = tmp_path / "dump.json"
        if kind == "directory":
            path.mkdir()
        code = main([arg.format(path) for arg in argv.split()])
        captured = capsys.readouterr()
        assert code == 2
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and str(path) in line
        assert captured.out == ""


class TestDocumentIdsNeverReachTheServer:
    """The doc half of Def. 2 on the shipped path: ``build`` names each
    document by its path relative to ``--input``, paths differ in length
    (one is not ASCII), and yet every ciphertext of every merged list is
    the same 42 bytes and the dump never spells a path out."""

    FILES = {
        "a.txt": "reactor calibration notes reactor",
        "alpha/quarterly-reactor-calibration-report.txt": "reactor dosing calibration",
        "beta/übersicht-ärger.txt": "reactor defect camera calibration",
        "beta/deep/nested/folder/notes-2009.txt": "calibration reactor budget",
    }

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("paths")
        for relative, text in self.FILES.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        dump = tmp_path_factory.mktemp("idx") / "index.json"
        assert main(["build", "--input", str(root), "--output", str(dump), "--r", "1.5"]) == 0
        return root, dump

    def test_every_ciphertext_is_42_bytes_whatever_its_path(self, built):
        root, dump = built
        doc_ids = _corpus_from_directory(root).doc_ids()
        assert sorted(doc_ids) == sorted(self.FILES)
        assert len({len(doc_id.encode()) for doc_id in doc_ids}) == len(doc_ids)
        cluster, plan, _ = load_cluster(
            dump, GroupKeyService(master_secret=bytes.fromhex(DEFAULT_SECRET))
        )
        lengths = Counter(
            len(element.ciphertext)
            for list_id in range(plan.num_lists)
            for element in cluster.server(0).export_list(list_id)
        )
        assert sum(lengths.values()) == cluster.num_elements > 0
        assert set(lengths) == {42}

    def test_a_reloaded_index_still_names_every_path(self, built, capsys):
        _, dump = built
        assert main(["query", "--index", str(dump), "--term", "reactor", "--k", "10"]) == 0
        out = capsys.readouterr().out
        assert all(relative in out for relative in self.FILES)

    def test_the_dump_holds_no_doc_id(self, built):
        _, dump = built
        text = dump.read_text(encoding="utf-8")
        for doc_id in self.FILES:
            escaped = json.dumps(doc_id)[1:-1]
            assert doc_id not in text and escaped not in text
            assert Path(doc_id).name not in text
