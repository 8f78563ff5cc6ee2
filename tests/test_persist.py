"""Tests for index persistence: the one dump, a cluster's, round-tripped."""

import base64
import json

import pytest

from repro import SystemConfig, ZerberRSystem
from repro.core.client import ZerberRClient
from repro.crypto.keys import GroupKeyService
from repro.errors import ConfigurationError
from repro.persist import (
    FORMAT_VERSION,
    load_cluster,
    merge_plan_to_dict,
    rstf_model_to_dict,
    save_cluster,
)
from repro.persist.encoders import merge_plan_from_dict, rstf_model_from_dict


@pytest.fixture(scope="module")
def built(micro_corpus):
    service = GroupKeyService(master_secret=b"p" * 32)
    system = ZerberRSystem.build(
        micro_corpus, SystemConfig(r=3.0, seed=4), key_service=service
    )
    return system, service


def _save(system, path):
    save_cluster(path, system.cluster, system.merge_plan, system.rstf_model)


def _load(path, secret=b"p" * 32):
    return load_cluster(path, GroupKeyService(master_secret=secret))


def _reader(system, path, secret):
    """A superuser client of the reloaded dump, keys rebuilt from *secret*
    (keys are trusted state, not part of the untrusted dump)."""
    service = GroupKeyService(master_secret=secret)
    cluster, plan, model = load_cluster(path, service)
    for group in system.corpus.groups():
        service.ensure_group(group)
    service.register("superuser", set(system.corpus.groups()))
    return ZerberRClient("superuser", service, cluster, model, plan)


class TestEncoders:
    def test_merge_plan_roundtrip(self, built):
        system, _ = built
        data = merge_plan_to_dict(system.merge_plan)
        assert merge_plan_from_dict(data) == system.merge_plan

    def test_rstf_model_roundtrip(self, built):
        system, _ = built
        data = rstf_model_to_dict(system.rstf_model)
        model = rstf_model_from_dict(data)
        assert model.terms() == system.rstf_model.terms()
        term = next(iter(model.terms()))
        assert model.get(term).transform(0.1) == system.rstf_model.get(
            term
        ).transform(0.1)


class TestSaveLoad:
    def test_roundtrip_preserves_query_results(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        _save(system, path)
        client = _reader(system, path, b"p" * 32)
        term = system.vocabulary.terms_by_frequency()[1]
        original = system.query(term, k=5)
        reloaded = client.query(term, k=5)
        assert reloaded.doc_ids() == original.doc_ids()
        assert [h.rscore for h in reloaded.hits] == [
            h.rscore for h in original.hits
        ]

    def test_roundtrip_preserves_lists_in_order_and_log_versions(
        self, built, tmp_path
    ):
        """Dumps carry each list in order and its log head, so replies
        stamped with applied versions stay comparable across a restart."""
        system, _ = built
        path = tmp_path / "index.json"
        _save(system, path)
        cluster, _, _ = _load(path)
        assert cluster.num_elements == system.cluster.num_elements
        built_server, loaded_server = system.cluster.server(0), cluster.server(0)
        for list_id in range(cluster.num_lists):
            assert loaded_server.visible_trs_values(
                list_id
            ) == built_server.visible_trs_values(list_id)
            assert cluster.primary_version(list_id) == (
                system.cluster.primary_version(list_id)
            )

    def test_wrong_secret_cannot_decrypt(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        _save(system, path)
        client = _reader(system, path, b"X" * 32)
        term = system.vocabulary.terms_by_frequency()[1]
        # All decryptions fail authentication -> zero hits, no crash.
        assert client.query(term, k=5).hits == ()


@pytest.fixture(scope="module", params=["one-server", "replicated"])
def dump(built, tmp_path_factory, request):
    """The text of a freshly saved dump: the built system's one-server
    cluster, or a two-server deployment of it at replication 2."""
    system, _ = built
    path = tmp_path_factory.mktemp("dumps") / "dump.json"
    if request.param == "one-server":
        _save(system, path)
    else:
        cluster, _ = system.deploy_cluster(num_servers=2, replication=2)
        save_cluster(path, cluster, system.merge_plan, system.rstf_model)
    return path.read_text()


def _refused(dump, tmp_path, damage, match=None):
    """Load *dump* after *damage*(payload); returns the error text, which
    names the file (and *match*)."""
    payload = json.loads(dump)
    damage(payload)
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match=str(path)) as excinfo:
        _load(path)
    if match is not None:
        assert match in str(excinfo.value)
    return str(excinfo.value)


def _b64(data):
    return base64.b64encode(data).decode()


def _logs(payload):
    return payload["cluster"]["replication_state"]["logs"]


def _run(payload):  # the run of the first list the dump holds elements of
    return next(log["run"] for log in _logs(payload).values() if log["run"])


class TestOneFormatVersion:
    """Older dumps hold elements no client of this build can open, so a
    restore that "succeeds" would answer every query empty: any version
    but the current one is refused."""

    # A v9 dump holds every replica's copy of a list; a v8 delete op names
    # its element by a bare ciphertext; a v7 element is nonce || body ||
    # tag and fails the v8 IV check; a v6 element spells its doc id out
    # after a 10-byte header; a v5 element carries a 16-byte nonce and a
    # SHAKE-256 keystream; a v4 element carries a truncated HMAC-SHA256
    # tag; a v3 element also spells its term out, so its length byte and
    # first three term bytes would pass for a term number.
    @pytest.mark.parametrize(
        "found", [1, 2, 3, 4, 5, 6, 7, 8, 9, "10", FORMAT_VERSION + 1, None]
    )
    def test_other_versions_are_refused_by_name(self, dump, tmp_path, found):
        assert json.loads(dump)["format_version"] == FORMAT_VERSION == 10
        message = _refused(dump, tmp_path, lambda p: p.update(format_version=found))
        assert repr(found) in message and f"reads {FORMAT_VERSION}" in message
        assert "re-index" in message

    def test_the_dump_holds_no_doc_id(self, dump, built):
        """Ciphertexts name documents by number and the directories that
        resolve them are sealed: no doc id is in the text, raw or escaped."""
        system, _ = built
        assert json.loads(dump)["directories"]
        for doc_id in system.corpus.doc_ids():
            assert doc_id not in dump and json.dumps(doc_id)[1:-1] not in dump

    def test_a_directory_that_disagrees_with_the_service_is_refused(
        self, dump, built, tmp_path
    ):
        system, _ = built
        path = tmp_path / "dump.json"
        path.write_text(dump)
        group = sorted(system.corpus.groups())[0]
        service = GroupKeyService(master_secret=b"p" * 32)
        service.register("writer", {group})
        service.document_number("writer", group, "not-the-first-document")
        with pytest.raises(ConfigurationError, match=str(path)) as excinfo:
            load_cluster(path, service)
        assert "disagrees" in str(excinfo.value) and repr(group) in str(excinfo.value)
        assert service._directories[group].names == ["not-the-first-document"]

    def test_a_damaged_sealed_directory_is_refused(self, dump, tmp_path):
        _refused(
            dump,
            tmp_path,
            lambda p: p["directories"].update(
                {g: "!" + blob for g, blob in p["directories"].items()}
            ),
        )

    @pytest.mark.parametrize(
        "damage",
        [lambda log: log.pop("run"), lambda log: log.update(run={})],
        ids=["no-run", "run-not-an-array"],
    )
    def test_a_log_without_its_run_is_corrupt(self, dump, tmp_path, damage):
        _refused(dump, tmp_path, lambda p: damage(next(iter(_logs(p).values()))))

    @pytest.mark.parametrize(
        "field, damage",
        [
            # Lenient base64 drops the "!!" and restores a shorter ciphertext.
            ("c", lambda text: text[:4] + "!!" + text[4:]),
            # Authentic base64 of a sealed posting one byte short.
            ("c", lambda text: _b64(base64.b64decode(text)[:-1])),
            ("c", lambda text: _b64(base64.b64decode(text) + b"?")),
            ("g", lambda group: 5),
            ("t", lambda trs: str(trs)),
            ("t", lambda trs: None),
            ("t", lambda trs: 1),
            ("t", lambda trs: 1.5),
        ],
        ids=[
            "b64-foreign-chars",
            "29-byte-ciphertext",
            "31-byte-ciphertext",
            "int-group",
            "str-trs",
            "null-trs",
            "int-trs",
            "trs-above-one",
        ],
    )
    def test_damaged_element_is_refused_not_restored(
        self, dump, tmp_path, field, damage
    ):
        """A damaged element must not restore as a *different* element
        that then fails its MAC for every reader and drops out of results."""

        def damage_first_element(payload):
            entry = _run(payload)[0]
            entry[field] = damage(entry[field])

        _refused(dump, tmp_path, damage_first_element)


class TestCorruptDumps:
    """A hand-edited list log fails as a named configuration error,
    never a raw KeyError/IndexError."""

    @pytest.mark.parametrize("bad_id", ["out-of-range", "banana"])
    def test_a_bad_list_id_names_path_and_id(self, dump, tmp_path, bad_id):
        if bad_id == "out-of-range":
            bad_id = str(json.loads(dump)["cluster"]["num_lists"] + 7)

        def move_a_list(payload):
            lists = _logs(payload)
            lists[bad_id] = lists.pop(next(iter(lists)))

        _refused(dump, tmp_path, move_a_list, match=bad_id)

    def test_truncated_json_names_path(self, dump, tmp_path):
        path = tmp_path / "dump.json"
        path.write_text(dump[:100])
        with pytest.raises(ConfigurationError, match=str(path)):
            _load(path)

    def test_element_missing_ciphertext(self, dump, tmp_path):
        _refused(dump, tmp_path, lambda p: _run(p)[0].pop("c"))


class TestAtomicWrites:
    def test_interrupted_save_keeps_previous_dump(
        self, built, tmp_path, monkeypatch
    ):
        """A crash during the final rename (the last moment a save can
        die) must leave the previous file byte-identical."""
        import repro.persist.atomic as atomic

        system, _ = built
        path = tmp_path / "index.json"
        _save(system, path)
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(atomic.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            _save(system, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [
            "index.json"
        ], "temp file leaked"

    def test_interrupted_first_save_leaves_no_partial_file(
        self, built, tmp_path, monkeypatch
    ):
        import repro.persist.atomic as atomic

        system, _ = built
        path = tmp_path / "index.json"
        monkeypatch.setattr(
            atomic.os,
            "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            _save(system, path)
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_existing_dump(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        path.write_text("previous generation")
        _save(system, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == FORMAT_VERSION
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]

    def test_save_preserves_existing_file_mode(self, built, tmp_path):
        """Re-saving must not tighten a dump's permissions to the temp
        file's 0600 (e.g. break a group-readable backup job)."""
        import os

        system, _ = built
        path = tmp_path / "index.json"
        path.write_text("previous generation")
        os.chmod(path, 0o664)
        _save(system, path)
        assert os.stat(path).st_mode & 0o777 == 0o664
