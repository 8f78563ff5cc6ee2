"""Tests for index persistence (save/load roundtrip)."""

import json

import pytest

from repro import SystemConfig, ZerberRSystem
from repro.core.client import ZerberRClient
from repro.crypto.keys import GroupKeyService
from repro.errors import ConfigurationError
from repro.persist import (
    FORMAT_VERSION,
    load_cluster,
    load_index,
    merge_plan_to_dict,
    rstf_model_to_dict,
    save_cluster,
    save_index,
)
from repro.persist.encoders import merge_plan_from_dict, rstf_model_from_dict


@pytest.fixture(scope="module")
def built(micro_corpus):
    service = GroupKeyService(master_secret=b"p" * 32)
    system = ZerberRSystem.build(
        micro_corpus, SystemConfig(r=3.0, seed=4), key_service=service
    )
    return system, service


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
        system, service = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)

        # A fresh key service with the same master secret reconstructs the
        # group keys; principals must be re-registered (keys are trusted
        # state, not part of the untrusted dump).
        service2 = GroupKeyService(master_secret=b"p" * 32)
        server2, plan2, model2 = load_index(path, service2)
        for group in system.corpus.groups():
            service2.ensure_group(group)
        service2.register("superuser", set(system.corpus.groups()))
        client = ZerberRClient(
            principal="superuser",
            key_service=service2,
            server=server2,
            rstf_model=model2,
            merge_plan=plan2,
        )
        term = system.vocabulary.terms_by_frequency()[1]
        original = system.query(term, k=5)
        reloaded = client.query(term, k=5)
        assert reloaded.doc_ids() == original.doc_ids()
        assert [h.rscore for h in reloaded.hits] == [
            h.rscore for h in original.hits
        ]

    def test_roundtrip_preserves_element_count(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        server2, _, _ = load_index(path, GroupKeyService(master_secret=b"p" * 32))
        assert server2.num_elements == system.server.num_elements

    def test_trs_order_preserved(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        server2, plan2, _ = load_index(path, GroupKeyService(master_secret=b"p" * 32))
        for list_id in range(min(plan2.num_lists, 20)):
            assert server2.visible_trs_values(list_id) == system.server.visible_trs_values(
                list_id
            )

    def test_list_versions_survive_reload(self, built, tmp_path):
        """Dumps carry per-list mutation counters, so version-stamped
        responses stay comparable across a restart."""
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        server2, _, _ = load_index(path, GroupKeyService(master_secret=b"p" * 32))
        for list_id in range(server2.num_lists):
            assert server2.list_version(list_id) == system.server.list_version(
                list_id
            )

    def test_wrong_secret_cannot_decrypt(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        wrong = GroupKeyService(master_secret=b"X" * 32)
        server2, plan2, model2 = load_index(path, wrong)
        for group in system.corpus.groups():
            wrong.ensure_group(group)
        wrong.register("superuser", set(system.corpus.groups()))
        client = ZerberRClient(
            principal="superuser",
            key_service=wrong,
            server=server2,
            rstf_model=model2,
            merge_plan=plan2,
        )
        term = system.vocabulary.terms_by_frequency()[1]
        # All decryptions fail authentication -> zero hits, no crash.
        result = client.query(term, k=5)
        assert result.hits == ()


@pytest.fixture(scope="module")
def dumps(built, tmp_path_factory):
    """kind -> (loader, text of a freshly saved dump of that kind)."""
    system, _ = built
    path = tmp_path_factory.mktemp("dumps") / "dump.json"
    save_index(path, system.server, system.merge_plan, system.rstf_model)
    server_text = path.read_text()
    cluster, _ = system.deploy_cluster(num_servers=2, replication=2)
    save_cluster(path, cluster, system.merge_plan, system.rstf_model)
    return {
        "server": (load_index, server_text),
        "cluster": (load_cluster, path.read_text()),
    }


def _server_section(kind, payload):
    return payload["server"] if kind == "server" else payload["cluster"]["servers"][0]


@pytest.mark.parametrize("kind", ["server", "cluster"])
class TestOneFormatVersion:
    """Older dumps hold elements no client of this build can open, so a
    restore that "succeeds" would answer every query empty: any version
    but the current one is refused, by both loaders."""

    def _refused(self, dumps, kind, tmp_path, damage):
        """Load a dump after *damage*(payload); returns the error text."""
        loader, text = dumps[kind]
        payload = json.loads(text)
        damage(payload)
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=str(path)) as excinfo:
            loader(path, GroupKeyService(master_secret=b"p" * 32))
        return str(excinfo.value)

    # A v5 element carries a 16-byte nonce and a SHAKE-256 keystream and
    # fails the v6 tag; a v4 element carries a truncated HMAC-SHA256 tag;
    # a v3 element also spells its term out, so its length byte and first
    # three term bytes would pass for a term number.
    @pytest.mark.parametrize("found", [1, 2, 3, 4, 5, "6", FORMAT_VERSION + 1, None])
    def test_other_versions_are_refused_by_name(self, dumps, tmp_path, kind, found):
        assert json.loads(dumps[kind][1])["format_version"] == FORMAT_VERSION == 6
        message = self._refused(
            dumps, kind, tmp_path, lambda p: p.update(format_version=found)
        )
        assert repr(found) in message and f"reads {FORMAT_VERSION}" in message

    def test_versionless_server_section_is_corrupt(self, dumps, tmp_path, kind):
        """The v1 shape (lists without their counters) has no default."""
        self._refused(
            dumps, kind, tmp_path, lambda p: _server_section(kind, p).pop("versions")
        )

    @pytest.mark.parametrize(
        "field, damage",
        [
            # Lenient base64 drops the "!!" and restores a shorter ciphertext.
            ("c", lambda text: text[:4] + "!!" + text[4:]),
            ("g", lambda group: 5),
            ("t", lambda trs: str(trs)),
        ],
        ids=["b64-foreign-chars", "int-group", "str-trs"],
    )
    def test_damaged_element_is_refused_not_restored(
        self, dumps, tmp_path, kind, field, damage
    ):
        """A damaged element must not restore as a *different* element
        that then fails its MAC for every reader and drops out of results."""

        def damage_first_element(payload):
            lists = _server_section(kind, payload)["lists"]
            entry = next(iter(lists.values()))[0]
            entry[field] = damage(entry[field])

        self._refused(dumps, kind, tmp_path, damage_first_element)


class TestCorruptDumps:
    def test_unknown_list_id_names_path_and_id(self, built, tmp_path):
        """A hand-edited dump with an out-of-range list id must fail as a
        named configuration error, not a raw KeyError/IndexError."""
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        payload = json.loads(path.read_text())
        lists = payload["server"]["lists"]
        bad_id = str(payload["server"]["num_lists"] + 7)
        lists[bad_id] = lists.pop(next(iter(lists)))
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError) as excinfo:
            load_index(path, GroupKeyService(master_secret=b"p" * 32))
        assert bad_id in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    def test_non_integer_list_id(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        payload = json.loads(path.read_text())
        lists = payload["server"]["lists"]
        lists["banana"] = lists.pop(next(iter(lists)))
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="banana"):
            load_index(path, GroupKeyService(master_secret=b"p" * 32))

    def test_truncated_json_names_path(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        path.write_text(path.read_text()[:100])
        with pytest.raises(ConfigurationError, match=str(path)):
            load_index(path, GroupKeyService(master_secret=b"p" * 32))

    def test_missing_lists_section(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        payload = json.loads(path.read_text())
        del payload["server"]["lists"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=str(path)):
            load_index(path, GroupKeyService(master_secret=b"p" * 32))

    def test_element_missing_ciphertext(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        payload = json.loads(path.read_text())
        lists = payload["server"]["lists"]
        next(iter(lists.values()))[0].pop("c")
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=str(path)):
            load_index(path, GroupKeyService(master_secret=b"p" * 32))

    def test_cluster_dump_rejected_by_load_index(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        payload = json.loads(path.read_text())
        payload["kind"] = "cluster"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="load_cluster"):
            load_index(path, GroupKeyService(master_secret=b"p" * 32))


class TestAtomicWrites:
    def test_interrupted_save_keeps_previous_dump(
        self, built, tmp_path, monkeypatch
    ):
        """A crash during the final rename (the last moment a save can
        die) must leave the previous file byte-identical."""
        import repro.persist.atomic as atomic

        system, _ = built
        path = tmp_path / "index.json"
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(atomic.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_index(
                path, system.server, system.merge_plan, system.rstf_model
            )
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
            save_index(
                path, system.server, system.merge_plan, system.rstf_model
            )
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_existing_dump(self, built, tmp_path):
        system, _ = built
        path = tmp_path / "index.json"
        path.write_text("previous generation")
        save_index(path, system.server, system.merge_plan, system.rstf_model)
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
        save_index(path, system.server, system.merge_plan, system.rstf_model)
        assert os.stat(path).st_mode & 0o777 == 0o664
