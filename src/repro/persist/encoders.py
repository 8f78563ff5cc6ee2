"""JSON encoders/decoders of the cluster dump and its sections.

Everything here is symmetric pairs (``*_to_dict`` / ``*_from_dict``) over
plain JSON types; ciphertexts travel base64.  Decoders validate against
the dump's own declared shape and raise
:class:`~repro.errors.ConfigurationError` naming the *source* (the file
path) and the offending value, so a corrupt or hand-edited dump fails
with a diagnosis instead of escaping as a raw ``KeyError``/``IndexError``
deep inside the server.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

from repro.core.rstf import Rstf, RstfModel
from repro.core.server import ZerberRServer
from repro.errors import ConfigurationError, TrainingError
from repro.index.merge import MergePlan
from repro.index.postings import EncryptedPostingElement

#: The one dump format this build writes and reads (see :mod:`repro.persist`).
FORMAT_VERSION = 7


def read_payload(path: str | Path) -> dict:
    """Parse a dump file of the current format version; a file that
    cannot be read, corruption and any other version are a
    :class:`ConfigurationError` naming the file."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as error:
        raise ConfigurationError(
            f"{path}: cannot read dump: {error.strerror or error}"
        ) from error
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ConfigurationError(f"{path}: corrupt index dump: {error}") from error
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: corrupt index dump: not a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported dump format version {version!r} "
            f"(this build reads {FORMAT_VERSION}); re-index the corpus "
            "to carry it over"
        )
    return payload


# -- posting elements ---------------------------------------------------------


def element_to_dict(element: EncryptedPostingElement) -> dict:
    return {
        "c": base64.b64encode(element.ciphertext).decode(),
        "g": element.group,
        "t": element.trs,
    }


def element_from_dict(entry: dict) -> EncryptedPostingElement:
    """Strict on every field: a damaged entry must not restore as a
    different element (lenient base64 skips non-alphabet characters)."""
    group, trs = entry["g"], entry["t"]
    if not isinstance(group, str):
        raise TypeError(f"element group must be a string, not {group!r}")
    if trs is not None and type(trs) is not float:
        raise TypeError(f"element TRS must be a float or null, not {trs!r}")
    ciphertext = base64.b64decode(entry["c"], validate=True)
    return EncryptedPostingElement(ciphertext=ciphertext, group=group, trs=trs)


def directories_to_dict(sealed: dict[str, bytes]) -> dict[str, str]:
    """Sealed document directories, by group, base64 like ciphertexts."""
    return {group: base64.b64encode(blob).decode() for group, blob in sealed.items()}


def directories_from_dict(data: dict) -> dict[str, bytes]:
    """Inverse of :func:`directories_to_dict`, strict on every entry."""
    sealed: dict[str, bytes] = {}
    for group, blob in data.items():
        if not isinstance(blob, str):
            raise TypeError(f"sealed directory must be a string, not {blob!r}")
        sealed[group] = base64.b64decode(blob, validate=True)
    return sealed


# -- setup artifacts ----------------------------------------------------------


def merge_plan_to_dict(plan: MergePlan) -> dict:
    return {"r": plan.r, "groups": [list(group) for group in plan.groups]}


def merge_plan_from_dict(data: dict) -> MergePlan:
    return MergePlan(
        groups=tuple(tuple(group) for group in data["groups"]), r=float(data["r"])
    )


def rstf_model_to_dict(model: RstfModel) -> dict:
    encoded = {}
    for term in sorted(model.terms()):
        rstf = model.get(term)
        encoded[term] = {
            "mus": list(rstf.mus),
            "sigma": rstf.sigma,
            "kind": rstf.kind,
        }
    return encoded


def rstf_model_from_dict(data: dict) -> RstfModel:
    return RstfModel(
        {
            term: Rstf(
                mus=tuple(entry["mus"]),
                sigma=float(entry["sigma"]),
                kind=entry["kind"],
            )
            for term, entry in data.items()
        }
    )


def setup_from_payload(
    payload: dict, source: str | Path
) -> tuple[MergePlan, RstfModel]:
    """A dump's merge plan and RSTF model.  Whatever is wrong with
    either — a missing section, a term in two groups, a non-positive
    sigma — is a :class:`ConfigurationError` naming *source*: the plan
    numbers every term a ciphertext names, so a bad one is as corrupt
    as a bad element."""
    try:
        merge_plan = merge_plan_from_dict(payload["merge_plan"])
        rstf_model = rstf_model_from_dict(payload["rstf_model"])
    except (
        ConfigurationError, TrainingError, KeyError, TypeError, ValueError
    ) as error:
        raise ConfigurationError(
            f"{source}: corrupt setup artifacts: {error!r}"
        ) from error
    return merge_plan, rstf_model


# -- server state -------------------------------------------------------------


def server_to_dict(server: ZerberRServer) -> dict:
    """One server's merged lists (empty ones omitted) and each list's
    mutation counter, so a reload resumes where the pre-restart process
    stopped: post-restart version-stamped fetch responses and replication
    applied-versions stay comparable with pre-restart log state.
    """
    lists = {}
    versions = {}
    for list_id in range(server.num_lists):
        merged = server._lists[list_id]
        if merged.elements:
            lists[str(list_id)] = [element_to_dict(e) for e in merged.elements]
        if merged.version:
            versions[str(list_id)] = merged.version
    return {"num_lists": server.num_lists, "lists": lists, "versions": versions}


def decode_list_id(list_id_str: str, num_lists: int, source: str | Path) -> int:
    """Validate one dumped list id against the dump's declared width."""
    try:
        list_id = int(list_id_str)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{source}: corrupt dump: list id {list_id_str!r} is not an integer"
        ) from None
    if not 0 <= list_id < num_lists:
        raise ConfigurationError(
            f"{source}: corrupt dump: list id {list_id} out of range "
            f"(dump declares {num_lists} lists)"
        )
    return list_id


def load_server_state(server: ZerberRServer, data: dict, source: str | Path) -> None:
    """Restore merged lists and their version counters into an
    existing, empty server."""
    try:
        lists, versions = data["lists"], data["versions"]
        for list_id_str in sorted(set(lists) | set(versions), key=str):
            list_id = decode_list_id(list_id_str, server.num_lists, source)
            # KeyError: elements without a counter cannot have been written.
            version = int(versions[list_id_str])
            if version < 1:
                raise ConfigurationError(
                    f"{source}: corrupt dump: list {list_id_str} has "
                    f"non-positive version {version}"
                )
            elements = [element_from_dict(e) for e in lists.get(list_id_str, ())]
            server.restore_list(list_id, elements, version)
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"{source}: corrupt dump: {error!r}") from error
