"""The one canonical JSON serialization of the repository.

Every byte-stable artifact the project emits — service response bodies,
``run --json`` envelopes, ``golden/baselines.json``, ledger bundles and
their content addresses — is serialized here, and only here.  Canonical
form is ``json.dumps`` with sorted keys: pretty (two-space indent) for
human-facing documents, compact (no whitespace) for identity strings and
content hashing.

Confining the raw ``json.dumps(..., sort_keys=True)`` idiom to
``repro/core/`` is grep-enforced (``tests/test_canonical.py``), the same
way the kWh x intensity multiplication is confined to the accounting
engine: two modules that serialize "canonically" but differently would
silently break byte-identity guarantees and ledger content addresses.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

__all__ = [
    "canonical_dumps",
    "canonical_bytes",
    "compact_dumps",
    "compact_members",
    "compact_object",
    "content_hash",
]

#: The one compact encoder (``json.dumps`` with arguments builds a new
#: encoder on every call).
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_dumps(obj: object) -> str:
    """Pretty canonical form: sorted keys, two-space indent, no newline."""
    return json.dumps(obj, indent=2, sort_keys=True)


def canonical_bytes(payload: Mapping[str, object]) -> bytes:
    """Canonical document bytes: pretty form plus a trailing newline.

    This is the exact serialization of every service response body and
    of ledger payload reconstruction — equality of payloads is equality
    of these bytes.
    """
    return (canonical_dumps(payload) + "\n").encode("utf-8")


def compact_dumps(obj: object) -> str:
    """Compact canonical form: sorted keys, no whitespace.

    Used wherever a JSON document *is* an identity — response-cache
    keys, worker task transport, ledger content addressing.
    """
    return _COMPACT.encode(obj)


def compact_members(doc: Mapping[str, object]) -> dict[str, str]:
    """Each ``"key":value`` member of a document's compact form, by key.

    With :func:`compact_object`, lets a caller that needs two variants of
    one document (say, with and without one field) encode every value
    once and assemble both.
    """
    encode = _COMPACT.encode
    return {key: f"{encode(key)}:{encode(value)}" for key, value in doc.items()}


def compact_object(members: Mapping[str, str]) -> str:
    """The compact form of the document whose members these are: equal to
    ``compact_dumps(doc)`` for ``members == compact_members(doc)``."""
    return "{" + ",".join(members[key] for key in sorted(members)) + "}"


def content_hash(obj: object) -> str:
    """sha256 hex digest of an object's compact canonical form."""
    return hashlib.sha256(compact_dumps(obj).encode("utf-8")).hexdigest()
