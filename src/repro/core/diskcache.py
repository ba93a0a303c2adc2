"""Content-addressed disk tier for the substrate memo cache.

The in-process tier of :mod:`repro.core.memo` dies with its process, so
every forked worker of :mod:`repro.service.pool` used to rebuild the same
seeded grid traces, demand curves, and interaction datasets from scratch.
This module adds a second, cross-process tier: substrate values are
pickled to a cache directory under a content-addressed name, so any
process (a pool worker, a later ``sustainable-ai run``) warm-starts from
disk instead of rebuilding.

Addressing
----------
An entry's filename is ``sha256(qualname | salt | canonical-args)`` where

* ``qualname`` is the substrate function's qualified name,
* ``salt`` folds in the numpy / repro / Python versions, so a library
  upgrade can never serve values built by different float kernels, and
* the canonical argument token (:func:`canonical_token`) is a stable,
  process-independent rendering of the call arguments (dataclasses by
  field, floats by exact ``repr``, arrays by content digest).

Durability
----------
Writes go to a temporary file in the cache directory followed by an
atomic :func:`os.replace`, so a crashed or concurrent writer can never
leave a half-written entry under the final name.  Reads verify a sha256
checksum recorded in the entry header; a truncated, corrupted, or
unreadable entry is treated as a miss (the caller rebuilds and rewrites)
— correctness never depends on the disk tier.

The tier is opt-in through the :data:`CACHE_DIR_ENV_VAR` environment
variable (the CLI enables it by default for ``run``/``report``/``verify``;
see :mod:`repro.experiments.runner`).  Setting it to ``off``, ``none`` or
``0`` disables the tier explicitly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import os
import pickle
import stat
from pathlib import Path

import numpy as np

from repro.version import code_version

#: Environment variable naming the disk-tier directory.  Workers inherit
#: it from the parent, which is what makes the tier cross-process.
CACHE_DIR_ENV_VAR = "SUSTAINABLE_AI_CACHE_DIR"

#: Values of :data:`CACHE_DIR_ENV_VAR` that explicitly disable the tier.
DISABLED_VALUES = frozenset({"", "0", "off", "none", "disabled"})

#: Entry header magic; bump when the on-disk layout changes.
_MAGIC = b"SAICACHE1"


class UncacheableArgument(TypeError):
    """An argument has no stable canonical rendering (no disk caching)."""


def default_cache_dir() -> Path:
    """The directory the CLI uses when the environment does not say.

    Follows the XDG convention: ``$XDG_CACHE_HOME/sustainable-ai`` or
    ``~/.cache/sustainable-ai``.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "sustainable-ai" / "substrates"


def resolve_cache_dir() -> Path | None:
    """The active disk-tier directory, or ``None`` when the tier is off.

    Only the environment variable is consulted here — library code never
    silently writes to a default location; enabling the default directory
    is a CLI decision (see the runner's ``--cache-dir``).
    """
    raw = os.environ.get(CACHE_DIR_ENV_VAR)
    if raw is None or raw.strip().lower() in DISABLED_VALUES:
        return None
    return Path(raw)


def cache_salt() -> str:
    """Version salt folded into every entry address.

    Substrates are pure functions of their arguments *given* the library
    stack; different numpy/repro/Python versions may produce different
    bits, so they must never share entries.  The salt is the
    :mod:`repro.version` code-version identity — the same triple the
    ledger records in claim provenance, so a cache address and a
    provenance record can never disagree about what produced a value.
    """
    return code_version().salt()


def canonical_token(obj: object) -> str:
    """A stable, process-independent rendering of one argument value.

    Supports the value vocabulary substrates actually use: scalars,
    strings, tuples/lists/dicts, enums, numpy scalars and arrays, and
    (frozen) dataclasses rendered field by field.  Floats use ``repr``,
    which is exact for round-tripping.  Anything else raises
    :class:`UncacheableArgument` — the caller falls back to memory-only
    caching rather than guessing at identity.
    """
    if obj is None or isinstance(obj, (bool, int)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, bytes):
        return f"bytes:{hashlib.sha256(obj).hexdigest()}"
    if isinstance(obj, enum.Enum):
        return f"enum:{type(obj).__module__}.{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, np.generic):
        return f"np:{obj.dtype}:{obj.item()!r}"
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return f"nd:{obj.dtype}:{obj.shape}:{digest}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={canonical_token(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"dc:{type(obj).__module__}.{type(obj).__qualname__}({fields})"
    if isinstance(obj, (tuple, list)):
        kind = "t" if isinstance(obj, tuple) else "l"
        return f"{kind}({','.join(canonical_token(item) for item in obj)})"
    if isinstance(obj, (dict,)):
        items = ",".join(
            f"{canonical_token(k)}:{canonical_token(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return f"d({items})"
    raise UncacheableArgument(
        f"cannot build a canonical cache token for {type(obj).__qualname__}"
    )


def entry_digest(qualname: str, args_token: str) -> str:
    """Content address of one substrate entry.

    This digest is both the disk filename stem and the substrate hash the
    ledger records in claim provenance (:mod:`repro.core.ledger`): an
    auditor holding a ledger trace can locate the exact cached input
    files a reported number was computed from.
    """
    return hashlib.sha256(
        f"{qualname}|{cache_salt()}|{args_token}".encode("utf-8")
    ).hexdigest()


def entry_path(cache_dir: Path, qualname: str, args_token: str) -> Path:
    """Content-addressed path of one substrate entry."""
    digest = entry_digest(qualname, args_token)
    safe = "".join(c if (c.isalnum() or c in "._-") else "_" for c in qualname)
    return cache_dir / safe / f"{digest}.pkl"


def load(path: Path) -> tuple[bool, object]:
    """``(hit, value)`` for one entry; any corruption reads as a miss.

    A missing file, a bad magic/header, a checksum mismatch (truncation,
    bit rot), or an unpicklable body all return ``(False, None)`` — the
    caller rebuilds and overwrites.
    """
    try:
        blob = path.read_bytes()
    except OSError:
        return False, None
    try:
        header, _, body = blob.partition(b"\n")
        magic, _, digest = header.partition(b" ")
        if magic != _MAGIC or not digest:
            return False, None
        if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
            return False, None
        return True, pickle.loads(body)
    except Exception:
        # Unpickling a corrupt body can raise nearly anything (EOFError,
        # UnpicklingError, AttributeError on a renamed class, ...); every
        # failure mode means the same thing: rebuild.
        return False, None


def store(path: Path, value: object) -> bool:
    """Atomically write one entry; best-effort (False on any OS error).

    The temp file lives in the destination directory so ``os.replace``
    stays on one filesystem and is atomic; a concurrent writer racing on
    the same entry simply wins with identical bytes.
    """
    try:
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    header = _MAGIC + b" " + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, header, body)
    except OSError:
        return False
    return True


def write_atomic(path: Path, *chunks: bytes) -> None:
    """Replace the file at ``path`` with ``chunks``, all or nothing.

    The bytes go to a temporary file in ``path``'s directory, which
    ``os.replace`` renames over ``path``: on one filesystem a reader sees
    the old file or the new one, never a torn one.  The temporary file is
    removed if any step fails.  It keeps the replaced file's permission
    bits; a new file gets a plain ``open``'s, 0666 less the umask, which
    the kernel applies.  Used by the disk cache and the ledger.
    """
    try:
        mode: int | None = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = path.parent / f"tmp{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def disk_stats(cache_dir: Path) -> dict[str, dict[str, int]]:
    """Per-substrate ``{entries, bytes}`` of one cache directory."""
    stats: dict[str, dict[str, int]] = {}
    if not cache_dir.is_dir():
        return stats
    for sub in sorted(cache_dir.iterdir()):
        if not sub.is_dir():
            continue
        entries = [p for p in sub.iterdir() if p.suffix == ".pkl"]
        if entries:
            stats[sub.name] = {
                "entries": len(entries),
                "bytes": sum(p.stat().st_size for p in entries),
            }
    return stats


def clear_disk(cache_dir: Path) -> int:
    """Delete every entry under ``cache_dir``; returns the count removed."""
    removed = 0
    if not cache_dir.is_dir():
        return removed
    for sub in cache_dir.iterdir():
        if not sub.is_dir():
            continue
        for entry in sub.iterdir():
            if entry.suffix in (".pkl", ".tmp"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        try:
            sub.rmdir()
        except OSError:
            pass
    return removed
