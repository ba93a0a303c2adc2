"""One code-version identity for caching and provenance.

Substrate values and ledger claims are only reproducible *given* the
library stack that produced them: a numpy upgrade may change float
kernels bit-for-bit, a repro upgrade may change a model.  This module is
the single place that identity is captured, so the disk-cache salt
(:func:`repro.core.diskcache.cache_salt`) and ledger provenance
(:class:`repro.core.ledger.Provenance`) can never disagree about what
"the code version" means.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

from repro._version import __version__

__all__ = ["CodeVersion", "code_version"]


@dataclass(frozen=True)
class CodeVersion:
    """The (repro, numpy, python) triple that stamps cached/ledgered values."""

    repro: str
    numpy: str
    python: str  # "major.minor" — micro releases do not change float kernels

    def salt(self) -> str:
        """The disk-cache salt string (kept byte-identical across the
        refactor that moved it here from ``repro.core.diskcache``, so
        existing cache directories stay valid)."""
        return f"np{self.numpy}|repro{self.repro}|py{self.python}"

    def to_payload(self) -> dict[str, str]:
        """JSON-safe form recorded in ledger provenance."""
        return {"repro": self.repro, "numpy": self.numpy, "python": self.python}


@functools.cache
def code_version() -> CodeVersion:
    """The running stack's version triple (fixed for the process's life)."""
    import numpy as np

    return CodeVersion(
        repro=__version__,
        numpy=np.__version__,
        python=f"{sys.version_info[0]}.{sys.version_info[1]}",
    )
