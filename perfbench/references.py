"""Committed reference outputs for the default and the held-out seed.

``references.json`` maps a seed to the outputs the program produced
for it when the references were last written: dataset and report
digests (``corpus``), the Table XVI/XVII rows and every month's rule
list (``learn_eval``), and the streamed-store and strict-import digests
(``stream``).  Seeds without an entry are still checked, against the
fidelity targets and the batch pipeline, but not against fixed values.
A missing or unreadable file is an error, never an empty reference set.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

PATH = Path(__file__).resolve().parent / "references.json"


class References:
    """The reference entry of one seed, plus the means to update it."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._all: Dict[str, Any] = json.loads(PATH.read_text())
        self.entry: Optional[Dict[str, Any]] = self._all.get(str(seed))

    def get(self, key: str) -> Any:
        """The committed value for ``key``, or None when there is none."""
        if self.entry is None:
            return None
        return self.entry.get(key)

    def write(self, values: Dict[str, Any]) -> None:
        """Store ``values`` for this seed (other keys and seeds are kept)."""
        entry = self._all.setdefault(str(self.seed), {})
        entry.update(values)
        PATH.write_text(
            json.dumps(self._all, indent=1, sort_keys=True) + "\n"
        )
