"""Locate and import the relot sources that the benchmark measures.

The benchmark always measures the checkout it lives in: ``src/relot`` next
to this directory.  An installed copy of relot is never used, so a checkout
without sources fails instead of silently measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """Raised when the checkout holds no relot sources to measure."""


def load_relot():
    """Import relot from the checkout's ``src`` directory and return it."""
    init = SRC / "relot" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no relot sources in {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import relot

    if Path(relot.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"relot was imported from {relot.__file__}, not from {SRC}")
    return relot
