"""Import the toolkit from the sources of the checkout that holds this benchmark.

The benchmark measures the code next to it, never an installed copy: the
package must come from ``<checkout>/src``, or the run stops with a nonzero
exit before it measures or prints anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    """Return the ``nested_mzi_lab`` package imported from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import nested_mzi_lab
        import nested_mzi_lab.cli  # noqa: F401 - every workload drives the CLI
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import nested_mzi_lab from {SRC}: {exc}")
    origin = Path(nested_mzi_lab.__file__).resolve().parent.parent
    if origin != SRC:
        raise SystemExit(f"benchmark: nested_mzi_lab came from {origin}, not from {SRC}")
    return nested_mzi_lab
