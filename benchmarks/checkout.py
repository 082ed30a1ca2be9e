"""Put the lockon sources of this checkout first on ``sys.path``.

The benchmark measures the code next to it, never an installed copy:
importing this module makes ``import lockon`` resolve to ``<checkout>/src``
and exits with a diagnostic when those sources are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lockon"

if not (PACKAGE / "__init__.py").is_file():
    raise SystemExit(f"error: lockon sources not found at {PACKAGE}")
sys.path.insert(0, str(PACKAGE.parent))

import lockon  # noqa: E402

if Path(lockon.__file__).resolve().parent != PACKAGE:
    raise SystemExit(f"error: imported lockon from {lockon.__file__}, expected {PACKAGE}")
