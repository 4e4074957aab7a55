"""Locate and import the grs sources of the checkout the benchmark runs in.

The benchmark always measures the package under ``<checkout>/src``, never an
installed copy, and refuses to run when those sources are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"


def import_grs():
    """Put ``<checkout>/src`` first on sys.path and import grs from there."""
    src = ROOT / "src"
    if not (src / "grs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no grs sources under {src}; "
                         "run the benchmark from the root of a grs checkout")
    sys.path.insert(0, str(src))
    import grs
    if Path(grs.__file__).resolve().parent != (src / "grs").resolve():
        raise SystemExit(f"perfbench: imported grs from {grs.__file__}, not from {src}")
    import grs.cli  # noqa: F401  (pulls in every module of the package)
    return grs


def build_catalog() -> None:
    """Build every catalog entry once: systems, schemes and birational maps."""
    from grs import catalog
    for name in catalog.system_names():
        catalog.get_system(name)
    for name in catalog.scheme_names():
        catalog.get_scheme(name)
    for name in ("gen-pvi", "gen-pv", "gen-piv", "gen-piii"):
        catalog.get_maps(name)
