"""On-disk cache for survey reports, one JSON file per (k, mode, sum_cap).

Entries are invalidated by tool version, and a hit is served only after
its report is checked again: every field present and of its type, the
key fields matching, and every witness parsed and found irreducible at
the reported length.  An entry that cannot be read or parsed is a miss.
Writes go through a temporary file plus rename so readers never see a
torn entry.  The directory defaults to the user cache dir and can be
overridden with the ZSPAIRS_CACHE_DIR environment variable.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from .enumeration import EllReport
from .formats import pair_from_obj
from .irreducibility import is_irreducible

CACHE_DIR_ENV = "ZSPAIRS_CACHE_DIR"

# The keys of EllReport.to_obj(): one per field.
_REPORT_KEYS = frozenset(f.name for f in fields(EllReport))


def cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "zspairs"


def entry_path(k: int, mode: str, sum_cap: int) -> Path:
    return cache_dir() / f"ell-k{k}-{mode}-cap{sum_cap}.json"


def load_report(k: int, mode: str, sum_cap: int, tool_version: str) -> dict | None:
    """The cache entry for this exact key and version, or None.

    The entry is the stored object: its "report" (always a dict that
    passes `_report_holds` here), "created_at" and "tool_version".
    """
    path = entry_path(k, mode, sum_cap)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError):  # unreadable, not UTF-8, not JSON, too deep
        return None
    if not isinstance(data, dict):
        return None
    if data.get("tool_version") != tool_version:
        return None
    if data.get("key") != {"k": k, "mode": mode, "sum_cap": sum_cap}:
        return None
    report = data.get("report")
    if not isinstance(report, dict) or not _report_holds(report, k, mode, sum_cap):
        return None
    return data


def _report_holds(report: dict, k: int, mode: str, sum_cap: int) -> bool:
    """Whether a stored report is one a survey of this key could return:
    it has exactly the keys of a report, its k, mode and sum_cap are the
    key's, ell and its counts are ints >= 0 and its wall time a float,
    there is a witness exactly when ell is positive, and every witness is
    an irreducible pair of length ell within the caps."""
    if report.keys() != _REPORT_KEYS:
        return False
    ell, witnesses = report["ell"], report["witnesses"]
    counts = (ell, report["pairs_scanned"], report["irreducible_count"])
    if (
        (report["k"], report["mode"], report["sum_cap"]) != (k, mode, sum_cap)
        or not all(type(c) is int and c >= 0 for c in counts)
        or type(report["wall_time"]) is not float
        or not isinstance(witnesses, list)
        or (ell > 0) != bool(witnesses)
    ):
        return False
    try:
        return all(
            p.length == ell and p.max_element <= k and p.a.sigma <= sum_cap
            and is_irreducible(p)
            for p in map(pair_from_obj, witnesses)
        )
    except ValueError:  # not a pair, or a pair too large to decide
        return False


def store_report(
    k: int, mode: str, sum_cap: int, tool_version: str, report: dict
) -> Path:
    """Persist a report atomically; returns the entry path."""
    path = entry_path(k, mode, sum_cap)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "key": {"k": k, "mode": mode, "sum_cap": sum_cap},
        "tool_version": tool_version,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "report": report,
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh, indent=2)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
