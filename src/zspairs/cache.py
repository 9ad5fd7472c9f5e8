"""On-disk cache for survey reports, one JSON file per (k, mode, sum_cap).

Entries are invalidated by tool version, and a hit is served only after
its report is checked again: it must print exactly as the report a
survey of its key would, rebuilt from its own values, and its counts,
wall time and witnesses must be ones a survey could return.  An entry
that cannot be read or parsed is a miss.
Writes go through a temporary file plus rename so readers never see a
torn entry.  The directory defaults to the user cache dir and can be
overridden with the ZSPAIRS_CACHE_DIR environment variable.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .enumeration import EllReport, EnumConfig
from .formats import pair_from_obj
from .irreducibility import is_irreducible

CACHE_DIR_ENV = "ZSPAIRS_CACHE_DIR"


def cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "zspairs"


def _key(cfg: EnumConfig) -> dict:
    return {"k": cfg.k, "mode": cfg.mode, "sum_cap": cfg.sum_cap}


def entry_path(cfg: EnumConfig) -> Path:
    return cache_dir() / f"ell-k{cfg.k}-{cfg.mode}-cap{cfg.sum_cap}.json"


def load_report(cfg: EnumConfig, tool_version: str) -> dict | None:
    """The cache entry for this exact key and version, or None.

    The entry is the stored object: its "report" (always a dict that
    passes `_report_holds` here), "created_at" (a string) and
    "tool_version".
    """
    path = entry_path(cfg)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError):  # unreadable, not UTF-8, not JSON, too deep
        return None
    if not isinstance(data, dict):
        return None
    if data.get("tool_version") != tool_version or data.get("key") != _key(cfg):
        return None
    report = data.get("report")
    if not isinstance(data.get("created_at"), str) or not isinstance(report, dict):
        return None
    return data if _report_holds(report, cfg) else None


def _report_holds(report: dict, cfg: EnumConfig) -> bool:
    """Whether a stored report is one a survey of this config could
    return: rebuilt as an EllReport from its own values, under the
    config's k, mode and sum_cap, it prints the same JSON; ell and its
    counts are ints >= 0 and its wall time a finite float >= 0; there is a
    witness exactly when ell is positive; and the witnesses, in the order
    a survey lists them, are irreducible pairs of length ell within the
    caps."""
    try:
        witnesses = tuple(map(pair_from_obj, report["witnesses"]))
        rebuilt = EllReport(**{**report, **_key(cfg), "witnesses": witnesses})
    except (KeyError, TypeError, ValueError):  # a field missing or extra, a witness not a pair
        return False
    ell, wall_time = rebuilt.ell, rebuilt.wall_time
    counts = (ell, rebuilt.pairs_scanned, rebuilt.irreducible_count)
    # Survey order, strict so no witness comes twice: by sum, then A and B descending.
    order = [(-p.a.sigma, p.a.runs, p.b.runs) for p in witnesses]
    if (
        json.dumps(rebuilt.to_obj()) != json.dumps(report)
        or not all(type(c) is int and c >= 0 for c in counts)
        or not (type(wall_time) is float and 0 <= wall_time < float("inf"))
        or (ell > 0) != bool(witnesses)
        or not all(x > y for x, y in zip(order, order[1:]))
    ):
        return False
    try:
        return all(
            p.length == ell and p.max_element <= cfg.k and p.a.sigma <= cfg.sum_cap
            and is_irreducible(p)
            for p in witnesses
        )
    except ValueError:  # a pair too large to decide
        return False


def store_report(cfg: EnumConfig, tool_version: str, report: dict) -> Path:
    """Persist a report atomically; returns the entry path."""
    import tempfile  # imports random; a lookup needs neither

    path = entry_path(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "key": _key(cfg),
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
