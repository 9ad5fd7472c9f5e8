"""On-disk cache for survey reports, one JSON file per (k, mode, sum_cap).

An entry holds the version that wrote it, `created_at` and the report;
the file name is the key, and any other field, such as the `key` that
earlier versions wrote, is not read.  An entry is a miss, which `ell`
recomputes and overwrites, unless it is readable, UTF-8, JSON not too
deep to parse and an object; its version is `__version__`, so a version
change invalidates every entry; its `created_at` is a string; and its
report passes `_rebuilt`.
Writes go through a temporary file plus rename so readers never see a
torn entry.  The directory defaults to the user cache dir and can be
overridden with the ZSPAIRS_CACHE_DIR environment variable.  With no
home directory to default to, `cache_dir` raises OSError: no cache.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import __version__
from .enumeration import EllReport, EnumConfig
from .formats import pair_from_obj
from .irreducibility import is_irreducible

CACHE_DIR_ENV = "ZSPAIRS_CACHE_DIR"


def cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    try:
        base = Path(xdg) if xdg else Path.home() / ".cache"
    except RuntimeError as e:  # no HOME and no passwd entry: no cache, not a crash
        raise OSError(f"no cache directory: {e}") from None
    return base / "zspairs"


def entry_path(cfg: EnumConfig) -> Path:
    return cache_dir() / f"ell-k{cfg.k}-{cfg.mode}-cap{cfg.sum_cap}.json"


def load_report(cfg: EnumConfig) -> tuple[EllReport, str] | None:
    """The report cached for this exact key and this version, rebuilt by
    `_rebuilt`, and when its entry was stored; or None."""
    # No cache directory, or an entry unreadable, not UTF-8, not JSON or too deep.
    try:
        data = json.loads(entry_path(cfg).read_text())
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(data, dict):
        return None
    if data.get("tool_version") != __version__:
        return None
    created_at, report = data.get("created_at"), data.get("report")
    if not isinstance(created_at, str) or not isinstance(report, dict):
        return None
    report = _rebuilt(report, cfg)
    return None if report is None else (report, created_at)


def _rebuilt(report: dict, cfg: EnumConfig) -> EllReport | None:
    """A stored report as the EllReport it was built from, if it is one a
    survey of this config could return.  Rebuilt from its own values
    under the config's k, mode and sum_cap, with every witness parsed, it
    prints the stored JSON exactly: the same fields in the same order,
    its own k, mode and sum_cap the key's, a k or sum_cap of 3, not 3.0,
    and each witness canonical (larger side first, runs merged and
    descending).  Its ell and counts are ints >= 0 and its wall time a
    finite float >= 0; there is a witness exactly when ell is positive;
    and the witnesses, in survey order (by sum, then A, then B,
    descending, none twice), are irreducible pairs of length ell within
    the caps."""
    try:
        witnesses = tuple(map(pair_from_obj, report["witnesses"]))
        rebuilt = EllReport(**{**report, "witnesses": witnesses,
                               "k": cfg.k, "mode": cfg.mode, "sum_cap": cfg.sum_cap})
        ell, wall_time = rebuilt.ell, rebuilt.wall_time
        counts = (ell, rebuilt.pairs_scanned, rebuilt.irreducible_count)
        order = [(-p.a.sigma, p.a.runs, p.b.runs) for p in witnesses]
        holds = (
            json.dumps(rebuilt.to_obj()) == json.dumps(report)
            and all(type(c) is int and c >= 0 for c in counts)
            and type(wall_time) is float and 0 <= wall_time < float("inf")
            and (ell > 0) == bool(witnesses)
            and all(x > y for x, y in zip(order, order[1:]))  # strict: no witness twice
            and all(
                p.length == ell and p.max_element <= cfg.k and p.a.sigma <= cfg.sum_cap
                and is_irreducible(p)
                for p in witnesses
            )
        )
    # A field missing or extra, a witness not a pair, or one too large to decide.
    except (KeyError, TypeError, ValueError):
        return None
    return rebuilt if holds else None


def store_report(cfg: EnumConfig, report: EllReport) -> Path:
    """Persist a report atomically; returns the entry path."""
    # Only a store needs these (tempfile imports random): a lookup loads neither.
    import tempfile
    from datetime import datetime, timezone

    path = entry_path(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "tool_version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "report": report.to_obj(),
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
