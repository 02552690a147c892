"""Solver size limits, overridable via the TWOMILTON_LIMITS environment variable.

Format: comma-separated key=value pairs, e.g. TWOMILTON_LIMITS="alpha=96,enum=12".
Keys: alpha (exact independence number, also of psi_exact's path-conflict
graph) and enum (exhaustive cycle enumeration).  Values are max vertex
counts; larger inputs raise.
"""

from __future__ import annotations

import os

DEFAULTS = {"alpha": 64, "enum": 13}


def limit(key: str) -> int:
    if key not in DEFAULTS:
        raise KeyError(f"unknown limit {key!r}")
    value = DEFAULTS[key]
    raw = os.environ.get("TWOMILTON_LIMITS", "")
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, num = item.partition("=")
        if not sep:
            raise ValueError(f"bad TWOMILTON_LIMITS entry {item!r}")
        if name.strip() == key:
            value = int(num)
    return value


def check_limit(key: str, n: int, what: str) -> None:
    cap = limit(key)
    if n > cap:
        raise ValueError(
            f"{what} supports n <= {cap} (got n={n}); "
            f"raise via TWOMILTON_LIMITS={key}={n}"
        )
