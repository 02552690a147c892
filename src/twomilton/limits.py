"""Solver size limits, overridable via the TWOMILTON_LIMITS environment variable.

Format: comma-separated key=value pairs, e.g. TWOMILTON_LIMITS="alpha=96,enum=13".
Keys: alpha (exact independence number, also of psi_exact's path-conflict
graph; larger inputs raise) and enum (the largest n that compute_f scans
exhaustively; beyond it compute_f reports a certified construction lower
bound).  Values are vertex counts.  A key not listed here, or an entry
without an integer value, is refused, so a typo cannot leave a limit silently
at its default.
"""

from __future__ import annotations

import os

DEFAULTS = {"alpha": 64, "enum": 12}


def limit(key: str) -> int:
    if key not in DEFAULTS:
        raise KeyError(f"unknown limit {key!r}")
    value = DEFAULTS[key]
    raw = os.environ.get("TWOMILTON_LIMITS", "")
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, num = item.partition("=")
        name = name.strip()
        try:
            num = int(num)
        except ValueError:
            raise ValueError(f"bad TWOMILTON_LIMITS entry {item!r}") from None
        if name not in DEFAULTS:
            raise ValueError(
                f"unknown TWOMILTON_LIMITS key {name!r}; known keys: {', '.join(sorted(DEFAULTS))}"
            )
        if name == key:
            value = num
    return value


def check_limit(key: str, n: int, what: str) -> None:
    cap = limit(key)
    if n > cap:
        raise ValueError(
            f"{what} supports n <= {cap} (got n={n}); "
            f"raise via TWOMILTON_LIMITS={key}={n}"
        )
