"""Unit conventions and conversion helpers.

The simulator uses a single canonical unit per dimension so that code
never has to guess what a number means:

* **time** — seconds (float)
* **bandwidth** — kbit/s (float)
* **data size** — kbit (float)

The paper reports download times in *minutes*, object sizes in *MB* and
session volumes in *kb*; the helpers below convert at the reporting
boundary only.  1 MB is taken as 2**20 bytes = 8192 kbit, matching the
paper's networking convention of kbit = 1000... — the paper is a 2003
systems paper and uses the classic "20 MB object, 10 kbit/s slot"
arithmetic; we pick MB = 8 * 1024 kbit and document it here so every
module agrees.
"""

from __future__ import annotations

#: kbit per megabyte (2**20 bytes * 8 bits / 1000 ≈ 8388.6; we use the
#: power-of-two convention 8 * 1024 = 8192 kbit consistently).
KBIT_PER_MB = 8 * 1024

#: Seconds per minute, for reporting download times the way the paper does.
SECONDS_PER_MINUTE = 60.0


def mb_to_kbit(megabytes: float) -> float:
    """Convert a size in MB to kbit."""
    return megabytes * KBIT_PER_MB


def kbit_to_mb(kbit: float) -> float:
    """Convert a size in kbit to MB."""
    return kbit / KBIT_PER_MB


def seconds_to_minutes(seconds: float) -> float:
    """Convert seconds to minutes (the unit of the paper's figures)."""
    return seconds / SECONDS_PER_MINUTE
