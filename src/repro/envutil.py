"""Validated environment-variable knobs.

Every numeric tuning knob (``REPRO_DENSE_BUDGET``, ``REPRO_STORE_LRU``)
is read through :func:`env_int`, so a typo'd value fails fast with the
variable's name in the message instead of raising a bare ``ValueError``
from deep inside an engine — and a zero/negative value can never
silently disable dense mode or the store's memory front.
"""

from __future__ import annotations

import os


def env_int(name: str, default: int, minimum: int = 1) -> int:
    """``int(os.environ[name])`` with validation, or ``default`` if unset.

    Raises :class:`ValueError` naming the variable when the value is not
    an integer or is below ``minimum``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value

