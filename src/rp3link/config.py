"""Run limits, overridable via environment variables."""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    max_vertices: int = 20       # canonical form / minor search / cycle enumeration bound
    max_dim: int = 24            # cycle-space dimension cap for assignment enumeration
    max_cycles: int = 500_000    # cutoff for simple-cycle enumeration

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if type(value) is not int or value < 1:
                raise ValueError(f"Limits.{name} must be a positive int, got {value!r}")


DEFAULT_LIMITS = Limits()

ENV_MAX_VERTICES = "RP3LINK_MAX_VERTICES"
ENV_MAX_DIM = "RP3LINK_MAX_DIM"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        pass
    else:
        if value >= 1:
            return value
    raise ValueError(f"{name} must be a positive integer, got {raw!r}")


def limits_from_env() -> Limits:
    """The default limits, with RP3LINK_MAX_VERTICES / RP3LINK_MAX_DIM
    overrides when set."""
    return Limits(
        max_vertices=_env_int(ENV_MAX_VERTICES, DEFAULT_LIMITS.max_vertices),
        max_dim=_env_int(ENV_MAX_DIM, DEFAULT_LIMITS.max_dim),
    )
