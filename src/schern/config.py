"""Runtime configuration: flags override SCHERN_* environment, which
overrides the defaults."""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from .chern import DEFAULT_ENUMERATION_CEILING

ENV_PREFIX = "SCHERN_"


@dataclass(frozen=True)
class Config:
    enum_ceiling: int = DEFAULT_ENUMERATION_CEILING
    max_ell: int = 7
    cache_path: Path | None = None
    verify_cache: bool = False
    use_cache: bool = True

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "Config":
        env = os.environ if env is None else env
        cfg = cls()
        if v := env.get(ENV_PREFIX + "ENUM_CEILING"):
            cfg = replace(cfg, enum_ceiling=int(v))
        if v := env.get(ENV_PREFIX + "MAX_ELL"):
            cfg = replace(cfg, max_ell=int(v))
        if v := env.get(ENV_PREFIX + "CACHE"):
            cfg = replace(cfg, cache_path=Path(v))
        if v := env.get(ENV_PREFIX + "VERIFY_CACHE"):
            cfg = replace(cfg, verify_cache=v not in ("", "0", "false"))
        return cfg


def default_cache_path(env: dict[str, str] | None = None) -> Path:
    env = os.environ if env is None else env
    base = Path(env.get("XDG_CACHE_HOME") or "~/.cache").expanduser()
    return base / "schern" / "results.jsonl"
