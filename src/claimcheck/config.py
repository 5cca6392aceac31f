"""Application configuration: JSON file + flags + environment, with precedence
flag > file > env. Environment variables carry secrets (API keys) only, plus
optional endpoint defaults."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .agent import EpisodeConfig
from .errors import ConfigError
from .kg import FixtureKgBackend, WikidataBackend
from .llm import CassetteBackend, HttpBackend, ScriptedBackend
from .web import FixtureSearchProvider, SerperProvider

ENV_PREFIX = "CLAIMCHECK_"


@dataclass
class AppConfig:
    backend: str = "scripted"  # live | scripted | replay
    llm_endpoint: str = ""
    llm_model: str = "gpt-4o"
    llm_api_key_env: str = "CLAIMCHECK_API_KEY"
    llm_script_path: str = ""
    cassette_path: str = ""

    kg: str = ""  # fixture path, or "live"
    kg_endpoint: str = "https://query.wikidata.org/sparql"
    kg_action_api: str = "https://www.wikidata.org/w/api.php"
    kg_cache_dir: str = ""

    web: str = ""  # fixture path, "live", or "" to disable
    web_api_key_env: str = "SERPER_API_KEY"

    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    policy_path: str = ""
    seed: int = 0
    parallel: int = 1
    epochs: int = 20
    out: str = ""

    def validate(self):
        if self.backend in ("scripted",) and not self.llm_script_path:
            raise ConfigError("scripted backend requires a script file path")
        if self.backend == "replay" and not self.cassette_path:
            raise ConfigError("replay backend requires a cassette path")
        if self.backend == "live" and not self.llm_endpoint:
            raise ConfigError("live backend requires an endpoint URL")
        if not self.kg:
            raise ConfigError("kg must be 'live' or a fixture file path")
        if self.kg != "live" and not os.path.exists(self.kg):
            raise ConfigError(f"kg fixture not found: {self.kg}")
        if self.web and self.web != "live" and not os.path.exists(self.web):
            raise ConfigError(f"web fixture not found: {self.web}")
        return self


_EPISODE_FIELDS = {
    "k": "k",
    "n_hops": "n_hops",
    "n_init": "n_init",
    "max_steps": "max_steps",
    "max_web_searches": "max_web_searches",
}


def load_config(config_path=None, overrides=None) -> AppConfig:
    """Merge env defaults, an optional JSON file, and CLI overrides."""
    cfg = AppConfig()
    # env layer (endpoints only; secrets are read lazily by the backends)
    env_endpoint = os.environ.get(ENV_PREFIX + "LLM_ENDPOINT")
    if env_endpoint:
        cfg.llm_endpoint = env_endpoint

    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        for key, value in data.items():
            if key in _EPISODE_FIELDS:
                setattr(cfg.episode, key, int(value))
            elif hasattr(cfg, key) and key != "episode":
                setattr(cfg, key, value)
            elif key == "episode":
                for ek, ev in value.items():
                    if hasattr(cfg.episode, ek):
                        setattr(cfg.episode, ek, ev)
            else:
                raise ConfigError(f"unknown config key {key!r}")

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key in _EPISODE_FIELDS:
            setattr(cfg.episode, key, int(value))
        elif hasattr(cfg, key):
            setattr(cfg, key, value)
        else:
            raise ConfigError(f"unknown override {key!r}")
    return cfg


def build_llm_backend(cfg: AppConfig):
    if cfg.backend == "scripted":
        try:
            with open(cfg.llm_script_path, encoding="utf-8") as fh:
                script = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read LLM script: {exc}") from exc
        return ScriptedBackend(
            by_fingerprint=script.get("by_fingerprint"),
            sequence=script.get("sequence"),
            default=script.get("default"),
        )
    if cfg.backend == "replay":
        return CassetteBackend(cfg.cassette_path)
    if cfg.backend == "live":
        return HttpBackend(
            base_url=cfg.llm_endpoint,
            model=cfg.llm_model,
            api_key_env=cfg.llm_api_key_env,
        )
    raise ConfigError(f"unknown LLM backend kind {cfg.backend!r}")


def build_kg_backend(cfg: AppConfig):
    if cfg.kg == "live":
        return WikidataBackend(
            sparql_endpoint=cfg.kg_endpoint,
            action_api=cfg.kg_action_api,
            cache_dir=cfg.kg_cache_dir or None,
        )
    return FixtureKgBackend(path=cfg.kg)


def build_web_provider(cfg: AppConfig):
    if not cfg.web:
        return None
    if cfg.web == "live":
        return SerperProvider(api_key_env=cfg.web_api_key_env)
    return FixtureSearchProvider(path=cfg.web)
