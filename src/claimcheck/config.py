"""Application configuration: JSON file + flags + environment, with precedence
flag > file > env. Environment variables carry secrets (API keys) only, plus
optional endpoint defaults."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

from .agent import EpisodeConfig
from .errors import ConfigError
from .kg import FixtureKgBackend, WikidataBackend
from .llm import HttpBackend, ReplyStore, ScriptedBackend
from .policy import PromptPolicy, default_policy
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
    parallel: int | None = None  # episodes run at once; None: the command's default
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
        e = self.episode
        if min(e.k, e.n_hops, e.max_steps) < 1:
            raise ConfigError(
                f"k, n_hops and max_steps must be at least 1, got {e.k}, {e.n_hops}, {e.max_steps}"
            )
        if e.max_web_searches < 0:
            raise ConfigError(f"max_web_searches must be at least 0, got {e.max_web_searches}")
        if self.parallel is not None and self.parallel < 1:
            raise ConfigError(f"parallel must be at least 1, got {self.parallel}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be at least 0, got {self.epochs}")
        return self


_EPISODE_FIELDS = tuple(f.name for f in fields(EpisodeConfig))
_INT_FIELDS = _EPISODE_FIELDS + ("seed", "parallel", "epochs")
# every key a config file or a command-line flag may set
CONFIG_KEYS = tuple(f.name for f in fields(AppConfig) if f.name != "episode") + _EPISODE_FIELDS


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_file(what, path, load=_json):
    """``load(path)``, by default the file's JSON data; every input file is
    read through here. A missing, unreadable, non-UTF-8 or malformed file,
    JSON nested past the recursion limit included, raises a ConfigError that
    names it."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _set(cfg, key, value):
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    if key in _INT_FIELDS:
        try:
            # a bool is an int to Python, but true is no count of anything,
            # and int() would truncate 4.9 to 4
            if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
                raise TypeError
            value = int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    elif not isinstance(value, str):
        # a path of 5 would open file descriptor 5
        raise ConfigError(f"{key} must be a string, got {value!r}")
    setattr(cfg.episode if key in _EPISODE_FIELDS else cfg, key, value)


def load_config(config_path=None, overrides=None) -> AppConfig:
    """Merge env defaults, an optional JSON file, and CLI overrides. The file
    may nest the episode keys under "episode"."""
    cfg = AppConfig()
    # env layer (endpoints only; secrets are read lazily by the backends)
    env_endpoint = os.environ.get(ENV_PREFIX + "LLM_ENDPOINT")
    if env_endpoint:
        cfg.llm_endpoint = env_endpoint

    if config_path:
        data = load_file("config", config_path)
        if not isinstance(data, dict):
            raise ConfigError(f"config {config_path} is not a JSON object")
        for key, value in data.items():
            if key == "episode" and isinstance(value, dict):
                for name, setting in value.items():
                    if name not in _EPISODE_FIELDS:
                        raise ConfigError(f"unknown episode config key {name!r}")
                    _set(cfg, name, setting)
            else:
                _set(cfg, key, value)

    for key, value in (overrides or {}).items():
        if value is not None:
            _set(cfg, key, value)
    return cfg


def build_policy(cfg: AppConfig):
    if cfg.policy_path:
        return load_file("policy", cfg.policy_path,
                         lambda path: PromptPolicy.from_jsonable(_json(path)))
    return default_policy()


def _scripted_backend(path):
    script = _json(path)
    if not isinstance(script, dict):
        raise ValueError("an LLM script must be a JSON object")
    replies = script.get("by_fingerprint") or {}
    sequence = script.get("sequence") or []
    default = script.get("default")
    if not (
        isinstance(replies, dict)
        and isinstance(sequence, list)
        and all(isinstance(reply, str) for reply in [*replies.values(), *sequence])
        and (default is None or isinstance(default, str))
    ):
        raise ValueError(
            "by_fingerprint must map fingerprints to strings, sequence must be a list of "
            "strings and default a string"
        )
    return ScriptedBackend(by_fingerprint=replies, sequence=sequence, default=default)


def _replay_backend(path):
    os.stat(path)  # a missing cassette is an error, not an empty one
    return ScriptedBackend(by_fingerprint=ReplyStore(path))


def build_llm_backend(cfg: AppConfig):
    if cfg.backend == "scripted":
        return load_file("LLM script", cfg.llm_script_path, _scripted_backend)
    if cfg.backend == "replay":
        return load_file("cassette", cfg.cassette_path, _replay_backend)
    if cfg.backend == "live":
        return HttpBackend(
            base_url=cfg.llm_endpoint,
            model=cfg.llm_model,
            api_key_env=cfg.llm_api_key_env,
        )
    raise ConfigError(f"unknown LLM backend kind {cfg.backend!r}")


def build_kg_backend(cfg: AppConfig):
    if cfg.kg == "live":
        return load_file("kg cache", cfg.kg_cache_dir, lambda cache_dir: WikidataBackend(
            sparql_endpoint=cfg.kg_endpoint,
            action_api=cfg.kg_action_api,
            cache_dir=cache_dir or None,
        ))
    return load_file("kg fixture", cfg.kg, lambda path: FixtureKgBackend(_json(path)))


def build_web_provider(cfg: AppConfig):
    if not cfg.web:
        return None
    if cfg.web == "live":
        return SerperProvider(api_key_env=cfg.web_api_key_env)
    return load_file("web fixture", cfg.web, lambda path: FixtureSearchProvider(_json(path)))
