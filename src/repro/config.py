"""One frozen run configuration: every ``REPRO_*`` knob, parsed once.

:class:`RunConfig` has one field per knob, and its field declarations
are the parse table (variable, type, default, minimum or choices).
:meth:`RunConfig.from_env` walks it: an invalid value warns once per
(variable, value), counts ``env.invalid`` and yields the default (or
clamps to the minimum). Code reads :func:`current`. An entry point binds
a config with :func:`use`, one ``contextvars`` variable, so a scoped
change -- ``use(dataclasses.replace(current(), profile="timeline"))`` --
ends with its ``with`` block and never touches ``os.environ``. With
nothing bound, :func:`current` parses the process environment (memoised
on the knobs' raw values), so scripts and tests that configure through
the environment keep working. New threads start unbound: run them under
``contextvars.copy_context()`` to share the caller's config.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator, Mapping

__all__ = ["RunConfig", "Knob", "KNOBS", "FIDELITY_LEVELS", "current", "use", "bind"]

#: The fidelity ladder, cheapest first (see :mod:`repro.analytical.fidelity`).
FIDELITY_LEVELS = ("analytical", "counters", "timeline", "trace")

_LOG_LEVELS = ("debug", "info", "warning", "warn", "error", "critical", "fatal", "notset")
_ON_OFF = {"1": "on", "yes": "on", "true": "on", "0": "off", "no": "off", "false": "off"}


def _knob(env: str, kind: type, default, *, minimum=None, choices=(), aliases=None):
    return field(default=default, metadata=dict(
        env=env, kind=kind, minimum=minimum, choices=choices, aliases=aliases or {}))


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one run; frozen and hashable (the pool keys on it).

    ``str`` fields without choices keep the raw value verbatim, ``None``
    when unset, so an explicitly empty value stays distinct from none.
    """

    jobs: int = _knob("REPRO_JOBS", int, 1, minimum=1)
    fidelity: str = _knob("REPRO_FIDELITY", str, "counters", choices=FIDELITY_LEVELS)
    profile: str = _knob(
        "REPRO_PROFILE", str, "counters", choices=("off", "counters", "timeline")
    )
    profile_bins: int = _knob("REPRO_PROFILE_BINS", int, 32, minimum=4)
    no_native: bool = _knob("REPRO_NO_NATIVE", bool, False)
    native_dir: str | None = _knob("REPRO_NATIVE_DIR", str, None)
    cache_dir: str | None = _knob("REPRO_CACHE_DIR", str, None)
    cache_bytes: int = _knob("REPRO_CACHE_BYTES", int, 2 * 1024**3, minimum=0)
    shard: str | None = _knob("REPRO_SHARD", str, None)
    worker_id: str | None = _knob("REPRO_WORKER_ID", str, None)
    claim_ttl: float = _knob("REPRO_CLAIM_TTL", float, 300.0, minimum=0.1)
    claim_poll: float = _knob("REPRO_CLAIM_POLL", float, 0.05, minimum=0.001)
    single_flight: str = _knob("REPRO_SINGLE_FLIGHT", str, "on", choices=("on", "off"))
    health_interval: float = _knob("REPRO_HEALTH_INTERVAL", float, 0.0, minimum=0.0)
    retries: int = _knob("REPRO_RETRIES", int, 2, minimum=0)
    retry_backoff: float = _knob("REPRO_RETRY_BACKOFF", float, 0.05, minimum=0.0)
    item_timeout: float = _knob("REPRO_ITEM_TIMEOUT", float, 0.0, minimum=0.0)
    fault: str | None = _knob("REPRO_FAULT", str, None)
    fault_seed: int = _knob("REPRO_FAULT_SEED", int, 0)
    fault_sleep: float = _knob("REPRO_FAULT_SLEEP", float, 0.5, minimum=0.0)
    events: str | None = _knob("REPRO_EVENTS", str, None)
    metrics: str | None = _knob("REPRO_METRICS", str, None)
    progress: str = _knob(
        "REPRO_PROGRESS", str, "auto", choices=("auto", "on", "off"), aliases=_ON_OFF
    )
    log_level: str = _knob("REPRO_LOG_LEVEL", str, "warning", choices=_LOG_LEVELS)
    log_format: str = _knob("REPRO_LOG_FORMAT", str, "human", choices=("human", "json"))

    @classmethod
    def from_env(cls, env: Mapping[str, str]) -> "RunConfig":
        """Parse every knob from *env* (``os.environ`` or any mapping)."""
        return cls(**{knob.field: knob.parse(env.get(knob.env)) for knob in KNOBS})

    def as_env(self) -> dict[str, str]:
        """The non-default knobs under their ``REPRO_*`` names, as strings."""
        out = {}
        for knob in KNOBS:
            value = getattr(self, knob.field)
            if value != knob.default:
                if isinstance(value, bool) or (isinstance(value, float) and value.is_integer()):
                    value = int(value)
                out[knob.env] = str(value)
        return out


@dataclass(frozen=True)
class Knob:
    """One row of the parse table (read off a :class:`RunConfig` field)."""

    env: str
    field: str
    kind: type
    default: object
    minimum: float | None
    choices: tuple[str, ...]
    aliases: Mapping[str, str]

    def parse(self, raw: str | None):
        """The field value for the raw environment string *raw*."""
        if raw is None:
            return self.default
        if self.kind is bool:
            return bool(raw)
        if self.kind is str and not self.choices:
            return raw
        text = raw.strip()
        if not text:
            return self.default
        if self.choices:
            value = self.aliases.get(text.lower(), text.lower())
            if value in self.choices:
                return value
            return self._invalid(raw, self.default, f"not one of {'/'.join(self.choices)}")
        try:
            value = self.kind(text)
        except ValueError:
            reason = "not an integer" if self.kind is int else "not a number"
            return self._invalid(raw, self.default, reason)
        if self.minimum is not None and value < self.minimum:
            return self._invalid(raw, self.minimum, f"below minimum {self.minimum}")
        return value

    def _invalid(self, raw: str, used, reason: str):
        """Warn (once per variable, value and reason) and return *used*."""
        key = (self.env, raw, reason)
        with _warned_lock:
            fresh = key not in _warned
            _warned.add(key)
        if fresh:
            # Imported here: telemetry reads its own settings from this module.
            from repro import telemetry

            telemetry.count("env.invalid")
            telemetry.get_logger("env").warning(
                "invalid environment value %s",
                telemetry.kv(var=self.env, value=raw, reason=reason, using=used),
            )
        return used


#: The parse table, in field order.
KNOBS = tuple(Knob(field=f.name, default=f.default, **f.metadata) for f in fields(RunConfig))

_warned: set[tuple[str, str, str]] = set()
_warned_lock = threading.Lock()
_BOUND: contextvars.ContextVar[RunConfig | None] = contextvars.ContextVar(
    "repro_run_config", default=None
)
# The unbound fallback runs on hot paths (every event emit), so its memo
# key probes the dict os.environ wraps (CPython's ``os._Environ._data``,
# keyed by ``encodekey``) instead of decoding lookups: ~2 us a call
# rather than ~30 us for 25 ``os.environ.get`` misses, over ~12k calls
# in one evaluation.
_RAW_NAMES = tuple(os.environ.encodekey(knob.env) for knob in KNOBS)


@functools.lru_cache(maxsize=64)
def _environ_config(raw_values: tuple) -> RunConfig:
    """The config of the knobs' raw environment values (bytes or str)."""
    present = {k.env: os.fsdecode(v) for k, v in zip(KNOBS, raw_values) if v is not None}
    return RunConfig.from_env(present)


def current() -> RunConfig:
    """The bound config, else the one the process environment describes."""
    cfg = _BOUND.get()
    if cfg is not None:
        return cfg
    return _environ_config(tuple(map(os.environ._data.get, _RAW_NAMES)))


@contextmanager
def use(cfg: RunConfig) -> Iterator[RunConfig]:
    """Bind *cfg* for the ``with`` block (this thread and context only)."""
    token = _BOUND.set(cfg)
    try:
        yield cfg
    finally:
        _BOUND.reset(token)


def bind(cfg: RunConfig) -> None:
    """Bind *cfg* for the rest of this context: a pool worker's whole life."""
    _BOUND.set(cfg)
