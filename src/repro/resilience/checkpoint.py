"""Result entries: one codec, one atomic writer, one verifying reader.

A finished per-layer result -- a (scheme, layer spec, config, seed,
source) key and its :class:`~repro.sim.results.LayerResult` -- lives in
exactly one place: the store, which holds finished results only. With
``$REPRO_CACHE_DIR`` set, :mod:`repro.core.workload` publishes every
result as ``result-<sha>.json`` and reads it back on a memo miss, so a
warm process answers without synthesizing or simulating. The same
entries carry the two recovery paths:

- **Resume.** ``repro run --resume DIR`` uses *DIR* as the store, so a
  rerun after a crash answers every published result from it and
  re-executes only the work that was in flight, synthesizing its layers
  afresh.
- **Distributed sweeps.** :mod:`repro.dist.worker` coordinates on the
  entries: a unit is done when its entry exists.

An entry is one JSON document ``{"sha256": <hex>, "body": [key,
value]}``. The checksum covers the body's bytes exactly as written; the
body holds the *full* key, which a keyed read compares (a mismatch is a
digest collision, counted as ``cache.disk.collision``). The codec
(:func:`encode` / :func:`decode`) covers a closed set of types -- the
result records (``LayerResult``, ``Breakdown``, ``Traffic``,
``CounterSet``, and Fig 14's ``Figure14Data``), str-keyed dicts, lists,
tuples, bool, int, float, str, None and numeric ndarrays -- and rejects
anything else with ``TypeError``. Every JSON object in an entry is a
one-key tagged wrapper: ``{"dict": [[k, v], ...]}``, ``{"tuple": [...]}``,
``{"<Record>": [field, ...]}`` in field order, ``{"ndarray": [dtype,
shape, base64]}`` and ``{"f8": <hex>}``. So :func:`parse_entry` decodes
an entry in one ``json.loads`` pass, each wrapper unwrapped by the
parser's object hook as it closes. Finite floats travel as JSON numbers
-- Python writes the shortest decimal that reads back to the same
double, so they round-trip exactly -- and only non-finite ones (signed
infinities, NaNs with their payloads) as IEEE-754 bit patterns; arrays
travel as raw bytes with dtype and shape. Every value round-trips
bit-exactly; nothing is ever unpickled.

Entries are append-only and content-keyed: publishing an existing entry
is a no-op, concurrent writers go through ``tempfile.mkstemp`` +
``os.replace`` so a half-written entry is never visible under its final
name, and an entry that still rots on disk (truncated, garbled, one bit
flipped) fails its checksum on load and is quarantined to ``.corrupt``
and counted -- a damaged entry degrades to recomputation, never to a
crash or a wrong figure.

Pool workers bind the parent's run configuration, store directory
included, so a fanned-out run persists from every process.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import math
import os
import pathlib
import struct
import tempfile

import numpy as np

from repro import telemetry
from repro.telemetry import events

__all__ = [
    "DAMAGE",
    "decode",
    "encode",
    "entry_path",
    "parse_entry",
    "quarantine",
    "read_entry",
    "write_atomic",
    "write_entry",
]

_PREFIX = "result-"
_SUFFIX = ".json"

#: ndarray kinds the codec carries: bool, signed, unsigned, float, complex.
_NUMERIC = "biufc"

_log = telemetry.get_logger("checkpoint")


# -- the entry codec ----------------------------------------------------------


@functools.cache
def _records() -> dict[str, type]:
    """The result dataclasses the codec encodes, by class name."""
    # Late imports: the simulators import the workload cache, which
    # imports this module.
    from repro.arch.memory import Traffic
    from repro.balance.metrics import Figure14Data
    from repro.profiling.counters import CounterSet
    from repro.sim.results import Breakdown, LayerResult

    return {
        cls.__name__: cls
        for cls in (LayerResult, Breakdown, Traffic, CounterSet, Figure14Data)
    }


def encode(value):
    """*value* as JSON data that :func:`decode` turns back into it.

    Raises ``TypeError`` for any type outside the codec's closed set.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {"f8": struct.pack(">d", value).hex()}
    if isinstance(value, list):
        return [encode(v) for v in value]
    if isinstance(value, tuple):
        return {"tuple": [encode(v) for v in value]}
    if isinstance(value, dict):
        for k in value:
            if not isinstance(k, str):
                raise TypeError(f"cannot encode a dict key of type {type(k).__name__}")
        return {"dict": [[k, encode(v)] for k, v in value.items()]}
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in _NUMERIC:
            raise TypeError(f"cannot encode an ndarray of dtype {value.dtype}")
        raw = base64.b64encode(value.tobytes()).decode("ascii")
        return {"ndarray": [value.dtype.str, list(value.shape), raw]}
    name = type(value).__name__
    if _records().get(name) is type(value):
        fields = dataclasses.fields(value)
        return {name: [encode(getattr(value, f.name)) for f in fields]}
    raise TypeError(f"cannot encode {name}")


def _ndarray(body) -> np.ndarray:
    dtype, shape, raw = body
    dtype = np.dtype(dtype)
    if dtype.kind not in _NUMERIC:
        # Raw bytes must never become object pointers.
        raise ValueError(f"not a numeric dtype: {dtype}")
    buf = bytearray(base64.b64decode(raw, validate=True))
    return np.frombuffer(buf, dtype=dtype).reshape(shape)


_TAGS = {
    "dict": dict,
    "tuple": tuple,
    "f8": lambda body: struct.unpack(">d", bytes.fromhex(body))[0],
    "ndarray": _ndarray,
}


def _unwrap(pairs: list):
    """The value of one tagged wrapper, its body already decoded.

    The ``object_pairs_hook`` of every decode: the parser calls it as
    each JSON object closes, innermost first, so one ``json.loads``
    rebuilds the whole value.
    """
    if len(pairs) != 1:
        raise ValueError(f"not an encoded value: an object of {len(pairs)} keys")
    ((tag, body),) = pairs
    build = _TAGS.get(tag)
    if build is not None:
        return build(body)
    cls = _records().get(tag)
    if cls is None:
        raise ValueError(f"unknown encoded type {tag!r}")
    return cls(*body)


def _loads(text: str | bytes):
    return json.loads(text, object_pairs_hook=_unwrap)


def _dumps(data) -> str:
    return json.dumps(data, separators=(",", ":"), allow_nan=False)


def decode(data):
    """The value :func:`encode` turned into *data*."""
    return _loads(_dumps(data))


_HEAD = b'{"sha256":"'
_BODY = b'","body":'
_DIGEST_END = len(_HEAD) + 64


def _entry_bytes(key: tuple, value) -> bytes:
    body = _dumps([encode(key), encode(value)]).encode()
    return _HEAD + hashlib.sha256(body).hexdigest().encode() + _BODY + body + b"}"


#: What parsing a damaged entry raises.
DAMAGE = (ValueError, KeyError, TypeError, AttributeError, struct.error)


def parse_entry(raw: bytes) -> tuple[tuple, object]:
    """``(key, value)`` of an entry's bytes; one of :data:`DAMAGE` if damaged."""
    body = raw[_DIGEST_END + len(_BODY):-1]
    if (
        not raw.startswith(_HEAD)
        or raw[_DIGEST_END:_DIGEST_END + len(_BODY)] != _BODY
        or not raw.endswith(b"}")
        or hashlib.sha256(body).hexdigest().encode() != raw[len(_HEAD):_DIGEST_END]
    ):
        raise ValueError("entry checksum mismatch")
    key, value = _loads(body)
    if not isinstance(key, tuple):
        raise ValueError("entry key is not a tuple")
    return key, value


# -- entries on disk ------------------------------------------------------------


def entry_path(base: pathlib.Path, key: tuple) -> pathlib.Path:
    """The entry file for one result key (content-addressed)."""
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
    return base / f"{_PREFIX}{digest}{_SUFFIX}"


def write_atomic(path: str | os.PathLike, data: bytes | str) -> pathlib.Path:
    """Publish *data* at *path* in one step: a temp file beside it, renamed.

    Readers see the old file or the new one, never a torn write; on any
    failure the temp file is removed and the error propagates.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_entry(path: pathlib.Path, key: tuple, value) -> int:
    """Atomically publish *key* -> *value* at *path* unless it exists.

    Returns the bytes this call wrote: 0 when the entry already existed.
    Raises ``TypeError`` (before touching the disk) when *value* holds a
    type the codec does not cover, and ``OSError`` when the volume
    refuses the write.
    """
    if path.exists():
        return 0
    data = _entry_bytes(key, value)
    write_atomic(path, data)
    return len(data)


def read_entry(
    path: pathlib.Path, counter: str, key: tuple
) -> tuple[tuple, object] | None:
    """The verified ``(key, value)`` at *path*, or ``None``.

    ``None`` when the file is absent or unreadable; when it is damaged
    (quarantined: renamed to ``.corrupt``, *counter* incremented); or
    when the entry holds a key other than *key* (a digest collision,
    counted as ``cache.disk.collision``).
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        # A read error is the volume's problem, not the entry's; leave
        # the file alone and recompute.
        _log.debug("entry read failed %s", telemetry.kv(path=path, error=exc))
        return None
    try:
        found, value = parse_entry(raw)
    except DAMAGE as exc:
        quarantine(path, exc, counter)
        return None
    if found != key:
        # The 96-bit file name matched but the full key does not.
        # Recompute rather than trust -- and count it, because a
        # collision storm reads as a plain miss otherwise.
        telemetry.count("cache.disk.collision")
        _log.warning("entry digest collision %s", telemetry.kv(path=path))
        return None
    return found, value


def quarantine(path: pathlib.Path, error: Exception, counter: str) -> None:
    """Move a damaged entry aside so it is never trusted again.

    Renames, never deletes: the bytes may matter for a post-mortem
    (``repro doctor --prune`` clears them).
    """
    telemetry.count(counter)
    events.emit("cache.quarantine", path=str(path), error=str(error))
    _log.warning(
        "quarantining corrupt entry %s", telemetry.kv(path=path, error=error)
    )
    try:
        os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
    except OSError:
        pass  # best-effort: recompute happens regardless
