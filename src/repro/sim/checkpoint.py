"""Versioned on-disk checkpoints for frame simulations.

The protocol runs every frame to completion, so the frame boundary is
the natural snapshot point: between frames every layer (protocol,
packet store, injection process, stateful models, metrics) is
quiescent, and a restored snapshot continues bit-identically to an
uninterrupted run on every backend (each static sub-run starts and
finishes inside one frame).

File layout (all little-endian)::

    magic    8 bytes   b"RPROCKPT"
    version  4 bytes   uint32 format version (currently 1)
    digest  32 bytes   sha256 of everything after this field
    body
      header_len  8 bytes  uint64, length of the JSON header
      header      JSON: {"version", "fingerprint", "state"} where every
                  numpy array in the state tree is replaced by an
                  {"__array__": key, "dtype", "shape"} placeholder; an
                  optional "stored_dtype" marks an int64 array written
                  narrowed to int32 (values checked to fit) and widened
                  back on load
      arrays      an .npz archive (numpy's own format, allow_pickle
                  off) holding the placeholder keys

Writes are atomic (tmp file + fsync + ``os.replace``), so a crash
mid-write leaves either the previous checkpoint or none — never a torn
file that parses. Loads validate magic, version, digest, JSON shape and
per-array dtype/shape and raise
:class:`~repro.errors.ConfigurationError` (never a numpy traceback) on
anything incompatible or truncated.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

MAGIC = b"RPROCKPT"
FORMAT_VERSION = 1

#: Frames between automatic snapshots in :func:`run_with_checkpoints`.
#: Sized so steady-state overhead stays a few percent on the headline
#: workload (a snapshot costs ~1-2 frames of compute there, see
#: ``BENCH_p6.json``); a crash re-computes at most this many frames.
#: Slow workloads (minutes per frame) should pass a smaller interval.
DEFAULT_SNAPSHOT_INTERVAL = 50


# ----------------------------------------------------------------------
# Array/JSON splitting
# ----------------------------------------------------------------------


_INT32_MIN = np.iinfo(np.int32).min
_INT32_MAX = np.iinfo(np.int32).max


def _narrow(value: np.ndarray) -> Optional[np.ndarray]:
    """An int32 copy of an int64 array whose values fit, else ``None``.

    Checkpoint payloads are dominated by int64 id/frame arrays whose
    values are far below 2**31; storing them as int32 halves the bytes
    hashed and written per snapshot. The original dtype is recorded in
    the placeholder and restored exactly on load.
    """
    if value.dtype != np.int64 or value.size == 0:
        return None
    if value.min() < _INT32_MIN or value.max() > _INT32_MAX:
        return None
    return value.astype(np.int32)


def _split_arrays(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Replace ndarray leaves with placeholders, collecting the arrays."""
    if isinstance(value, np.ndarray):
        key = f"a{len(arrays)}"
        placeholder = {
            "__array__": key,
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
        narrowed = _narrow(value)
        if narrowed is not None:
            arrays[key] = narrowed
            placeholder["stored_dtype"] = str(narrowed.dtype)
        else:
            arrays[key] = value
        return placeholder
    if isinstance(value, dict):
        return {str(k): _split_arrays(v, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_split_arrays(v, arrays) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _join_arrays(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`_split_arrays`, validating dtype and shape."""
    if isinstance(value, dict):
        if "__array__" in value:
            key = value["__array__"]
            if key not in arrays:
                raise ConfigurationError(
                    f"checkpoint is missing array payload '{key}'"
                )
            arr = arrays[key]
            expected_dtype = np.dtype(value.get("dtype", arr.dtype))
            expected_shape = tuple(value.get("shape", arr.shape))
            stored = value.get("stored_dtype")
            payload_dtype = (
                np.dtype(stored) if stored is not None else expected_dtype
            )
            if arr.dtype != payload_dtype or arr.shape != expected_shape:
                raise ConfigurationError(
                    f"checkpoint array '{key}' should be {payload_dtype}"
                    f"{expected_shape} but the payload holds {arr.dtype}"
                    f"{arr.shape}"
                )
            if arr.dtype != expected_dtype:
                arr = arr.astype(expected_dtype)
            return arr
        return {k: _join_arrays(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_join_arrays(v, arrays) for v in value]
    return value


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------


def write_checkpoint(
    path: str,
    state: Dict[str, Any],
    fingerprint: Optional[str] = None,
    durable: bool = True,
) -> None:
    """Atomically write ``state`` (a ``state_dict`` tree) to ``path``.

    ``durable=False`` skips the fsync: ``os.replace`` still guarantees a
    crash of the *process* leaves either the previous checkpoint or the
    complete new one, but a power loss may tear the file. The checksum
    catches a torn file on load and the caller falls back to a fresh
    run, so periodic mid-run snapshots use this cheaper mode; the final
    snapshot of a run is always written durably.
    """
    arrays: Dict[str, np.ndarray] = {}
    plain = _split_arrays(state, arrays)
    header = json.dumps(
        {
            "version": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "state": plain,
        },
        sort_keys=True,
    ).encode("utf-8")
    payload = io.BytesIO()
    np.savez(payload, **arrays)
    header_len = struct.pack("<Q", len(header))
    # Hash and write the body piecewise — concatenating ``bytes`` here
    # would copy the (potentially large) array payload twice per save.
    digest = hashlib.sha256()
    digest.update(header_len)
    digest.update(header)
    digest.update(payload.getbuffer())
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", FORMAT_VERSION))
        handle.write(digest.digest())
        handle.write(header_len)
        handle.write(header)
        handle.write(payload.getbuffer())
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_checkpoint(
    path: str, expect_fingerprint: Optional[str] = None
) -> Tuple[Dict[str, Any], Optional[str]]:
    """Read and validate a checkpoint; returns ``(state, fingerprint)``.

    Every failure mode — missing file, foreign format, truncation,
    bit-rot, version skew, fingerprint mismatch — raises
    :class:`ConfigurationError` with a message naming the problem.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read checkpoint {path}: {exc}") from exc
    prefix = len(MAGIC) + 4 + 32
    if len(blob) < prefix or not blob.startswith(MAGIC):
        raise ConfigurationError(f"{path} is not a repro checkpoint")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"{path} uses checkpoint format version {version}; this build "
            f"reads version {FORMAT_VERSION}"
        )
    digest = blob[len(MAGIC) + 4 : prefix]
    body = blob[prefix:]
    if hashlib.sha256(body).digest() != digest:
        raise ConfigurationError(
            f"{path} is corrupt or truncated (checksum mismatch)"
        )
    if len(body) < 8:
        raise ConfigurationError(f"{path} is corrupt (empty body)")
    (header_len,) = struct.unpack_from("<Q", body, 0)
    if 8 + header_len > len(body):
        raise ConfigurationError(f"{path} is corrupt (truncated header)")
    try:
        header = json.loads(body[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"{path} has an unreadable header: {exc}"
        ) from exc
    if not isinstance(header, dict) or "state" not in header:
        raise ConfigurationError(f"{path} has a malformed header")
    fingerprint = header.get("fingerprint")
    if (
        expect_fingerprint is not None
        and fingerprint is not None
        and fingerprint != expect_fingerprint
    ):
        raise ConfigurationError(
            f"{path} was written for a different run configuration "
            f"(fingerprint {fingerprint[:12]}... != "
            f"{expect_fingerprint[:12]}...)"
        )
    try:
        with np.load(
            io.BytesIO(body[8 + header_len :]), allow_pickle=False
        ) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except Exception as exc:  # numpy raises several zipfile/ValueError types
        raise ConfigurationError(
            f"{path} has an unreadable array payload: {exc}"
        ) from exc
    return _join_arrays(header["state"], arrays), fingerprint


# ----------------------------------------------------------------------
# Simulation-level helpers
# ----------------------------------------------------------------------


def save_checkpoint(
    path: str, sim, fingerprint: Optional[str] = None, durable: bool = True
) -> None:
    """Snapshot ``sim`` (a :class:`FrameSimulation`) to ``path``."""
    # copy=False: the snapshot is serialized immediately, so the array
    # leaves may alias the live simulation without a defensive copy.
    write_checkpoint(
        path,
        sim.state_dict(copy=False),
        fingerprint=fingerprint,
        durable=durable,
    )


def load_checkpoint_into(
    sim, path: str, fingerprint: Optional[str] = None
) -> int:
    """Restore ``path`` onto a freshly built ``sim``; returns frames run."""
    state, _ = read_checkpoint(path, expect_fingerprint=fingerprint)
    sim.load_state_dict(state)
    return sim.frames_run


def run_with_checkpoints(
    sim,
    frames: int,
    path: str,
    interval: Optional[int] = None,
    fingerprint: Optional[str] = None,
):
    """Run ``sim`` up to ``frames`` total, snapshotting along the way.

    Continues from wherever ``sim`` currently is (0 for a fresh build,
    the restored frame after :func:`load_checkpoint_into`), writing a
    checkpoint every ``interval`` frames and once at the end. Returns
    the metrics recorder.
    """
    if interval is None:
        interval = DEFAULT_SNAPSHOT_INTERVAL
    if interval < 1:
        raise ConfigurationError(
            f"snapshot interval must be >= 1, got {interval}"
        )
    if sim.frames_run > frames:
        raise ConfigurationError(
            f"simulation has already run {sim.frames_run} frames, past the "
            f"requested horizon of {frames}"
        )
    while sim.frames_run < frames:
        chunk = min(interval, frames - sim.frames_run)
        sim.run(chunk)
        # Mid-run snapshots skip the fsync (process-crash safe via
        # os.replace; a torn power-loss write is caught by the checksum
        # and recovered from); only the final snapshot pays for full
        # durability.
        save_checkpoint(
            path,
            sim,
            fingerprint=fingerprint,
            durable=sim.frames_run >= frames,
        )
    return sim.metrics


__all__ = [
    "DEFAULT_SNAPSHOT_INTERVAL",
    "FORMAT_VERSION",
    "MAGIC",
    "read_checkpoint",
    "write_checkpoint",
    "save_checkpoint",
    "load_checkpoint_into",
    "run_with_checkpoints",
]
