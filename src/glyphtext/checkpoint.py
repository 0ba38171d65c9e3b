"""Binary checkpoint serialization.

Little-endian layout:

    magic "ARDC" | version u32
    config blob: u32 byte length, then UTF-8 `key=value` lines
    tensor count u32
    per tensor: u32 name length, name UTF-8, ndim u8, ndim x u32 dims,
                raw float32 data
    rng blob: u32 byte length, opaque bytes

Tensor names are stored in insertion order and restored in file order, so
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint", "MAGIC", "VERSION"]

MAGIC = b"ARDC"
VERSION = 1


@dataclass
class Checkpoint:
    config: dict[str, str]
    tensors: dict[str, np.ndarray]
    rng_blob: bytes = b""


def _config_bytes(config: dict[str, str]) -> bytes:
    lines = []
    for k, v in config.items():
        if "=" in k or "\n" in k:
            raise CheckpointError(f"config key {k!r} contains '=' or newline")
        if "\n" in v:
            raise CheckpointError(f"config value for {k!r} contains a newline")
        lines.append(f"{k}={v}")
    return "\n".join(lines).encode("utf-8")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write atomically: temp file, fsync, then rename, so a crash leaves
    either the old or the new checkpoint whole on disk."""
    path = Path(path)
    blob = _config_bytes(ckpt.config)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    out += struct.pack("<I", len(ckpt.tensors))
    for name, arr in ckpt.tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        if arr.ndim > 255:
            raise CheckpointError(f"tensor {name!r} has more than 255 dims")
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    out += struct.pack("<I", len(ckpt.rng_blob))
    out += ckpt.rng_blob

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(out)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)


class _Reader:
    # Slices of a memoryview share the file buffer, so `load_checkpoint`
    # copies nothing.
    def __init__(self, buf: bytes, path):
        self.buf = memoryview(buf)
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointError(
                f"{self.path}: truncated checkpoint (needed {n} bytes at "
                f"offset {self.pos}, have {len(self.buf) - self.pos})"
            )
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file. Its tensors are read-only, possibly unaligned
    views into the file buffer; a caller copies the ones it keeps."""
    path = Path(path)
    r = _Reader(path.read_bytes(), path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    blob = str(r.take(r.u32()), "utf-8")
    config: dict[str, str] = {}
    if blob:
        for line in blob.split("\n"):
            key, _, value = line.partition("=")
            config[key] = value
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = str(r.take(r.u32()), "utf-8")
        ndim = r.u8()
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        tensors[name] = np.frombuffer(r.take(4 * count), dtype=np.float32).reshape(shape)
    rng_blob = bytes(r.take(r.u32()))
    if r.pos != len(r.buf):
        raise CheckpointError(f"{path}: {len(r.buf) - r.pos} trailing bytes after checkpoint")
    return Checkpoint(config, tensors, rng_blob)
