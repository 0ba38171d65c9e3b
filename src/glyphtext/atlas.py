"""Glyph atlas: a persistent map from shaped-cluster keys to 36x36 grayscale
bitmaps, with a total lookup chain and a byte-exact binary file format.

Rasterization is external: `build_atlas` ingests raw bitmap files produced by
any renderer, and `build_synthetic_atlas` generates deterministic synthetic
glyphs so pipelines can run without a font toolchain.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import AtlasError
from .shaping import Form, ShapedCluster, presentation_form

__all__ = [
    "GLYPH_SIZE",
    "BITMAP_BYTES",
    "GlyphAtlas",
    "build_atlas",
    "save_atlas",
    "load_atlas",
    "to_feature",
    "synthetic_bitmap",
    "build_synthetic_atlas",
]

GLYPH_SIZE = 36
BITMAP_BYTES = GLYPH_SIZE * GLYPH_SIZE  # 1296
MAX_KEY_LEN = 8

_MAGIC = b"AGLF"
_VERSION = 1

GlyphKey = tuple[int, ...]


def _check_key(key: GlyphKey) -> GlyphKey:
    key = tuple(int(cp) for cp in key)
    if not 1 <= len(key) <= MAX_KEY_LEN:
        raise AtlasError(f"glyph key length {len(key)} outside 1..{MAX_KEY_LEN}: {key}")
    if any(cp < 0 or cp > 0x10FFFF for cp in key):
        raise AtlasError(f"glyph key contains invalid scalar value: {key}")
    return key


def _check_bitmap(bitmap: bytes, origin: str) -> bytes:
    if len(bitmap) != BITMAP_BYTES:
        raise AtlasError(
            f"{origin}: bitmap payload is {len(bitmap)} bytes, expected {BITMAP_BYTES}"
        )
    return bytes(bitmap)


class GlyphAtlas:
    """Immutable-after-build mapping from glyph keys to bitmaps.

    `entries` preserves insertion order, which downstream id assignment
    relies on. Resolution never fails: `resolve` returns None for a
    cluster that falls back to `fallback`.
    """

    def __init__(self, entries: dict[GlyphKey, bytes] | None = None, fallback: bytes | None = None):
        self.entries: dict[GlyphKey, bytes] = {}
        for key, bm in (entries or {}).items():
            self.add(key, bm)
        self.fallback = _check_bitmap(fallback, "fallback") if fallback else bytes(BITMAP_BYTES)

    def add(self, key: GlyphKey, bitmap: bytes) -> None:
        key = _check_key(key)
        if key in self.entries:
            raise AtlasError(f"duplicate atlas entry for key {'+'.join('%04X' % c for c in key)}")
        self.entries[key] = _check_bitmap(bitmap, f"key {key}")

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GlyphAtlas)
            and self.entries == other.entries
            and self.fallback == other.fallback
        )

    def candidate_keys(self, sc: ShapedCluster) -> list[GlyphKey]:
        """Resolution chain: exact positional key with marks, then the bare
        positional base, then the isolated base."""
        pos = presentation_form(sc.base, sc.form)
        iso = presentation_form(sc.base, Form.ISOLATED)
        chain = [(pos, *sc.marks[: MAX_KEY_LEN - 1]), (pos,), (iso,)]
        seen: set[GlyphKey] = set()
        return [k for k in chain if not (k in seen or seen.add(k))]

    def resolve(self, sc: ShapedCluster) -> GlyphKey | None:
        """Key of the entry `sc` resolves to, or None for the fallback."""
        for key in self.candidate_keys(sc):
            if key in self.entries:
                return key
        return None


def build_atlas(glyph_dir: str | Path, manifest: str | Path) -> GlyphAtlas:
    """Assemble an atlas from raw bitmap files listed in a manifest.

    Manifest lines are `HEX+HEX+...<TAB>filename`; the literal key token
    FALLBACK designates the fallback glyph. Files must hold exactly 1296
    bytes of row-major pixels.
    """
    glyph_dir = Path(glyph_dir)
    atlas = GlyphAtlas()
    fallback: bytes | None = None
    text = Path(manifest).read_text("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise AtlasError(f"manifest line {lineno}: expected 'key<TAB>file', got {raw!r}")
        key_text, filename = parts[0].strip(), parts[1].strip()
        path = glyph_dir / filename
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise AtlasError(f"manifest line {lineno}: cannot read {path}: {exc}") from exc
        bitmap = _check_bitmap(payload, str(path))
        if key_text == "FALLBACK":
            if fallback is not None:
                raise AtlasError(f"manifest line {lineno}: duplicate FALLBACK entry")
            fallback = bitmap
            continue
        try:
            key = tuple(int(tok, 16) for tok in key_text.split("+"))
        except ValueError as exc:
            raise AtlasError(f"manifest line {lineno}: bad key {key_text!r}") from exc
        try:
            atlas.add(key, bitmap)
        except AtlasError as exc:
            raise AtlasError(f"manifest line {lineno}: {exc}") from exc
    if fallback is not None:
        atlas.fallback = fallback
    return atlas


def save_atlas(atlas: GlyphAtlas, path: str | Path) -> None:
    """Write the binary atlas format (little-endian, magic AGLF)."""
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<III", _VERSION, GLYPH_SIZE, len(atlas.entries))
    for key, bitmap in atlas.entries.items():
        buf += struct.pack("<B", len(key))
        buf += struct.pack("<%dI" % len(key), *key)
        buf += bitmap
    buf += atlas.fallback
    Path(path).write_bytes(bytes(buf))


def load_atlas(path: str | Path) -> GlyphAtlas:
    """Read an atlas written by `save_atlas`; byte-exact round trip."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise AtlasError(f"{path}: bad magic {data[:4]!r}, expected {_MAGIC!r}")
    if len(data) < 16:
        raise AtlasError(f"{path}: truncated header ({len(data)} bytes, expected >= 16)")
    version, glyph_size, count = struct.unpack_from("<III", data, 4)
    if version != _VERSION:
        raise AtlasError(f"{path}: unsupported format version {version}")
    if glyph_size != GLYPH_SIZE:
        raise AtlasError(f"{path}: glyph size {glyph_size}, expected {GLYPH_SIZE}")
    off = 16
    atlas = GlyphAtlas()

    def need(nbytes: int, what: str) -> None:
        if off + nbytes > len(data):
            raise AtlasError(
                f"{path}: truncated {what}: expected {off + nbytes} bytes, file has {len(data)}"
            )

    for _ in range(count):
        need(1, "entry header")
        (klen,) = struct.unpack_from("<B", data, off)
        off += 1
        need(4 * klen + BITMAP_BYTES, "entry")
        key = struct.unpack_from("<%dI" % klen, data, off)
        off += 4 * klen
        atlas.add(key, data[off : off + BITMAP_BYTES])
        off += BITMAP_BYTES
    need(BITMAP_BYTES, "fallback glyph")
    atlas.fallback = data[off : off + BITMAP_BYTES]
    off += BITMAP_BYTES
    if off != len(data):
        raise AtlasError(f"{path}: {len(data) - off} trailing bytes after fallback glyph")
    return atlas


def to_feature(bitmap: bytes) -> np.ndarray:
    """Bitmap to a (1, 36, 36) float32 plane in [0, 1] (intensity / 255)."""
    arr = np.frombuffer(bitmap, dtype=np.uint8).astype(np.float32) / np.float32(255.0)
    return arr.reshape(1, GLYPH_SIZE, GLYPH_SIZE)


def synthetic_bitmap(key: GlyphKey, seed: int = 0) -> bytes:
    """Deterministic synthetic glyph for a key: a random 6x6 on/off block
    pattern upscaled to 36x36. Distinct keys give distinct bitmaps with
    overwhelming probability; the all-blank pattern is never produced."""
    for salt in range(64):
        ss = np.random.SeedSequence([int(seed), salt, *key])
        rng = np.random.default_rng(ss)
        coarse = (rng.integers(0, 2, size=(6, 6), dtype=np.uint8)) * np.uint8(255)
        if coarse.any():
            return np.kron(coarse, np.ones((6, 6), dtype=np.uint8)).tobytes()
    raise AtlasError(f"could not draw a non-blank synthetic glyph for {key}")  # pragma: no cover


def build_synthetic_atlas(keys: Iterable[GlyphKey], seed: int = 0) -> GlyphAtlas:
    """Atlas of synthetic glyphs for `keys` (insertion order preserved),
    plus a synthetic fallback glyph."""
    atlas = GlyphAtlas()
    for key in keys:
        key = _check_key(key)
        if key not in atlas.entries:
            atlas.add(key, synthetic_bitmap(key, seed))
    atlas.fallback = synthetic_bitmap((0x10FFFF,), seed)
    return atlas
