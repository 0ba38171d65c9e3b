"""Glyph atlas: binary format round-trip, manifest building, resolution."""

from __future__ import annotations

import numpy as np
import pytest

from glyphtext.atlas import (
    BITMAP_BYTES,
    GLYPH_SIZE,
    GlyphAtlas,
    build_atlas,
    build_synthetic_atlas,
    load_atlas,
    save_atlas,
    synthetic_bitmap,
    to_feature,
)
from glyphtext.errors import AtlasError
from glyphtext.pipeline import GlyphIndex
from glyphtext.shaping import ArabicShaper, Cluster, Form, ShapedCluster, presentation_form

BEH = 0x0628
FATHA = 0x064E


def test_save_load_round_trip(tmp_path):
    keys = [(0xFE8F,), (0xFE91, FATHA), (0xFEB1,)]
    atlas = build_synthetic_atlas(keys, seed=3)
    p = tmp_path / "glyphs.atlas"
    save_atlas(atlas, p)
    loaded = load_atlas(p)
    assert loaded == atlas
    assert list(loaded.entries) == keys  # insertion order is part of the format


def test_save_is_deterministic(tmp_path):
    keys = [(0xFE8F,), (0xFEB1,)]
    a = tmp_path / "a.atlas"
    b = tmp_path / "b.atlas"
    save_atlas(build_synthetic_atlas(keys, seed=7), a)
    save_atlas(build_synthetic_atlas(keys, seed=7), b)
    assert a.read_bytes() == b.read_bytes()


def test_synthetic_bitmaps_deterministic_and_distinct():
    a = synthetic_bitmap((0xFE8F,), seed=0)
    assert synthetic_bitmap((0xFE8F,), seed=0) == a
    assert synthetic_bitmap((0xFE90,), seed=0) != a
    assert synthetic_bitmap((0xFE8F,), seed=1) != a
    assert any(a)  # never blank
    assert len(a) == BITMAP_BYTES


def test_atlas_rejects_bad_entries():
    atlas = GlyphAtlas()
    with pytest.raises(AtlasError):
        atlas.add((), b"\0" * BITMAP_BYTES)
    with pytest.raises(AtlasError):
        atlas.add(tuple(range(9)), b"\0" * BITMAP_BYTES)  # key too long
    with pytest.raises(AtlasError):
        atlas.add((0x110000,), b"\0" * BITMAP_BYTES)  # beyond Unicode
    with pytest.raises(AtlasError):
        atlas.add((BEH,), b"\0" * 10)  # short bitmap
    atlas.add((BEH,), b"\0" * BITMAP_BYTES)
    with pytest.raises(AtlasError):
        atlas.add((BEH,), b"\1" * BITMAP_BYTES)  # duplicate


def test_build_atlas_from_manifest(tmp_path):
    d = tmp_path / "glyphs"
    d.mkdir()
    (d / "beh_iso.bin").write_bytes(bytes([1]) * BITMAP_BYTES)
    (d / "beh_fatha.bin").write_bytes(bytes([2]) * BITMAP_BYTES)
    (d / "fb.bin").write_bytes(bytes([9]) * BITMAP_BYTES)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "# comment then blank line\n"
        "\n"
        "FE8F\tbeh_iso.bin\n"
        "FE91+064E\tbeh_fatha.bin\n"
        "FALLBACK\tfb.bin\n",
        encoding="utf-8",
    )
    atlas = build_atlas(d, manifest)
    assert len(atlas) == 2
    assert atlas.entries[(0xFE8F,)] == bytes([1]) * BITMAP_BYTES
    assert atlas.entries[(0xFE91, 0x064E)] == bytes([2]) * BITMAP_BYTES
    assert atlas.fallback == bytes([9]) * BITMAP_BYTES


@pytest.mark.parametrize("line", [
    "FE8F beh.bin",          # no tab
    "XYZ\tbeh.bin",          # bad hex
    "FE8F\tmissing.bin",     # unreadable file
])
def test_build_atlas_rejects_bad_manifest(tmp_path, line):
    d = tmp_path / "glyphs"
    d.mkdir()
    (d / "beh.bin").write_bytes(bytes(BITMAP_BYTES))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(AtlasError):
        build_atlas(d, manifest)


def test_resolution_chain_prefers_exact_then_positional_then_isolated():
    iso = presentation_form(BEH, Form.ISOLATED)
    ini = presentation_form(BEH, Form.INITIAL)
    sc = ShapedCluster(Cluster(BEH, (FATHA,)), Form.INITIAL)

    atlas = GlyphAtlas()
    atlas.add((iso,), bytes([1]) * BITMAP_BYTES)
    assert atlas.resolve(sc) == (iso,)  # only the isolated base exists

    atlas.add((ini,), bytes([2]) * BITMAP_BYTES)
    assert atlas.resolve(sc) == (ini,)  # bare positional beats isolated

    atlas.add((ini, FATHA), bytes([3]) * BITMAP_BYTES)
    assert atlas.resolve(sc) == (ini, FATHA)  # exact key wins


def test_lookup_returns_fallback_for_unknown():
    atlas = GlyphAtlas(fallback=bytes([7]) * BITMAP_BYTES)
    sc = ArabicShaper().shape_text("س")[0]
    assert atlas.resolve(sc) is None
    index = GlyphIndex(atlas)
    assert index.id_for(sc) == index.fallback_id
    assert np.array_equal(index.bank()[index.fallback_id], to_feature(bytes([7]) * BITMAP_BYTES))


def test_to_feature_scales_to_unit_interval():
    bm = bytes([0, 255] * (BITMAP_BYTES // 2))
    feat = to_feature(bm)
    assert feat.shape == (1, GLYPH_SIZE, GLYPH_SIZE)
    assert feat.dtype == np.float32
    assert feat.min() == 0.0 and feat.max() == 1.0


def test_load_rejects_corrupt_files(tmp_path):
    p = tmp_path / "x.atlas"
    p.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(AtlasError):
        load_atlas(p)
    atlas = build_synthetic_atlas([(0xFE8F,)], seed=0)
    good = tmp_path / "good.atlas"
    save_atlas(atlas, good)
    (tmp_path / "trunc.atlas").write_bytes(good.read_bytes()[:-50])
    with pytest.raises(AtlasError):
        load_atlas(tmp_path / "trunc.atlas")
