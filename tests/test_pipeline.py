"""Dataset IO, stratified splitting, document encoding, and batching."""

from __future__ import annotations

import numpy as np
import pytest

from glyphtext.atlas import build_synthetic_atlas
from glyphtext.errors import (
    DatasetError,
    EmptyDocumentError,
    LabelError,
    ParameterError,
    StratificationError,
)
from glyphtext.pipeline import (
    PAD_ID,
    Dataset,
    GlyphIndex,
    class_counts,
    encode_document,
    iter_id_batches,
    load_dataset,
    encode_corpus,
    split_stratified,
    synth_longtail,
)
from glyphtext.shaping import ArabicShaper, presentation_form


@pytest.fixture(scope="module")
def shaper():
    return ArabicShaper()


@pytest.fixture(scope="module")
def index(shaper):
    # Atlas covering every shaped form of "باب" and "بَس"; other clusters fall back.
    keys = set()
    for text in ("باب", "بَس", "سب", "بسب"):
        for sc in shaper.shape_text(text):
            keys.add((presentation_form(sc.base, sc.form), *sc.marks))
    return GlyphIndex(build_synthetic_atlas(sorted(keys), seed=0))


# ---------------------------------------------------------------------------
# load_dataset


def test_load_dataset_interns_labels_in_first_appearance_order(tmp_path):
    p = tmp_path / "ds.tsv"
    p.write_text(
        "culture\tنص اول\n"
        "sports\tنص ثاني\n"
        "culture\tثالث\n"
        "economy\tنص مع\tتاب داخلي\n",  # text may itself contain tabs
        encoding="utf-8",
    )
    ds = load_dataset(p)
    assert ds.label_map == {"culture": 0, "sports": 1, "economy": 2}
    assert [lab for lab, _ in ds.records] == [0, 1, 0, 2]
    assert ds.records[3][1] == "نص مع\tتاب داخلي"
    assert len(ds) == 4 and ds.num_classes == 3


def test_load_dataset_drops_empty_texts_and_reports(tmp_path, caplog):
    p = tmp_path / "ds.tsv"
    # the third line holds only zero-width characters: it normalizes to nothing
    p.write_text("a\tكلام\nb\t\nc\t\u200b\u200c\na\tمزيد\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        ds = load_dataset(p)
    assert len(ds) == 2
    assert ds.dropped_empty == 2
    assert any("dropped 2" in r.message for r in caplog.records)
    # a label seen only on dropped lines must not be interned
    assert "b" not in ds.label_map and "c" not in ds.label_map


def test_load_dataset_errors(tmp_path):
    no_tab = tmp_path / "bad.tsv"
    no_tab.write_text("labelwithouttab\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 1"):
        load_dataset(no_tab)
    empty = tmp_path / "empty.tsv"
    empty.write_text("a\t\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="no usable records"):
        load_dataset(empty)


# ---------------------------------------------------------------------------
# splitting


def make_ds(counts):
    records = []
    for lab, n in enumerate(counts):
        records.extend((lab, f"doc {lab} {i}") for i in range(n))
    return Dataset(records, {f"c{lab}": lab for lab in range(len(counts))})


def test_split_is_a_partition_with_per_class_fractions():
    ds = make_ds([50, 20, 10])
    train, test = split_stratified(ds, test_fraction=0.2, seed=1)
    assert sorted(train.records + test.records) == sorted(ds.records)
    assert train.label_map == test.label_map == ds.label_map
    tr = np.bincount(train.labels, minlength=3)
    te = np.bincount(test.labels, minlength=3)
    assert te.tolist() == [10, 4, 2]  # round(n * 0.2) per class
    assert (tr + te).tolist() == [50, 20, 10]


def test_split_deterministic_and_seed_sensitive():
    ds = make_ds([30, 30])
    a1 = split_stratified(ds, seed=7)[1].records
    a2 = split_stratified(ds, seed=7)[1].records
    b = split_stratified(ds, seed=8)[1].records
    assert a1 == a2
    assert a1 != b


def test_split_keeps_both_sides_nonempty_for_tiny_classes():
    ds = make_ds([2, 2])
    train, test = split_stratified(ds, test_fraction=0.2, seed=0)
    tr = np.bincount(train.labels, minlength=2)
    te = np.bincount(test.labels, minlength=2)
    assert tr.tolist() == [1, 1] and te.tolist() == [1, 1]


def test_split_rejects_singleton_class_and_bad_fraction():
    with pytest.raises(StratificationError, match="c1"):
        split_stratified(make_ds([5, 1]))
    with pytest.raises(ParameterError):
        split_stratified(make_ds([5, 5]), test_fraction=0.0)


def test_unstratified_split_partitions_globally():
    ds = make_ds([8, 2])
    train, test = split_stratified(ds, test_fraction=0.3, seed=0, stratified=False)
    assert sorted(train.records + test.records) == sorted(ds.records)
    assert len(test) == 3  # round(10 * 0.3)


def test_class_counts_requires_every_class_present():
    ds = make_ds([4, 3])
    assert class_counts(ds).tolist() == [4, 3]
    missing = Dataset([(0, "x")], {"a": 0, "b": 1})
    with pytest.raises(LabelError, match="b"):
        class_counts(missing)


# ---------------------------------------------------------------------------
# encoding


def test_encode_document_pads_and_truncates(index, shaper):
    doc = encode_document("باب", index, shaper, max_len=5)
    assert doc.true_len == 3
    assert doc.glyph_ids.shape == (5,)
    assert (doc.glyph_ids[3:] == PAD_ID).all()
    assert (doc.glyph_ids[:3] != PAD_ID).all()

    cut = encode_document("باب", index, shaper, max_len=2)
    assert cut.true_len == 2
    assert cut.glyph_ids.tolist() == doc.glyph_ids[:2].tolist()

    free = encode_document("باب", index, shaper, max_len=None)
    assert free.glyph_ids.shape == (3,)


def test_encode_document_distinguishes_contextual_forms(index, shaper):
    # bā' appears in initial and final form; the two positions must get
    # different glyph ids even though the codepoint is the same.
    doc = encode_document("باب", index, shaper, max_len=None)
    assert doc.glyph_ids[0] != doc.glyph_ids[2]


def test_encode_document_uses_fallback_for_unknown_clusters(index, shaper):
    doc = encode_document("قلم", index, shaper, max_len=None)  # not in the atlas
    assert (doc.glyph_ids == index.fallback_id).all()


def test_encode_document_rejects_empty_after_normalization(index, shaper):
    with pytest.raises(EmptyDocumentError):
        encode_document("​​", index, shaper)


def test_bank_row_zero_is_blank_padding(index):
    bank = index.bank()
    assert bank.shape == (index.num_glyphs, 1, 36, 36)
    assert bank.dtype == np.float32
    assert (bank[PAD_ID] == 0).all()
    assert bank[index.fallback_id].any()


# ---------------------------------------------------------------------------
# batching


def corpus(index, shaper, n=10, max_len=6):
    texts = ["باب", "بَس", "سب", "بسب"]
    ds = Dataset(
        [(i % 2, texts[i % len(texts)]) for i in range(n)],
        {"a": 0, "b": 1},
    )
    docs = encode_corpus(ds, index, shaper, max_len)
    return ds, docs


def test_iter_id_batches_shapes_and_coverage(index, shaper):
    ds, docs = corpus(index, shaper, n=10, max_len=6)
    batches = list(iter_id_batches(docs, ds.labels, 4, 6, seed=0, epoch=0))
    assert [b[0].shape for b in batches] == [(4, 6), (4, 6), (2, 6)]
    seen_labels = np.concatenate([labs for _, _, labs in batches])
    assert np.bincount(seen_labels).tolist() == [5, 5]
    for ids, lens, _ in batches:
        for row, n in zip(ids, lens):
            assert (row[n:] == PAD_ID).all()
            assert (row[:n] != PAD_ID).all()


def test_iter_id_batches_is_deterministic_per_epoch(index, shaper):
    ds, docs = corpus(index, shaper, n=12, max_len=6)
    a = [ids.tolist() for ids, _, _ in iter_id_batches(docs, ds.labels, 4, 6, 3, 1)]
    b = [ids.tolist() for ids, _, _ in iter_id_batches(docs, ds.labels, 4, 6, 3, 1)]
    c = [ids.tolist() for ids, _, _ in iter_id_batches(docs, ds.labels, 4, 6, 3, 2)]
    assert a == b
    assert a != c  # epoch reshuffles


def test_unbounded_batches_pad_to_batch_maximum(index, shaper):
    ds = Dataset([(0, "باب"), (0, "بسب"), (1, "بَس"), (1, "باب بسب")], {"a": 0, "b": 1})
    docs = encode_corpus(ds, index, shaper, None)
    for ids, lens, _ in iter_id_batches(docs, ds.labels, 2, None, seed=0, epoch=0):
        assert ids.shape[1] == lens.max()


def test_batching_rejects_degenerate_inputs(index, shaper):
    ds, docs = corpus(index, shaper, n=4)
    with pytest.raises(DatasetError):
        next(iter_id_batches([], ds.labels, 4, 6, 0, 0))
    with pytest.raises(ParameterError):
        next(iter_id_batches(docs, ds.labels, 0, 6, 0, 0))


# ---------------------------------------------------------------------------
# synthetic long-tail generator


def test_synth_longtail_geometric_counts():
    ds = synth_longtail(5, 1000, 10, seed=0)
    counts = np.bincount(ds.labels, minlength=5)
    assert counts.tolist() == [1000, 316, 100, 32, 10]
    assert ds.label_map == {f"class{i}": i for i in range(5)}


def test_synth_longtail_deterministic_and_class_separable():
    a = synth_longtail(3, 50, 5, seed=2)
    b = synth_longtail(3, 50, 5, seed=2)
    assert a.records == b.records
    # class alphabets are (almost surely) not identical letter sets
    sets = [set("".join(t for lab, t in a.records if lab == c)) for c in range(3)]
    assert sets[0] != sets[1] or sets[1] != sets[2]
    lens = [len(t) for _, t in a.records]
    assert min(lens) >= 8 and max(lens) <= 16


def test_synth_longtail_validates_parameters():
    with pytest.raises(ParameterError):
        synth_longtail(0, 100, 10)
    with pytest.raises(ParameterError):
        synth_longtail(3, 10, 100)
    with pytest.raises(ParameterError):
        synth_longtail(3, 100, 1)
    with pytest.raises(ParameterError):
        synth_longtail(3, 100, 10, vocab_per_class=0)
