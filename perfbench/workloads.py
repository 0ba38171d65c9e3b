"""Seeded synthetic workloads and the benchmark's own reference for them.

Each workload draws a labelled corpus, a held-apart set of documents to
predict, and a glyph atlas that leaves out a seeded share of keys. The
program under test sees only the TSV and atlas files written here.

The reference half of this module (clusters, joining forms, atlas keys)
re-derives from `unicodedata` and a hand-written joining table what the
program's shaper and atlas should produce on these inputs, so the output
checks do not trust the code they check.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# --- reference: Unicode joining and presentation forms -------------------

# Joining type of every letter the generators use (ArabicShaping.txt):
# D dual-joining, R right-joining, U non-joining. Anything else is U.
_JOINING = {0x0621: "U"}
_JOINING.update({cp: "R" for cp in (0x0622, 0x0623, 0x0624, 0x0625, 0x0627, 0x0629,
                                     0x062F, 0x0630, 0x0631, 0x0632, 0x0648)})
_JOINING.update({cp: "D" for cp in (0x0626, 0x0628, 0x062A, 0x062B, 0x062C, 0x062D,
                                     0x062E, 0x0633, 0x0634, 0x0635, 0x0636, 0x0637,
                                     0x0638, 0x0639, 0x063A, 0x0641, 0x0642, 0x0643,
                                     0x0644, 0x0645, 0x0646, 0x0647, 0x0649, 0x064A)})
LETTERS = tuple(sorted(_JOINING))

ISOLATED, INITIAL, MEDIAL, FINAL = "isolated", "initial", "medial", "final"


def _presentation_forms() -> dict[tuple[int, str], int]:
    # (letter, position) -> presentation-form codepoint, from the <isolated>,
    # <initial>, <medial> and <final> decompositions. Forms-B is read last,
    # so it wins where Forms-A encodes the same pair; Forms-A alone has the
    # initial and medial alef maksura.
    table = {}
    for lo, hi in ((0xFB50, 0xFE00), (0xFE70, 0xFF00)):
        for cp in range(lo, hi):
            parts = unicodedata.decomposition(chr(cp)).split()
            if len(parts) == 2 and parts[0].strip("<>") in (ISOLATED, INITIAL, MEDIAL, FINAL):
                table[(int(parts[1], 16), parts[0].strip("<>"))] = cp
    return table


_PRESENTATION = _presentation_forms()

FATHATAN, DAMMATAN, KASRATAN = 0x064B, 0x064C, 0x064D
FATHA, DAMMA, KASRA, SHADDA, SUKUN = 0x064E, 0x064F, 0x0650, 0x0651, 0x0652
_HARAKAT = (FATHA, DAMMA, KASRA, SUKUN)
_TANWEEN = (FATHATAN, DAMMATAN, KASRATAN)
ZWNJ, RLM = "‌", "‏"


def normalize(text: str) -> str:
    """NFC, then drop format (Cf) and control (Cc) characters."""
    return "".join(ch for ch in unicodedata.normalize("NFC", text)
                   if unicodedata.category(ch) not in ("Cf", "Cc"))


def is_mark(ch: str) -> bool:
    return unicodedata.category(ch) in ("Mn", "Me")


def cluster_count(text: str) -> int:
    """Number of non-mark characters left after `normalize`."""
    return sum(1 for ch in normalize(text) if not is_mark(ch))


def clusters(text: str) -> list[tuple[int, tuple[int, ...]]]:
    """(base, marks) per cluster; generated text never starts with a mark."""
    out: list[tuple[int, list[int]]] = []
    for ch in normalize(text):
        if is_mark(ch):
            out[-1][1].append(ord(ch))
        else:
            out.append((ord(ch), []))
    return [(base, tuple(marks)) for base, marks in out]


def key_chain(base: int, form: str, marks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(exact, bare, isolated) atlas keys of one shaped cluster."""
    pos = _PRESENTATION.get((base, form), base)
    iso = _PRESENTATION.get((base, ISOLATED), base)
    return (pos, *marks), (pos,), (iso,)


def shaped_keys(text: str) -> list[tuple[tuple[int, ...], ...]]:
    """Key chain of every cluster, with forms from the cursive-joining rule."""
    cl = clusters(text)
    kinds = [_JOINING.get(base, "U") for base, _ in cl]
    chains = []
    for i, (base, marks) in enumerate(cl):
        joins_prev = i > 0 and kinds[i - 1] == "D" and kinds[i] in "DR"
        joins_next = i + 1 < len(cl) and kinds[i] == "D" and kinds[i + 1] in "DR"
        form = {(True, True): MEDIAL, (True, False): FINAL,
                (False, True): INITIAL, (False, False): ISOLATED}[(joins_prev, joins_next)]
        chains.append(key_chain(base, form, marks))
    return chains


RESOLVE_LEVELS = ("exact", "bare", "isolated", "fallback")


def resolve_level(chain, key: Optional[tuple[int, ...]]) -> str:
    """Lookup-chain level that produced `key` (None means the fallback)."""
    if key is None:
        return "fallback"
    for level, k in zip(RESOLVE_LEVELS, chain):
        if k == key:
            return level
    raise ValueError(f"key {key} is not on the chain {chain}")


def expected_level(chain, atlas_keys) -> str:
    """Level the lookup chain should stop at, given the atlas's keys."""
    for level, k in zip(RESOLVE_LEVELS, chain):
        if k in atlas_keys:
            return level
    return "fallback"


# --- generators -----------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    name: str
    classifier: str
    max_len: Optional[int]
    batch_size: int
    epochs: int
    lr: float
    beta: Optional[float]
    class_counts: tuple[int, ...]
    # Document lengths in characters (see _lengths): the seed moves their
    # content and order, never the length distribution, so padded batch
    # widths and peak RSS repeat across seeds. None for verses, which are
    # drawn by word count and padded to max_len anyway.
    lengths: Optional[tuple[int, int]]
    leave_out: float  # share of atlas keys left out
    n_predict: int
    n_cli: int


def _long_tail(n_classes: int, head: int, tail: int) -> tuple[int, ...]:
    ratio = tail / head
    return tuple(round(head * ratio ** (i / (n_classes - 1))) for i in range(n_classes))


SPECS = {
    s.name: s
    for s in (
        Spec("titles-bigru", "bigru", None, 64, 3, 2e-3, 0.99, _long_tail(11, 40, 6),
             (12, 48), 0.1, 100, 20),
        Spec("poems-clcnn", "clcnn", 128, 32, 2, 2e-4, None, _long_tail(5, 60, 8),
             None, 0.1, 100, 20),
        Spec("longdocs-bigru", "bigru", None, 16, 2, 2e-3, None, (16, 16, 16, 16),
             (96, 192), 0.1, 100, 20),
    )
}


class _Class:
    """One label's text model: letter preferences and a word lexicon."""

    def __init__(self, rng: np.random.Generator, n_words: int, word_len: tuple[int, int]):
        # Every class gets the same preference shapes, assigned to different
        # letters and marks, so no seed draws an easier or a costlier class.
        w = rng.permutation(len(LETTERS)).astype(float) + 1.0
        self.letter_p = w**3 / (w**3).sum()
        self.lexicon = [self._word(rng, word_len) for _ in range(n_words)]
        self.mark_p = rng.permutation([0.4, 0.3, 0.2, 0.1])

    def _word(self, rng, word_len):
        n = int(rng.integers(word_len[0], word_len[1] + 1))
        return [LETTERS[i] for i in rng.choice(len(LETTERS), size=n, p=self.letter_p)]


def _plain(word) -> str:
    return "".join(map(chr, word))


def _vocalized(rng, word, cls: _Class) -> str:
    out = []
    for i, cp in enumerate(word):
        out.append(chr(cp))
        if i == len(word) - 1 and rng.random() < 0.2:
            out.append(chr(_TANWEEN[int(rng.integers(3))]))
            continue
        if rng.random() < 0.15:
            out.append(chr(SHADDA))  # typed before the haraka; NFC reorders it
        out.append(chr(_HARAKAT[int(rng.choice(4, p=cls.mark_p))]))
    return "".join(out)


_PUNCT = ["،", ":", "؟", "!", "-", "«", "»", "."]
_LATIN = "abcdefghijklmnopqrstuvwxyz"


def _title(rng, cls: _Class, shared: _Class, target: int) -> str:
    """Words (a few split by ZWNJ), with some digit groups and Latin words,
    cut to `target` characters; sometimes closing punctuation or an RLM."""
    tokens: list[str] = []
    n = 0
    while n < target:
        r = rng.random()
        if r < 0.06:
            tok = "".join(str(d) for d in rng.integers(0, 10, size=int(rng.integers(1, 5))))
            if rng.random() < 0.5:
                tok = tok.translate({ord(str(d)): 0x0660 + d for d in range(10)})
        elif r < 0.09:
            tok = "".join(_LATIN[i] for i in rng.integers(0, 26, size=int(rng.integers(3, 7))))
        else:
            src = cls if rng.random() < 0.7 else shared
            tok = _plain(src.lexicon[int(rng.integers(len(src.lexicon)))])
            if len(tok) > 3 and rng.random() < 0.04:
                cut = int(rng.integers(1, len(tok)))
                tok = tok[:cut] + ZWNJ + tok[cut:]
        tokens.append(tok)
        n += len(tok) + 1
    text = " ".join(tokens)[:target].rstrip(" ")
    if rng.random() < 0.3:
        text += _PUNCT[int(rng.integers(len(_PUNCT)))]
    if rng.random() < 0.05:
        text = RLM + text
    return text


def _verse(rng, cls: _Class, shared: _Class) -> str:
    halves = []
    for _ in range(2):
        n = int(rng.integers(4, 7))
        picks = [(cls if rng.random() < 0.85 else shared) for _ in range(n)]
        halves.append(" ".join(
            _vocalized(rng, src.lexicon[int(rng.integers(len(src.lexicon)))], cls)
            for src in picks))
    return " * ".join(halves)


def _longdoc(rng, cls: _Class, shared: _Class, target: int) -> str:
    words: list[str] = []
    n = 0
    while n < target:
        src = cls if rng.random() < 0.6 else shared
        word = _plain(src.lexicon[int(rng.integers(len(src.lexicon)))])
        words.append(word)
        n += len(word) + 1
    text = " ".join(words)
    return text[:target].rstrip(" ")


def _lengths(n: int, bounds: Optional[tuple[int, int]], rng) -> np.ndarray:
    """`n` target lengths in `rng`'s order: evenly spaced from the low bound
    to 25% past the high one, then capped, so a fifth sit at the cap and
    any sizeable subset (a held-out split, a batch) reaches it."""
    if bounds is None:
        return np.zeros(n, dtype=int)
    lo, hi = bounds
    return rng.permutation(np.minimum(np.linspace(lo, hi + (hi - lo) / 4, n), hi).round()
                           .astype(int))


def _document(spec: Spec, rng, cls: _Class, shared: _Class, length: int) -> str:
    if spec.name == "titles-bigru":
        return _title(rng, cls, shared, length)
    if spec.name == "poems-clcnn":
        return _verse(rng, cls, shared)
    return _longdoc(rng, cls, shared, length)


@dataclass
class Inputs:
    spec: Spec
    dataset: Path
    atlas: Path
    records: list[tuple[int, str]]  # (class id, text) in file order
    predict_texts: list[str]
    atlas_keys: set

    def expected_resolution(self) -> dict[str, int]:
        """Resolution-level counts for encoding every record once."""
        counts = dict.fromkeys(RESOLVE_LEVELS, 0)
        limit = self.spec.max_len
        for _, text in self.records:
            for chain in shaped_keys(text)[:limit]:
                counts[expected_level(chain, self.atlas_keys)] += 1
        return counts


def generate(spec: Spec, seed: int, out_dir: Path) -> Inputs:
    """Write `corpus.tsv` and `glyphs.atlas` for `spec` under `out_dir`."""
    from glyphtext.atlas import GlyphAtlas, save_atlas

    root = np.random.SeedSequence([seed, sum(map(ord, spec.name))])
    text_ss, atlas_ss, order_ss = root.spawn(3)
    rng = np.random.default_rng(text_ss)
    word_len = (2, 7) if spec.name != "poems-clcnn" else (3, 6)
    n_classes = len(spec.class_counts)
    classes = [_Class(rng, 40, word_len) for _ in range(n_classes)]
    shared = _Class(rng, 80, word_len)
    label_names = [f"c{i:02d}" for i in range(n_classes)]

    records = [(label, _document(spec, rng, classes[label], shared, int(n)))
               for label, count in enumerate(spec.class_counts)
               for n in _lengths(count, spec.lengths, rng)]
    records = [records[i] for i in np.random.default_rng(order_ss).permutation(len(records))]
    # Predict documents are drawn like the corpus but are not in it. Their
    # classes cycle and their lengths follow one seed-independent order, so
    # every seed predicts (and runs on the command line) the same mix.
    predict_texts = [_document(spec, rng, classes[i % n_classes], shared, int(n))
                     for i, n in enumerate(
                         _lengths(spec.n_predict, spec.lengths, np.random.default_rng(0)))]

    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = out_dir / "corpus.tsv"
    dataset.write_text("".join(f"{label_names[lab]}\t{text}\n" for lab, text in records),
                       encoding="utf-8")

    universe: dict[tuple[int, ...], None] = {}
    for text in [text for _, text in records] + predict_texts:
        for chain in shaped_keys(text):
            universe.update(dict.fromkeys(chain))
    arng = np.random.default_rng(atlas_ss)
    keys = [k for k in universe if arng.random() >= spec.leave_out]
    bitmaps = _bitmaps(arng, len(keys) + 1)
    atlas = GlyphAtlas(dict(zip(keys, bitmaps[:-1])), fallback=bitmaps[-1])
    atlas_path = out_dir / "glyphs.atlas"
    save_atlas(atlas, atlas_path)
    return Inputs(spec, dataset, atlas_path, records, predict_texts, set(keys))


def _bitmaps(rng, n: int) -> list[bytes]:
    """Non-blank 36x36 glyphs, random 6x6 block patterns upscaled (2**35
    patterns, so distinct in practice)."""
    coarse = rng.integers(0, 2, size=(n, 6, 6), dtype=np.uint8) * np.uint8(255)
    coarse[:, 0, 0] = 255
    full = np.kron(coarse, np.ones((1, 6, 6), dtype=np.uint8))
    return [full[i].tobytes() for i in range(n)]
