"""Arabic contextual shaping: normalize text, group combining marks onto
their base letters, and resolve each letter to its positional written form
(isolated / initial / medial / final) via the standard cursive-joining rules.

Joining classes come from a UCD-derived table in the ArabicShaping.txt
layout that ships with the package; it is parsed once per process.
"""

from __future__ import annotations

import enum
import functools
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DatasetError

__all__ = [
    "JoiningClass",
    "Form",
    "Cluster",
    "ShapedCluster",
    "ArabicShaper",
    "normalize",
    "is_combining_mark",
    "load_joining_classes",
    "presentation_form",
    "PLACEHOLDER_BASE",
]

# Base assigned to orphan combining marks (the conventional mark carrier).
PLACEHOLDER_BASE = 0x25CC  # DOTTED CIRCLE


class JoiningClass(enum.Enum):
    """How a character participates in cursive joining."""

    DUAL = "D"
    RIGHT_JOINING = "R"
    NON_JOINING = "U"
    TRANSPARENT = "T"


class Form(enum.Enum):
    """Positional written form of a shaped cluster."""

    ISOLATED = 0
    INITIAL = 1
    MEDIAL = 2
    FINAL = 3


@dataclass(frozen=True)
class Cluster:
    """A base character plus the combining marks attached to it."""

    base: int
    marks: tuple[int, ...] = ()


@dataclass(frozen=True)
class ShapedCluster:
    """A cluster resolved to its positional form."""

    cluster: Cluster
    form: Form

    @property
    def base(self) -> int:
        return self.cluster.base

    @property
    def marks(self) -> tuple[int, ...]:
        return self.cluster.marks


def is_combining_mark(cp: int) -> bool:
    """True for nonspacing/enclosing combining marks (category Mn or Me)."""
    return unicodedata.category(chr(cp)) in ("Mn", "Me")


def _is_removed(ch: str) -> bool:
    # Zero-width/formatting characters (Cf) and non-whitespace controls are
    # stripped; whitespace controls (tab, newline, ...) survive.
    cat = unicodedata.category(ch)
    if cat == "Cf":
        return True
    return cat == "Cc" and not ch.isspace()


def normalize(text: str) -> str:
    """Canonically compose `text` and strip control/zero-width characters.

    Tatweel, diacritics, and all visible characters pass through verbatim.
    """
    composed = unicodedata.normalize("NFC", text)
    return "".join(ch for ch in composed if not _is_removed(ch))


@functools.cache
def load_joining_classes() -> Mapping[int, JoiningClass]:
    """The bundled joining-class table (ArabicShaping.txt layout), parsed
    on first use and shared read-only by every later caller.

    Each data line is `codepoint; name; type; group`; only the first and
    third fields are used. Join-causing characters (type C, e.g. tatweel)
    are folded into DUAL; the rare Left_Joining type has no Arabic members
    and is treated as NON_JOINING.
    """
    text = resources.files("glyphtext").joinpath("data/arabic_joining.txt").read_text("utf-8")
    letter_map = {
        "D": JoiningClass.DUAL,
        "R": JoiningClass.RIGHT_JOINING,
        "C": JoiningClass.DUAL,
        "T": JoiningClass.TRANSPARENT,
        "U": JoiningClass.NON_JOINING,
        "L": JoiningClass.NON_JOINING,
    }
    table: dict[int, JoiningClass] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(";")]
        if len(fields) < 3 or fields[2] not in letter_map:
            raise DatasetError(f"joining data line {lineno}: unparseable entry {raw!r}")
        table[int(fields[0], 16)] = letter_map[fields[2]]
    return MappingProxyType(table)


def _presentation_table() -> dict[tuple[int, Form], int]:
    # (base codepoint, form) -> presentation-form codepoint, built from the
    # canonical compatibility decompositions of the Arabic Presentation
    # Forms blocks. Forms-A is scanned first so the classic Forms-B
    # codepoints win when both encode the same pair.
    tags = {
        "<isolated>": Form.ISOLATED,
        "<initial>": Form.INITIAL,
        "<medial>": Form.MEDIAL,
        "<final>": Form.FINAL,
    }
    table: dict[tuple[int, Form], int] = {}
    for lo, hi in ((0xFB50, 0xFDFF), (0xFE70, 0xFEFF)):
        for cp in range(lo, hi + 1):
            decomp = unicodedata.decomposition(chr(cp)).split()
            if len(decomp) != 2 or decomp[0] not in tags:
                continue  # ligatures and mark-carrying forms resolve to >1 codepoint
            table[(int(decomp[1], 16), tags[decomp[0]])] = cp
    return table


_PRESENTATION = _presentation_table()


def presentation_form(cp: int, form: Form) -> int:
    """Positional presentation-form codepoint of `cp`, or `cp` itself when
    no such form is encoded (non-Arabic bases, marks, placeholder)."""
    return _PRESENTATION.get((cp, form), cp)


class ArabicShaper:
    """Stateless shaping pipeline over the bundled joining-class table."""

    def __init__(self) -> None:
        self._classes = load_joining_classes()

    def joining_class(self, cp: int) -> JoiningClass:
        """Joining class of a scalar value; total over all of Unicode."""
        jc = self._classes.get(cp)
        if jc is not None:
            return jc
        if is_combining_mark(cp):
            return JoiningClass.TRANSPARENT
        return JoiningClass.NON_JOINING

    def cluster(self, text: str) -> list[Cluster]:
        """Group each combining mark with its nearest preceding base.

        Leading orphan marks ride on a PLACEHOLDER_BASE cluster. Whitespace
        and every other non-mark character starts its own cluster.
        """
        out: list[tuple[int, list[int]]] = []
        for ch in text:
            cp = ord(ch)
            if is_combining_mark(cp):
                if not out:
                    out.append((PLACEHOLDER_BASE, [cp]))
                else:
                    out[-1][1].append(cp)
            else:
                out.append((cp, []))
        return [Cluster(base, tuple(marks)) for base, marks in out]

    def shape(self, clusters: Sequence[Cluster]) -> list[ShapedCluster]:
        """Assign positional forms via the cursive-joining rules.

        A cluster connects to its predecessor when the predecessor is
        dual-joining and the cluster itself joins (dual or right-joining);
        it connects to its successor when it is dual-joining and the
        successor joins. Transparent bases are skipped as neighbors.
        """
        classes = [self.joining_class(c.base) for c in clusters]
        n = len(clusters)

        # Nearest non-transparent neighbor class on each side, else None.
        prev_cls: list[JoiningClass | None] = [None] * n
        last: JoiningClass | None = None
        for i in range(n):
            prev_cls[i] = last
            if classes[i] is not JoiningClass.TRANSPARENT:
                last = classes[i]
        next_cls: list[JoiningClass | None] = [None] * n
        last = None
        for i in range(n - 1, -1, -1):
            next_cls[i] = last
            if classes[i] is not JoiningClass.TRANSPARENT:
                last = classes[i]

        joins = (JoiningClass.DUAL, JoiningClass.RIGHT_JOINING)
        shaped = []
        for i, c in enumerate(clusters):
            to_prev = prev_cls[i] is JoiningClass.DUAL and classes[i] in joins
            to_next = classes[i] is JoiningClass.DUAL and next_cls[i] in joins
            if to_prev and to_next:
                form = Form.MEDIAL
            elif to_prev:
                form = Form.FINAL
            elif to_next:
                form = Form.INITIAL
            else:
                form = Form.ISOLATED
            shaped.append(ShapedCluster(c, form))
        return shaped

    def shape_text(self, text: str) -> list[ShapedCluster]:
        """normalize -> cluster -> shape in one call."""
        return self.shape(self.cluster(normalize(text)))
