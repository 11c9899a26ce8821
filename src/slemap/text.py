"""Text normalization: raw strings into documents made of token statements."""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

# Common English stop words, minus negations ("no", "not") which carry
# clinical meaning.
DEFAULT_STOP_WORDS = frozenset(
    """a an the and or of to in on at for by from as is are was were be been
    being am i my me we us our you your he him she it its his her they them
    their this that these those have has had do does did will would shall
    should could can may might must than then so very just about with when
    while during there here what which who whom how all any both each such
    only own same s t don now""".split()
)

DEFAULT_DELIMITERS = ",./;"
DEFAULT_MAX_STATEMENTS = 6
DEFAULT_MAX_TOKENS = 12


@dataclass(frozen=True)
class NormalizationConfig:
    delimiters: str = DEFAULT_DELIMITERS
    stop_words: frozenset[str] = DEFAULT_STOP_WORDS
    max_statements: int = DEFAULT_MAX_STATEMENTS
    max_tokens: int = DEFAULT_MAX_TOKENS


@dataclass(frozen=True)
class Statement:
    """An ordered, non-empty tuple of lowercase word/number tokens."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("statement must contain at least one token")
        for tok in self.tokens:
            if not tok or tok != tok.strip() or any(ch.isspace() for ch in tok):
                raise ValueError(f"malformed token {tok!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


@dataclass(frozen=True)
class Document:
    """A normalized document: an id, its statements, and the raw source text.

    Statement order is preserved for reporting but is irrelevant to
    similarity.  An empty ``statements`` tuple marks a sentinel document
    (nothing survived normalization); sentinels have similarity 0 to every
    other document.
    """

    id: str
    statements: tuple[Statement, ...]
    raw: str = ""

    @property
    def is_sentinel(self) -> bool:
        return len(self.statements) == 0

    def __len__(self) -> int:
        return len(self.statements)


@functools.cache
def _punct_pattern(delimiters: str) -> re.Pattern:
    # Strip anything that is not a word character, whitespace, or a delimiter.
    return re.compile(r"[^\w\s" + re.escape(delimiters) + "]")


def normalize(raw: str, config: NormalizationConfig | None = None, doc_id: str = "") -> Document:
    """Normalize raw text into a :class:`Document`.

    Lowercases, drops punctuation that is not a delimiter, splits into
    statements on the configured delimiters, tokenizes on whitespace, and
    removes stop words.  Statements that end up empty are dropped; statement
    and token counts are truncated to the configured caps.  If nothing
    survives, the result is a sentinel document.
    """
    cfg = config or NormalizationConfig()
    lowered = raw.lower()
    cleaned = _punct_pattern(cfg.delimiters).sub(" ", lowered)
    pieces = re.split("[" + re.escape(cfg.delimiters) + "]", cleaned) if cfg.delimiters else [cleaned]

    statements = []
    for piece in pieces:
        tokens = [t for t in piece.split() if t not in cfg.stop_words]
        if not tokens:
            continue
        statements.append(Statement(tuple(tokens[: cfg.max_tokens])))
        if len(statements) == cfg.max_statements:
            break

    return Document(id=doc_id, statements=tuple(statements), raw=raw)
