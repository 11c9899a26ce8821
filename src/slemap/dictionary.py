"""Curated transformation dictionary: synonym sets, acronyms, abbreviations.

File formats (lines starting with '#' are comments, blank lines ignored):

* synonyms: one group per line, tokens comma-separated
  (``exercise, activity, exertion``)
* acronyms: ``short = long tokens`` (``cp = chest pain``)
* abbreviations: ``short = long`` (``min = minute``)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ParseError

DEFAULT_MISSPELLING_MAX_EDIT_DISTANCE = 1
DEFAULT_MISSPELLING_MIN_TOKEN_LENGTH = 4
# Largest misspelling edit distance: a token's deletion variants, which the
# similarity layer indexes, number C(len, <= cap).
MAX_EDIT_DISTANCE = 3


@dataclass(frozen=True)
class TransformationDictionary:
    """Lookup tables driving the non-trivial token transformations.

    ``synonym_sets`` maps each token to the id of its group, so membership in
    the same group is symmetric by construction.  ``acronyms`` maps a short
    form to the full token sequence (length >= 2); ``abbreviations`` maps a
    short form to a single token.  ``max_edit_distance`` lies in
    0..``MAX_EDIT_DISTANCE``.
    """

    synonym_group: dict[str, frozenset[int]] = field(default_factory=dict)
    acronyms: dict[str, tuple[str, ...]] = field(default_factory=dict)
    abbreviations: dict[str, str] = field(default_factory=dict)
    max_edit_distance: int = DEFAULT_MISSPELLING_MAX_EDIT_DISTANCE
    min_token_length: int = DEFAULT_MISSPELLING_MIN_TOKEN_LENGTH

    def __post_init__(self) -> None:
        if not 0 <= self.max_edit_distance <= MAX_EDIT_DISTANCE:
            raise ValueError(f"misspelling max_edit_distance must lie in 0..{MAX_EDIT_DISTANCE}, "
                             f"got {self.max_edit_distance}")

    def same_synonym_set(self, a: str, b: str) -> bool:
        ga = self.synonym_group.get(a)
        if ga is None:
            return False
        gb = self.synonym_group.get(b)
        return gb is not None and not ga.isdisjoint(gb)


def empty_dictionary(max_edit_distance: int = DEFAULT_MISSPELLING_MAX_EDIT_DISTANCE,
                     min_token_length: int = DEFAULT_MISSPELLING_MIN_TOKEN_LENGTH) -> TransformationDictionary:
    return TransformationDictionary(max_edit_distance=max_edit_distance,
                                    min_token_length=min_token_length)


def build_dictionary(synonym_groups=(), acronyms=None, abbreviations=None,
                     max_edit_distance: int = DEFAULT_MISSPELLING_MAX_EDIT_DISTANCE,
                     min_token_length: int = DEFAULT_MISSPELLING_MIN_TOKEN_LENGTH) -> TransformationDictionary:
    """Build a dictionary from in-memory groups/maps (all tokens lowercased).

    A token may belong to several synonym groups; two tokens are synonyms
    when they share at least one group (no transitive closure).
    """
    membership: dict[str, set[int]] = {}
    for gid, group in enumerate(synonym_groups):
        for tok in group:
            membership.setdefault(tok.lower(), set()).add(gid)
    group_of = {tok: frozenset(gids) for tok, gids in membership.items()}
    acr = {}
    for short, seq in (acronyms or {}).items():
        seq = tuple(t.lower() for t in seq)
        if len(seq) < 2:
            raise ValueError(f"acronym {short!r} must expand to >= 2 tokens")
        acr[short.lower()] = seq
    abbr = {s.lower(): t.lower() for s, t in (abbreviations or {}).items()}
    return TransformationDictionary(group_of, acr, abbr, max_edit_distance, min_token_length)


def _content_lines(path: Path):
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def load_dictionary(synonyms_path: Path | str | None = None,
                    acronyms_path: Path | str | None = None,
                    abbreviations_path: Path | str | None = None,
                    max_edit_distance: int = DEFAULT_MISSPELLING_MAX_EDIT_DISTANCE,
                    min_token_length: int = DEFAULT_MISSPELLING_MIN_TOKEN_LENGTH) -> TransformationDictionary:
    """Load a dictionary from the plain-text file formats described above."""
    groups = []
    if synonyms_path is not None:
        for lineno, line in _content_lines(Path(synonyms_path)):
            group = [t.strip() for t in line.split(",") if t.strip()]
            if len(group) < 2:
                raise ParseError(f"{synonyms_path}:{lineno}: synonym group needs >= 2 tokens")
            groups.append(group)
    acronyms = {}
    if acronyms_path is not None:
        for lineno, line in _content_lines(Path(acronyms_path)):
            if "=" not in line:
                raise ParseError(f"{acronyms_path}:{lineno}: expected 'short = long tokens'")
            short, long = line.split("=", 1)
            seq = tuple(long.split())
            if len(seq) < 2:
                raise ParseError(f"{acronyms_path}:{lineno}: acronym must expand to >= 2 tokens")
            acronyms[short.strip()] = seq
    abbreviations = {}
    if abbreviations_path is not None:
        for lineno, line in _content_lines(Path(abbreviations_path)):
            if "=" not in line:
                raise ParseError(f"{abbreviations_path}:{lineno}: expected 'short = long'")
            short, long = line.split("=", 1)
            if len(long.split()) != 1:
                raise ParseError(f"{abbreviations_path}:{lineno}: abbreviation expands to one token")
            abbreviations[short.strip()] = long.strip()
    return build_dictionary(groups, acronyms, abbreviations, max_edit_distance, min_token_length)


def load_dictionary_dir(dict_dir: Path | str, **kwargs) -> TransformationDictionary:
    """Load synonyms.txt / acronyms.txt / abbreviations.txt from a directory.

    Missing files are simply skipped; a missing directory is an error.
    """
    d = Path(dict_dir)
    if not d.is_dir():
        raise FileNotFoundError(f"dictionary directory not found: {d}")
    paths = {}
    for key, name in (("synonyms_path", "synonyms.txt"),
                      ("acronyms_path", "acronyms.txt"),
                      ("abbreviations_path", "abbreviations.txt")):
        p = d / name
        paths[key] = p if p.exists() else None
    return load_dictionary(**paths, **kwargs)


def default_dictionary() -> TransformationDictionary:
    """The dictionary shipped with the package (matches the synthetic phrase banks)."""
    base = resources.files("slemap").joinpath("data")
    with resources.as_file(base) as d:
        return load_dictionary_dir(d)
