"""Token transformations between statements and the statement similarity.

Two statements are related by a transformation graph: every token of both
statements participates in exactly one transformation (complete), and no token
participates in more than one (consistent).  A graph is summarized by the
count vector of transformation kinds it uses, and a statement pair is scored
by the best achievable weighted-count ratio over all such graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .dictionary import TransformationDictionary, empty_dictionary
from .errors import TokenCapExceeded
from .text import DEFAULT_MAX_TOKENS, Statement

MIN_AFFIX_LENGTH = 3  # shorter token of a prefix/suffix match


class TransformKind(IntEnum):
    EQUAL = 0
    SYNONYM = 1
    MISSPELLING = 2
    ABBREVIATION = 3
    PREFIX = 4
    ACRONYM = 5
    CONCATENATION = 6
    SUFFIX = 7
    MISSING = 8


N_KINDS = 9


@dataclass(frozen=True)
class TransformWeights:
    """Per-kind similarity weights in [0, 1]; Equal is pinned at 1."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != N_KINDS:
            raise ValueError("need one weight per transformation kind")
        if any(not (0.0 <= w <= 1.0) for w in self.values):
            raise ValueError("weights must lie in [0, 1]")
        if self.values[TransformKind.EQUAL] != 1.0:
            raise ValueError("the Equal weight is fixed at 1")

    @classmethod
    def default(cls) -> "TransformWeights":
        # Every transformation scores 1 except Missing, which scores 0.
        vals = [1.0] * N_KINDS
        vals[TransformKind.MISSING] = 0.0
        return cls(tuple(vals))

    @classmethod
    def from_mapping(cls, mapping: dict[TransformKind, float]) -> "TransformWeights":
        vals = list(cls.default().values)
        for kind, w in mapping.items():
            vals[kind] = float(w)
        return cls(tuple(vals))


def _score(counts, weights) -> float:
    # Canonical evaluation order (fixed kind order) so equal count vectors
    # produce bit-identical scores regardless of the search path.
    num = 0.0
    total = 0
    for u in range(N_KINDS):
        c = counts[u]
        if c:
            num += weights[u] * c
            total += c
    return num / total


def all_missing_similarity(n_tokens: int, weights: TransformWeights) -> float:
    """Similarity of a statement pair with ``n_tokens`` tokens in all that no
    transformation but Missing relates.  Its only complete graph makes every
    token Missing; ``_score`` scores it as the statement DP does."""
    counts = [0] * N_KINDS
    counts[TransformKind.MISSING] = n_tokens
    return _score(counts, weights.values)


def edit_distance(a: str, b: str, cap: int | None = None) -> int:
    """Damerau-Levenshtein distance (optimal string alignment variant).

    With ``cap`` any distance above the cap may be returned as ``cap + 1``;
    a negative cap raises ValueError.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"edit distance cap must be non-negative, got {cap}")
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if cap is not None and abs(la - lb) > cap:
        return cap + 1
    prev2: list[int] = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            best = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                best = min(best, prev2[j - 2] + 1)
            cur[j] = best
        # an entry reads the two rows above it, so once two consecutive rows
        # exceed the cap, so does every later row
        if cap is not None and min(cur) > cap and min(prev) > cap:
            return cap + 1
        prev2, prev = prev, cur
    return prev[lb]


def pair_kinds(x: str, y: str, dct: TransformationDictionary) -> list[TransformKind]:
    """All one-to-one transformation kinds that relate tokens x and y, in kind order.

    Identical tokens are related by Equal alone; the other kinds require the
    tokens to differ (Equal subsumes them).
    """
    if x == y:
        return [TransformKind.EQUAL]
    kinds = []
    if dct.same_synonym_set(x, y):
        kinds.append(TransformKind.SYNONYM)
    if (len(x) >= dct.min_token_length and len(y) >= dct.min_token_length
            and edit_distance(x, y, cap=dct.max_edit_distance) <= dct.max_edit_distance):
        kinds.append(TransformKind.MISSPELLING)
    if dct.abbreviations.get(x) == y or dct.abbreviations.get(y) == x:
        kinds.append(TransformKind.ABBREVIATION)
    shorter, longer = (x, y) if len(x) < len(y) else (y, x)
    if len(shorter) >= MIN_AFFIX_LENGTH and len(shorter) < len(longer):
        if longer.startswith(shorter):
            kinds.append(TransformKind.PREFIX)
        if longer.endswith(shorter):
            kinds.append(TransformKind.SUFFIX)
    return kinds


def _spans_for_token(single: str, other: tuple[str, ...],
                     dct: TransformationDictionary) -> list[tuple[int, int, TransformKind]]:
    """(start, length, kind) runs of ``other`` that ``single`` can absorb."""
    moves = []
    n = len(other)
    for j0 in range(n):
        joined = other[j0]
        s = 1
        while s < n - j0 and len(joined) < len(single):
            joined += other[j0 + s]
            s += 1
            if joined == single:
                moves.append((j0, s, TransformKind.CONCATENATION))
                break
    k = len(single)
    if k >= 2:
        for j0 in range(n - k + 1):
            if all(other[j0 + t][0] == single[t] for t in range(k)):
                moves.append((j0, k, TransformKind.ACRONYM))
    seq = dct.acronyms.get(single)
    if seq is not None:
        s = len(seq)
        for j0 in range(n - s + 1):
            if other[j0:j0 + s] == seq:
                move = (j0, s, TransformKind.ACRONYM)
                if move not in moves:
                    moves.append(move)
    return moves


def _relations_of(a: tuple[str, ...], b: tuple[str, ...], dct: TransformationDictionary):
    """The token relations of the statements a and b: (i, j, kind) for every
    kind ``pair_kinds`` relates a_i and b_j by, in (i, j, kind) order, and,
    for each token of a, its spans in b, and for each token of b, its spans
    in a (``_spans_for_token``)."""
    pairs = [(i, j, kind) for i, x in enumerate(a) for j, y in enumerate(b)
             for kind in pair_kinds(x, y, dct)]
    return (pairs, {x: _spans_for_token(x, b, dct) for x in set(a)},
            {y: _spans_for_token(y, a, dct) for y in set(b)})


def _best_moves(a: tuple[str, ...], b: tuple[str, ...], relations,
                wvals: tuple[float, ...]) -> dict[tuple[int, int, int], TransformKind]:
    """The moves besides Missing, as (a-token, a-tokens consumed, bitmask of
    b-tokens consumed) -> kind, from ``relations`` as ``_relations_of``
    gives them.

    Only the maximum matters, so each pair and each span keeps its single
    best-weight kind; on a weight tie the kind found first wins: for a pair
    the lower kind, and a pair before a span of the same tokens.
    """
    pairs, in_b, in_a = relations
    found = [((i, 1, 1 << j), kind) for i, j, kind in pairs]
    found += [((i, 1, ((1 << s) - 1) << j0), kind) for i, x in enumerate(a)
              for j0, s, kind in in_b.get(x, ())]
    found += [((i0, s, 1 << j), kind) for j, y in enumerate(b)
              for i0, s, kind in in_a.get(y, ())]
    best: dict[tuple[int, int, int], TransformKind] = {}
    for key, kind in found:
        if key not in best or wvals[kind] > wvals[best[key]]:
            best[key] = kind
    return best


def statement_similarity(a: Statement, b: Statement,
                         weights: TransformWeights | None = None,
                         dct: TransformationDictionary | None = None,
                         max_tokens: int = DEFAULT_MAX_TOKENS,
                         relations=None, memo: dict | None = None) -> float:
    """Best weighted-count ratio over all complete consistent graphs.

    A forward subset dynamic program (Held and Karp, 1962) over the states
    (next a-token i, bitmask of used b-tokens).  Every graph takes the
    a-tokens in order: a_i is Missing, pairs with one unused b-token, absorbs
    a run of unused b-tokens, or is absorbed, with the a-tokens after it, by
    one unused b-token.  A ratio is not a sum of per-move terms, so each state
    keeps every count vector its partial graphs can have, packed into an int.
    At i = p the unused b-tokens become Missing and every vector is scored
    canonically from its integer counts, which makes the result exactly
    symmetric and exactly the maximum over an exhaustive enumeration of the
    graphs (``tests/oracles.py``).

    ``relations`` are the statements' token relations as ``_relations_of``
    gives them; a caller that scores many pairs passes them read in one
    batch.  The result depends only on p, q, the moves besides Missing with
    their kinds, and the weights, so a caller that scores many pairs with one
    set of weights may pass a ``memo`` dict: the program then runs once per
    move structure, and every later pair of that structure gets its value.
    """
    weights = weights or TransformWeights.default()
    dct = dct or empty_dictionary()
    for st in (a, b):
        if len(st.tokens) > max_tokens:
            raise TokenCapExceeded(f"statement has {len(st.tokens)} tokens, cap is {max_tokens}")
    wvals = weights.values
    p, q = len(a.tokens), len(b.tokens)
    relations = relations or _relations_of(a.tokens, b.tokens, dct)
    best = _best_moves(a.tokens, b.tokens, relations, wvals)
    key = (p, q, frozenset(best.items()))
    if memo is not None and key in memo:
        return memo[key]
    # one field per kind, each wide enough for any count (at most p + q)
    width = (p + q).bit_length()
    moves = [[(1, 0, 1 << (width * TransformKind.MISSING))] for _ in range(p)]
    for (i, n_a, b_mask), kind in best.items():
        moves[i].append((n_a, b_mask, 1 << (width * kind)))
    levels: list[dict[int, set[int]]] = [{0: {0}}] + [{} for _ in range(p)]
    for i in range(p):
        for mask, vectors in levels[i].items():
            for n_a, b_mask, step in moves[i]:
                if not mask & b_mask:
                    levels[i + n_a].setdefault(mask | b_mask, set()).update(
                        v + step for v in vectors)
    missing = 1 << (width * TransformKind.MISSING)
    final = {v + (q - mask.bit_count()) * missing
             for mask, vectors in levels[p].items() for v in vectors}
    field = (1 << width) - 1
    value = max(_score([(v >> (width * k)) & field for k in range(N_KINDS)], wvals)
                for v in final)
    if memo is not None:
        memo[key] = value
    return value
