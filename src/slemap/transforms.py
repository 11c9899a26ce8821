"""Token transformations between statements and the statement similarity search.

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

    def of(self, kind: TransformKind) -> float:
        return self.values[kind]


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


def edit_distance(a: str, b: str, cap: int | None = None) -> int:
    """Damerau-Levenshtein distance (optimal string alignment variant)."""
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
        prev2, prev = prev, cur
    return prev[lb]


def pair_kinds(x: str, y: str, dct: TransformationDictionary) -> list[TransformKind]:
    """All one-to-one transformation kinds that validly relate tokens x and y.

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


class _MoveTable:
    """Valid transformations between the tokens of two fixed statements.

    ``pairs[i][j]`` lists one-to-one kinds for (a_i, b_j); ``a_spans[i]``
    lists (start, length, kind) runs of b matched by a_i; ``b_spans[i]``
    lists (length, j, kind) runs a_i..a_{i+length-1} matched by b_j.
    """

    __slots__ = ("p", "q", "pairs", "a_spans", "b_spans")

    def __init__(self, a: tuple[str, ...], b: tuple[str, ...], dct: TransformationDictionary):
        self.p, self.q = len(a), len(b)
        self.pairs = [[pair_kinds(x, y, dct) for y in b] for x in a]
        self.a_spans = [_spans_for_token(x, b, dct) for x in a]
        self.b_spans = [[] for _ in range(self.p)]
        for j, y in enumerate(b):
            for i0, s, kind in _spans_for_token(y, a, dct):
                self.b_spans[i0].append((s, j, kind))


def _check_caps(a: Statement, b: Statement, max_tokens: int) -> None:
    for st in (a, b):
        if len(st.tokens) > max_tokens:
            raise TokenCapExceeded(
                f"statement has {len(st.tokens)} tokens, cap is {max_tokens}")


# Pruning pad: keeps branch-and-bound exact against exhaustive enumeration
# (the test oracle) despite float rounding in the bound itself.
_BOUND_PAD = 1e-12


def statement_similarity(a: Statement, b: Statement,
                         weights: TransformWeights | None = None,
                         dct: TransformationDictionary | None = None,
                         max_tokens: int = DEFAULT_MAX_TOKENS) -> float:
    """Best weighted-count ratio over all complete consistent graphs.

    Branch-and-bound over the moves of ``_MoveTable`` plus Missing.  The
    bound assumes every remaining token can be matched at weight 1 (or parked
    as Missing when that scores higher), so no graph that could beat the
    incumbent is ever pruned; leaf scores are evaluated canonically from
    integer counts, which makes the result exactly symmetric and exactly
    equal to the maximum over an exhaustive enumeration of the graphs
    (``tests/oracles.py``).
    """
    weights = weights or TransformWeights.default()
    dct = dct or empty_dictionary()
    _check_caps(a, b, max_tokens)
    table = _MoveTable(a.tokens, b.tokens, dct)
    p, q = table.p, table.q
    wvals = weights.values
    w_miss = wvals[TransformKind.MISSING]
    missing_idx = int(TransformKind.MISSING)

    counts = [0] * N_KINDS
    best = -1.0

    # Per-pair/per-span moves reduced to the single best-weight kind: only the
    # maximum matters.
    def best_kind(kinds):
        return max(kinds, key=lambda k: (wvals[k], -int(k))) if kinds else None

    pair_best = [[best_kind(ks) for ks in row] for row in table.pairs]
    a_span_best: list[list[tuple[int, int, TransformKind]]] = []
    for i in range(p):
        seen: dict[tuple[int, int], TransformKind] = {}
        for j0, s, kind in table.a_spans[i]:
            cur = seen.get((j0, s))
            if cur is None or wvals[kind] > wvals[cur]:
                seen[(j0, s)] = kind
        a_span_best.append([(j0, s, k) for (j0, s), k in seen.items()])
    b_span_best: list[list[tuple[int, int, TransformKind]]] = []
    for i in range(p):
        seen = {}
        for s, j, kind in table.b_spans[i]:
            cur = seen.get((s, j))
            if cur is None or wvals[kind] > wvals[cur]:
                seen[(s, j)] = kind
        b_span_best.append([(s, j, k) for (s, j), k in seen.items()])

    def leaf(extra_missing: int) -> None:
        nonlocal best
        counts[missing_idx] += extra_missing
        val = _score(counts, wvals)
        if val > best:
            best = val
        counts[missing_idx] -= extra_missing

    def search(i: int, mask: int, used_b: int) -> None:
        nonlocal best
        r_a = p - i
        r_b = q - used_b
        if r_a == 0 or r_b == 0:
            leaf(r_a + r_b)
            return
        w_now = 0.0
        n_now = 0
        for u in range(N_KINDS):
            c = counts[u]
            if c:
                w_now += wvals[u] * c
                n_now += c
        mmin = r_a if r_a < r_b else r_b
        rem = r_a + r_b
        bound = (w_now + mmin) / (n_now + mmin)
        if w_miss > 0.0:
            alt = (w_now + mmin + rem * w_miss) / (n_now + mmin + rem)
            if alt > bound:
                bound = alt
        if bound + _BOUND_PAD <= best:
            return
        for j in range(q):
            if mask & (1 << j):
                continue
            kind = pair_best[i][j]
            if kind is None:
                continue
            counts[kind] += 1
            search(i + 1, mask | (1 << j), used_b + 1)
            counts[kind] -= 1
        for j0, s, kind in a_span_best[i]:
            span_mask = ((1 << s) - 1) << j0
            if mask & span_mask:
                continue
            counts[kind] += 1
            search(i + 1, mask | span_mask, used_b + s)
            counts[kind] -= 1
        for s, j, kind in b_span_best[i]:
            if mask & (1 << j):
                continue
            counts[kind] += 1
            search(i + s, mask | (1 << j), used_b + 1)
            counts[kind] -= 1
        counts[missing_idx] += 1
        search(i + 1, mask, used_b)
        counts[missing_idx] -= 1

    search(0, 0, 0)
    return best

