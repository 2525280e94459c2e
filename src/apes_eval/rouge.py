"""ROUGE-N, ROUGE-L, and ROUGE-SU scoring over token sequences.

Scores are computed on lowercased tokens with no stemming or stopword
removal, so results are reproducible bit-for-bit across platforms.

Each text is prepared once (:func:`prepare`): it is lowercased a single
time, and :func:`score_variants` hands the prepared texts to each
reported variant in turn: ROUGE-1, ROUGE-2, ROUGE-L and ROUGE-SU4.
ROUGE-L's longest common subsequence is computed bit-parallel (Allison &
Dix 1986; Hyyrö 2004): one step over a reference token updates a whole
row of the DP table held in a Python int.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence, Union

TokenSeq = Sequence[str]

MULTI_REF_STRATEGIES = ("max", "average")


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


ZERO_SCORE = RougeScore(0.0, 0.0, 0.0)


def _from_counts(overlap: int, n_candidate: int, n_reference: int) -> RougeScore:
    precision = overlap / n_candidate if n_candidate else 0.0
    recall = overlap / n_reference if n_reference else 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return RougeScore(precision, recall, f1)


def _ngram_counts(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _su_unit_counts(tokens: tuple[str, ...], skip: int) -> Counter:
    """Unigrams plus skip-bigrams (t_i, t_j) with i < j <= i + skip, as one multiset."""
    units = Counter(tokens)
    for k in range(1, skip + 1):
        units.update(zip(tokens, tokens[k:]))
    return units


def _bit_masks(tokens: TokenSeq) -> dict[str, int]:
    """Token -> int with bit i set wherever tokens[i] is that token."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


class Prepared:
    """A text lowercased once, so every variant that scores it shares the work."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: TokenSeq) -> None:
        self.tokens = tuple(t.lower() for t in tokens)

    def __len__(self) -> int:
        return len(self.tokens)


Text = Union[TokenSeq, Prepared]


def prepare(tokens: Text) -> Prepared:
    """The prepared form of a text; a prepared text is returned as is."""
    return tokens if isinstance(tokens, Prepared) else Prepared(tokens)


def _combine(scores: list[RougeScore], multi_ref: str) -> RougeScore:
    if multi_ref not in MULTI_REF_STRATEGIES:
        raise ValueError(f"multi_ref must be one of {MULTI_REF_STRATEGIES}")
    if multi_ref == "max":
        best = scores[0]
        for s in scores[1:]:
            if s.f1 > best.f1:
                best = s
        return best
    return mean_scores(scores)


def mean_scores(scores: Sequence[RougeScore]) -> RougeScore:
    if not scores:
        return ZERO_SCORE
    n = len(scores)
    return RougeScore(
        sum(s.precision for s in scores) / n,
        sum(s.recall for s in scores) / n,
        sum(s.f1 for s in scores) / n,
    )


def _check_references(references: Sequence[Text]) -> None:
    if not references:
        raise ValueError("at least one reference is required")


def _overlap_score(candidate: Text, references: Sequence[Text],
                   units: Callable[[tuple[str, ...]], Counter], multi_ref: str) -> RougeScore:
    """Clipped overlap of the unit multisets `units` builds from each text."""
    _check_references(references)
    cand = units(prepare(candidate).tokens)
    n_cand = sum(cand.values())
    scores = []
    for ref in references:
        refc = units(prepare(ref).tokens)
        overlap = sum(min(cand[k], refc[k]) for k in cand.keys() & refc.keys())
        scores.append(_from_counts(overlap, n_cand, sum(refc.values())))
    return _combine(scores, multi_ref)


def rouge_n(
    candidate: Text,
    references: Sequence[Text],
    n: int = 1,
    multi_ref: str = "max",
) -> RougeScore:
    """Clipped n-gram multiset overlap between candidate and references."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _overlap_score(candidate, references, lambda t: _ngram_counts(t, n), multi_ref)


def _lcs(masks: dict[str, int], length: int, other: TokenSeq) -> int:
    """LCS length of the `length` tokens behind `masks` and `other` (Hyyrö 2004).

    v encodes the current DP row by its steps: bit i is cleared where
    row[i + 1] = row[i] + 1, so the LCS is the number of cleared bits.
    """
    full = (1 << length) - 1
    v = full
    for tok in other:
        m = masks.get(tok)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return length - v.bit_count()


def lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    """Longest common subsequence length, compared token for token."""
    return _lcs(_bit_masks(a), len(a), b)


def rouge_l(
    candidate: Text,
    references: Sequence[Text],
    multi_ref: str = "max",
) -> RougeScore:
    """LCS-based score: P = lcs/|candidate|, R = lcs/|reference|."""
    _check_references(references)
    cand = prepare(candidate).tokens
    masks = _bit_masks(cand)
    scores = []
    for ref in references:
        ref_tokens = prepare(ref).tokens
        ell = _lcs(masks, len(cand), ref_tokens)
        scores.append(_from_counts(ell, len(cand), len(ref_tokens)))
    return _combine(scores, multi_ref)


def rouge_su(
    candidate: Text,
    references: Sequence[Text],
    skip: int = 4,
    multi_ref: str = "max",
) -> RougeScore:
    """Clipped overlap over the union multiset of unigrams and skip-bigrams."""
    if skip < 1:
        raise ValueError("skip must be >= 1")
    return _overlap_score(candidate, references, lambda t: _su_unit_counts(t, skip), multi_ref)


# Variants reported by the evaluation pipeline, in report order.
REPORT_VARIANTS = ("r1", "r2", "rl", "rsu4")


def score_variants(
    candidate: Text, references: Sequence[Text], multi_ref: str = "max"
) -> dict[str, RougeScore]:
    """Every REPORT_VARIANTS score of one candidate, each text lowercased once.

    It calls the variants through this module's globals and passes `n` and
    `skip` explicitly: the benchmark's tracer wraps those globals and names
    the `rouge.r{n}` and `rouge.rsu{skip}` spans from the arguments.
    """
    if multi_ref not in MULTI_REF_STRATEGIES:
        raise ValueError(f"multi_ref must be one of {MULTI_REF_STRATEGIES}")
    cand = prepare(candidate)
    refs = [prepare(r) for r in references]
    return {
        "r1": rouge_n(cand, refs, n=1, multi_ref=multi_ref),
        "r2": rouge_n(cand, refs, n=2, multi_ref=multi_ref),
        "rl": rouge_l(cand, refs, multi_ref=multi_ref),
        "rsu4": rouge_su(cand, refs, skip=4, multi_ref=multi_ref),
    }
