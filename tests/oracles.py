"""Independent brute-force references the fast implementations are checked
against. Deliberately naive: list scans, explicit enumeration, the
quadratic LCS table, O(2^n) where that is the simplest correct thing.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence


def ngram_list(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def su_unit_counts(tokens: Sequence[str], skip: int) -> Counter:
    """Unigrams plus skip-bigrams (t_i, t_j) with i < j <= i + skip, as one multiset."""
    units: Counter = Counter(tokens)
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + skip, len(tokens) - 1) + 1):
            units[(tokens[i], tokens[j])] += 1
    return units


def greedy_multiset_overlap(a: list, b: list) -> int:
    """Clipped multiset intersection by removing matches one at a time."""
    pool = list(b)
    count = 0
    for item in a:
        if item in pool:
            pool.remove(item)
            count += 1
    return count


def prf(overlap: int, n_cand: int, n_ref: int) -> tuple[float, float, float]:
    p = overlap / n_cand if n_cand else 0.0
    r = overlap / n_ref if n_ref else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def brute_rouge_n(cand: Sequence[str], ref: Sequence[str], n: int):
    a = ngram_list([t.lower() for t in cand], n)
    b = ngram_list([t.lower() for t in ref], n)
    return prf(greedy_multiset_overlap(a, b), len(a), len(b))


def is_subsequence(needle: Sequence[str], hay: Sequence[str]) -> bool:
    it = iter(hay)
    return all(tok in it for tok in needle)


def dp_lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by the quadratic dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def brute_lcs(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence by enumerating subsequences of the shorter side."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for length in range(len(short), 0, -1):
        for indices in itertools.combinations(range(len(short)), length):
            if is_subsequence([short[i] for i in indices], long_):
                return length
    return 0


def brute_rouge_l(cand: Sequence[str], ref: Sequence[str]):
    a = [t.lower() for t in cand]
    b = [t.lower() for t in ref]
    if not a or not b:
        return 0.0, 0.0, 0.0
    return prf(brute_lcs(a, b), len(a), len(b))


def su_unit_list(tokens: Sequence[str], skip: int) -> list:
    units: list = list(tokens)
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens)):
            if j - i <= skip:
                units.append((tokens[i], tokens[j]))
    return units


def brute_rouge_su(cand: Sequence[str], ref: Sequence[str], skip: int):
    a = su_unit_list([t.lower() for t in cand], skip)
    b = su_unit_list([t.lower() for t in ref], skip)
    return prf(greedy_multiset_overlap(a, b), len(a), len(b))


def brute_pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def count_sentence_entity_pairs(doc) -> int:
    """Recount of how many questions a document must produce."""
    from apes_eval.corpus import sentence_spans

    total = 0
    for k, highlight in enumerate(doc.highlights):
        mentions = doc.table.mentions.get(f"highlight_{k}", [])
        for start, end in sentence_spans(highlight):
            inside = {m.entity_id for m in mentions if start <= m.start and m.end <= end}
            total += len(inside)
    return total
