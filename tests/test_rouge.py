import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apes_eval import rouge
from apes_eval.rouge import (
    REPORT_VARIANTS,
    RougeScore,
    lcs_length,
    mean_scores,
    prepare,
    rouge_l,
    rouge_n,
    rouge_su,
    score_variants,
)
from oracles import (
    brute_rouge_l,
    brute_rouge_n,
    brute_rouge_su,
    dp_lcs_length,
    ngram_counts,
    prf,
    su_unit_counts,
    su_unit_list,
)

tokens_st = st.lists(st.sampled_from("a b c d e f".split()), min_size=1, max_size=12)


def mixed_case_vocab(size):
    """`size` words, each also spelt capitalised and in capitals."""
    words = [f"w{i}" for i in range(size)]
    return words + [w.capitalize() for w in words] + [w.upper() for w in words]


def long_tokens(size, max_size=300):
    return st.lists(st.sampled_from(mixed_case_vocab(size)), max_size=max_size)


# Pairs of up to 300 tokens over 2-, 6- and 40-word alphabets: long enough to
# cross 64- and 128-bit words, small and large alphabets for dense and sparse
# match masks.
long_pair_st = st.sampled_from([2, 6, 40]).flatmap(
    lambda size: st.tuples(long_tokens(size), long_tokens(size))
)


# Each reported variant as a direct call, the reference score_variants must equal.
VARIANT_CALLS = {
    "r1": lambda cand, refs, multi_ref: rouge_n(cand, refs, 1, multi_ref),
    "r2": lambda cand, refs, multi_ref: rouge_n(cand, refs, 2, multi_ref),
    "rl": lambda cand, refs, multi_ref: rouge_l(cand, refs, multi_ref),
    "rsu4": lambda cand, refs, multi_ref: rouge_su(cand, refs, 4, multi_ref),
}


class TestRougeN:
    def test_identity(self):
        score = rouge_n("the cat sat".split(), ["the cat sat".split()], 1)
        assert score == RougeScore(1.0, 1.0, 1.0)

    def test_clipped_unigram_example(self):
        score = rouge_n("the cat sat".split(), ["the cat sat on the mat".split()], 1)
        assert score.precision == 1.0
        assert score.recall == 0.5
        assert score.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_permutation_keeps_rouge1_perfect(self):
        ref = "x y z w v u".split()
        cand = list(ref)
        random.Random(0).shuffle(cand)
        assert rouge_n(cand, [ref], 1).f1 == 1.0

    def test_too_short_side_scores_zero(self):
        assert rouge_n(["a"], [["a", "b"]], 2) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_n([], [[]], 1) == RougeScore(0.0, 0.0, 0.0)

    def test_case_insensitive(self):
        assert rouge_n(["The", "Cat"], [["the", "cat"]], 1).f1 == 1.0

    def test_requires_reference(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], [], 1)


class TestRougeL:
    def test_identity(self):
        assert rouge_l("a b c".split(), ["a b c".split()]) == RougeScore(1.0, 1.0, 1.0)

    def test_transposition(self):
        score = rouge_l("a c b".split(), ["a b c".split()])
        assert score.precision == pytest.approx(2 / 3, abs=1e-12)
        assert score.recall == pytest.approx(2 / 3, abs=1e-12)
        assert score.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_disjoint(self):
        assert rouge_l("x y z".split(), ["a b c".split()]) == RougeScore(0.0, 0.0, 0.0)

    def test_empty_side(self):
        assert rouge_l([], [["a"]]) == RougeScore(0.0, 0.0, 0.0)

    @given(tokens_st, tokens_st)
    def test_lcs_symmetry_and_bound(self, a, b):
        assert lcs_length(a, b) == lcs_length(b, a)
        assert lcs_length(a, b) <= min(len(a), len(b))


class TestRougeSU:
    def test_identity_two_tokens(self):
        assert rouge_su("a b".split(), ["a b".split()]) == RougeScore(1.0, 1.0, 1.0)

    def test_swap_example(self):
        score = rouge_su("a b".split(), ["b a".split()], skip=4)
        assert score.precision == pytest.approx(2 / 3, abs=1e-12)
        assert score.recall == pytest.approx(2 / 3, abs=1e-12)
        assert score.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_empty_candidate(self):
        assert rouge_su([], [["a", "b"]]) == RougeScore(0.0, 0.0, 0.0)


class TestMultiReference:
    def test_max_picks_best_reference(self):
        cand = "a b".split()
        refs = ["c d".split(), "a b".split()]
        assert rouge_n(cand, refs, 1, multi_ref="max").f1 == 1.0

    def test_average_mixes_components(self):
        cand = "a b".split()
        refs = ["a b".split(), "c d".split()]
        score = rouge_n(cand, refs, 1, multi_ref="average")
        assert score.f1 == pytest.approx(0.5)
        assert score.precision == pytest.approx(0.5)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], [["a"]], 1, multi_ref="median")


@settings(max_examples=100, deadline=None)
@given(tokens_st, tokens_st)
def test_scores_bounded_and_self_perfect(cand, ref):
    scores = score_variants(cand, [ref])
    assert tuple(scores) == REPORT_VARIANTS
    for score in scores.values():
        for value in (score.precision, score.recall, score.f1):
            assert 0.0 <= value <= 1.0
    for name, score in score_variants(cand, [cand]).items():
        if name != "r2" or len(cand) >= 2:  # identity needs >= 1 unit
            assert score.f1 == 1.0


@settings(max_examples=60, deadline=None)
@given(tokens_st)
def test_rouge1_order_free(tokens):
    shuffled = list(tokens)
    random.Random(1).shuffle(shuffled)
    assert rouge_n(shuffled, [tokens], 1) == rouge_n(tokens, [tokens], 1)


def test_rouge2_breaks_under_some_permutation():
    # any text with two distinct bigrams admits a bigram-changing permutation
    for text in (["a", "b", "a"], ["a", "b", "c"], ["x", "x", "y", "x"]):
        found = any(
            rouge_n(list(p), [text], 2).f1 < 1.0
            for p in itertools.permutations(text)
        )
        assert found


def test_appending_surplus_reference_token_never_hurts_overlap():
    ref = "a a b c".split()
    cand = "a b".split()
    base = rouge_n(cand, [ref], 1)
    extended = rouge_n(cand + ["a"], [ref], 1)  # 'a' still unmatched in ref
    assert extended.recall >= base.recall


def rnd_tokens(rng, max_len=12):
    return [rng.choice("a b c d e f".split()) for _ in range(rng.randint(0, max_len))]


def test_brute_force_agreement_200_pairs():
    rng = random.Random(0)
    for _ in range(200):
        cand, ref = rnd_tokens(rng), rnd_tokens(rng)
        for n in (1, 2, 3):
            got = rouge_n(cand, [ref], n)
            assert (got.precision, got.recall, got.f1) == brute_rouge_n(cand, ref, n)
        got = rouge_l(cand, [ref])
        assert (got.precision, got.recall, got.f1) == brute_rouge_l(cand, ref)
        got = rouge_su(cand, [ref], skip=4)
        assert (got.precision, got.recall, got.f1) == brute_rouge_su(cand, ref, 4)


class TestPrepared:
    @settings(max_examples=150, deadline=None)
    @given(long_pair_st)
    def test_lcs_equals_dp_oracle(self, pair):
        a, b = pair
        assert lcs_length(a, b) == dp_lcs_length(a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 127, 128, 129, 300])
    def test_lcs_across_word_sizes(self, length):
        rng = random.Random(length)
        for size in (2, 6, 40):
            a = [rng.choice(mixed_case_vocab(size)) for _ in range(length)]
            b = [rng.choice(mixed_case_vocab(size)) for _ in range(rng.randint(0, 300))]
            assert lcs_length(a, b) == dp_lcs_length(a, b)
            assert lcs_length(b, a) == dp_lcs_length(a, b)

    def test_lcs_compares_raw_tokens(self):
        assert lcs_length(["The", "cat"], ["the", "cat"]) == 1
        assert rouge_l(["The", "cat"], [["the", "cat"]]).f1 == 1.0

    @settings(max_examples=60, deadline=None)
    @given(long_pair_st, st.integers(0, 3), st.sampled_from(["max", "average"]))
    def test_prepared_scores_equal_raw(self, pair, extra_refs, multi_ref):
        cand, ref = pair
        refs = [ref] + [list(reversed(ref[: 50 * k])) for k in range(1, extra_refs + 1)]
        raw = {name: call(cand, refs, multi_ref) for name, call in VARIANT_CALLS.items()}
        prepared = [prepare(r) for r in refs]
        for name, call in VARIANT_CALLS.items():
            assert call(prepare(cand), prepared, multi_ref) == raw[name]
            assert call(cand, prepared, multi_ref) == raw[name]
            assert call(prepare(cand), refs, multi_ref) == raw[name]
        assert score_variants(cand, refs, multi_ref) == raw
        assert tuple(raw) == REPORT_VARIANTS

    @settings(max_examples=60, deadline=None)
    @given(long_pair_st)
    def test_scores_equal_oracle_counts(self, pair):
        cand, ref = pair
        a, b = [t.lower() for t in cand], [t.lower() for t in ref]

        def oracle_overlap(x, y):
            return sum((x & y).values())

        for n in (1, 2, 3):
            got = rouge_n(cand, [ref], n)
            ca, cb = ngram_counts(a, n), ngram_counts(b, n)
            want = prf(oracle_overlap(ca, cb), sum(ca.values()), sum(cb.values()))
            assert (got.precision, got.recall, got.f1) == want
        for skip in (1, 4):
            got = rouge_su(cand, [ref], skip)
            ua, ub = su_unit_counts(a, skip), su_unit_counts(b, skip)
            want = prf(oracle_overlap(ua, ub), sum(ua.values()), sum(ub.values()))
            assert (got.precision, got.recall, got.f1) == want
        got = rouge_l(cand, [ref])
        want = prf(dp_lcs_length(a, b), len(a), len(b)) if a and b else (0.0, 0.0, 0.0)
        assert (got.precision, got.recall, got.f1) == want

    @settings(max_examples=60, deadline=None)
    @given(long_tokens(6, max_size=40), st.integers(1, 6))
    def test_units_equal_oracle_builders(self, tokens, skip):
        lowered = [t.lower() for t in tokens]
        text = prepare(tokens)
        assert rouge._su_unit_counts(text.tokens, 4) == Counter(su_unit_list(lowered, 4))
        assert rouge._su_unit_counts(text.tokens, skip) == su_unit_counts(lowered, skip)
        for n in (1, 2, 3):
            assert rouge._ngram_counts(text.tokens, n) == ngram_counts(lowered, n)
        assert len(text) == len(tokens)

    def test_prepare_is_idempotent(self):
        text = prepare(["The", "cat", "the", "mat"])
        assert prepare(text) is text
        assert text.tokens == ("the", "cat", "the", "mat")
        assert rouge._bit_masks(text.tokens) == {"the": 0b0101, "cat": 0b0010, "mat": 0b1000}

    def test_score_variants_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            score_variants(["a"], [["a"]], multi_ref="median")

    def test_score_variants_checks_the_strategy_before_any_reference(self):
        def unread():
            raise AssertionError("a reference was read")
            yield

        with pytest.raises(ValueError, match="multi_ref must be one of"):
            score_variants(["a"], unread(), multi_ref="median")
        with pytest.raises(ValueError, match="multi_ref must be one of"):
            score_variants(["a"], [], multi_ref="median")


def test_mean_scores():
    scores = [RougeScore(1.0, 0.5, 0.6), RougeScore(0.0, 0.5, 0.2)]
    mean = mean_scores(scores)
    assert mean == RougeScore(0.5, 0.5, 0.4)
    assert mean_scores([]) == RougeScore(0.0, 0.0, 0.0)
