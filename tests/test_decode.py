import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apes_eval.decode import (
    Hypothesis,
    ModelError,
    PenaltyConfig,
    TableModel,
    beam_search,
    coverage_penalty,
    entity_penalty,
    exhaustive_search,
    final_score,
    length_penalty,
    load_model,
    score_breakdown,
)
from oracles import stepwise_final_score

EOS = "</s>"


def random_table_model(rng: np.random.Generator, n_content=3, t_x=3, max_len=4, saliency=True):
    """Fully-specified random model over all prefixes the search can query."""
    vocab = [chr(97 + i) for i in range(n_content)] + [EOS]
    steps = {}

    def fill(prefix, depth):
        logits = rng.standard_normal(len(vocab))
        probs = np.exp(logits)
        probs /= probs.sum()
        logp = {tok: float(math.log(p)) for tok, p in zip(vocab, probs)}
        attn = rng.random(t_x) + 1e-3
        attn /= attn.sum()
        steps[prefix] = (logp, [float(x) for x in attn])
        if depth < max_len - 1:
            for tok in vocab[:-1]:
                fill(prefix + (tok,), depth + 1)

    fill((), 0)
    sal = [float(x) for x in rng.random(t_x)] if saliency else None
    return TableModel(vocab, EOS, t_x, steps, sal)


def forced_model(sequence=("a", "b", "a"), t_x=2):
    """Probability-one path through `sequence` then eos."""
    vocab = sorted(set(sequence)) + [EOS]
    low = -1e9
    steps = {}
    for i in range(len(sequence) + 1):
        prefix = tuple(sequence[:i])
        target = sequence[i] if i < len(sequence) else EOS
        logp = {tok: (0.0 if tok == target else low) for tok in vocab}
        attn = [0.0] * t_x
        attn[i % t_x] = 1.0
        steps[prefix] = (logp, attn)
    return TableModel(vocab, EOS, t_x, steps)


class TestPenalties:
    def test_length_penalty_unit_cases(self):
        assert length_penalty(1, 0.7) == 1.0
        assert length_penalty(9, 0.0) == 1.0
        assert length_penalty(13, 0.9) == pytest.approx(2.6879, abs=1e-3)

    def test_length_penalty_requires_positive_length(self):
        with pytest.raises(ValueError):
            length_penalty(0, 0.5)

    def test_coverage_penalty_cases(self):
        assert coverage_penalty([0.3, 1.0, 0.9], 0.7) == 0.0
        assert coverage_penalty([2.0, 0.5], 0.5) == pytest.approx(0.5, abs=1e-12)
        assert coverage_penalty([5.0, 5.0], 0.0) == 0.0

    def test_coverage_penalty_rejects_negative(self):
        with pytest.raises(ValueError):
            coverage_penalty([-0.1], 1.0)

    def test_entity_penalty_cases(self):
        assert entity_penalty([1.0, 1.0], [0.5, 0.5], 0.9) == 0.0
        assert entity_penalty([0.5, 1.0], [0.8, 0.2], 0.5) == pytest.approx(0.15, abs=1e-12)
        assert entity_penalty([0.0], [1.0], 0.0) == 0.0

    def test_entity_penalty_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            entity_penalty([0.5], [0.5, 0.5], 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(0, 3).map(lambda x: round(x, 3)), min_size=1, max_size=8),
        st.floats(0.01, 2),
    )
    def test_coverage_penalty_nonnegative_zero_iff_clamped(self, coverage, beta):
        # coverage on a 1e-3 grid keeps the clamp comparison away from
        # float-absorption at the 1.0 boundary
        cp = coverage_penalty(coverage, beta)
        assert cp >= 0.0
        assert (cp == 0.0) == all(c <= 1.0 for c in coverage)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(0, 2), min_size=1, max_size=8),
        st.lists(st.floats(0, 1), min_size=1, max_size=8),
        st.floats(0, 2),
    )
    def test_entity_penalty_nonnegative(self, coverage, saliency, gamma):
        n = min(len(coverage), len(saliency))
        ep = entity_penalty(coverage[:n], saliency[:n], gamma)
        assert ep >= 0.0
        if all(c >= s for c, s in zip(coverage[:n], saliency[:n])):
            assert ep == 0.0


class TestFinalScore:
    def _hypothesis(self, logp=-2.0, coverage=(2.0, 0.5), n_tokens=13):
        return Hypothesis(tuple("t" for _ in range(n_tokens)), logp, np.array(coverage), True)

    def test_all_penalties_off_returns_logp(self):
        cfg = PenaltyConfig(alpha=0.0, beta=0.0, gamma=0.0, saliency=None)
        hyp = self._hypothesis()
        assert final_score(hyp, cfg) == hyp.logp

    def test_worked_composition(self):
        # logp = -2, lp = 2, cp = 0.5, ep = 0.15 combine to -1.65:
        # a 13-token hypothesis has lp = 3**alpha, so alpha = log2/log3;
        # coverage (2.0, 0.5) gives cp = 0.5 at beta 0.5 and, against
        # saliency (0.5, 0.8), ep = 0.5 * (0.8 - 0.5) = 0.15
        alpha = math.log(2.0) / math.log(3.0)
        cfg = PenaltyConfig(alpha=alpha, beta=0.5, gamma=0.5, saliency=(0.5, 0.8))
        hyp = Hypothesis(tuple("t" for _ in range(13)), -2.0, np.array([2.0, 0.5]), True)
        assert length_penalty(13, alpha) == pytest.approx(2.0, abs=1e-12)
        assert final_score(hyp, cfg) == pytest.approx(-1.65, abs=1e-9)

    def test_unfinished_rejected(self):
        cfg = PenaltyConfig(gamma=0.0)
        with pytest.raises(ValueError, match="finished"):
            final_score(Hypothesis(("a",), -1.0, np.zeros(2), False), cfg)

    def test_gamma_without_saliency_rejected(self):
        cfg = PenaltyConfig(gamma=0.5, saliency=None)
        with pytest.raises(ValueError, match="saliency"):
            final_score(Hypothesis(("a",), -1.0, np.zeros(2), True), cfg)

    def test_unmet_saliency_strictly_lowers_score(self):
        # identical logp and coverage; the config leaving more saliency
        # mass uncovered must score strictly lower
        hyp = Hypothesis(("a", "b"), -1.0, np.array([1.0, 0.0]), True)
        met = PenaltyConfig(alpha=0.9, beta=0.5, gamma=1.0, saliency=(1.0, 0.0))
        unmet = PenaltyConfig(alpha=0.9, beta=0.5, gamma=1.0, saliency=(1.0, 0.9))
        assert final_score(hyp, unmet) < final_score(hyp, met)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, 2), st.floats(0, 2), st.floats(0.01, 2), st.floats(0.01, 2))
    def test_monotone_in_beta_and_gamma(self, beta1, beta2, gamma1, gamma2):
        hyp = Hypothesis(("a", "b", "c"), -1.5, np.array([1.7, 0.2]), True)
        saliency = (0.9, 0.1)
        lo_b, hi_b = sorted((beta1, beta2))
        assert final_score(hyp, PenaltyConfig(beta=hi_b, gamma=0.0)) <= final_score(
            hyp, PenaltyConfig(beta=lo_b, gamma=0.0)
        )
        lo_g, hi_g = sorted((gamma1, gamma2))
        assert final_score(
            hyp, PenaltyConfig(beta=0.0, gamma=hi_g, saliency=saliency)
        ) <= final_score(hyp, PenaltyConfig(beta=0.0, gamma=lo_g, saliency=saliency))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda t_x: st.lists(st.tuples(st.floats(0, 5), st.floats(0, 1)), min_size=t_x, max_size=t_x)
        ),
        st.integers(1, 40),
        st.floats(-50, 0),
        st.floats(0, 2),
        st.floats(0, 2),
        st.one_of(st.just(0.0), st.floats(0, 5)),
    )
    def test_equals_stepwise_oracle(self, positions, n_tokens, logp, alpha, beta, gamma):
        coverage, saliency = (tuple(x) for x in zip(*positions))
        hyp = Hypothesis(("a",) * n_tokens, logp, np.array(coverage), True)
        for sal in (saliency,) if gamma > 0 else (None, saliency):
            cfg = PenaltyConfig(alpha=alpha, beta=beta, gamma=gamma, saliency=sal)
            assert final_score(hyp, cfg) == stepwise_final_score(hyp, cfg)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, 1.5), st.floats(0, 1.5))
    def test_alpha_raises_first_term_toward_zero(self, alpha1, alpha2):
        hyp = Hypothesis(("a", "b"), -2.0, np.zeros(2), True)
        lo, hi = sorted((alpha1, alpha2))
        cfg_lo = PenaltyConfig(alpha=lo, beta=0.0, gamma=0.0)
        cfg_hi = PenaltyConfig(alpha=hi, beta=0.0, gamma=0.0)
        assert final_score(hyp, cfg_hi) >= final_score(hyp, cfg_lo)


class TestTableModel:
    def test_uniform_fallback(self):
        model = TableModel(["a", EOS], EOS, 2, {})
        logps, attn = model.step(("a", "a"))
        assert logps["a"] == pytest.approx(math.log(0.5))
        assert list(attn) == [0.5, 0.5]

    def test_rejects_bad_distribution(self):
        with pytest.raises(ModelError, match="sum"):
            TableModel(["a", EOS], EOS, 1, {(): ({"a": -0.5, EOS: -0.5}, [1.0])})

    def test_rejects_bad_attention(self):
        with pytest.raises(ModelError, match="attention"):
            TableModel(
                ["a", EOS], EOS, 2, {(): ({"a": math.log(0.5), EOS: math.log(0.5)}, [0.9, 0.2])}
            )

    def test_rejects_missing_vocab_coverage(self):
        with pytest.raises(ModelError, match="cover"):
            TableModel(["a", "b", EOS], EOS, 1, {(): ({"a": 0.0, EOS: -1e9}, [1.0])})

    def test_saliency_validation(self):
        with pytest.raises(ModelError, match="saliency"):
            TableModel(["a", EOS], EOS, 2, {}, saliency=[0.5])

    def test_json_roundtrip(self, tmp_path):
        obj = {
            "vocab": ["a", EOS],
            "eos": EOS,
            "t_x": 2,
            "steps": {
                "": {"logp": {"a": 0.0, EOS: -1e9}, "attn": [1.0, 0.0]},
                "a": {"logp": {"a": -1e9, EOS: 0.0}, "attn": [0.0, 1.0]},
            },
            "saliency": [1.0, 0.0],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        model = load_model(str(path))
        assert model.saliency == (1.0, 0.0)
        cfg = PenaltyConfig(beam_width=2, max_len=3, saliency=model.saliency)
        assert beam_search(model, cfg).tokens == ("a",)


class TestBeamSearch:
    def test_forced_sequence_any_width(self):
        model = forced_model(("a", "b", "a"))
        for width in (1, 2, 8):
            cfg = PenaltyConfig(
                alpha=0.9, beta=0.5, gamma=0.0, beam_width=width, max_len=6
            )
            result = beam_search(model, cfg)
            assert result.tokens == ("a", "b", "a")
            assert not result.warning

    def test_trigram_blocking_prunes_repeats(self):
        # unconstrained argmax repeats the trigram (a, a, a)
        vocab = ["a", "b", EOS]
        spread = {"a": math.log(0.8), "b": math.log(0.15), EOS: math.log(0.05)}
        steps = {}
        for length in range(6):
            for prefix in _all_prefixes(("a", "b"), length):
                steps[prefix] = (dict(spread), [1.0])
        model = TableModel(vocab, EOS, 1, steps)
        cfg = PenaltyConfig(
            alpha=0.0, beta=0.0, gamma=0.0, beam_width=16, max_len=6,
            block_repeated_trigrams=True,
        )
        result = beam_search(model, cfg)
        trigrams = [result.tokens[i : i + 3] for i in range(len(result.tokens) - 2)]
        assert len(trigrams) == len(set(trigrams))

    def test_breakdown_components(self):
        model = forced_model(("a", "b"))
        cfg = PenaltyConfig(alpha=0.9, beta=0.5, gamma=0.0, beam_width=2, max_len=4)
        result = beam_search(model, cfg)
        parts = score_breakdown(result.hypothesis, cfg)
        assert set(parts) == {"logp", "lp", "cp", "ep"}
        assert result.score == pytest.approx(
            parts["logp"] / parts["lp"] - parts["cp"] - parts["ep"], abs=1e-12
        )


def _all_prefixes(content, length):
    import itertools

    return list(itertools.product(content, repeat=length))


class TestBeamMatchesExhaustive:
    def test_fifty_random_models_five_penalty_settings(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_content = int(rng.integers(2, 4))  # vocab size including eos <= 4
            max_len = int(rng.integers(2, 6))
            model = random_table_model(
                rng, n_content=n_content, t_x=int(rng.integers(1, 4)), max_len=max_len
            )
            settings_list = [(0.9, 0.5, 0.5)] + [
                tuple(float(x) for x in rng.random(3) * 2.0) for _ in range(4)
            ]
            for alpha, beta, gamma in settings_list:
                cfg = PenaltyConfig(
                    alpha=alpha,
                    beta=beta,
                    gamma=gamma,
                    beam_width=n_content**max_len,
                    max_len=max_len,
                    block_repeated_trigrams=False,
                    saliency=model.saliency,
                )
                got = beam_search(model, cfg)
                want = exhaustive_search(model, cfg)
                assert got.tokens == want.tokens
                assert got.score == pytest.approx(want.score, abs=1e-9)

    def test_agreement_with_blocking_enabled(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = random_table_model(rng, n_content=2, t_x=2, max_len=5)
            cfg = PenaltyConfig(
                alpha=0.9, beta=0.5, gamma=0.5, beam_width=2**5, max_len=5,
                block_repeated_trigrams=True, saliency=model.saliency,
            )
            got = beam_search(model, cfg)
            want = exhaustive_search(model, cfg)
            assert got.tokens == want.tokens
            assert got.score == pytest.approx(want.score, abs=1e-9)

    def test_large_gamma_flips_to_saliency_covering_sequence(self):
        # token "a" attends position 0, token "b" position 1; saliency wants
        # position 1 covered, but "a" has the higher probability
        vocab = ["a", "b", EOS]
        attn = {"a": [1.0, 0.0], "b": [0.0, 1.0]}
        logp = {"a": math.log(0.7), "b": math.log(0.2), EOS: math.log(0.1)}
        steps = {}
        for length in range(3):
            for prefix in _all_prefixes(("a", "b"), length):
                row = attn[prefix[-1]] if prefix else [0.5, 0.5]
                steps[prefix] = (dict(logp), row)
        model = TableModel(vocab, EOS, 2, steps, saliency=[0.0, 1.0])

        def best(gamma):
            cfg = PenaltyConfig(
                alpha=0.0, beta=0.0, gamma=gamma, beam_width=8, max_len=3,
                block_repeated_trigrams=False, saliency=model.saliency,
            )
            got = beam_search(model, cfg)
            want = exhaustive_search(model, cfg)
            assert got.tokens == want.tokens
            return got.tokens

        # each step consumes the attention row of its prefix, so covering
        # position 1 requires a "b" before the final token; the unpenalized
        # argmax "a a a" leaves 0.5 saliency mass unmet, a cost of 0.5*gamma
        # against its 1.25 log-probability edge
        assert "b" not in best(0.0)
        assert "b" in best(4.0)


class TestExhaustive:
    def test_single_token_vocab(self):
        model = TableModel(["a", EOS], EOS, 1, {})
        cfg = PenaltyConfig(gamma=0.0, beam_width=1, max_len=2)
        result = exhaustive_search(model, cfg)
        assert result.tokens in {("a",), ("a", "a")}

    def test_tie_breaks_lexicographically_on_token_ids(self):
        # uniform model: many sequences tie; smallest id sequence must win
        model = TableModel(["a", "b", EOS], EOS, 1, {})
        cfg = PenaltyConfig(alpha=0.0, beta=0.0, gamma=0.0, beam_width=9, max_len=2)
        result = exhaustive_search(model, cfg)
        assert result.tokens == ("a",)
        assert beam_search(model, cfg).tokens == ("a",)

    def test_search_space_guard(self):
        model = TableModel([*"abcdefgh", EOS], EOS, 1, {})
        with pytest.raises(ValueError, match="search space"):
            exhaustive_search(model, PenaltyConfig(gamma=0.0, max_len=8, beam_width=1))
