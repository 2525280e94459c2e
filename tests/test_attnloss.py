import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apes_eval import attnloss
from apes_eval.attnloss import (
    AttentionParams,
    attention_gradients,
    bce_loss,
    central_difference,
    entity_attention_forward,
    finite_difference_check,
    hybrid_loss,
    nll_loss,
    random_instance,
    run_gradcheck,
    saliency_bce,
)
from oracles import (
    four_block_finite_difference_check,
    frozen_bce,
    frozen_forward,
    frozen_saliency_bce,
    inplace_central_difference,
    inplace_numeric_gradients,
)


def params_of(u, b, v):
    return AttentionParams(np.asarray(u, float), np.asarray(b, float), np.asarray(v, float))


class TestForward:
    def test_zero_projection_gives_half(self):
        params = params_of(np.ones((3, 2)), np.ones(3), np.zeros(3))
        scores, probs = entity_attention_forward(np.random.default_rng(0).standard_normal((4, 2)), params)
        assert np.all(scores == 0.0)
        assert np.all(probs == 0.5)

    def test_zero_states_bias_cancellation(self):
        # u = 0 and v orthogonal to tanh(b) zeroes every score
        params = params_of(np.zeros((2, 3)), [1.0, -1.0], [1.0, 1.0])
        states = np.random.default_rng(1).standard_normal((5, 3))
        scores, probs = entity_attention_forward(states, params)
        assert np.allclose(scores, 0.0, atol=1e-12)
        assert np.allclose(probs, 0.5, atol=1e-12)

    def test_matches_elementwise_reimplementation(self):
        rng = np.random.default_rng(2)
        states = rng.standard_normal((6, 4))
        params = params_of(rng.standard_normal((3, 4)), rng.standard_normal(3), rng.standard_normal(3))
        scores, probs = entity_attention_forward(states, params)
        for j in range(6):
            score_j = float(params.v @ np.tanh(params.u @ states[j] + params.b))
            assert scores[j] == pytest.approx(score_j, abs=1e-12)
            assert probs[j] == pytest.approx(1 / (1 + math.exp(-score_j)), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        params = params_of(np.zeros((2, 3)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="hidden size"):
            entity_attention_forward(np.zeros((4, 5)), params)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_outputs_strictly_inside_unit_interval(self, seed):
        states, params, _ = random_instance(np.random.default_rng(seed))
        _, probs = entity_attention_forward(states, params)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        # up to BLAS accumulation-order jitter (~1 ulp), permuting the
        # source rows permutes the outputs identically
        rng = np.random.default_rng(seed)
        states, params, _ = random_instance(rng)
        perm = rng.permutation(states.shape[0])
        _, probs = entity_attention_forward(states, params)
        _, probs_perm = entity_attention_forward(states[perm], params)
        assert np.allclose(probs_perm, probs[perm], atol=1e-12, rtol=0)


class TestLosses:
    def test_bce_half_prob(self):
        assert bce_loss([0.5], [1.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_bce_mean_of_equal_terms(self):
        assert bce_loss([0.5, 0.5], [1.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_bce_decreases_toward_confident_correct(self):
        losses = [bce_loss([p], [1.0]) for p in (0.9, 0.99, 0.999)]
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 0.01

    def test_bce_rejects_boundary_probs(self):
        with pytest.raises(ValueError):
            bce_loss([1.0], [1.0])
        with pytest.raises(ValueError):
            bce_loss([0.0], [0.0])

    def test_bce_nonnegative_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 9)
            probs = rng.uniform(1e-6, 1 - 1e-6, n)
            targets = rng.integers(0, 2, n).astype(float)
            assert bce_loss(probs, targets) >= 0.0

    def test_nll_cases(self):
        assert nll_loss([1.0, 1.0]) == 0.0
        assert nll_loss([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
        assert nll_loss([math.exp(-3)]) == pytest.approx(3.0, abs=1e-12)

    def test_nll_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nll_loss([0.0])
        with pytest.raises(ValueError):
            nll_loss([0.5, -0.1])

    def test_hybrid_endpoints_and_worked_value(self):
        assert hybrid_loss(0.7, 2.0, 0.0) == 2.0
        assert hybrid_loss(0.7, 2.0, 1.0) == 0.7
        assert hybrid_loss(0.7, 2.0, 0.01) == pytest.approx(1.987, abs=1e-12)

    def test_hybrid_rejects_out_of_range_delta(self):
        with pytest.raises(ValueError):
            hybrid_loss(0.5, 0.5, 1.5)

    @given(st.floats(0, 1), st.floats(0, 5), st.floats(0, 5))
    def test_hybrid_linear_in_delta(self, delta, loss_e, nll):
        value = hybrid_loss(loss_e, nll, delta)
        assert value == pytest.approx(delta * loss_e + (1 - delta) * nll, rel=1e-12)


class TestGradients:
    def test_zero_v_kills_u_and_b_gradients(self):
        rng = np.random.default_rng(4)
        states = rng.standard_normal((5, 3))
        params = params_of(rng.standard_normal((2, 3)), rng.standard_normal(2), np.zeros(2))
        grads = attention_gradients(states, params, rng.integers(0, 2, 5).astype(float))
        assert np.all(grads.u == 0.0)
        assert np.all(grads.b == 0.0)

    def test_saturated_toward_targets_has_vanishing_gradients(self):
        # large matched logits: probs near the binary targets, so the
        # error signal (prob - target) vanishes
        states = np.array([[1.0], [-1.0]])
        params = params_of([[20.0]], [0.0], [20.0])
        targets = np.array([1.0, 0.0])
        grads = attention_gradients(states, params, targets)
        for arr in (grads.u, grads.b, grads.v, grads.states):
            assert np.max(np.abs(arr)) < 1e-6 if arr.size else True

    def test_quadratic_calibration_of_central_difference(self):
        x = np.array([1.0, -2.0, 3.5])
        numeric = central_difference(lambda a: float(0.5 * (a**2).sum()), x.copy(), 1e-5)
        assert np.max(np.abs(numeric - x)) < 1e-9

    def test_fifty_random_instances_under_tolerance(self):
        assert run_gradcheck(seed=0, trials=50) < 1e-5

    def test_wrong_gradient_is_detected(self):
        # guard the guard: corrupting the analytic gradient must register
        rng = np.random.default_rng(5)
        states, params, targets = random_instance(rng)
        grads = attention_gradients(states, params, targets)
        numeric = central_difference(
            lambda a: saliency_bce(states, AttentionParams(a, params.b, params.v), targets),
            params.u.copy(),
            1e-5,
        )
        from apes_eval.attnloss import _relative_error

        assert _relative_error(grads.u, numeric) < 1e-5
        if np.max(np.abs(grads.u)) > 1e-4:
            assert _relative_error(grads.u * 1.5, numeric) > 1e-2

    def test_large_step_degrades_quality(self):
        rng = np.random.default_rng(6)
        # saturating instance so the third derivative is appreciable
        states = rng.standard_normal((6, 4)) * 3.0
        params = params_of(
            rng.standard_normal((4, 4)) * 2.0,
            rng.standard_normal(4),
            rng.standard_normal(4) * 2.0,
        )
        targets = rng.integers(0, 2, 6).astype(float)
        fine = finite_difference_check(states, params, targets, step=1e-5)
        coarse = finite_difference_check(states, params, targets, step=1e-1)
        assert coarse > fine

    def test_gradcheck_requires_trials(self):
        with pytest.raises(ValueError):
            run_gradcheck(seed=0, trials=0)

    def test_gradcheck_deterministic(self):
        assert run_gradcheck(seed=9, trials=5) == run_gradcheck(seed=9, trials=5)

    @pytest.mark.parametrize("name", ["u", "b", "v", "states"])
    def test_gradient_one_percent_off_in_one_entry_fails(self, monkeypatch, name):
        states, params, targets = random_instance(np.random.default_rng(7))
        assert finite_difference_check(states, params, targets) < 1e-5
        exact = attnloss.attention_gradients

        def one_percent_off(*args):
            grads = exact(*args)
            wrong = getattr(grads, name).copy()
            wrong.flat[np.argmax(np.abs(wrong))] *= 1.01
            return dataclasses.replace(grads, **{name: wrong})

        monkeypatch.setattr(attnloss, "attention_gradients", one_percent_off)
        assert finite_difference_check(states, params, targets) > 1e-5


def largest_instance(rng):
    """A random instance at random_instance's largest sizes: t_x 10, d 8 x 8."""
    params = AttentionParams(
        u=rng.standard_normal((8, 8)), b=rng.standard_normal(8), v=rng.standard_normal(8)
    )
    return rng.standard_normal((10, 8)), params, rng.integers(0, 2, size=10).astype(float)


def oracle_instances(seed, count, largest):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_instance(rng)
    for _ in range(largest):
        yield largest_instance(rng)


class TestFiniteDifferenceOracle:
    """The batched finite differences against the entry-by-entry versions
    frozen in tests/oracles.py: equal floats, not just close."""

    def test_equals_oracle_on_random_instances(self):
        for trial, (states, params, targets) in enumerate(oracle_instances(20, 300, 20)):
            step = 1e-5 if trial % 4 else 1e-2
            assert finite_difference_check(states, params, targets, step) == (
                four_block_finite_difference_check(states, params, targets, step)
            )

    @pytest.mark.parametrize("step", [1e-5, 1e-2])
    def test_numeric_gradients_equal_inplace_loop(self, step):
        for states, params, targets in oracle_instances(21, 300, 20):
            pre, scores, probs = attnloss._forward(states, params.u, params.b, params.v)
            frozen = frozen_forward(states, params.u, params.b, params.v)
            assert all(map(np.array_equal, (pre, scores, probs), frozen))
            assert attnloss._bce(probs, targets) == frozen_bce(frozen[2], targets)
            batched = attnloss._numeric_gradients(
                states, params.u, params.b, params.v, targets, step
            )
            expected = inplace_numeric_gradients(states, params, targets, step)
            for got, want in zip((batched.u, batched.b, batched.v, batched.states), expected):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_central_difference_equals_inplace_loop(self):
        for states, params, targets in oracle_instances(22, 40, 5):
            def loss(a):
                return frozen_saliency_bce(states, AttentionParams(params.u, params.b, a), targets)

            for step in (1e-5, 1e-2):
                assert np.array_equal(
                    central_difference(loss, params.v.copy(), step),
                    inplace_central_difference(loss, params.v.copy(), step),
                )

    @pytest.mark.parametrize("t_x, d_hidden", [(0, 3), (2, 3), (2, 0)])
    def test_empty_alignment_space_equals_oracle(self, t_x, d_hidden):
        # with d_align 0 every score is 0 and u, b and v have no entry to
        # perturb; with t_x 0 as well no loss is ever evaluated
        rng = np.random.default_rng(23)
        states = rng.standard_normal((t_x, d_hidden))
        params = params_of(np.zeros((0, d_hidden)), np.zeros(0), np.zeros(0))
        targets = rng.integers(0, 2, size=t_x).astype(float)
        assert finite_difference_check(states, params, targets) == (
            four_block_finite_difference_check(states, params, targets)
        )

    @pytest.mark.parametrize(
        "case",
        [
            "no positions",
            "saturated",
            "plus copy saturates",
            "minus copy saturates",
            "copy saturates to 0",
            "zero step",
            "nan step",
            "inf step",
            "bad targets",
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_rejects_what_oracle_rejects(self, case):
        states, params, targets = random_instance(np.random.default_rng(3))
        step = 1e-5
        if case == "no positions":
            states, targets = states[:0], targets[:0]
        elif case == "saturated":  # every score is 100 tanh(1), so every prob rounds to 1.0
            states, params, targets = np.ones((2, 1)), params_of([[1.0]], [0.0], [100.0]), [1.0, 0.0]
        elif case in ("plus copy saturates", "minus copy saturates"):
            # 47 tanh(1) keeps the prob below 1.0, but 47 tanh(6) rounds it to
            # 1.0: u = 1 + 5 in the "+step" copy, or -47 tanh(-4) in the
            # "-step" copy when v is -47
            sign = 1.0 if case == "plus copy saturates" else -1.0
            states, params = np.ones((1, 1)), params_of([[1.0]], [0.0], [sign * 47.0])
            targets, step = [1.0], 5.0
            perturbed = params_of([[1.0 + sign * 5.0]], [0.0], [sign * 47.0])
            assert entity_attention_forward(states, params)[1][0] < 1.0
            assert entity_attention_forward(states, perturbed)[1][0] == 1.0
        elif case == "copy saturates to 0":
            # only the second position saturates: its prob exp(-931 tanh(1))
            # is tiny but positive, and at u = 1.01 exp(931 tanh(1.01))
            # overflows, so the "+step" copy's prob is 0.0
            states, params = np.array([[0.0], [1.0]]), params_of([[1.0]], [0.0], [-931.0])
            targets, step = [0.0, 1.0], 1e-2
            perturbed = params_of([[1.01]], [0.0], [-931.0])
            assert entity_attention_forward(states, params)[1][1] > 0.0
            assert entity_attention_forward(states, perturbed)[1][1] == 0.0
        elif case == "bad targets":
            targets = targets + 0.5
        else:
            step = {"zero step": 0.0, "nan step": math.nan, "inf step": math.inf}[case]
        with pytest.raises(ValueError):
            four_block_finite_difference_check(states, params, targets, step)
        with pytest.raises(ValueError):
            finite_difference_check(states, params, targets, step)
