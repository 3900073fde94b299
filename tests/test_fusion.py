import math

import numpy as np
import pytest

from vista.errors import ValidationError
from vista.fusion import (
    ContextMlpParams,
    FilmParams,
    ProbeParams,
    attentive_probe,
    film_modulate,
    roi_context_fuse,
)
from vista.rng import CounterRng


def rand_array(rng, *shape):
    flat = [rng.gaussian() for _ in range(int(np.prod(shape)))]
    return np.array(flat).reshape(shape)


def probe_oracle(seq, params):
    """Scalar-loop recomputation of the attentive probe."""
    t, d_in = seq.shape
    d_att = params.key_proj.shape[1]
    d_out = params.value_proj.shape[1]
    logits = []
    for i in range(t):
        key = [sum(seq[i][a] * params.key_proj[a][j] for a in range(d_in)) for j in range(d_att)]
        logits.append(sum(key[j] * params.query[j] for j in range(d_att)) / math.sqrt(d_att))
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    total = sum(exps)
    weights = [e / total for e in exps]
    token = [0.0] * d_out
    for i in range(t):
        for j in range(d_out):
            value_ij = sum(seq[i][a] * params.value_proj[a][j] for a in range(d_in))
            token[j] += weights[i] * value_ij
    return np.array(token), np.array(weights)


class TestAttentiveProbe:
    def test_singleton_sequence(self):
        rng = CounterRng(1)
        params = ProbeParams(rand_array(rng, 3, 2), rand_array(rng, 3, 2), rand_array(rng, 2))
        seq = rand_array(rng, 1, 3)
        token, weights = attentive_probe(seq, params)
        np.testing.assert_allclose(weights, [1.0])
        np.testing.assert_allclose(token, seq[0] @ params.value_proj)

    def test_identical_rows_give_uniform_weights(self):
        rng = CounterRng(2)
        params = ProbeParams(rand_array(rng, 3, 2), rand_array(rng, 3, 2), rand_array(rng, 2))
        row = rand_array(rng, 3)
        seq = np.tile(row, (5, 1))
        _, weights = attentive_probe(seq, params)
        np.testing.assert_allclose(weights, np.full(5, 0.2), atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = CounterRng(3)
        params = ProbeParams(rand_array(rng, 2, 3), rand_array(rng, 2, 4), rand_array(rng, 3))
        seq = rand_array(rng, 3, 2)
        token, weights = attentive_probe(seq, params)
        exp_token, exp_weights = probe_oracle(seq, params)
        np.testing.assert_allclose(weights, exp_weights, atol=1e-12)
        np.testing.assert_allclose(token, exp_token, atol=1e-12)

    def test_weights_sum_to_one_and_permutation_invariant(self):
        for trial in range(25):
            rng = CounterRng(100 + trial)
            t = 1 + rng.randint(6)
            d_in = 1 + rng.randint(5)
            d_att = 1 + rng.randint(4)
            d_out = 1 + rng.randint(4)
            params = ProbeParams(
                rand_array(rng, d_in, d_att), rand_array(rng, d_in, d_out), rand_array(rng, d_att)
            )
            seq = rand_array(rng, t, d_in)
            token, weights = attentive_probe(seq, params)
            assert abs(weights.sum() - 1.0) < 1e-6
            assert np.all(weights >= 0)
            perm = np.arange(t)
            np.random.default_rng(trial).shuffle(perm)
            token_p, _ = attentive_probe(seq[perm], params)
            np.testing.assert_allclose(token_p, token, atol=1e-6)

    def test_dimension_mismatch(self):
        params = ProbeParams(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValidationError):
            attentive_probe(np.zeros((2, 4)), params)

    def test_zero_attention_width_rejected(self):
        # softmax over logits divided by sqrt(0) would give NaN weights
        params = ProbeParams(np.zeros((2, 0)), np.zeros((2, 2)), np.zeros(0))
        with pytest.raises(ValidationError, match=r"key_proj must have at least one column"):
            attentive_probe(np.ones((3, 2)), params)

    def test_non_finite_rejected(self):
        params = ProbeParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValidationError):
            attentive_probe(np.array([[1.0, np.nan]]), params)

    def test_every_mismatched_argument_listed(self):
        params = ProbeParams(np.zeros((3, 2)), np.zeros((5, 3)), np.zeros(4))
        with pytest.raises(ValidationError) as e:
            attentive_probe(np.zeros((2, 4)), params)
        assert e.value.problems == [
            "key_proj must have shape (D, D_att) with D=4, D_att=2, got (3, 2)",
            "value_proj must have shape (D, D_token) with D=4, D_token=3, got (5, 3)",
            "query must have shape (D_att,) with D_att=2, got (4,)",
        ]


def identity_film(d_token, c):
    return FilmParams(
        gamma_proj=np.zeros((d_token, c)),
        gamma_bias=np.ones(c),
        beta_proj=np.zeros((d_token, c)),
        beta_bias=np.zeros(c),
    )


class TestFilmModulate:
    def test_identity_params_are_bit_exact(self):
        rng = CounterRng(4)
        x = rand_array(rng, 3, 2, 2)
        token = rand_array(rng, 5)
        out = film_modulate(x, token, identity_film(5, 3))
        assert np.array_equal(out, x)

    def test_pure_bias(self):
        x = np.ones((2, 2, 2))
        token = np.zeros(3)
        params = FilmParams(
            gamma_proj=np.zeros((3, 2)),
            gamma_bias=np.zeros(2),
            beta_proj=np.zeros((3, 2)),
            beta_bias=np.array([4.0, -1.0]),
        )
        out = film_modulate(x, token, params)
        np.testing.assert_allclose(out[0], 4.0)
        np.testing.assert_allclose(out[1], -1.0)

    def test_matches_elementwise_oracle(self):
        rng = CounterRng(5)
        x = rand_array(rng, 2, 2, 2)
        token = rand_array(rng, 3)
        params = FilmParams(
            rand_array(rng, 3, 2), rand_array(rng, 2), rand_array(rng, 3, 2), rand_array(rng, 2)
        )
        out = film_modulate(x, token, params)
        for c in range(2):
            gamma = sum(token[d] * params.gamma_proj[d][c] for d in range(3)) + params.gamma_bias[c]
            beta = sum(token[d] * params.beta_proj[d][c] for d in range(3)) + params.beta_bias[c]
            for h in range(2):
                for w in range(2):
                    assert out[c, h, w] == pytest.approx(gamma * x[c, h, w] + beta, abs=1e-12)

    def test_linear_in_input_for_fixed_token(self):
        rng = CounterRng(6)
        token = rand_array(rng, 3)
        params = FilmParams(
            rand_array(rng, 3, 2), rand_array(rng, 2), rand_array(rng, 3, 2), rand_array(rng, 2)
        )
        a = rand_array(rng, 2, 2, 2)
        b = rand_array(rng, 2, 2, 2)
        lhs = film_modulate(a + b, token, params)
        rhs = film_modulate(a, token, params) + film_modulate(b, token, params)
        beta = token @ params.beta_proj + params.beta_bias
        np.testing.assert_allclose(lhs + beta[:, None, None], rhs, atol=1e-9)

    def test_channel_mismatch(self):
        with pytest.raises(ValidationError):
            film_modulate(np.zeros((3, 2, 2)), np.zeros(4), identity_film(4, 2))

    def test_every_mismatched_argument_listed(self):
        params = FilmParams(np.zeros((4, 2)), np.zeros(2), np.zeros((5, 3)), np.zeros(3))
        with pytest.raises(ValidationError) as e:
            film_modulate(np.zeros((3, 2, 2)), np.zeros(4), params)
        assert e.value.problems == [
            "gamma_proj must have shape (D_token, C) with D_token=4, C=3, got (4, 2)",
            "gamma_bias must have shape (C,) with C=3, got (2,)",
            "beta_proj must have shape (D_token, C) with D_token=4, C=3, got (5, 3)",
        ]


def zero_residual_mlp(d_roi, d_token, d_proj=None, hidden=None):
    d_proj = d_proj or d_token
    hidden = hidden or d_roi
    return ContextMlpParams(
        layer1_w=np.zeros((d_roi + d_proj, hidden)),
        layer1_b=np.zeros(hidden),
        layer2_w=np.zeros((hidden, d_roi)),
        layer2_b=np.zeros(d_roi),
        token_proj=np.zeros((d_token, d_proj)),
        token_bias=np.zeros(d_proj),
    )


class TestRoiContextFuse:
    def test_zero_final_layer_is_exact_identity(self):
        rng = CounterRng(7)
        roi = rand_array(rng, 4)
        token = rand_array(rng, 3)
        params = zero_residual_mlp(4, 3)
        out = roi_context_fuse(roi, token, params)
        assert np.array_equal(out, roi)

    def test_zero_roi_isolates_residual(self):
        rng = CounterRng(8)
        token = rand_array(rng, 2)
        params = ContextMlpParams(
            layer1_w=rand_array(rng, 3 + 2, 3),
            layer1_b=rand_array(rng, 3),
            layer2_w=rand_array(rng, 3, 3),
            layer2_b=rand_array(rng, 3),
            token_proj=rand_array(rng, 2, 2),
            token_bias=rand_array(rng, 2),
        )
        out = roi_context_fuse(np.zeros(3), token, params)
        projected = token @ params.token_proj + params.token_bias
        hidden = np.maximum(np.concatenate([np.zeros(3), projected]) @ params.layer1_w + params.layer1_b, 0)
        np.testing.assert_allclose(out, hidden @ params.layer2_w + params.layer2_b, atol=1e-12)

    def test_matches_hand_unrolled_computation(self):
        rng = CounterRng(9)
        d_roi, d_token, d_proj, hidden = 3, 2, 2, 4
        roi = rand_array(rng, d_roi)
        token = rand_array(rng, d_token)
        params = ContextMlpParams(
            layer1_w=rand_array(rng, d_roi + d_proj, hidden),
            layer1_b=rand_array(rng, hidden),
            layer2_w=rand_array(rng, hidden, d_roi),
            layer2_b=rand_array(rng, d_roi),
            token_proj=rand_array(rng, d_token, d_proj),
            token_bias=rand_array(rng, d_proj),
        )
        out = roi_context_fuse(roi, token, params)

        projected = [
            sum(token[d] * params.token_proj[d][j] for d in range(d_token)) + params.token_bias[j]
            for j in range(d_proj)
        ]
        concat = list(roi) + projected
        h = [
            max(
                0.0,
                sum(concat[i] * params.layer1_w[i][k] for i in range(d_roi + d_proj))
                + params.layer1_b[k],
            )
            for k in range(hidden)
        ]
        expected = [
            roi[j] + sum(h[k] * params.layer2_w[k][j] for k in range(hidden)) + params.layer2_b[j]
            for j in range(d_roi)
        ]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_finite_inputs_give_finite_outputs(self):
        rng = CounterRng(10)
        for _ in range(20):
            scale = 1e3
            roi = rand_array(rng, 3) * scale
            token = rand_array(rng, 2) * scale
            params = ContextMlpParams(
                layer1_w=rand_array(rng, 5, 3) * scale,
                layer1_b=rand_array(rng, 3) * scale,
                layer2_w=rand_array(rng, 3, 3) * scale,
                layer2_b=rand_array(rng, 3) * scale,
                token_proj=rand_array(rng, 2, 2) * scale,
                token_bias=rand_array(rng, 2) * scale,
            )
            assert np.all(np.isfinite(roi_context_fuse(roi, token, params)))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            roi_context_fuse(np.zeros(4), np.zeros(3), zero_residual_mlp(5, 3))

    def test_every_mismatched_argument_listed(self):
        params = ContextMlpParams(np.zeros((7, 5)), np.zeros(5), np.zeros((5, 3)), np.zeros(4),
                                  np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValidationError) as e:
            roi_context_fuse(np.zeros(4), np.zeros(3), params)
        assert e.value.problems == [
            "layer1_w must have shape (D_roi + D_proj, H_mlp) with D_roi=4, D_proj=2, H_mlp=5, got (7, 5)",
            "layer2_w must have shape (H_mlp, D_roi) with H_mlp=5, D_roi=4, got (5, 3)",
            "token_proj must have shape (D_token, D_proj) with D_token=3, D_proj=2, got (2, 2)",
        ]
