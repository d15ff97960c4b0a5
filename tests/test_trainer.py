import numpy as np
import pytest

from mfvc import trainer
from mfvc.image import RateIndex, init_autoencoder
from mfvc.stem import StemFlags, init_stem
from mfvc.tensor import ConfigError, Tensor, affine, backward
from mfvc.trainer import (
    FULL_SCALE_LR_BOUNDARIES,
    FULL_SCALE_LR_VALUES,
    TrainConfig,
    adam_step,
    init_optimizer,
    loss_i,
    loss_p,
    lr_at,
    mse_distortion,
    msssim_index,
    train_image_model,
    train_stem,
)


def smooth_frames(rng, n, h, w):
    coarse = rng.random((n, 3, h // 4 + 1, w // 4 + 1)).astype(np.float32)
    frames = np.repeat(np.repeat(coarse, 4, axis=2), 4, axis=3)[:, :, :h, :w]
    return frames * 0.8 + 0.1


def param_gradcheck(build_loss, param, h=1e-5):
    param.grad = None
    backward(build_loss())
    analytic = param.grad.astype(np.float64).reshape(-1).copy()
    flat = param.data.reshape(-1)
    numeric = np.zeros_like(analytic)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = build_loss().item()
        flat[i] = orig - h
        lo = build_loss().item()
        flat[i] = orig
        numeric[i] = (hi - lo) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def to_float64(weights):
    for p in weights.parameters():
        p.data = p.data.astype(np.float64)


class TestLrSchedule:
    def test_boundary_semantics(self):
        cfg = TrainConfig(lr_values=(1e-4, 5e-5), lr_boundaries=(100,), total_iters=200)
        assert lr_at(99, cfg) == 1e-4
        assert lr_at(100, cfg) == 5e-5

    def test_capped_at_last_value(self):
        cfg = TrainConfig(lr_values=(1e-3, 1e-4), lr_boundaries=(10,), total_iters=100)
        assert lr_at(10_000, cfg) == 1e-4

    def test_full_scale_schedule(self):
        cfg = TrainConfig(
            lr_values=FULL_SCALE_LR_VALUES,
            lr_boundaries=FULL_SCALE_LR_BOUNDARIES,
            total_iters=2_500_000,
        )
        assert lr_at(0, cfg) == 1e-4
        assert lr_at(1_599_999, cfg) == 1e-4
        assert lr_at(1_600_000, cfg) == 5e-5
        assert lr_at(2_100_000, cfg) == 1e-5
        assert lr_at(2_300_000, cfg) == 5e-6
        assert lr_at(2_400_000, cfg) == 1e-6
        assert lr_at(2_499_999, cfg) == 1e-6

    def test_bad_boundaries_rejected(self):
        with pytest.raises(Exception):
            TrainConfig(lr_values=(1e-3, 1e-4), lr_boundaries=(10, 5))


class TestConfigChecks:
    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0),
        ("batch_size", -1),
        ("patch_h", 0),
        ("patch_w", -16),
    ], ids=["batch-zero", "batch-negative", "patch-h-zero", "patch-w-negative"])
    def test_extents_must_be_positive(self, field, value):
        with pytest.raises(ConfigError, match="must be positive"):
            TrainConfig(**{field: value})

    def test_negative_iterations_rejected(self):
        with pytest.raises(ConfigError, match="total_iters"):
            TrainConfig(total_iters=-3)

    def test_zero_iterations_allowed(self):
        assert TrainConfig(total_iters=0).total_iters == 0

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigError, match="lr_values"):
            TrainConfig(lr_values=(), lr_boundaries=())

    @pytest.mark.parametrize("lr", [float("nan"), -1e-3, 0.0, float("inf")], ids=["nan", "negative", "zero", "inf"])
    def test_learning_rates_must_be_finite_and_positive(self, lr):
        with pytest.raises(ConfigError, match="lr_values"):
            TrainConfig(lr_values=(1e-3, lr), lr_boundaries=(10,))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Tensor(np.zeros((1, 1, 1, 3), dtype=np.float32), requires_grad=True)
        g = np.array([[[[2.0, -0.5, 1e-3]]]], dtype=np.float32)
        state = init_optimizer([p])
        adam_step([p], [g], state, lr=0.01)
        np.testing.assert_allclose(p.data.reshape(-1), [-0.01, 0.01, -0.01], rtol=1e-4)

    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        state = init_optimizer([p])
        adam_step([p], [np.zeros((1, 1, 1, 1), dtype=np.float32)], state, lr=0.1)
        assert p.data.reshape(()) == pytest.approx(3.0)

    def test_nonfinite_gradient_skipped_and_counted(self):
        p = Tensor(np.full((1, 1, 1, 1), 1.0), requires_grad=True)
        state = init_optimizer([p])
        skipped = adam_step([p], [np.full((1, 1, 1, 1), np.nan, dtype=np.float32)], state, lr=0.1)
        assert skipped == 1
        assert state.skipped == 1
        assert p.data.reshape(()) == pytest.approx(1.0)

    def test_two_runs_identical(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=(1, 2, 2, 2)).astype(np.float32) for _ in range(5)]

        def run():
            p = Tensor(np.ones((1, 2, 2, 2), dtype=np.float32), requires_grad=True)
            state = init_optimizer([p])
            for g in grads:
                adam_step([p], [g], state, lr=0.003)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_in_place_moments_match_the_formula(self):
        # A verbatim copy of the step that made new moment arrays each call.
        def reference_step(params, grads, m, v, t, lr):
            c1, c2 = 1.0 - trainer.ADAM_BETA1**t, 1.0 - trainer.ADAM_BETA2**t
            skipped = 0
            for i, (p, g) in enumerate(zip(params, grads)):
                if g is None:
                    continue
                if not np.isfinite(g).all():
                    skipped += 1
                    continue
                g = g.astype(np.float32, copy=False)
                m[i] = trainer.ADAM_BETA1 * m[i] + (1.0 - trainer.ADAM_BETA1) * g
                v[i] = trainer.ADAM_BETA2 * v[i] + (1.0 - trainer.ADAM_BETA2) * (g * g)
                m_hat = m[i] / c1
                v_hat = v[i] / c2
                p.data = p.data - (lr * m_hat / (np.sqrt(v_hat) + trainer.ADAM_EPS)).astype(p.dtype)
            return skipped

        rng = np.random.default_rng(5)
        shapes = [(1, 3, 1, 1), (2, 3, 5, 5), (1, 1, 1, 4)]
        start = [rng.normal(size=shape).astype(np.float32) for shape in shapes]
        params = [Tensor(a.copy(), requires_grad=True) for a in start]
        ref = [Tensor(a.copy(), requires_grad=True) for a in start]
        state = init_optimizer(params)
        m, v = [np.zeros(shape, dtype=np.float32) for shape in shapes], [np.zeros(shape, dtype=np.float32) for shape in shapes]
        steps = [
            [rng.normal(size=shape).astype(np.float32) for shape in shapes],
            [rng.normal(size=shapes[0]).astype(np.float32), None, rng.normal(size=shapes[2]).astype(np.float32)],
            [np.full(shapes[0], np.inf, dtype=np.float32)] + [rng.normal(size=s).astype(np.float32) for s in shapes[1:]],
        ]
        total = 0
        for t, (grads, lr) in enumerate(zip(steps, (3e-3, 1e-2, 5e-4)), start=1):
            skipped = adam_step(params, grads, state, lr)
            want = reference_step(ref, grads, m, v, t, lr)
            total += want
            assert skipped == want and state.skipped == total and state.step == t
            for i in range(len(shapes)):
                assert params[i].data.tobytes() == ref[i].data.tobytes(), (t, i)
                assert state.m[i].tobytes() == m[i].tobytes() and state.v[i].tobytes() == v[i].tobytes(), (t, i)
        assert total == 1


@pytest.fixture(scope="module")
def setup():
    w = init_autoencoder(latent_channels=4, downsample_factor=4, lambda_set=(8.0, 64.0), seed=0)
    rng = np.random.default_rng(1)
    frames = smooth_frames(rng, 2, 16, 16)
    return w, frames


class TestLossI:
    def test_lambda_zero_gives_pure_rate(self, setup):
        w, frames = setup
        loss, rate, _ = loss_i(frames, [RateIndex(0, 0.0)] * 2, w, noise_seed=3)
        assert loss.item() == pytest.approx(rate.item())

    def test_mse_of_identical_frames_is_zero(self):
        x = Tensor(np.random.default_rng(2).random((1, 3, 8, 8)).astype(np.float32))
        assert mse_distortion(x, x).item() == 0.0

    def test_components_positive(self, setup):
        w, frames = setup
        loss, rate, dist = loss_i(frames, [w.rate(1)] * 2, w, noise_seed=4)
        assert rate.item() > 0
        assert dist.item() >= 0
        assert loss.item() == pytest.approx(rate.item() + 64.0 * dist.item(), rel=1e-5)

    def test_msssim_distortion_mode(self):
        w = init_autoencoder(latent_channels=4, downsample_factor=4, lambda_set=(8.0,), seed=5)
        rng = np.random.default_rng(6)
        frames = smooth_frames(rng, 1, 16, 16)
        loss, rate, dist = loss_i(frames, [w.rate(0)], w, distortion="ms-ssim", noise_seed=7, msssim_scales=1)
        assert 0.0 <= dist.item() <= 1.0
        assert loss.item() == pytest.approx(rate.item() + 8.0 * dist.item(), rel=1e-5)

    @pytest.mark.parametrize("distortion", ["mse", "ms-ssim"])
    def test_one_pass_is_the_sum_of_group_passes(self, distortion):
        # Each rate group's rows draw the noise they draw alone, so the
        # mixed batch's loss, rate, distortion and gradients are the
        # share-weighted sums of one pass per group; rate 1 is absent.
        w = init_autoencoder(latent_channels=2, downsample_factor=2, lambda_set=(8.0, 64.0, 256.0), seed=31)
        to_float64(w)
        w.set_trainable(True)
        params = w.parameters()
        frames = smooth_frames(np.random.default_rng(32), 4, 16, 16).astype(np.float64)
        index = [2, 0, 2, 2]
        kwargs = dict(distortion=distortion, noise_seed=33, msssim_scales=1)

        def grads_after(loss):
            for p in params:
                p.grad = None
            backward(loss)
            return [p.grad for p in params]

        loss, rate, dist = loss_i(frames, [w.rate(j) for j in index], w, **kwargs)
        one_pass = grads_after(loss)
        totals = np.zeros(3)
        grouped = [None] * len(params)
        for j in (0, 2):
            rows = [k for k, i in enumerate(index) if i == j]
            share = len(rows) / len(index)
            parts = loss_i(frames[rows], [w.rate(j)] * len(rows), w, **kwargs)
            totals += share * np.array([t.item() for t in parts])
            for i, g in enumerate(grads_after(affine(parts[0], share, 0.0))):
                if g is not None:
                    grouped[i] = g if grouped[i] is None else grouped[i] + g
        np.testing.assert_allclose([loss.item(), rate.item(), dist.item()], totals, rtol=1e-12)
        for a, b in zip(one_pass, grouped):
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        absent = {id(t) for pair in (pairs[1] for pairs in w.lambda_table.values()) for t in pair}
        assert all((g is None) == (id(p) in absent) for p, g in zip(params, one_pass))

    def test_msssim_index_of_identical_frames(self):
        x = Tensor(np.random.default_rng(8).random((1, 3, 48, 48)).astype(np.float32))
        assert msssim_index(x, x, scales=2).item() == pytest.approx(1.0, abs=1e-5)


class TestLossP:
    def test_nonnegative(self):
        w = init_stem(latent_channels=4, seed=9)
        rng = np.random.default_rng(10)
        a = rng.integers(-6, 7, size=(4, 8, 8)).astype(np.int32)
        b = rng.integers(-6, 7, size=(4, 8, 8)).astype(np.int32)
        assert loss_p(a, b, StemFlags(), w, training=False).item() >= 0

    def test_synthesis_weights_never_change_loss_p(self):
        # The P-frame objective has no distortion term.
        ae = init_autoencoder(latent_channels=4, downsample_factor=4, seed=11)
        stem = init_stem(latent_channels=4, seed=12)
        rng = np.random.default_rng(13)
        a = rng.integers(-6, 7, size=(4, 8, 8)).astype(np.int32)
        b = rng.integers(-6, 7, size=(4, 8, 8)).astype(np.int32)
        before = loss_p(a, b, StemFlags(), stem, training=False).item()
        for layer in ae.synthesis:
            layer.kernel.data[...] += 5.0
        after = loss_p(a, b, StemFlags(), stem, training=False).item()
        assert before == after


class TestGradients:
    def test_loss_i_parameters_match_finite_differences(self):
        w = init_autoencoder(latent_channels=2, downsample_factor=2, lambda_set=(4.0,), seed=14)
        to_float64(w)
        w.set_trainable(True)
        rng = np.random.default_rng(15)
        frames = smooth_frames(rng, 1, 16, 16).astype(np.float64)

        build = lambda: loss_i(frames, [w.rate(0)], w, noise_seed=16)[0]
        checks = [
            w.analysis[0].kernel,
            w.synthesis[0].bias,
            w.lambda_table["analysis.0"][0][0],
            w.hyper_dec[-1].bias,
            w.z_prior[1],
        ]
        for param in checks:
            assert param_gradcheck(build, param) <= 1e-3

    def test_loss_i_msssim_parameters_match_finite_differences(self):
        w = init_autoencoder(latent_channels=2, downsample_factor=2, lambda_set=(4.0,), seed=24)
        to_float64(w)
        w.set_trainable(True)
        rng = np.random.default_rng(25)
        frames = smooth_frames(rng, 1, 16, 16).astype(np.float64)

        build = lambda: loss_i(frames, [w.rate(0)], w, distortion="ms-ssim", noise_seed=26, msssim_scales=1)[0]
        assert param_gradcheck(build, w.synthesis[0].bias) <= 1e-3

    def test_loss_p_parameters_match_finite_differences(self):
        stem = init_stem(latent_channels=2, seed=17)
        to_float64(stem)
        stem.set_trainable(True)
        rng = np.random.default_rng(18)
        a = rng.integers(-4, 5, size=(2, 8, 8)).astype(np.int32)
        b = rng.integers(-4, 5, size=(2, 8, 8)).astype(np.int32)

        build = lambda: loss_p(a, b, StemFlags(), stem, training=True, noise_seed=19)
        checks = [
            stem.epm[-1].kernel,
            stem.spm.kernel,
            stem.tpm[0].bias,
            stem.phe[0].kernel,
            stem.z_prior[0],
        ]
        for param in checks:
            assert param_gradcheck(build, param) <= 1e-3


class TestTrainingLoops:
    def test_overfit_smoke(self):
        rng = np.random.default_rng(20)
        frames = smooth_frames(rng, 8, 24, 24)
        w = init_autoencoder(latent_channels=4, downsample_factor=4, lambda_set=(32.0,), seed=21)
        cfg = TrainConfig(
            lambda_set=(32.0,), batch_size=2, patch_h=24, patch_w=24,
            lr_values=(1e-3,), lr_boundaries=(), total_iters=300, seed=22,
        )
        probe = frames[:2]
        before = loss_i(probe, [w.rate(0)] * 2, w, noise_seed=99)[0].item()
        train_image_model(frames, cfg, weights=w)
        after = loss_i(probe, [w.rate(0)] * 2, w, noise_seed=99)[0].item()
        assert after < 0.7 * before

    def test_image_training_deterministic(self, tmp_path):
        rng = np.random.default_rng(23)
        frames = smooth_frames(rng, 4, 16, 16)
        cfg = TrainConfig(
            lambda_set=(8.0, 64.0), batch_size=2, patch_h=16, patch_w=16,
            lr_values=(1e-3,), lr_boundaries=(), total_iters=30, seed=7,
        )

        def run():
            w = init_autoencoder(latent_channels=4, downsample_factor=4, lambda_set=(8.0, 64.0), seed=7)
            return train_image_model(frames, cfg, weights=w).to_bytes()

        assert run() == run()

    def test_stem_training_freezes_autoencoder(self):
        rng = np.random.default_rng(24)
        base = smooth_frames(rng, 6, 16, 16)
        clips = [np.stack([base[i], np.roll(base[i], 2, axis=2)]) for i in range(6)]
        ae = init_autoencoder(latent_channels=4, downsample_factor=4, lambda_set=(8.0, 64.0), seed=25)
        cfg = TrainConfig(
            lambda_set=(8.0, 64.0), batch_size=2, patch_h=16, patch_w=16,
            lr_values=(1e-3,), lr_boundaries=(), total_iters=25, seed=26,
        )
        before = ae.to_bytes()
        stem = train_stem(clips, ae, cfg)
        assert ae.to_bytes() == before
        assert stem.latent_channels == 4

    def test_training_log_written(self, tmp_path):
        rng = np.random.default_rng(27)
        frames = smooth_frames(rng, 2, 16, 16)
        cfg = TrainConfig(
            lambda_set=(8.0,), batch_size=1, patch_h=16, patch_w=16,
            lr_values=(1e-3,), lr_boundaries=(), total_iters=5, seed=28,
        )
        log = tmp_path / "train.csv"
        w = init_autoencoder(latent_channels=4, downsample_factor=4, lambda_set=(8.0,), seed=29)
        train_image_model(frames, cfg, weights=w, log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "iteration,lr,loss,R,D"
        assert len(lines) == 6

    def test_training_log_holds_one_run(self, tmp_path):
        rng = np.random.default_rng(27)
        frames = smooth_frames(rng, 2, 16, 16)
        cfg = TrainConfig(
            lambda_set=(8.0,), batch_size=1, patch_h=16, patch_w=16,
            lr_values=(1e-3,), lr_boundaries=(), total_iters=2, seed=28,
        )
        log = tmp_path / "train.csv"
        for _ in range(2):
            w = init_autoencoder(latent_channels=4, downsample_factor=4, lambda_set=(8.0,), seed=29)
            train_image_model(frames, cfg, weights=w, log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "iteration,lr,loss,R,D"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_one_pass_per_iteration(self, monkeypatch):
        calls = {"loss_i": [], "backward": 0}
        real_loss_i, real_backward = trainer.loss_i, trainer.backward

        def spy_loss_i(frames, rates, *args, **kwargs):
            calls["loss_i"].append(rates)
            return real_loss_i(frames, rates, *args, **kwargs)

        def spy_backward(loss):
            calls["backward"] += 1
            return real_backward(loss)

        monkeypatch.setattr(trainer, "loss_i", spy_loss_i)
        monkeypatch.setattr(trainer, "backward", spy_backward)
        frames = smooth_frames(np.random.default_rng(34), 4, 16, 16)
        lambdas = (8.0, 64.0, 256.0)
        cfg = TrainConfig(
            lambda_set=lambdas, batch_size=4, patch_h=16, patch_w=16,
            lr_values=(1e-3,), lr_boundaries=(), total_iters=6, seed=35,
        )
        train_image_model(frames, cfg, weights=init_autoencoder(4, 4, lambdas, seed=36))
        assert len(calls["loss_i"]) == calls["backward"] == 6
        assert all(len(rates) == 4 for rates in calls["loss_i"])
        assert any(len({r.index for r in rates}) > 1 for rates in calls["loss_i"])

    def test_empty_dataset_rejected(self):
        cfg = TrainConfig(total_iters=1)
        with pytest.raises(Exception, match="empty"):
            train_image_model(np.zeros((0, 3, 16, 16), dtype=np.float32), cfg)
