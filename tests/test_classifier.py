import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.classifier import CLASS_NAMES, LAYER_SIZES
from qdtune.fileio import decode_blob, encode_blob
from qdtune.grids import SINGLE_DOT_CODES


def brute_force_probability(labels):
    """Independent pixel count, written without the library helpers."""
    n_sd = n_dd = 0
    grid = labels.labels
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            code = int(grid[i, j])
            if code in (1, 2, 3):
                n_sd += 1
            elif code == 4:
                n_dd += 1
    n = grid.shape[0] * grid.shape[1]
    return ((n - n_sd - n_dd) / n, n_sd / n, n_dd / n)


class TestOracleProbability:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_matches_brute_force(self, seed, label_grid_factory):
        labels = label_grid_factory(np.random.default_rng(seed))
        p = q.oracle_probability(labels)
        expect = brute_force_probability(labels)
        assert (p.p_none, p.p_sd, p.p_dd) == expect

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_matches_isin_reference(self, seed):
        rng = np.random.default_rng(seed)
        present = rng.choice(5, size=int(rng.integers(1, 6)), replace=False)
        n1, n2 = (int(n) for n in rng.integers(1, 40, size=2))
        codes = rng.choice(present, size=(n1, n2)).astype(np.int8)
        labels = q.LabelGrid(codes, np.arange(n1, dtype=float), np.arange(n2, dtype=float))
        n = codes.size
        n_sd = int(np.isin(codes, SINGLE_DOT_CODES).sum())
        n_dd = int((codes == int(q.StateLabel.DOUBLE_DOT)).sum())
        p = q.oracle_probability(labels)
        assert (p.p_none, p.p_sd, p.p_dd) == ((n - n_sd - n_dd) / n, n_sd / n, n_dd / n)

    @pytest.mark.parametrize("code", [-1, 5])
    def test_label_grid_rejects_codes_outside_the_table(self, code):
        codes = np.zeros((3, 4), dtype=np.int8)
        codes[1, 2] = code
        with pytest.raises(q.ShapeError, match="StateLabel"):
            q.LabelGrid(codes, np.arange(3.0), np.arange(4.0))

    def test_all_double_dot(self, label_grid_factory):
        rng = np.random.default_rng(0)
        labels = label_grid_factory(rng, 8, 8)
        labels.labels[:] = 4
        p = q.oracle_probability(labels)
        assert (p.p_none, p.p_sd, p.p_dd) == (0.0, 0.0, 1.0)

    def test_sums_to_one_exactly_for_dyadic_grids(self, label_grid_factory):
        rng = np.random.default_rng(5)
        labels = label_grid_factory(rng, 16, 16)
        p = q.oracle_probability(labels)
        assert p.p_none + p.p_sd + p.p_dd == 1.0


class TestProbabilityVector:
    def test_validation(self):
        with pytest.raises(q.ConfigurationError):
            q.ProbabilityVector(-0.1, 0.5, 0.6)
        with pytest.raises(q.ConfigurationError):
            q.ProbabilityVector(0.5, 0.5, 0.5)
        with pytest.raises(q.ConfigurationError):
            q.ProbabilityVector(float("nan"), 0.5, 0.5)

    def test_argmax_class(self):
        assert q.ProbabilityVector(0.7, 0.2, 0.1).argmax_class() == 0
        assert q.ProbabilityVector(0.1, 0.6, 0.3).argmax_class() == 1
        assert q.ProbabilityVector(0.0, 0.0, 1.0).argmax_class() == 2

    def test_round_trip(self):
        p = q.ProbabilityVector(0.25, 0.5, 0.25)
        assert q.ProbabilityVector.from_array(p.as_array()) == p


class TestDataset:
    def test_deterministic_in_seed(self):
        a = q.generate_dataset(3, 2, seed=9)
        b = q.generate_dataset(3, 2, seed=9)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image.values, sb.image.values)
            assert sa.target == sb.target
            assert sa.center == sb.center

    def test_device_prefix_stable(self):
        # adding devices must not change the windows drawn for earlier ones
        small = q.generate_dataset(2, 2, seed=9)
        large = q.generate_dataset(4, 2, seed=9)
        for sa, sb in zip(small, large[:4]):
            np.testing.assert_array_equal(sa.image.values, sb.image.values)
            assert sa.device_seed == sb.device_seed

    def test_count_and_shapes(self):
        samples = q.generate_dataset(3, 4, seed=1)
        assert len(samples) == 12
        x, t = q.dataset_arrays(samples)
        assert x.shape == (12, 900)
        assert t.shape == (12, 3)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_windows_fit_in_domain(self):
        for s in q.generate_dataset(5, 3, seed=3):
            assert s.span == (60.0, 60.0)
            assert 0 <= s.center[0] - 30 and s.center[0] + 30 <= 600
            assert 0 <= s.center[1] - 30 and s.center[1] + 30 <= 600

    def test_all_single_dot_variants_appear(self):
        """The sampled population covers left, central, and right dots."""
        from qdtune.device import _state_codes

        seen = set()
        v = np.arange(5.0, 600, 10.0)
        grid = np.meshgrid(v, v, indexing="ij")
        for seed in range(10):
            params = q.sample_device(seed)
            seen |= set(np.unique(_state_codes(params, *grid)).tolist())
        assert {0, 1, 2, 3, 4} <= seen


class TestTraining:
    def test_model_shapes(self):
        model = q.init_model(0)
        assert [w.shape for w in model.weights] == [(900, 128), (128, 64), (64, 3)]
        assert all((b == 0).all() for b in model.biases)

    def test_init_bounds_follow_fan_in(self):
        model = q.init_model(1)
        for w, n_in in zip(model.weights, LAYER_SIZES[:-1]):
            assert np.abs(w).max() <= 1.0 / np.sqrt(n_in)

    def test_training_reduces_loss(self, small_dataset):
        config = q.TrainingConfig(steps=200, seed=4)
        model, losses = q.train(small_dataset, config)
        assert losses.shape == (200,)
        assert losses[-20:].mean() < losses[:20].mean()

    def test_training_deterministic(self, small_dataset):
        config = q.TrainingConfig(steps=50, seed=4)
        m1, l1 = q.train(small_dataset, config)
        m2, l2 = q.train(small_dataset, config)
        np.testing.assert_array_equal(l1, l2)
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)
        m3, _ = q.train(small_dataset, q.TrainingConfig(steps=50, seed=5))
        assert not np.array_equal(m1.weights[0], m3.weights[0])

    def test_gradients_match_finite_differences(self, small_dataset):
        x, t = q.dataset_arrays(small_dataset)
        model = q.init_model(7)
        _, grad_w, grad_b = q.loss_and_gradients(model, x, t)
        grads = grad_w + grad_b
        params = model.weights + model.biases
        rng = np.random.default_rng(99)
        for _ in range(8):
            pi = int(rng.integers(len(params)))
            p = params[pi]
            idx = tuple(int(rng.integers(s)) for s in p.shape)
            eps = 1e-6
            orig = p[idx]
            p[idx] = orig + eps
            lp, _, _ = q.loss_and_gradients(model, x, t)
            p[idx] = orig - eps
            lm, _, _ = q.loss_and_gradients(model, x, t)
            p[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[pi][idx]
            assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an), 1e-8)

    def test_nan_input_raises_diverged(self, small_dataset):
        # A huge learning rate overflows the weights at once: the first
        # update makes every later loss non-finite.
        config = q.TrainingConfig(learning_rate=1e200, steps=10, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(q.TrainingDivergedError) as err:
                q.train(small_dataset, config)
        assert err.value.step == 1

    def test_classify_returns_probability_vector(self, small_dataset):
        model = q.init_model(3)
        p = q.classify(model, small_dataset[0].image)
        arr = p.as_array()
        assert arr.min() >= 0
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)


class TestEvaluate:
    def test_oracle_passthrough_is_perfect(self, small_dataset):
        by_image = {id(s.image): s.target for s in small_dataset}
        report = q.evaluate(lambda image: by_image[id(image)], small_dataset)
        assert report.accuracy == 1.0
        assert report.confusion.sum() == len(small_dataset)
        assert np.trace(report.confusion) == len(small_dataset)

    def test_untrained_model_is_near_chance(self):
        samples = q.generate_dataset(30, 3, seed=6)
        model = q.init_model(11)
        report = q.evaluate(model, samples)
        assert report.accuracy < 0.7

    def test_noise_degrades_gracefully(self, small_dataset):
        """A trained model still beats chance on noisy re-measurements."""
        config = q.TrainingConfig(steps=400, seed=4)
        model, _ = q.train(small_dataset, config)
        clean = q.evaluate(model, small_dataset)
        noisy_samples = q.generate_dataset(6, 2, seed=2, with_noise=True)
        noisy = q.evaluate(model, noisy_samples)
        assert clean.accuracy >= noisy.accuracy - 0.25
        assert noisy.accuracy >= 0.5

    def test_empty_set_rejected(self):
        with pytest.raises(q.ConfigurationError):
            q.evaluate(q.init_model(0), [])


class TestClassifierFrontEnds:
    def test_oracle_classifier_needs_labels(self, reference_scan):
        scan, labels = reference_scan
        oracle = q.OracleClassifier()
        p = oracle.probabilities(scan, labels)
        assert p.p_none + p.p_sd + p.p_dd == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(q.ConfigurationError):
            oracle.probabilities(scan, None)

    def test_model_classifier_runs_pipeline(self, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (60.0, 60.0), 2.0)
        clf = q.ModelClassifier(q.init_model(2))
        p = clf.probabilities(scan, None)
        assert p.as_array().sum() == pytest.approx(1.0, abs=1e-12)


class TestModelIO:
    def test_round_trip_bit_exact(self, tmp_path, small_dataset):
        model, _ = q.train(small_dataset, q.TrainingConfig(steps=30, seed=1))
        path = tmp_path / "model.json"
        q.save_model(model, path)
        back = q.load_model(path)
        assert json.loads(path.read_text())["layer_sizes"] == [900, 128, 64, 3]
        for a, b in zip(model.weights + model.biases, back.weights + back.biases):
            np.testing.assert_array_equal(a, b)

    def test_version_and_format_errors(self, tmp_path):
        import json

        model = q.init_model(0)
        path = tmp_path / "model.json"
        q.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = "99"
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanVersionError):
            q.load_model(path)
        doc["version"] = "1"
        doc["format"] = "other"
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError):
            q.load_model(path)

    @pytest.mark.parametrize("field, value", [("activation", "tanh"), ("output", "sigmoid")])
    def test_only_relu_softmax_models_load(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        q.save_model(q.init_model(0), path)
        doc = json.loads(path.read_text())
        assert (doc["activation"], doc["output"]) == ("relu", "softmax")
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError, match="relu"):
            q.load_model(path)

    @pytest.mark.parametrize("bad", ["abc", 128.7, 0, -64, True, None])
    def test_layer_sizes_must_be_positive_integers(self, tmp_path, bad):
        path = tmp_path / "model.json"
        q.save_model(q.init_model(0), path)
        doc = json.loads(path.read_text())
        doc["layer_sizes"][1] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError, match="layer_sizes"):
            q.load_model(path)

    def test_only_the_fixed_architecture_loads(self, tmp_path):
        """A well-formed model of another shape is refused, not run."""
        rng = np.random.default_rng(0)
        sizes = [900, 64, 3]
        pairs = list(zip(sizes[:-1], sizes[1:]))
        path = tmp_path / "model.json"
        q.save_model(q.init_model(0), path)
        doc = json.loads(path.read_text())
        doc["layer_sizes"] = sizes
        doc["weights"] = [encode_blob(rng.normal(size=pair), "<f8") for pair in pairs]
        doc["biases"] = [encode_blob(np.zeros(n_out), "<f8") for _, n_out in pairs]
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError, match="layer_sizes"):
            q.load_model(path)

    @pytest.mark.parametrize(
        "row", [[float("nan"), 0.5, 0.5], [-0.25, 0.5, 0.75], [0.5, 0.5, 0.5]], ids=["nan", "negative", "sum"]
    )
    def test_dataset_targets_must_be_probability_vectors(self, tmp_path, small_dataset, row):
        path = tmp_path / "ds.json"
        q.save_dataset(small_dataset, path)
        doc = json.loads(path.read_text())
        targets = decode_blob("targets", doc["targets"], "<f8", 3 * len(small_dataset)).reshape(-1, 3).copy()
        targets[1] = row
        doc["targets"] = encode_blob(targets, "<f8")
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError, match="targets"):
            q.load_dataset(path)

    @pytest.mark.parametrize("pixel", [float("nan"), 1.5, -0.25], ids=["nan", "above", "below"])
    def test_dataset_images_must_lie_in_unit_range(self, tmp_path, small_dataset, pixel):
        path = tmp_path / "ds.json"
        q.save_dataset(small_dataset, path)
        doc = json.loads(path.read_text())
        images = decode_blob("images", doc["images"], "<f8", 900 * len(small_dataset)).copy()
        images[905] = pixel
        doc["images"] = encode_blob(images, "<f8")
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError, match="images"):
            q.load_dataset(path)

    def test_dataset_round_trip(self, tmp_path, small_dataset):
        path = tmp_path / "ds.json"
        q.save_dataset(small_dataset, path)
        back = q.load_dataset(path)
        assert len(back) == len(small_dataset)
        for a, b in zip(small_dataset, back):
            np.testing.assert_array_equal(a.image.values, b.image.values)
            assert a.target == b.target
            assert a.center == b.center
            assert a.device_seed == b.device_seed

    def test_class_names_order(self):
        assert CLASS_NAMES == ("none", "sd", "dd")
