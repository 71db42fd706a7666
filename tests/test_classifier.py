import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune import classifier as classifier_mod
from qdtune.classifier import CLASS_NAMES, LAYER_SIZES
from qdtune.fileio import decode_blob, encode_blob
from qdtune.grids import SINGLE_DOT_CODES

from faults import file_defect


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
            np.testing.assert_array_equal(sa.image, sb.image)
            assert sa.target == sb.target
            assert sa.center == sb.center

    def test_device_prefix_stable(self):
        # adding devices must not change the windows drawn for earlier ones
        small = q.generate_dataset(2, 2, seed=9)
        large = q.generate_dataset(4, 2, seed=9)
        for sa, sb in zip(small, large[:4]):
            np.testing.assert_array_equal(sa.image, sb.image)
            assert sa.device_seed == sb.device_seed

    def test_count_and_shapes(self):
        samples = q.generate_dataset(3, 4, seed=1)
        assert len(samples) == 12
        x, t = q.dataset_arrays(samples)
        assert x.shape == (12, 900)
        assert t.shape == (12, 3)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_are_read_only_views_of_one_stack_per_device(self):
        samples = q.generate_dataset(3, 4, seed=1)
        stacks = {}
        for sample in samples:
            assert sample.image.shape == (30, 30)
            assert not sample.image.flags.writeable
            assert sample.image.base is stacks.setdefault(sample.device_seed, sample.image.base)
        assert len(stacks) == 3
        assert all(stack.shape == (4, 30, 30) and not stack.flags.writeable for stack in stacks.values())
        with pytest.raises(ValueError):
            samples[0].image[0, 0] = 0.5

    def test_windows_fit_in_domain(self):
        for s in q.generate_dataset(5, 3, seed=3):
            assert s.span == (60.0, 60.0)
            assert 0 <= s.center[0] - 30 and s.center[0] + 30 <= 600
            assert 0 <= s.center[1] - 30 and s.center[1] + 30 <= 600

    @pytest.mark.parametrize(
        "span, named",
        [((float("nan"), 60.0), "span nan"), ((700.0, 60.0), "span 700"), ((60.0, 600.0), "span 600"),
         ((59.0, 60.0), "span 59")],
    )
    def test_bad_span_is_refused_before_any_draw(self, monkeypatch, span, named):
        def no_draw(seed):
            raise AssertionError("a device was drawn")

        monkeypatch.setattr(classifier_mod.device_model, "sample_device", no_draw)
        with pytest.raises(q.ConfigurationError, match=named):
            q.generate_dataset(1, 1, span=span)

    @pytest.mark.parametrize(
        "args, kwargs, named",
        [
            ((2.5, 2), {}, "n_devices must be a positive integer, got 2.5"),
            ((0, 2), {}, "n_devices must be a positive integer, got 0"),
            ((2, True), {}, "samples_per_device must be a positive integer, got True"),
            ((2, 2), {"seed": -1}, "seed must be a non-negative integer, got -1"),
            ((2, 2), {"seed": 2.5}, "seed must be a non-negative integer, got 2.5"),
        ],
        ids=["fractional-devices", "no-devices", "bool-samples", "negative-seed", "fractional-seed"],
    )
    def test_counts_and_seed_are_refused_by_name(self, monkeypatch, args, kwargs, named):
        def no_draw(seed):
            raise AssertionError("a device was drawn")

        monkeypatch.setattr(classifier_mod.device_model, "sample_device", no_draw)
        with pytest.raises(q.ConfigurationError, match=named):
            q.generate_dataset(*args, **kwargs)

    def test_all_single_dot_variants_appear(self):
        """The sampled population covers left, central, and right dots."""
        from qdtune.device import _label_codes

        seen = set()
        v = np.arange(5.0, 600, 10.0)
        for seed in range(10):
            params = q.sample_device(seed)
            seen |= set(np.unique(_label_codes(params, v, v)).tolist())
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0], ids=["nan", "inf", "-inf", "zero"])
    def test_learning_rate_must_be_positive_and_finite(self, value):
        with pytest.raises(q.ConfigurationError, match="TrainingConfig.learning_rate "):
            q.TrainingConfig(learning_rate=value)

    @pytest.mark.parametrize(
        "value", [2.5, 10.0, True, 0, -3, "10"], ids=["fraction", "whole-float", "bool", "zero", "negative", "string"]
    )
    @pytest.mark.parametrize("field", ["steps", "batch_size"])
    def test_counts_must_be_positive_integers(self, field, value):
        with pytest.raises(q.ConfigurationError, match=f"TrainingConfig.{field} must be a positive integer"):
            q.TrainingConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, -1, True, "0"], ids=["fraction", "negative", "bool", "string"])
    def test_seed_must_be_a_non_negative_integer(self, value):
        with pytest.raises(q.ConfigurationError, match="TrainingConfig.seed must be a non-negative integer"):
            q.TrainingConfig(seed=value)

    @pytest.mark.parametrize("value", [2.5, -1, True], ids=["fraction", "negative", "bool"])
    def test_init_model_refuses_a_bad_seed_by_name(self, value):
        with pytest.raises(q.ConfigurationError, match=f"seed must be a non-negative integer, got {value!r}"):
            q.init_model(value)

    def test_numpy_integer_counts_are_accepted(self):
        assert q.TrainingConfig(steps=np.int64(7), batch_size=np.int32(3)).steps == 7

    def test_classify_returns_probability_vector(self, small_dataset):
        model = q.init_model(3)
        p = q.classify(model, small_dataset[0].image)
        arr = p.as_array()
        assert arr.min() >= 0
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)


class TestEvaluate:
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

    def test_a_spec_names_the_oracle_or_a_model_file(self, tmp_path):
        model = q.init_model(2)
        q.save_model(model, tmp_path / "model.json")
        assert type(classifier_mod.from_spec("oracle")) is q.OracleClassifier
        built = classifier_mod.from_spec(f"model:{tmp_path / 'model.json'}")
        assert type(built) is q.ModelClassifier
        for got, want in zip(built.model.weights + built.model.biases, model.weights + model.biases):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("spec", ["bogus", "Oracle", "model", "oracle:x", ""])
    def test_any_other_spec_is_refused_by_name(self, spec):
        with pytest.raises(q.ConfigurationError, match=re.escape(f"unknown classifier {spec!r}; use oracle or model:PATH")):
            classifier_mod.from_spec(spec)


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
        with pytest.raises(q.ScanFormatError, match=f"field '{field}' must be "):
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field, layer", [("weights", 0), ("weights", 2), ("biases", 1)])
    def test_model_blobs_must_be_finite(self, tmp_path, field, layer, value):
        path = tmp_path / "model.json"
        model = q.init_model(0)
        q.save_model(model, path)
        doc = json.loads(path.read_text())
        blob = getattr(model, field)[layer].copy()
        blob.flat[blob.size // 2] = value
        doc[field][layer] = encode_blob(blob, "<f8")
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError, match=rf"field '{field}\[{layer}\]' holds NaN or infinite values"):
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["centers", "spans"])
    def test_dataset_centers_and_spans_must_be_finite(self, tmp_path, small_dataset, field, value):
        path = tmp_path / "ds.json"
        q.save_dataset(small_dataset, path)
        doc = json.loads(path.read_text())
        pairs = decode_blob(field, doc[field], "<f8", 2 * len(small_dataset)).copy()
        pairs[3] = value
        doc[field] = encode_blob(pairs, "<f8")
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError, match=f"field '{field}' holds NaN or infinite values"):
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

    def test_loaded_rows_are_read_only_views_of_the_images_blob(self, tmp_path, small_dataset):
        path = tmp_path / "ds.json"
        q.save_dataset(small_dataset, path)
        back = q.load_dataset(path)
        blob = back[0].image.base
        assert blob.shape == (len(back) * 900,) and not blob.flags.writeable
        for sample in back:
            assert sample.image.shape == (30, 30)
            assert not sample.image.flags.writeable
            assert sample.image.base is blob
        with pytest.raises(ValueError):
            back[1].image[0, 0] = 0.5

    def test_dataset_round_trip(self, tmp_path, small_dataset):
        path = tmp_path / "ds.json"
        q.save_dataset(small_dataset, path)
        back = q.load_dataset(path)
        assert len(back) == len(small_dataset)
        for a, b in zip(small_dataset, back):
            np.testing.assert_array_equal(a.image, b.image)
            assert a.target == b.target
            assert a.center == b.center
            assert a.device_seed == b.device_seed

    @pytest.mark.parametrize(
        "image_shape", [[30, 31], [15, 60], [900], [30.0, 30.0], [True, 30], "30x30", None],
        ids=["wider", "same_size", "flat", "floats", "bool", "string", "null"],
    )
    def test_dataset_image_shape_must_be_what_is_written(self, tmp_path, small_dataset, image_shape):
        path = tmp_path / "ds.json"
        q.save_dataset(small_dataset, path)
        doc = json.loads(path.read_text())
        doc["image_shape"] = image_shape
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError, match="field 'image_shape' must be "):
            q.load_dataset(path)

    def test_dataset_image_shape_may_be_left_out(self, tmp_path, small_dataset):
        path = tmp_path / "ds.json"
        q.save_dataset(small_dataset, path)
        doc = json.loads(path.read_text())
        del doc["image_shape"]
        path.write_text(json.dumps(doc))
        back = q.load_dataset(path)
        for a, b in zip(small_dataset, back):
            np.testing.assert_array_equal(a.image, b.image)

    def test_class_names_order(self):
        assert CLASS_NAMES == ("none", "sd", "dd")


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    """The JSON of a saved two-sample dataset, and a path to write variants to."""
    path = tmp_path_factory.mktemp("dataset_fuzz") / "ds.json"
    q.save_dataset(q.generate_dataset(2, 1, seed=4), path)
    return json.loads(path.read_text()), path


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_fuzzed_dataset_file_is_refused_by_name(saved_dataset, data):
    """A truncated blob, a blob of another length, a NaN, another count or
    image shape, or a value of another kind: the loader raises
    ScanFormatError or ScanVersionError naming the field (for a count, it or
    a blob it sizes)."""
    doc, path = saved_dataset
    blobs = {"images": "<f8", "targets": "<f8", "centers": "<f8", "spans": "<f8", "device_seeds": "<i8"}
    sizes = {"count": tuple(blobs), "image_shape": ()}
    broken, named = file_defect(data, doc, blobs, sizes)
    path.write_text(json.dumps(broken))
    with pytest.raises((q.ScanFormatError, q.ScanVersionError)) as exc:
        q.load_dataset(path)
    assert any(re.search(rf"\b{name}\b", str(exc.value)) for name in named), (named, str(exc.value))



@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """The JSON of a saved model, and a path to write variants to."""
    path = tmp_path_factory.mktemp("model_fuzz") / "model.json"
    q.save_model(q.init_model(0), path)
    return json.loads(path.read_text()), path


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_fuzzed_model_file_is_refused_by_name(saved_model, data):
    """A truncated weight or bias blob, one of another length, a NaN, other
    layer sizes or a value of another kind: the loader raises
    ScanFormatError or ScanVersionError naming the field."""
    doc, path = saved_model
    blobs = {(field, i): "<f8" for field in ("weights", "biases") for i in range(len(doc[field]))}
    broken, named = file_defect(data, doc, blobs, {"layer_sizes": ()})
    path.write_text(json.dumps(broken))
    with pytest.raises((q.ScanFormatError, q.ScanVersionError)) as exc:
        q.load_model(path)
    assert any(re.search(rf"\b{name}\b", str(exc.value)) for name in named), (named, str(exc.value))

def _classify_batch_one(model, values):
    """classify() as it was: a 2-d (1, 900) batch, log-softmax, then p / sum(p)."""
    a = values.reshape(1, -1)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    z = a @ model.weights[-1] + model.biases[-1]
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    p = np.exp(logp[0])
    return logp[0], p / p.sum()


class TestStackedInference:
    @pytest.mark.parametrize("count", [1, 2, 17, 441])
    def test_each_row_equals_batch_one_classify(self, count):
        rng = np.random.default_rng(count)
        images = rng.random((count, 30, 30))
        images[::3] *= rng.random((len(images[::3]), 1, 1))  # dimmer images too
        for seed in (0, 7):
            model = q.init_model(seed)
            logp, _ = classifier_mod._forward(model, images.reshape(count, 1, -1))
            stacked = classifier_mod._probabilities(model, images)
            for k in range(count):
                expect_logp, expect_p = _classify_batch_one(model, images[k])
                assert logp[k, 0].tobytes() == expect_logp.tobytes()
                assert stacked[k].as_array().tobytes() == expect_p.tobytes()
                alone = q.classify(model, images[k])
                assert alone.as_array().tobytes() == expect_p.tobytes()

    def test_evaluate_equals_the_per_image_loop(self, small_dataset):
        model, _ = q.train(small_dataset, q.TrainingConfig(steps=50, seed=1))
        samples = q.generate_dataset(10, 3, seed=8)
        stacked = q.evaluate(model, samples)
        confusion = np.zeros((3, 3), dtype=int)
        for sample in samples:
            confusion[sample.target.argmax_class(), q.classify(model, sample.image).argmax_class()] += 1
        assert stacked.confusion.tobytes() == confusion.tobytes()
        assert stacked.accuracy == np.trace(confusion) / len(samples)

    def test_stack_probabilities_equal_window_by_window(self, reference_params):
        clf = q.ModelClassifier(q.init_model(4))
        windows = [
            q.render_scan(reference_params, (280.0 + 9.0 * k, 330.0 - 4.0 * k), (60.0, 60.0), 2.0, with_noise=True)[0]
            for k in range(6)
        ]
        stacked = clf.stack_probabilities(np.stack([window.values for window in windows]), windows[0].meta)
        for window, p in zip(windows, stacked):
            assert p.as_array().tobytes() == clf.probabilities(window, None).as_array().tobytes()
