"""Charge-state probability vectors: exact oracle and trainable model.

A window of the voltage plane is summarized by the fractions of its
pixels in each coarse state class::

    p = [p_none, p_sd, p_dd]
      = [(N - |SD| - |DD|) / N, |SD| / N, |DD| / N]

where |SD| counts all three single-dot variants (left, central, right)
and |DD| counts double-dot pixels. The oracle computes this directly
from ground-truth labels; the model estimates it from the processed
30x30 gradient image with a small fully connected network (900-128-64-3,
ReLU, softmax) trained against the oracle's soft targets.

Inference takes a stack of images shaped (N, 1, 900), and one image
classified alone is the N = 1 case. Each layer's product is then one
(1, 900) @ W product per row, for which numpy calls BLAS gemv with the
arguments a lone image gives, so a row's probabilities are bit for bit
those of the image classified alone. A 2-d (N, 900) @ W product would be
one gemm, whose blocking makes each row's last bits depend on N. Training
keeps its 2-d mini-batches.

On a stored scan a window is fixed by its window plan and its first
pixel, and its vector does not depend on the stack it was scored in, so a
``ModelClassifier`` classifies each stored window once and keeps the
vector for its later tuning steps and landscapes, as the oracle keeps
one table per window shape. Each built-in classifier reads a stored
window in one place, its ``stored_reader(source, plan)``: a function of
the window's first pixel, bound once by a locator (``scans._locator``),
that reads the oracle table's rows, counts strided codes, or reads the
model's kept vectors and the stored values. The oracle's is one plain
function, so a stored scan keeps its locator for every run
(``scans._kept_locator``). The oracle reads no sensor values
(``OracleClassifier.reads_values``), so a simulated source renders its
windows' labels alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import device as device_model
from .errors import (
    ConfigurationError,
    ScanFormatError,
    ShapeError,
    TrainingDivergedError,
    check_count,
    check_setting,
)
from .fileio import check_header, check_written, checked, decode_blob, decode_finite, encode_blob, read_json, write_json
from .grids import (
    DEFAULT_RESOLUTION_MV,
    DEFAULT_SPAN_MV,
    LabelGrid,
    LabelTally,
    MAX_STATE_CODE,
    ScanGrid,
    ScanMeta,
    SINGLE_DOT_CODES,
    StateLabel,
    _read_only,
    pixel_count,
)
from .preprocess import IMAGE_SIZE, _check_range, process
from .scans import _NO_LABELS, PremeasuredScan, Sandbox, _window_slices

# The headers of model and dataset files; their loaders refuse any other.
MODEL_HEADER = {"format": "qdtune-model", "version": "1"}
DATASET_HEADER = {"format": "qdtune-dataset", "version": "1"}

LAYER_SIZES = (IMAGE_SIZE * IMAGE_SIZE, 128, 64, 3)
# (fan-in, fan-out) of each weight matrix.
LAYER_SHAPES = tuple(zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]))

CLASS_NAMES = ("none", "sd", "dd")

# Redraws of a dataset window center that sticks out of the device domain
# before generate_dataset gives up.
MAX_WINDOW_REDRAWS = 200

# Adam's moment decay rates and denominator guard (Kingma and Ba's values).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class ProbabilityVector:
    """Point on the 3-class probability simplex."""

    p_none: float
    p_sd: float
    p_dd: float

    def __post_init__(self):
        values = (self.p_none, self.p_sd, self.p_dd)
        if not all(v >= 0.0 for v in values):
            raise ConfigurationError(f"probabilities must be non-negative, got {values}")
        total = sum(values)
        if abs(total - 1.0) > 1e-12:
            raise ConfigurationError(f"probabilities must sum to 1, got {total!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_none, self.p_sd, self.p_dd])

    @classmethod
    def from_array(cls, arr) -> "ProbabilityVector":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3,):
            raise ShapeError(f"probability vector must have 3 entries, got shape {arr.shape}")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    @classmethod
    def from_counts(cls, n: int, n_sd: int, n_dd: int) -> "ProbabilityVector":
        """Pixel fractions of a window of ``n`` pixels, ``n_sd`` of them single dot and ``n_dd`` double dot."""
        p = _counted_vector(n, n_sd, n_dd)
        p.__post_init__()
        return p

    def argmax_class(self) -> int:
        """0 = none, 1 = single dot, 2 = double dot."""
        return int(np.argmax(self.as_array()))


def _counted_vector(n: int, n_sd: int, n_dd: int) -> ProbabilityVector:
    """``ProbabilityVector.from_counts`` of counts known to be exact integers
    with ``n_sd + n_dd <= n``; nothing is checked."""
    p = object.__new__(ProbabilityVector)
    vars(p).update(p_none=(n - n_sd - n_dd) / n, p_sd=n_sd / n, p_dd=n_dd / n)
    return p


def oracle_probability(labels: LabelGrid) -> ProbabilityVector:
    """Exact probability vector from a ground-truth label raster."""
    return _counted_codes(labels.labels)


def _counted_codes(codes: np.ndarray) -> ProbabilityVector:
    """The oracle's vector of a raster of StateLabel codes, from their counts."""
    n = codes.size
    if n == 0:
        raise ShapeError("label raster is empty")
    counts = np.bincount(codes.ravel(), minlength=MAX_STATE_CODE + 1)
    n_sd = int(counts[list(SINGLE_DOT_CODES)].sum())
    n_dd = int(counts[StateLabel.DOUBLE_DOT])
    return ProbabilityVector.from_counts(n, n_sd, n_dd)


class OracleTable(NamedTuple):
    """The oracle's vectors of every window of one shape; see :func:`oracle_table`."""

    vectors: list[ProbabilityVector]
    index: np.ndarray
    rows: list[list[ProbabilityVector]]


def oracle_table(tally: LabelTally, w1: int, w2: int) -> OracleTable:
    """The oracle table of the ``w1 x w2`` windows of ``tally``'s raster,
    built the first time the shape is asked for and kept in ``tally.tables``.

    ``vectors`` holds one vector per distinct pair of single-dot and
    double-dot counts. ``index[row, col]``, read-only, is the position in
    ``vectors`` of the window whose first pixel is ``(row, col)``, and
    ``rows[row][col]`` is that vector. A window of ``n`` pixels folds its
    counts into the key ``sd * (n + 1) + dd`` here and nowhere else.
    """
    table = tally.tables.get((w1, w2))
    if table is None:
        n = w1 * w2
        sd, dd = tally.window_counts(w1, w2)
        keys, inverse = np.unique(sd * (n + 1) + dd, return_inverse=True)
        # The tally's counts are exact, so the vectors are not checked.
        vectors = [_counted_vector(n, *divmod(key, n + 1)) for key in keys.tolist()]
        index = _read_only(inverse.reshape(sd.shape))
        rows = np.array(vectors, dtype=object)[index].tolist()
        table = tally.tables[(w1, w2)] = OracleTable(vectors, index, rows)
    return table


# --- dataset ---------------------------------------------------------------


@dataclass(eq=False)
class LabeledSample:
    """One processed window plus its oracle target and provenance. ``image`` is a
    read-only (30, 30) row of one device's image stack, or of a file's images."""

    image: np.ndarray
    target: ProbabilityVector
    center: tuple[float, float]
    span: tuple[float, float]
    device_seed: int


def generate_dataset(
    n_devices: int,
    samples_per_device: int,
    seed: int = 0,
    span: tuple[float, float] = DEFAULT_SPAN_MV,
    resolution: float = DEFAULT_RESOLUTION_MV,
    with_noise: bool = False,
) -> list[LabeledSample]:
    """Sample random devices and random in-domain windows from each.

    Window centers are drawn uniformly over the device domain; windows
    that stick out are redrawn (up to ``MAX_WINDOW_REDRAWS`` times each).
    Every sample pairs the processed image with the oracle probability
    vector of the same window. A span that is not a whole number of pixels,
    or not narrower than the domain, raises ConfigurationError before any draw.
    """
    check_count("n_devices", n_devices)
    check_count("samples_per_device", samples_per_device)
    check_count("seed", seed, sign="non-negative")
    lo, hi = device_model.DOMAIN_MV
    for extent in span:
        pixel_count(extent, resolution)
        if not extent < hi - lo:
            raise ConfigurationError(f"span {extent} mV is not narrower than the {hi - lo:g} mV device domain")
    domain = Sandbox(device_model.DOMAIN_MV, device_model.DOMAIN_MV)
    window_span = (float(span[0]), float(span[1]))
    children = np.random.SeedSequence(seed).spawn(n_devices)

    samples: list[LabeledSample] = []
    for child in children:
        rng = np.random.default_rng(child)
        params = device_model.sample_device(int(rng.integers(2**31 - 1)))
        values, targets, centers = [], [], []
        for _ in range(samples_per_device):
            for attempt in range(MAX_WINDOW_REDRAWS + 1):
                c1 = float(rng.uniform(lo, hi))
                c2 = float(rng.uniform(lo, hi))
                if domain.contains_window((c1, c2), span):
                    break
            else:
                raise ConfigurationError(
                    f"could not draw an in-domain window after {MAX_WINDOW_REDRAWS} redraws"
                )
            noise_seed = int(rng.integers(2**31 - 1))
            scan, labels = device_model.render_scan(
                params, (c1, c2), span, resolution, with_noise=with_noise, noise_seed=noise_seed
            )
            values.append(scan.values)
            targets.append(oracle_probability(labels))
            centers.append((c1, c2))
        # One stack per device: its windows share a shape and metadata.
        images = _read_only(process(np.stack(values), scan.meta))
        samples += [
            LabeledSample(image=image, target=target, center=center, span=window_span, device_seed=params.seed)
            for image, target, center in zip(images, targets, centers)
        ]
    return samples


def dataset_arrays(samples: list[LabeledSample]) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples into (N, 900) inputs and (N, 3) soft targets."""
    if not samples:
        raise ConfigurationError("dataset is empty")
    x = np.stack([s.image.ravel() for s in samples])
    t = np.stack([s.target.as_array() for s in samples])
    return x, t


# --- model -----------------------------------------------------------------


@dataclass(eq=False)
class ClassifierModel:
    """Fully connected ReLU network with a softmax output layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(LAYER_SHAPES) or len(self.biases) != len(LAYER_SHAPES):
            raise ShapeError("weight/bias count does not match LAYER_SIZES")
        for (n_in, n_out), w, b in zip(LAYER_SHAPES, self.weights, self.biases):
            if w.shape != (n_in, n_out) or b.shape != (n_out,):
                raise ShapeError(
                    f"layer expects W{(n_in, n_out)} b{(n_out,)}, got W{w.shape} b{b.shape}"
                )


@dataclass(frozen=True)
class TrainingConfig:
    """Mini-batch Adam settings. Defaults match the experiment setup."""

    learning_rate: float = 0.001
    steps: int = 5000
    batch_size: int = 50
    seed: int = 0

    def __post_init__(self):
        check_setting(self, "learning_rate")
        for name in ("steps", "batch_size"):
            check_count(f"TrainingConfig.{name}", getattr(self, name))
        check_count("TrainingConfig.seed", self.seed, sign="non-negative")


def init_model(seed: int) -> ClassifierModel:
    """Symmetric uniform init scaled by fan-in, deterministic in ``seed``, a
    non-negative integer."""
    check_count("seed", seed, sign="non-negative")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in LAYER_SHAPES:
        bound = 1.0 / np.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return ClassifierModel(weights=weights, biases=biases)


def _forward(model: ClassifierModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Log-softmax outputs plus the post-ReLU activations for backprop.

    ``x`` is a (B, 900) training batch or an (N, 1, 900) inference stack
    (module docstring); the softmax runs over the last axis.
    """
    hidden = [x]
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        hidden.append(a)
    z = a @ model.weights[-1] + model.biases[-1]
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return logp, hidden


def loss_and_gradients(
    model: ClassifierModel, x: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy against soft targets, with exact analytic gradients."""
    n = x.shape[0]
    logp, hidden = _forward(model, x)
    loss = float(-(targets * logp).sum() / n)

    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    delta = (np.exp(logp) - targets) / n
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = hidden[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer].T
            delta[hidden[layer] <= 0.0] = 0.0
    return loss, grad_w, grad_b


def train(
    samples: list[LabeledSample], config: TrainingConfig = TrainingConfig()
) -> tuple[ClassifierModel, np.ndarray]:
    """Train the network; returns the final model and the per-step loss trace."""
    x, t = dataset_arrays(samples)

    rng = np.random.default_rng(config.seed)
    model = init_model(int(rng.integers(2**31 - 1)))
    params = model.weights + model.biases
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]

    losses = np.empty(config.steps)
    for step in range(config.steps):
        idx = rng.integers(0, x.shape[0], size=config.batch_size)
        loss, grad_w, grad_b = loss_and_gradients(model, x[idx], t[idx])
        if not np.isfinite(loss):
            raise TrainingDivergedError(step)
        losses[step] = loss

        correction1 = 1.0 - ADAM_BETA1 ** (step + 1)
        correction2 = 1.0 - ADAM_BETA2 ** (step + 1)
        for p, m, v, g in zip(params, first, second, grad_w + grad_b):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= config.learning_rate * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPSILON)
    return model, losses


def _probabilities(model: ClassifierModel, images: np.ndarray) -> list[ProbabilityVector]:
    """Probability vector of each image of an (N, 30, 30) stack, from one
    forward pass (module docstring)."""
    logp, _ = _forward(model, images.reshape(len(images), 1, -1))
    p = np.exp(logp[:, 0])
    p /= p.sum(axis=1, keepdims=True)
    return [ProbabilityVector(*row) for row in p.tolist()]


def classify(model: ClassifierModel, image: np.ndarray) -> ProbabilityVector:
    """Model probability vector for one processed (30, 30) image."""
    return _probabilities(model, image[None])[0]


@dataclass(eq=False)
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # [true class, predicted class]
    n_samples: int


def evaluate(model: ClassifierModel, samples: list[LabeledSample]) -> EvalReport:
    """Argmax-class accuracy and 3x3 confusion matrix over a sample list,
    scored in one stacked forward pass."""
    if not samples:
        raise ConfigurationError("evaluation set is empty")
    predicted = _probabilities(model, np.stack([sample.image for sample in samples]))
    confusion = np.zeros((3, 3), dtype=int)
    for sample, p in zip(samples, predicted):
        confusion[sample.target.argmax_class(), p.argmax_class()] += 1
    accuracy = float(np.trace(confusion) / len(samples))
    return EvalReport(accuracy=accuracy, confusion=confusion, n_samples=len(samples))


# --- the reference classifier ------------------------------------------------

#: The paper's classifier, trained on simulated data only, is defined once
#: here: ``train(reference_split(generate_dataset(**REFERENCE_CORPUS))[0],
#: REFERENCE_TRAINING)``, evaluated on the held-out rest of the corpus.
REFERENCE_CORPUS = {"n_devices": 1001, "samples_per_device": 10, "seed": 11}
#: A per-sample permutation at ``seed`` keeps its first ``train_share`` for
#: training, so windows of one device may land on both sides of the split.
REFERENCE_SPLIT = {"seed": 5, "train_share": 0.8}
REFERENCE_TRAINING = TrainingConfig(seed=3)


def reference_split(samples: list[LabeledSample]) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """``(train_set, held_out)``: ``samples`` split as ``REFERENCE_SPLIT``
    says, each side in permutation order."""
    order = np.random.default_rng(REFERENCE_SPLIT["seed"]).permutation(len(samples))
    cut = int(round(len(samples) * REFERENCE_SPLIT["train_share"]))
    return [samples[i] for i in order[:cut]], [samples[i] for i in order[cut:]]


# --- classifier front ends for the tuner -----------------------------------


class OracleClassifier:
    """Reads the probability vector straight off the ground-truth labels.

    It never reads sensor values, and says so, so that the tuner asks a
    simulated source for a window's labels alone (``scans.acquire_labels``).
    """

    reads_values = False

    def probabilities(self, scan: ScanGrid | None, labels: LabelGrid | None) -> ProbabilityVector:
        if labels is None:
            raise ConfigurationError(_NO_LABELS)
        return oracle_probability(labels)

    @staticmethod
    def stored_reader(source: PremeasuredScan, plan: tuple):
        """``read(s1, s2)``: ``probabilities`` of the stored window of ``plan``
        whose first pixel is ``(s1, s2)``, with no window built. At stride 1 it
        reads the oracle table of the window's shape, so windows of equal
        counts share one object; otherwise it counts the window's strided
        codes. Both count the same integers, and both refuse a source without
        labels, here, as ``probabilities`` does. It reads nothing of the
        instance, so it is one plain function for every oracle, and every
        oracle shares the locators a stored scan keeps for it."""
        stride, n1, n2, _ = plan
        if stride == 1:
            rows = oracle_table(source.tally, n1, n2).rows
            return lambda s1, s2: rows[s1][s2]
        if source.labels is None:
            raise ConfigurationError(_NO_LABELS)
        codes = source.labels.labels
        return lambda s1, s2: _counted_codes(codes[_window_slices(plan, s1, s2)])

    def stored_probabilities(self, source: PremeasuredScan, plan: tuple, s1: int, s2: int) -> ProbabilityVector:
        """``probabilities`` of the stored window ``scans._locator`` found, as
        :meth:`stored_reader` reads it."""
        return self.stored_reader(source, plan)(s1, s2)


class ModelClassifier:
    """Runs the preprocessing pipeline and the trained network.

    It never reads ground-truth labels, and says so, so that the tuner
    does not ask a simulated source to compute them. It computes with
    read-only copies of the model's weights and biases, so no later write
    through the caller's model reaches it. It keeps its vector of each
    stored window it classified (module docstring), by stored scan, window
    plan and start, for as long as both it and the scan live.
    """

    reads_labels = False

    def __init__(self, model: ClassifierModel):
        self.model = ClassifierModel(
            weights=[_read_only(w.copy()) for w in model.weights],
            biases=[_read_only(b.copy()) for b in model.biases],
        )
        self._stored = weakref.WeakKeyDictionary()

    def probabilities(self, scan: ScanGrid, labels: LabelGrid | None) -> ProbabilityVector:
        return self.stack_probabilities(scan.values[None], scan.meta)[0]

    def _stored_vectors(self, source: PremeasuredScan, plan: tuple) -> dict[tuple[int, int], ProbabilityVector]:
        """The vectors this classifier kept of ``source``'s windows of
        ``plan``, by start ``(s1, s2)``; a window is kept once classified."""
        return self._stored.setdefault(source, {}).setdefault(plan, {})

    def stored_reader(self, source: PremeasuredScan, plan: tuple):
        """``read(s1, s2)``: ``probabilities`` of the stored window of ``plan``
        whose first pixel is ``(s1, s2)``, bit for bit, from a view of the
        stored values: no grid is built. The vector is kept; a window whose
        classification raises is not."""
        vectors = self._stored_vectors(source, plan)
        values, meta = source.scan.values, plan[3]

        def read(s1: int, s2: int) -> ProbabilityVector:
            p = vectors.get((s1, s2))
            if p is None:
                window = values[_window_slices(plan, s1, s2)]
                p = vectors[s1, s2] = self.stack_probabilities(window[None], meta)[0]
            return p

        return read

    def stored_probabilities(self, source: PremeasuredScan, plan: tuple, s1: int, s2: int) -> ProbabilityVector:
        """``probabilities`` of the stored window ``scans._locator`` found, as
        :meth:`stored_reader` reads it."""
        return self.stored_reader(source, plan)(s1, s2)

    def stack_probabilities(self, stack: np.ndarray, meta: ScanMeta) -> list[ProbabilityVector]:
        """The probability vector of each window of an (N, n, m) stack of sensor
        values measured with ``meta``, from one ``process`` call and one forward
        pass; each equals what the window gets alone, bit for bit."""
        return _probabilities(self.model, process(stack, meta))


def from_spec(spec: str) -> OracleClassifier | ModelClassifier:
    """The classifier a front end names: ``oracle``, or ``model:PATH`` for a
    ``ModelClassifier`` of the model file at PATH. Any other spelling raises
    ConfigurationError; a model file that does not load, ScanFormatError."""
    if spec == "oracle":
        return OracleClassifier()
    if spec.startswith("model:"):
        return ModelClassifier(load_model(spec[6:]))
    raise ConfigurationError(f"unknown classifier {spec!r}; use oracle or model:PATH")


# --- file formats -----------------------------------------------------------


def save_model(model: ClassifierModel, path) -> None:
    doc = {
        **MODEL_HEADER,
        "layer_sizes": list(LAYER_SIZES),
        "activation": "relu",
        "output": "softmax",
        "weights": [encode_blob(w, "<f8") for w in model.weights],
        "biases": [encode_blob(b, "<f8") for b in model.biases],
    }
    write_json(path, doc)


def load_model(path) -> ClassifierModel:
    doc = read_json(path, "model")
    check_header(doc, "model", MODEL_HEADER)
    check_written(doc, {"activation": "relu", "output": "softmax"})
    sizes = doc.get("layer_sizes")
    if sizes != list(LAYER_SIZES):
        raise ScanFormatError(f"field 'layer_sizes' must be {list(LAYER_SIZES)}, got {sizes!r}")
    raw_w = checked("field 'weights'", doc.get("weights"), list, ScanFormatError)
    raw_b = checked("field 'biases'", doc.get("biases"), list, ScanFormatError)
    if not len(raw_w) == len(raw_b) == len(LAYER_SHAPES):
        raise ScanFormatError("fields 'weights'/'biases' must hold one blob per layer")
    weights = [
        decode_finite(f"weights[{i}]", blob, n_in * n_out).reshape(n_in, n_out)
        for i, (blob, (n_in, n_out)) in enumerate(zip(raw_w, LAYER_SHAPES))
    ]
    biases = [
        decode_finite(f"biases[{i}]", blob, n_out)
        for i, (blob, (_, n_out)) in enumerate(zip(raw_b, LAYER_SHAPES))
    ]
    return ClassifierModel(weights=weights, biases=biases)


def save_dataset(samples: list[LabeledSample], path) -> None:
    x, t = dataset_arrays(samples)
    centers = np.array([s.center for s in samples])
    spans = np.array([s.span for s in samples])
    seeds = np.array([s.device_seed for s in samples], dtype=np.int64)
    doc = {
        **DATASET_HEADER,
        "count": len(samples),
        "image_shape": [IMAGE_SIZE, IMAGE_SIZE],
        "images": encode_blob(x, "<f8"),
        "targets": encode_blob(t, "<f8"),
        "centers": encode_blob(centers, "<f8"),
        "spans": encode_blob(spans, "<f8"),
        "device_seeds": encode_blob(seeds, "<i8"),
    }
    write_json(path, doc)


def load_dataset(path) -> list[LabeledSample]:
    doc = read_json(path, "dataset")
    check_header(doc, "dataset", DATASET_HEADER)
    check_written(doc, {"image_shape": [IMAGE_SIZE, IMAGE_SIZE]})
    count = checked("field 'count'", doc.get("count"), int, ScanFormatError)
    if count <= 0:
        raise ScanFormatError("field 'count' must be a positive integer")
    # Decoded from the document's bytes, so each image is a read-only row view.
    images = decode_blob("images", doc.get("images"), "<f8", count * IMAGE_SIZE**2).reshape(count, IMAGE_SIZE, -1)
    t = decode_blob("targets", doc.get("targets"), "<f8", count * 3).reshape(count, 3)
    centers = decode_finite("centers", doc.get("centers"), count * 2).reshape(count, 2)
    spans = decode_finite("spans", doc.get("spans"), count * 2).reshape(count, 2)
    seeds = decode_blob("device_seeds", doc.get("device_seeds"), "<i8", count)
    try:
        targets = [ProbabilityVector.from_array(row) for row in t]
    except ConfigurationError as exc:
        raise ScanFormatError(f"field 'targets' holds a row that is not a probability vector: {exc}") from exc
    try:
        _check_range(images)
    except ShapeError as exc:
        raise ScanFormatError(f"field 'images' holds an image that is not a processed image: {exc}") from exc
    return [
        LabeledSample(image=image, target=target, center=tuple(center), span=tuple(span), device_seed=seed)
        for image, target, center, span, seed in zip(images, targets, centers.tolist(), spans.tolist(), seeds.tolist())
    ]
