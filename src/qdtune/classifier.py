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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import device as device_model
from .errors import (
    ConfigurationError,
    ScanFormatError,
    ScanVersionError,
    ShapeError,
    TrainingDivergedError,
)
from .fileio import decode_blob, encode_blob, read_json, write_json
from .grids import (
    DEFAULT_RESOLUTION_MV,
    DEFAULT_SPAN_MV,
    LabelGrid,
    MAX_STATE_CODE,
    ScanGrid,
    SINGLE_DOT_CODES,
    StateLabel,
)
from .preprocess import IMAGE_SIZE, ProcessedImage, process
from .scans import Sandbox

MODEL_SCHEMA_VERSION = "1"
DATASET_SCHEMA_VERSION = "1"

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

    def argmax_class(self) -> int:
        """0 = none, 1 = single dot, 2 = double dot."""
        return int(np.argmax(self.as_array()))


def oracle_probability(labels: LabelGrid) -> ProbabilityVector:
    """Exact probability vector from a ground-truth label raster."""
    codes = labels.labels
    n = codes.size
    if n == 0:
        raise ShapeError("label raster is empty")
    counts = np.bincount(codes.ravel(), minlength=MAX_STATE_CODE + 1)
    n_sd = int(counts[list(SINGLE_DOT_CODES)].sum())
    n_dd = int(counts[StateLabel.DOUBLE_DOT])
    return ProbabilityVector((n - n_sd - n_dd) / n, n_sd / n, n_dd / n)


# --- dataset ---------------------------------------------------------------


@dataclass(eq=False)
class LabeledSample:
    """One processed window plus its oracle target and provenance."""

    image: ProcessedImage
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
    vector of the same window.
    """
    if n_devices <= 0 or samples_per_device <= 0:
        raise ConfigurationError("n_devices and samples_per_device must be positive")
    lo, hi = device_model.DOMAIN_MV
    domain = Sandbox(device_model.DOMAIN_MV, device_model.DOMAIN_MV)
    children = np.random.SeedSequence(seed).spawn(n_devices)

    samples: list[LabeledSample] = []
    for child in children:
        rng = np.random.default_rng(child)
        params = device_model.sample_device(int(rng.integers(2**31 - 1)))
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
            samples.append(
                LabeledSample(
                    image=process(scan),
                    target=oracle_probability(labels),
                    center=(c1, c2),
                    span=(float(span[0]), float(span[1])),
                    device_seed=params.seed,
                )
            )
    return samples


def dataset_arrays(samples: list[LabeledSample]) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples into (N, 900) inputs and (N, 3) soft targets."""
    if not samples:
        raise ConfigurationError("dataset is empty")
    x = np.stack([s.image.values.ravel() for s in samples])
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
        if self.learning_rate <= 0 or self.steps <= 0 or self.batch_size <= 0:
            raise ConfigurationError("learning_rate, steps, and batch_size must be positive")


def init_model(seed: int) -> ClassifierModel:
    """Symmetric uniform init scaled by fan-in, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in LAYER_SHAPES:
        bound = 1.0 / np.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return ClassifierModel(weights=weights, biases=biases)


def _forward(model: ClassifierModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Log-softmax outputs plus the post-ReLU activations for backprop."""
    hidden = [x]
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        hidden.append(a)
    z = a @ model.weights[-1] + model.biases[-1]
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
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


def classify(model: ClassifierModel, image: ProcessedImage) -> ProbabilityVector:
    """Model probability vector for one processed image."""
    logp, _ = _forward(model, image.values.reshape(1, -1))
    p = np.exp(logp[0])
    return ProbabilityVector.from_array(p / p.sum())


@dataclass(eq=False)
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # [true class, predicted class]
    n_samples: int


def evaluate(model, samples: list[LabeledSample]) -> EvalReport:
    """Argmax-class accuracy and 3x3 confusion matrix over a sample list.

    ``model`` may be a ClassifierModel or any callable mapping a
    ProcessedImage to a ProbabilityVector.
    """
    if not samples:
        raise ConfigurationError("evaluation set is empty")
    predict = model if callable(model) else (lambda image: classify(model, image))
    confusion = np.zeros((3, 3), dtype=int)
    for sample in samples:
        true = sample.target.argmax_class()
        pred = predict(sample.image).argmax_class()
        confusion[true, pred] += 1
    accuracy = float(np.trace(confusion) / len(samples))
    return EvalReport(accuracy=accuracy, confusion=confusion, n_samples=len(samples))


# --- classifier front ends for the tuner -----------------------------------


class OracleClassifier:
    """Reads the probability vector straight off the ground-truth labels."""

    def probabilities(self, scan: ScanGrid, labels: LabelGrid | None) -> ProbabilityVector:
        if labels is None:
            raise ConfigurationError("oracle classifier needs a source with ground-truth labels")
        return oracle_probability(labels)


class ModelClassifier:
    """Runs the preprocessing pipeline and the trained network.

    It never reads ground-truth labels, and says so, so that the tuner
    does not ask a simulated source to compute them.
    """

    reads_labels = False

    def __init__(self, model: ClassifierModel):
        self.model = model

    def probabilities(self, scan: ScanGrid, labels: LabelGrid | None) -> ProbabilityVector:
        return classify(self.model, process(scan))


# --- file formats -----------------------------------------------------------


def save_model(model: ClassifierModel, path) -> None:
    doc = {
        "format": "qdtune-model",
        "version": MODEL_SCHEMA_VERSION,
        "layer_sizes": list(LAYER_SIZES),
        "activation": "relu",
        "output": "softmax",
        "weights": [encode_blob(w, "<f8") for w in model.weights],
        "biases": [encode_blob(b, "<f8") for b in model.biases],
    }
    write_json(path, doc)


def load_model(path) -> ClassifierModel:
    doc = read_json(path, "model")
    if doc.get("format") != "qdtune-model":
        raise ScanFormatError("file is not a qdtune-model document")
    if doc.get("version") != MODEL_SCHEMA_VERSION:
        raise ScanVersionError(f"model version {doc.get('version')!r} not supported")
    if doc.get("activation", "relu") != "relu" or doc.get("output", "softmax") != "softmax":
        raise ScanFormatError("only relu activations with a softmax output are supported")
    sizes = doc.get("layer_sizes")
    if sizes != list(LAYER_SIZES):
        raise ScanFormatError(f"field 'layer_sizes' must be {list(LAYER_SIZES)}, got {sizes!r}")
    raw_w, raw_b = doc.get("weights"), doc.get("biases")
    if not (isinstance(raw_w, list) and isinstance(raw_b, list) and len(raw_w) == len(raw_b) == len(LAYER_SHAPES)):
        raise ScanFormatError("fields 'weights'/'biases' must hold one blob per layer")
    weights = [
        decode_blob(f"weights[{i}]", blob, "<f8", n_in * n_out).reshape(n_in, n_out)
        for i, (blob, (n_in, n_out)) in enumerate(zip(raw_w, LAYER_SHAPES))
    ]
    biases = [
        decode_blob(f"biases[{i}]", blob, "<f8", n_out)
        for i, (blob, (_, n_out)) in enumerate(zip(raw_b, LAYER_SHAPES))
    ]
    return ClassifierModel(weights=weights, biases=biases)


def save_dataset(samples: list[LabeledSample], path) -> None:
    x, t = dataset_arrays(samples)
    centers = np.array([s.center for s in samples])
    spans = np.array([s.span for s in samples])
    seeds = np.array([s.device_seed for s in samples], dtype=np.int64)
    doc = {
        "format": "qdtune-dataset",
        "version": DATASET_SCHEMA_VERSION,
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
    if doc.get("format") != "qdtune-dataset":
        raise ScanFormatError("file is not a qdtune-dataset document")
    if doc.get("version") != DATASET_SCHEMA_VERSION:
        raise ScanVersionError(f"dataset version {doc.get('version')!r} not supported")
    count = doc.get("count")
    if not isinstance(count, int) or count <= 0:
        raise ScanFormatError("field 'count' must be a positive integer")
    pixels = IMAGE_SIZE * IMAGE_SIZE
    x = decode_blob("images", doc.get("images"), "<f8", count * pixels).reshape(count, pixels)
    t = decode_blob("targets", doc.get("targets"), "<f8", count * 3).reshape(count, 3)
    centers = decode_blob("centers", doc.get("centers"), "<f8", count * 2).reshape(count, 2)
    spans = decode_blob("spans", doc.get("spans"), "<f8", count * 2).reshape(count, 2)
    seeds = decode_blob("device_seeds", doc.get("device_seeds"), "<i8", count)
    try:
        targets = [ProbabilityVector.from_array(row) for row in t]
    except ConfigurationError as exc:
        raise ScanFormatError(f"field 'targets' holds a row that is not a probability vector: {exc}") from exc
    try:
        images = [ProcessedImage(row.reshape(IMAGE_SIZE, IMAGE_SIZE)) for row in x]
    except ShapeError as exc:
        raise ScanFormatError(f"field 'images' holds an image that is not a processed image: {exc}") from exc
    return [
        LabeledSample(
            image=images[i],
            target=targets[i],
            center=(float(centers[i, 0]), float(centers[i, 1])),
            span=(float(spans[i, 0]), float(spans[i, 1])),
            device_seed=int(seeds[i]),
        )
        for i in range(count)
    ]
