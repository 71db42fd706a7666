"""Acceptance checks for the whole tuning stack.

Fourteen numbered criteria cover the probability oracle, the penalty
and fitness shapes, simplex construction, sandbox behavior, optimizer
sanity, preprocessing invariances, classifier quality, gradient
correctness, off-line tuning reliability, iteration statistics,
landscape geometry, end-to-end determinism, and the off-line study run
with the trained classifier in place of the oracle. Each test records one
PASS or FAIL line; the slow ones (8, 10 and 14) stay within their stated
runtime budgets on a plain desktop CPU.
"""

import json
import math
import time

import numpy as np
import pytest

import qdtune as q
from qdtune import harness
from qdtune.classifier import REFERENCE_CORPUS, REFERENCE_SPLIT, REFERENCE_TRAINING
from qdtune.harness import iteration_stats, neighborhood_experiment
from qdtune.tuner import POLICIES, nelder_mead

from faults import inject_sensor_flip
from stacks import count_forward_rows, process_scan, stored_windows

GOOD_POINTS = [(250, 400), (350, 400), (350, 415), (350, 425), (350, 450), (400, 350), (450, 350)]
PLATEAU_POINTS = [(470, 470), (480, 470), (490, 460), (500, 470), (520, 480)]


def _study(source, classifier):
    """The offline study, ``qdtune.study``, with its wall time."""
    t0 = time.time()
    suite = q.study(source, classifier)
    suite["elapsed"] = time.time() - t0
    return suite


def _success(suite):
    """Per policy: mean band-adjacent, plateau and aggregate success."""
    good_avg, plateau_avg, aggregate = {}, {}, {}
    for policy_name in POLICIES:
        good = [r.success_rate for r in suite[policy_name]["good"]]
        plateau = [r.success_rate for r in suite[policy_name]["plateau"]]
        good_avg[policy_name] = float(np.mean(good))
        plateau_avg[policy_name] = float(np.mean(plateau))
        aggregate[policy_name] = float(np.mean(good + plateau))
    return good_avg, plateau_avg, aggregate


def _reliable(suite) -> bool:
    """Criterion 10's gates on one study."""
    good_avg, plateau_avg, aggregate = _success(suite)
    ok_good = all(v >= 0.70 for v in good_avg.values())
    ok_plateau = all(v <= 0.40 for v in plateau_avg.values())
    ok_order = (
        aggregate["dynamic"] >= aggregate["fixed100"]
        and aggregate["fixed100"] >= aggregate["fixed75"] - 0.05
    )
    return ok_good and ok_plateau and ok_order and suite["elapsed"] <= 900


def _pooled_means(suite):
    """Per policy: the pooled mean iterations of the band-adjacent runs."""
    reports = [r for policy_name in POLICIES for r in suite[policy_name]["good"]]
    return {name: mean for name, (mean, _) in iteration_stats(reports).pooled.items()}


def test_the_study_runs_the_contract_points_on_the_contract_scan():
    """The shared study definition is the one these criteria state."""
    assert {tag: list(points) for tag, points in harness.STUDY_POINTS.items()} == {
        "good": GOOD_POINTS,
        "plateau": PLATEAU_POINTS,
    }
    assert harness.STUDY_SCAN == ((325, 350), (400, 400))


def test_the_reference_classifier_is_the_one_criterion_8_trains():
    """The shared classifier recipe, which the ``trained_model`` fixture and
    ``scripts/train_classifier.py`` use, is the one criterion 8 states."""
    assert REFERENCE_CORPUS == {"n_devices": 1001, "samples_per_device": 10, "seed": 11}
    assert REFERENCE_SPLIT == {"seed": 5, "train_share": 0.8}
    assert REFERENCE_TRAINING == q.TrainingConfig(seed=3)


@pytest.fixture(scope="module")
def tuning_suite(reference_source, oracle):
    """All neighborhood experiments for criteria 10 and 11, run once."""
    return _study(reference_source, oracle)


@pytest.fixture(scope="module")
def mlp_study(reference_source, trained_model):
    """Criterion 14's study, criterion 10's with criterion 8's model in place
    of the oracle, and the rows of each forward pass of the network in it."""
    with pytest.MonkeyPatch.context() as patch:
        rows = count_forward_rows(patch)
        suite = _study(reference_source, q.ModelClassifier(trained_model[0]))
    return suite, rows


def test_criterion_01_probability_oracle_matches_brute_force(acceptance, label_grid_factory):
    rng = np.random.default_rng(20240817)
    grids = [label_grid_factory(rng) for _ in range(1000)]

    t0 = time.time()
    got = [q.oracle_probability(g) for g in grids]
    elapsed = time.time() - t0

    for grid, p in zip(grids, got):
        codes = grid.labels
        n = codes.size
        n_sd = n_dd = 0
        for code in codes.ravel().tolist():
            if code in (1, 2, 3):
                n_sd += 1
            elif code == 4:
                n_dd += 1
        expect = ((n - n_sd - n_dd) / n, n_sd / n, n_dd / n)
        assert (p.p_none, p.p_sd, p.p_dd) == expect
    acceptance(1, elapsed < 1.0, f"1000 label grids exact, oracle time {elapsed * 1e3:.0f} ms")


def test_criterion_02_penalty_shape(acceptance):
    ok = q.penalty_g(0.0) == 0.0 and q.penalty_g(1.0) == 1.0 and q.penalty_g(0.5) == 0.5
    xs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    ys = np.array([q.penalty_g(float(x)) for x in xs])
    ok = ok and bool((np.diff(ys) > 0).all())
    d2 = np.diff(ys, 2)
    flips = np.nonzero(np.sign(d2[:-1]) > np.sign(d2[1:]))[0]
    if flips.size:
        i = flips[0]
        a, b = d2[i], d2[i + 1]
        inflection = xs[i + 1] + 1e-3 * a / (a - b)
    else:
        inflection = np.nan
    ok = ok and abs(inflection - 0.5) <= 1e-3
    acceptance(2, ok, f"anchors exact, strictly increasing, inflection at {inflection:.4f}")


def test_criterion_03_fitness_anchors(acceptance):
    target = q.fitness(q.ProbabilityVector(0.0, 0.0, 1.0))
    uncapped = q.FitnessConfig(cap=False)
    pure_none = q.fitness(q.ProbabilityVector(1.0, 0.0, 0.0), uncapped)
    pure_sd = q.fitness(q.ProbabilityVector(0.0, 1.0, 0.0), uncapped)
    expect = math.sqrt(2.0) + 1.0
    ok = (
        target == 0.0
        and abs(pure_none - expect) <= 1e-5
        and abs(pure_sd - expect) <= 1e-5
        and q.fitness(q.ProbabilityVector(1.0, 0.0, 0.0)) == 2.0
        and q.fitness(q.ProbabilityVector(0.0, 1.0, 0.0)) == 2.0
    )
    acceptance(3, ok, f"target scores 0, pure none/single {pure_none:.5f} pre-cap, 2.0 capped")


def test_criterion_04_initial_simplex(acceptance):
    sim = q.initial_simplex((350.0, 400.0), q.FixedSimplex(75.0))
    expect = np.array([[350.0, 400.0], [275.0, 400.0], [350.0, 325.0]])
    acceptance(4, bool((sim == expect).all()), "Fixed(75) vertices lower one plunger each")


class SpyOracle:
    def __init__(self):
        self.calls = 0
        self.inner = q.OracleClassifier()

    def probabilities(self, scan, labels):
        self.calls += 1
        return self.inner.probabilities(scan, labels)


def test_criterion_05_sandbox_blocks_measurement(acceptance, reference_params):
    source = q.SimulatedDevice(reference_params)
    # windows crossing each of the four domain edges never measure
    for center in [(20.0, 300.0), (580.0, 300.0), (300.0, 20.0), (300.0, 580.0)]:
        assert isinstance(q.acquire_with_labels(source, center, (60.0, 60.0), 2.0), q.Blocked)

    blocked_steps = 0
    clear_steps = 0
    spy_total = 0
    for start in [(100.0, 300.0), (300.0, 100.0), (90.0, 90.0), (300.0, 320.0)]:
        spy = SpyOracle()
        run = q.autotune(source, spy, start, policy=q.FixedSimplex(100.0))
        blocked = [s for s in run.steps if s.blocked]
        clear = [s for s in run.steps if not s.blocked]
        assert all(s.fitness == 2.0 for s in blocked)
        assert all(s.probabilities is None for s in blocked)
        assert spy.calls == len(clear)
        blocked_steps += len(blocked)
        clear_steps += len(clear)
        spy_total += spy.calls
    ok = blocked_steps > 0 and spy_total == clear_steps
    acceptance(5, ok, f"{blocked_steps} blocked windows pinned to 2.0 with zero classifier calls")


def test_criterion_06_optimizer_convergence_on_quadratics(acceptance):
    rng = np.random.default_rng(1234)
    worst_err, worst_evals = 0.0, 0
    for _ in range(100):
        m = rng.uniform(100, 500, size=2)
        start = tuple(rng.uniform(100, 500, size=2))
        calls = []
        f = lambda v: calls.append(v) or float((v[0] - m[0]) ** 2 + (v[1] - m[1]) ** 2)
        res = nelder_mead(
            f,
            q.initial_simplex(start, q.FixedSimplex(75.0)),
            q.TerminationConfig(1e-15, 1e-6, 200),
        )
        worst_err = max(worst_err, float(np.linalg.norm(np.array(res.best_vertex) - m)))
        worst_evals = max(worst_evals, len(calls))
    ok = worst_err < 1e-3 and worst_evals <= 200
    acceptance(6, ok, f"100 quadratics: worst error {worst_err:.1e} mV in <= {worst_evals} evaluations")


def test_criterion_07_preprocessing_flip_invariance(acceptance):
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(100):
        params = q.sample_device(int(rng.integers(2**31 - 1)))
        center = tuple(rng.uniform(200, 400, size=2))
        scan, _ = q.render_scan(params, center, (60.0, 60.0), 2.0, with_noise=True, noise_seed=checked)
        a = process_scan(scan)
        b = process_scan(inject_sensor_flip(scan))
        assert np.array_equal(a, b)
        checked += 1
    acceptance(7, checked == 100, "process(-S) == process(S) bit-exact on 100 random scans")


def test_criterion_08_classifier_accuracy(acceptance, trained_model):
    model, test_set, trained_s = trained_model
    t0 = time.time()
    report = q.evaluate(model, test_set)
    elapsed = trained_s + time.time() - t0
    ok = report.accuracy >= 0.90 and elapsed <= 600
    acceptance(
        8, ok, f"held-out accuracy {report.accuracy:.4f} on {report.n_samples} samples in {elapsed:.0f} s"
    )


def test_criterion_09_gradient_check(acceptance, small_dataset):
    x, t = q.dataset_arrays(small_dataset)
    model = q.init_model(7)
    _, grad_w, grad_b = q.loss_and_gradients(model, x, t)
    grads = grad_w + grad_b
    params = model.weights + model.biases
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
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
        rel = abs(fd - grads[pi][idx]) / max(abs(fd), abs(grads[pi][idx]), 1e-12)
        worst = max(worst, rel)
    acceptance(9, worst <= 1e-5, f"20 sampled parameters, worst relative error {worst:.1e}")


def test_criterion_10_offline_tuning_reliability(acceptance, tuning_suite):
    good_avg, plateau_avg, aggregate = _success(tuning_suite)
    detail = (
        f"band-adjacent {min(good_avg.values()):.3f}, "
        f"plateau {max(plateau_avg.values()):.3f}, aggregate "
        f"dynamic {aggregate['dynamic']:.3f} >= fixed100 {aggregate['fixed100']:.3f} "
        f">= fixed75 {aggregate['fixed75']:.3f} - 0.05, {tuning_suite['elapsed']:.0f} s"
    )
    acceptance(10, _reliable(tuning_suite), detail)


def test_criterion_11_iteration_statistics(acceptance, tuning_suite):
    means = _pooled_means(tuning_suite)
    ok_range = all(8 <= m <= 30 for m in means.values())
    spread = max(means.values()) / min(means.values())
    ok_spread = spread <= 1.20
    detail = ", ".join(f"{name} {mean:.2f}" for name, mean in sorted(means.items()))
    acceptance(11, ok_range and ok_spread, f"pooled iterations {detail} (ratio {spread:.3f})")


def test_criterion_12_landscape_geometry(acceptance, reference_source, reference_params):
    result = q.fitness_landscape(reference_source, window_span=(60.0, 60.0))
    shape_ok = result.values.shape == (171, 171)
    range_ok = result.values.min() >= 0.0 and result.values.max() <= 2.0
    best = result.argmin_center()
    state_ok = q.state_at(reference_params, *best) == q.StateLabel.DOUBLE_DOT
    acceptance(
        12,
        shape_ok and range_ok and state_ok,
        f"{result.values.shape} values in [{result.values.min():.1f}, {result.values.max():.1f}], "
        f"argmin ({best[0]:.0f}, {best[1]:.0f}) is double-dot",
    )


def test_criterion_13_end_to_end_determinism(
    acceptance, reference_source, oracle, fresh_runs_in_reverse, tmp_path
):
    point = (350.0, 415.0)
    fresh = fresh_runs_in_reverse(reference_source, oracle, point, q.DynamicSimplex)

    def render(name):
        report = neighborhood_experiment(reference_source, oracle, point, q.DynamicSimplex())
        path = tmp_path / f"report_{name}.json"
        report.save_json(path)
        return report, path.read_bytes()

    report, first = render("first")
    _, again = render("again")
    same_runs = [json.dumps(run.to_json_dict()) == fresh.get(run.start) for run in report.runs]
    ok = first == again and len(same_runs) == 81 and all(same_runs)
    acceptance(
        13,
        ok,
        f"byte-identical reports across reruns, {sum(same_runs)} of 81 runs equal to fresh runs "
        f"made before them in reverse order ({len(first)} bytes)",
    )


def test_criterion_14_offline_study_with_the_trained_classifier(
    acceptance, tuning_suite, trained_model, mlp_study
):
    """Criterion 10's study with criterion 8's model in place of the oracle,
    gated on criterion 10's thresholds, plus the model's accuracy on devices
    it never saw."""
    model, _, _ = trained_model
    mlp_suite, _ = mlp_study
    unseen = q.evaluate(model, q.generate_dataset(200, 10, seed=99))

    mlp_good, mlp_plateau, mlp_aggregate = _success(mlp_suite)
    oracle_aggregate = _success(tuning_suite)[2]
    mlp_means, oracle_means = _pooled_means(mlp_suite), _pooled_means(tuning_suite)
    ok = _reliable(mlp_suite) and unseen.accuracy >= 0.90

    def pairs(mlp, oracle, fmt):
        return ", ".join(f"{name} {mlp[name]:{fmt}}/{oracle[name]:{fmt}}" for name in POLICIES)

    acceptance(
        14,
        ok,
        f"MLP/oracle aggregate {pairs(mlp_aggregate, oracle_aggregate, '.3f')}; "
        f"MLP band-adjacent {min(mlp_good.values()):.3f}, plateau {max(mlp_plateau.values()):.3f}; "
        f"pooled iterations {pairs(mlp_means, oracle_means, '.2f')}; "
        f"accuracy {unseen.accuracy:.4f} on {unseen.n_samples} samples of 200 unseen devices, "
        f"{mlp_suite['elapsed']:.0f} s",
    )


def test_the_mlp_study_classifies_each_stored_window_once(reference_source, mlp_study):
    """Criterion 14's runs classify a stored window 50,255 times, but only
    11,726 distinct windows; the network sees each distinct one once."""
    suite, rows = mlp_study
    reports = [report for name in POLICIES for kind in ("good", "plateau") for report in suite[name][kind]]
    runs = [run for report in reports for run in report.runs]
    classified = sum(not step.blocked for run in runs for step in run.steps)
    assert sum(rows) == len(stored_windows(reference_source, runs)) < classified
