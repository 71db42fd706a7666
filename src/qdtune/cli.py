"""Command-line front end.

Every command but ``evaluate`` and ``report`` reads an optional JSON
config file (``--config``) whose fields mirror the library dataclasses;
individual flags override it.
Measurement sources are spelled ``sim`` (the reference device),
``sim:SEED`` (a sampled device), or ``scan:PATH`` (a premeasured scan
file); classifiers are ``oracle`` or ``model:PATH``. Errors exit
nonzero with a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import classifier as classifier_mod
from . import device as device_mod
from . import harness as harness_mod
from . import scans as scans_mod
from . import tuner as tuner_mod
from .errors import ConfigurationError, QdtuneError
from .fileio import read_json, write_json


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config file must contain a JSON object")
    return doc


def _section(config: dict, name: str) -> dict:
    """One optional sub-object of the config; anything but an object is an error."""
    sub = config.get(name, {})
    if not isinstance(sub, dict):
        raise ConfigurationError(f"config section {name!r} must be a JSON object")
    return sub


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"{flag} expects 'A,B', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigurationError(f"{flag} expects two numbers, got {text!r}") from exc


def _build_source(spec: str, config: dict):
    if spec == "sim":
        params = device_mod.reference_device()
    elif spec.startswith("sim:"):
        params = device_mod.sample_device(int(spec[4:]))
    elif spec.startswith("scan:"):
        scan, labels = scans_mod.load_scan(spec[5:])
        return scans_mod.PremeasuredScan(scan, labels)
    else:
        raise ConfigurationError(f"unknown source {spec!r}; use sim, sim:SEED, or scan:PATH")
    return scans_mod.SimulatedDevice(
        params,
        with_noise=bool(config.get("noise", False)),
        noise_seed=int(config.get("noise_seed", 0)),
    )


def _build_classifier(spec: str):
    if spec == "oracle":
        return classifier_mod.OracleClassifier()
    if spec.startswith("model:"):
        return classifier_mod.ModelClassifier(classifier_mod.load_model(spec[6:]))
    raise ConfigurationError(f"unknown classifier {spec!r}; use oracle or model:PATH")


def _build_policy(name: str):
    table = {
        "fixed75": tuner_mod.FixedSimplex(75.0),
        "fixed100": tuner_mod.FixedSimplex(100.0),
        "dynamic": tuner_mod.DynamicSimplex(),
    }
    if name not in table:
        raise ConfigurationError(f"unknown policy {name!r}; use fixed75, fixed100, or dynamic")
    return table[name]


def _build_fitness(config: dict) -> tuner_mod.FitnessConfig:
    sub = _section(config, "fitness")
    target = sub.get("p_target", [0.0, 0.0, 1.0])
    return tuner_mod.FitnessConfig(
        p_target=classifier_mod.ProbabilityVector.from_array(np.asarray(target, dtype=float)),
        alpha=float(sub.get("alpha", 1.0)),
        beta=float(sub.get("beta", 1.0)),
        steepness=float(sub.get("steepness", 10.0)),
        blocked_fitness=float(sub.get("blocked_fitness", 2.0)),
        cap=bool(sub.get("cap", True)),
    )


def _build_termination(config: dict) -> tuner_mod.TerminationConfig:
    sub = _section(config, "termination")
    return tuner_mod.TerminationConfig(
        fitness_tolerance=float(sub.get("fitness_tolerance", 0.02)),
        simplex_size_tolerance=float(sub.get("simplex_size_tolerance", 2.0)),
        max_iterations=int(sub.get("max_iterations", 50)),
    )


def _build_sandbox(config: dict) -> scans_mod.Sandbox:
    sub = _section(config, "sandbox")
    return scans_mod.Sandbox(
        v1_range=tuple(sub.get("v1_range", device_mod.DOMAIN_MV)),
        v2_range=tuple(sub.get("v2_range", device_mod.DOMAIN_MV)),
    )


def _build_regions(config: dict) -> harness_mod.SuccessRegions:
    sub = _section(config, "success")
    return harness_mod.SuccessRegions(
        theta_ideal=float(sub.get("theta_ideal", 0.8)),
        theta_close=float(sub.get("theta_close", 0.4)),
    )


def _span(args, config) -> tuple[float, float]:
    if getattr(args, "span", None):
        return _parse_pair(args.span, "--span")
    pair = config.get("span_mv", [60.0, 60.0])
    return float(pair[0]), float(pair[1])


def _resolution(args, config) -> float:
    if getattr(args, "resolution", None) is not None:
        return args.resolution
    return float(config.get("resolution_mv", 2.0))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- commands ---------------------------------------------------------------


def _cmd_sample_device(args) -> int:
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    params = device_mod.sample_device(seed)
    out = _out_dir(args)
    path = out / f"device_{seed}.json"
    device_mod.save_device(params, path)
    print(path)
    return 0


def _cmd_render_scan(args) -> int:
    config = _load_config(args.config)
    if args.device:
        params = device_mod.load_device(args.device)
    elif args.seed is not None:
        params = device_mod.sample_device(args.seed)
    else:
        params = device_mod.reference_device()
    center = _parse_pair(args.center, "--center")
    span = _span(args, config)
    scan, labels = device_mod.render_scan(
        params,
        center,
        span,
        _resolution(args, config),
        with_noise=args.noise,
        noise_seed=args.noise_seed,
    )
    out = _out_dir(args)
    path = out / f"scan_{center[0]:g}_{center[1]:g}{scans_mod.SCAN_SUFFIX}"
    scans_mod.save_scan(scan, path, labels)
    print(path)
    return 0


def _cmd_gen_dataset(args) -> int:
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    samples = classifier_mod.generate_dataset(
        args.devices,
        args.samples,
        seed=seed,
        span=_span(args, config),
        resolution=_resolution(args, config),
        with_noise=bool(config.get("noise", False)),
    )
    out = _out_dir(args)
    path = out / "dataset.json"
    classifier_mod.save_dataset(samples, path)
    print(f"{path} ({len(samples)} samples)")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    sub = _section(config, "training")
    training = classifier_mod.TrainingConfig(
        learning_rate=float(sub.get("learning_rate", 0.001)),
        steps=int(sub.get("steps", 5000)),
        batch_size=int(sub.get("batch_size", 50)),
        seed=seed,
    )
    samples = classifier_mod.load_dataset(args.dataset)
    model, losses = classifier_mod.train(samples, training)
    out = _out_dir(args)
    model_path = out / "model.json"
    classifier_mod.save_model(model, model_path)
    with open(out / "loss.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for i, loss in enumerate(losses):
            writer.writerow([i, repr(float(loss))])
    print(f"{model_path} (final loss {losses[-1]:.4f})")
    return 0


def _cmd_evaluate(args) -> int:
    samples = classifier_mod.load_dataset(args.dataset)
    model = classifier_mod.load_model(args.model)
    report = classifier_mod.evaluate(model, samples)
    doc = {
        "accuracy": report.accuracy,
        "n_samples": report.n_samples,
        "confusion": report.confusion.tolist(),
        "classes": list(classifier_mod.CLASS_NAMES),
    }
    if args.out:
        out = _out_dir(args)
        write_json(out / "metrics.json", doc, indent=2)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _common_tuning_pieces(args, config):
    return (
        _build_source(args.source, config),
        _build_classifier(args.classifier),
        _build_fitness(config),
        _build_termination(config),
        _build_sandbox(config),
        _build_regions(config),
    )


def _cmd_tune(args) -> int:
    config = _load_config(args.config)
    source, classifier, fit_cfg, term, sandbox, _ = _common_tuning_pieces(args, config)
    policy = _build_policy(args.policy or config.get("policy", "fixed75"))
    start = _parse_pair(args.start, "--start")
    run = tuner_mod.autotune(
        source,
        classifier,
        start,
        span=_span(args, config),
        resolution=_resolution(args, config),
        fitness_config=fit_cfg,
        policy=policy,
        term=term,
        sandbox=sandbox,
    )
    out = _out_dir(args)
    run.save_json(out / "run.json")
    run.save_csv(out / "run.csv")
    best = run.best_center()
    print(
        f"{run.outcome.kind} after {run.iteration_count} iterations; "
        f"best center {best[0]:.1f}, {best[1]:.1f}" if best else run.outcome.kind
    )
    return 0


def _cmd_neighborhood(args) -> int:
    config = _load_config(args.config)
    source, classifier, fit_cfg, term, sandbox, regions = _common_tuning_pieces(args, config)
    policy_name = args.policy or config.get("policy", "fixed75")
    report = harness_mod.neighborhood_experiment(
        source,
        classifier,
        _parse_pair(args.point, "--point"),
        _build_policy(policy_name),
        span=_span(args, config),
        resolution=_resolution(args, config),
        fitness_config=fit_cfg,
        term=term,
        sandbox=sandbox,
        regions=regions,
    )
    out = _out_dir(args)
    point = report.point
    path = out / f"report_{point[0]:g}_{point[1]:g}_{report.policy_name}.json"
    report.save_json(path)
    print(f"{path} P={report.success_rate:.3f} iterations={report.iteration_mean:.1f}")
    return 0


def _cmd_heatmap(args) -> int:
    config = _load_config(args.config)
    source, classifier, fit_cfg, term, sandbox, regions = _common_tuning_pieces(args, config)
    result = harness_mod.heatmap(
        source,
        classifier,
        policy=_build_policy(args.policy or config.get("policy", "fixed100")),
        grid_step=args.grid_step if args.grid_step is not None else float(config.get("grid_step_mv", 10.0)),
        span=_span(args, config) if (args.span or "span_mv" in config) else (30.0, 30.0),
        fitness_config=fit_cfg,
        term=term,
        sandbox=sandbox,
        regions=regions,
    )
    out = _out_dir(args)
    path = out / "heatmap.json"
    result.save_json(path)
    print(f"{path} {result.weights.shape[0]}x{result.weights.shape[1]} starts, mean weight {result.weights.mean():.3f}")
    return 0


def _cmd_landscape(args) -> int:
    config = _load_config(args.config)
    source = _build_source(args.source, config)
    classifier = _build_classifier(args.classifier)
    result = harness_mod.fitness_landscape(
        source,
        classifier,
        window_span=_span(args, config),
        fitness_config=_build_fitness(config),
    )
    out = _out_dir(args)
    path = out / "landscape.json"
    result.save_json(path)
    lo = result.argmin_center()
    print(f"{path} {result.values.shape[0]}x{result.values.shape[1]}, argmin at ({lo[0]:.1f}, {lo[1]:.1f})")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.runs)
    paths = sorted(run_dir.glob("report_*.json"))
    if not paths:
        raise ConfigurationError(f"no report_*.json files under {run_dir}")
    reports = [harness_mod.ExperimentReport.from_json_dict(read_json(path, "report")) for path in paths]
    stats = harness_mod.iteration_stats(reports)
    out = _out_dir(args)
    harness_mod.write_success_csv(reports, out / "success_rates.csv")
    harness_mod.write_iteration_csv(stats, out / "iteration_stats.csv")
    harness_mod.write_summary_text(reports, stats, out / "summary.txt")
    print(out / "summary.txt")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdtune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes --config and --seed only when it reads them.
    reads_seed = {"sample-device", "render-scan", "gen-dataset", "train"}
    reads_config = reads_seed | {"tune", "neighborhood", "heatmap", "landscape"}

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if name in reads_config:
            p.add_argument("--config", help="JSON config file with default settings")
        if name in reads_seed:
            p.add_argument("--seed", type=int, help="random seed")
        return p

    p = add("sample-device", _cmd_sample_device, "draw a random device and save its parameters")
    p.add_argument("--out", required=True)

    p = add("render-scan", _cmd_render_scan, "measure a window of a simulated device")
    p.add_argument("--device", help="device JSON file (default: reference device or --seed)")
    p.add_argument("--center", required=True, help="window center 'V1,V2' in mV")
    p.add_argument("--span", help="window span 'S1,S2' in mV")
    p.add_argument("--resolution", type=float, help="pixel size in mV")
    p.add_argument("--noise", action="store_true")
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("gen-dataset", _cmd_gen_dataset, "generate a labeled training dataset")
    p.add_argument("--devices", type=int, default=1001)
    p.add_argument("--samples", type=int, default=10, help="windows per device")
    p.add_argument("--span", help="window span 'S1,S2' in mV")
    p.add_argument("--resolution", type=float)
    p.add_argument("--out", required=True)

    p = add("train", _cmd_train, "train the classifier on a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = add("evaluate", _cmd_evaluate, "evaluate a model file on a dataset file")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out")

    for name, func, point_flag in (
        ("tune", _cmd_tune, "--start"),
        ("neighborhood", _cmd_neighborhood, "--point"),
    ):
        p = add(name, func, f"run the autotuner ({name})")
        p.add_argument("--source", required=True, help="sim, sim:SEED, or scan:PATH")
        p.add_argument("--classifier", default="oracle", help="oracle or model:PATH")
        p.add_argument(point_flag, dest=point_flag.lstrip("-"), required=True, help="'V1,V2' in mV")
        p.add_argument("--policy", choices=["fixed75", "fixed100", "dynamic"])
        p.add_argument("--span", help="window span 'S1,S2' in mV")
        p.add_argument("--resolution", type=float)
        p.add_argument("--out", required=True)

    p = add("heatmap", _cmd_heatmap, "success heatmap over a full scan")
    p.add_argument("--source", required=True)
    p.add_argument("--classifier", default="oracle")
    p.add_argument("--policy", choices=["fixed75", "fixed100", "dynamic"])
    p.add_argument("--grid-step", type=float, dest="grid_step")
    p.add_argument("--span", help="window span 'S1,S2' in mV")
    p.add_argument("--out", required=True)

    p = add("landscape", _cmd_landscape, "exhaustive fitness map of a stored scan")
    p.add_argument("--source", required=True, help="scan:PATH")
    p.add_argument("--classifier", default="oracle")
    p.add_argument("--span", help="window span 'S1,S2' in mV")
    p.add_argument("--out", required=True)

    p = add("report", _cmd_report, "aggregate saved neighborhood reports into tables")
    p.add_argument("--runs", required=True, help="directory containing report_*.json")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QdtuneError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
