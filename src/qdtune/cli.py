"""Command-line front end.

Every command but ``evaluate`` and ``report`` reads an optional JSON
config file (``--config``). Its sections ``fitness``, ``termination``,
``sandbox``, ``success`` and ``training`` each build one library
settings object from the fields they set; its top-level keys are
``seed``, ``span_mv``, ``resolution_mv``, ``grid_step_mv``, ``policy``,
``noise`` and ``noise_seed``. Flags override the file, a setting neither
gives keeps the library's default, and an unknown key or a value of the
wrong type is a ``ConfigurationError`` that names it.
Measurement sources are spelled ``sim`` (the reference device),
``sim:SEED`` (a sampled device), or ``scan:PATH`` (a premeasured scan
file); classifiers are ``oracle`` or ``model:PATH``, read by
``qdtune.classifier.from_spec``. Errors exit
nonzero with a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import classifier as classifier_mod
from . import device as device_mod
from . import harness as harness_mod
from . import scans as scans_mod
from . import tuner as tuner_mod
from .errors import ConfigurationError, QdtuneError, ScanFormatError
from .fileio import checked, kind_of, read_json, write_csv, write_json

# Config sections and the settings class each builds; ``seed`` is only ever top-level.
_SECTIONS = {
    "fitness": tuner_mod.FitnessConfig,
    "termination": tuner_mod.TerminationConfig,
    "sandbox": scans_mod.Sandbox,
    "success": harness_mod.SuccessRegions,
    "training": classifier_mod.TrainingConfig,
}

# Top-level config keys and the kind of value each holds (see fileio.checked).
_TOP_LEVEL = {
    "seed": int,
    "span_mv": 2,
    "resolution_mv": float,
    "grid_step_mv": float,
    "policy": str,
    "noise": bool,
    "noise_seed": int,
}


def _section(name: str, cls, doc):
    """``cls`` built from the keys that config section ``name`` sets."""
    checked(f"config section {name!r}", doc, dict, ConfigurationError)
    defaults = {f.name: f.default for f in dataclasses.fields(cls) if f.name != "seed"}
    kwargs = {}
    for key, value in doc.items():
        where = f"{name}.{key}"
        if key not in defaults:
            raise ConfigurationError(f"unknown config key {where!r}; {name!r} takes {', '.join(defaults)}")
        vector = isinstance(defaults[key], classifier_mod.ProbabilityVector)
        kind = 3 if vector else kind_of(defaults[key])
        value = checked(f"config key {where!r}", value, kind, ConfigurationError)
        kwargs[key] = classifier_mod.ProbabilityVector(*value) if vector else value
    return cls(**kwargs)


def _load_config(path: str | None) -> dict:
    """The checked config file: the top-level keys it sets, plus one settings object per section.

    Every section is built, whether the command uses it or not, so the
    whole file is checked here once.
    """
    doc = {}
    if path is not None:
        try:
            doc = read_json(path, "config")
        except ScanFormatError as exc:
            raise ConfigurationError(str(exc)) from exc
    config = {}
    for key, value in doc.items():
        if key in _SECTIONS:
            continue
        if key not in _TOP_LEVEL:
            known = ", ".join([*_TOP_LEVEL, *_SECTIONS])
            raise ConfigurationError(f"unknown config key {key!r}; the file takes {known}")
        config[key] = checked(f"config key {key!r}", value, _TOP_LEVEL[key], ConfigurationError)
    if "policy" in config and config["policy"] not in tuner_mod.POLICIES:
        names = ", ".join(tuner_mod.POLICIES)
        raise ConfigurationError(f"config key 'policy' must be one of {names}, got {config['policy']!r}")
    for name, cls in _SECTIONS.items():
        config[name] = _section(name, cls, doc.get(name, {}))
    return config


def _settings(args, config: dict, **params: str) -> dict:
    """Keyword arguments ``param=value`` for each ``param=key`` that a flag or the file sets.

    The flag named like the config key without its ``_mv`` suffix wins
    over the file. A setting neither gives is left out, so the library's
    own default applies.
    """
    kwargs = {}
    for param, key in params.items():
        flag = getattr(args, key.removesuffix("_mv"), None)
        if flag is not None:
            kwargs[param] = flag
        elif key in config:
            kwargs[param] = config[key]
    if "policy" in kwargs:
        kwargs["policy"] = tuner_mod.POLICIES[kwargs["policy"]]
    return kwargs


def _pair(flag: str):
    """argparse type of a flag that takes 'A,B'; a malformed value raises ConfigurationError."""

    def parse(text: str) -> tuple[float, float]:
        parts = text.split(",")
        if len(parts) != 2:
            raise ConfigurationError(f"{flag} expects 'A,B', got {text!r}")
        try:
            return float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigurationError(f"{flag} expects two numbers, got {text!r}") from exc

    return parse


def _build_source(args, config: dict):
    spec = args.source
    if spec == "sim":
        params = device_mod.reference_device()
    elif spec.startswith("sim:"):
        try:
            seed = int(spec[4:])
        except ValueError as exc:
            raise ConfigurationError(f"source {spec!r} needs an integer seed after 'sim:'") from exc
        params = device_mod.sample_device(seed)
    elif spec.startswith("scan:"):
        scan, labels = scans_mod.load_scan(spec[5:])
        return scans_mod.PremeasuredScan(scan, labels)
    else:
        raise ConfigurationError(f"unknown source {spec!r}; use sim, sim:SEED, or scan:PATH")
    noise = _settings(args, config, with_noise="noise", noise_seed="noise_seed")
    return scans_mod.SimulatedDevice(params, **noise)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- commands ---------------------------------------------------------------


def _cmd_sample_device(args) -> int:
    config = _load_config(args.config)
    seed = _settings(args, config, seed="seed").get("seed", 0)
    params = device_mod.sample_device(seed)
    out = _out_dir(args)
    path = out / f"device_{seed}.json"
    device_mod.save_device(params, path)
    print(path)
    return 0


def _cmd_render_scan(args) -> int:
    config = _load_config(args.config)
    seed = _settings(args, config, seed="seed").get("seed")
    if args.device:
        params = device_mod.load_device(args.device)
    elif seed is not None:
        params = device_mod.sample_device(seed)
    else:
        params = device_mod.reference_device()
    window = _settings(args, config, span="span_mv", resolution="resolution_mv")
    noise = _settings(args, config, with_noise="noise", noise_seed="noise_seed")
    scan, labels = device_mod.render_scan(params, args.center, **window, **noise)
    out = _out_dir(args)
    path = out / f"scan_{args.center[0]:g}_{args.center[1]:g}{scans_mod.SCAN_SUFFIX}"
    scans_mod.save_scan(scan, path, labels)
    print(path)
    return 0


def _cmd_gen_dataset(args) -> int:
    config = _load_config(args.config)
    samples = classifier_mod.generate_dataset(
        args.devices,
        args.samples,
        **_settings(
            args, config, seed="seed", span="span_mv", resolution="resolution_mv", with_noise="noise"
        ),
    )
    out = _out_dir(args)
    path = out / "dataset.json"
    classifier_mod.save_dataset(samples, path)
    print(f"{path} ({len(samples)} samples)")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    training = dataclasses.replace(config["training"], **_settings(args, config, seed="seed"))
    samples = classifier_mod.load_dataset(args.dataset)
    model, losses = classifier_mod.train(samples, training)
    out = _out_dir(args)
    model_path = out / "model.json"
    classifier_mod.save_model(model, model_path)
    write_csv(out / "loss.csv", ["step", "loss"], enumerate(losses))
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


def _cmd_tune(args) -> int:
    config = _load_config(args.config)
    run = tuner_mod.autotune(
        _build_source(args, config),
        classifier_mod.from_spec(args.classifier),
        args.start,
        fitness_config=config["fitness"],
        term=config["termination"],
        sandbox=config["sandbox"],
        **_settings(args, config, span="span_mv", resolution="resolution_mv", policy="policy"),
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
    report = harness_mod.neighborhood_experiment(
        _build_source(args, config),
        classifier_mod.from_spec(args.classifier),
        args.point,
        fitness_config=config["fitness"],
        term=config["termination"],
        sandbox=config["sandbox"],
        regions=config["success"],
        **_settings(args, config, span="span_mv", resolution="resolution_mv", policy="policy"),
    )
    out = _out_dir(args)
    point = report.point
    path = out / f"report_{point[0]:g}_{point[1]:g}_{report.policy_name}.json"
    report.save_json(path)
    print(f"{path} P={report.success_rate:.3f} iterations={report.iteration_mean:.1f}")
    return 0


def _cmd_heatmap(args) -> int:
    config = _load_config(args.config)
    result = harness_mod.heatmap(
        _build_source(args, config),
        classifier_mod.from_spec(args.classifier),
        fitness_config=config["fitness"],
        term=config["termination"],
        sandbox=config["sandbox"],
        regions=config["success"],
        **_settings(args, config, policy="policy", grid_step="grid_step_mv", span="span_mv"),
    )
    out = _out_dir(args)
    path = out / "heatmap.json"
    result.save_json(path)
    outcomes = " ".join(f"{kind}={n}" for kind, n in sorted(result.outcome_counts.items()))
    print(
        f"{path} {result.weights.shape[0]}x{result.weights.shape[1]} starts, "
        f"mean weight {result.weights.mean():.3f}, outcomes {outcomes}"
    )
    return 0


def _cmd_landscape(args) -> int:
    config = _load_config(args.config)
    result = harness_mod.fitness_landscape(
        _build_source(args, config),
        classifier_mod.from_spec(args.classifier),
        fitness_config=config["fitness"],
        **_settings(args, config, window_span="span_mv"),
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
    harness_mod.write_iteration_csv(reports, stats, out / "iteration_stats.csv")
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
    p.add_argument("--center", type=_pair("--center"), required=True, help="window center 'V1,V2' in mV")
    p.add_argument("--span", type=_pair("--span"), help="window span 'S1,S2' in mV")
    p.add_argument("--resolution", type=float, help="pixel size in mV")
    p.add_argument("--noise", action="store_true", default=None)
    p.add_argument("--noise-seed", type=int)
    p.add_argument("--out", required=True)

    p = add("gen-dataset", _cmd_gen_dataset, "generate a labeled training dataset")
    # The reference corpus's size; the seed keeps generate_dataset's default.
    corpus = classifier_mod.REFERENCE_CORPUS
    p.add_argument("--devices", type=int, default=corpus["n_devices"])
    p.add_argument("--samples", type=int, default=corpus["samples_per_device"], help="windows per device")
    p.add_argument("--span", type=_pair("--span"), help="window span 'S1,S2' in mV")
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
        p.add_argument(
            point_flag, dest=point_flag.lstrip("-"), type=_pair(point_flag), required=True, help="'V1,V2' in mV"
        )
        p.add_argument("--policy", choices=list(tuner_mod.POLICIES))
        p.add_argument("--span", type=_pair("--span"), help="window span 'S1,S2' in mV")
        p.add_argument("--resolution", type=float)
        p.add_argument("--out", required=True)

    p = add("heatmap", _cmd_heatmap, "success heatmap over a full scan")
    p.add_argument("--source", required=True)
    p.add_argument("--classifier", default="oracle")
    p.add_argument("--policy", choices=list(tuner_mod.POLICIES))
    p.add_argument("--grid-step", type=float, dest="grid_step")
    p.add_argument("--span", type=_pair("--span"), help="window span 'S1,S2' in mV")
    p.add_argument("--out", required=True)

    p = add("landscape", _cmd_landscape, "exhaustive fitness map of a stored scan")
    p.add_argument("--source", required=True, help="scan:PATH")
    p.add_argument("--classifier", default="oracle")
    p.add_argument("--span", type=_pair("--span"), help="window span 'S1,S2' in mV")
    p.add_argument("--out", required=True)

    p = add("report", _cmd_report, "aggregate saved neighborhood reports into tables")
    p.add_argument("--runs", required=True, help="directory containing report_*.json")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # Pair flags are parsed by argparse, so their errors are raised here.
        args = parser.parse_args(argv)
        return args.func(args)
    except QdtuneError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
