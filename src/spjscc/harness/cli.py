"""Command-line pipeline: pretrain, extract weights, train, evaluate, plot.

Every command reads and writes only under --out. Stage order follows the
method: the classifier is pretrained and frozen, semantic weights are
extracted once from the clean training images, then a codec is trained per
loss mode and evaluated over the SNR grid. Reruns with an unchanged config
and seed reproduce every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..classifier import ClassifierModel, TrainClassifierConfig, pretrain_classifier
from ..dataio import LabeledImageDataset, generate_shapes, load_cache, load_cifar10, save_cache
from ..jscc import CodecConfig, DecoderModel, EncoderModel
from ..metrics import evaluate, mean_over_seeds
from ..saliency import extract_weight_cache, load_weight_cache
from ..training import TrainConfig, train_jscc
from .checkpoint import CheckpointError, StaleArtifactError, load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig, load_config
from .plots import RESULTS_COLUMNS, emit_plots


class StageError(RuntimeError):
    """A pipeline stage cannot run (missing prerequisite, bad artifact)."""


# -- artifact paths under --out ---------------------------------------------


def _paths(out: Path) -> dict[str, Path]:
    return {
        "train_cache": out / "dataset_train.cache",
        "test_cache": out / "dataset_test.cache",
        "classifier": out / "classifier.ckpt",
        "weights": out / "weights.cache",
        "codec_sp": out / "codec_sp.ckpt",
        "codec_mse": out / "codec_mse.ckpt",
        "trainlog_sp": out / "trainlog_sp.csv",
        "trainlog_mse": out / "trainlog_mse.csv",
        "results_sp": out / "results_sp.csv",
        "results_mse": out / "results_mse.csv",
        "compare": out / "compare.csv",
        "plots": out / "plots",
    }


def _provenance(cfg: ExperimentConfig, *sections: str) -> dict[str, str]:
    """The config values of `sections` as artifact meta, e.g. {"dataset.seed": "7"}."""
    return {k: str(v) for k, v in cfg.values.items() if k.partition(".")[0] in sections}


def _load_datasets(cfg: ExperimentConfig, out: Path) -> tuple[LabeledImageDataset, LabeledImageDataset]:
    """Build (or reuse from cache) the train/test datasets the config names."""
    paths = _paths(out)
    provenance = _provenance(cfg, "dataset")
    if paths["train_cache"].exists() and paths["test_cache"].exists():
        try:
            return (
                load_cache(paths["train_cache"], expected_meta=provenance),
                load_cache(paths["test_cache"], expected_meta=provenance),
            )
        except StaleArtifactError:
            pass  # built from other dataset.* values: rebuild below
    kind = cfg["dataset.kind"]
    if kind == "synthetic":
        train = generate_shapes(
            cfg["dataset.seed"], cfg["dataset.train_count"], cfg["dataset.height"], cfg["dataset.width"], split="train"
        )
        test = generate_shapes(
            cfg["dataset.seed"] + 1, cfg["dataset.test_count"], cfg["dataset.height"], cfg["dataset.width"], split="test"
        )
    elif kind == "cifar10":
        root = Path(cfg["dataset.path"])
        if not root.is_dir():
            raise StageError(f"dataset.path {root} is not a directory of CIFAR-10 binary batches")
        train_files = sorted(root.glob("data_batch_*.bin"))
        test_files = sorted(root.glob("test_batch.bin"))
        if not train_files or not test_files:
            raise StageError(f"no data_batch_*.bin / test_batch.bin under {root}")
        train = load_cifar10(train_files, split="train")
        test = load_cifar10(test_files, split="test")
    else:
        raise StageError(f"unknown dataset.kind {kind!r}")
    out.mkdir(parents=True, exist_ok=True)
    save_cache(train, paths["train_cache"], meta=provenance)
    save_cache(test, paths["test_cache"], meta=provenance)
    return train, test


def _codec_config(cfg: ExperimentConfig) -> CodecConfig:
    return CodecConfig(
        height=cfg["dataset.height"],
        width=cfg["dataset.width"],
        f_s=cfg["codec.f_s"],
        f_n=cfg["codec.f_n"],
        width_es=cfg["codec.width"],
    )


def _load_classifier(cfg: ExperimentConfig, out: Path) -> ClassifierModel:
    path = _paths(out)["classifier"]
    if not path.exists():
        raise StageError(f"missing classifier checkpoint {path}; run pretrain-classifier first")
    try:
        params, _, meta = load_checkpoint(path, expected_kind="classifier", expected_meta=_provenance(cfg, "dataset"))
    except StaleArtifactError as exc:
        raise StageError(f"{exc}; run pretrain-classifier") from None
    return ClassifierModel(
        params=params,
        class_count=int(meta["class_count"]),
        in_hw=(int(meta["height"]), int(meta["width"])),
    )


def _load_codec(cfg: ExperimentConfig, out: Path, mode: str) -> tuple[EncoderModel, DecoderModel]:
    path = _paths(out)[f"codec_{mode}"]
    if not path.exists():
        raise StageError(f"missing codec checkpoint {path}; run train --loss {mode} first")
    try:
        params, _, _ = load_checkpoint(
            path, expected_kind=f"codec-{mode}", expected_meta=_provenance(cfg, "dataset", "codec")
        )
    except StaleArtifactError as exc:
        raise StageError(f"{exc}; run train --loss {mode}") from None
    codec_cfg = _codec_config(cfg)
    return EncoderModel(params=params, config=codec_cfg), DecoderModel(params=params, config=codec_cfg)


def _write_results_csv(path: Path, mode_reports, config_hash: str) -> None:
    """`mode_reports` is a list of (loss_mode, EvalReport) pairs."""
    lines = [f"# config_hash={config_hash}", ",".join(RESULTS_COLUMNS)]
    for mode, r in mode_reports:
        lines.append(
            f"{r.run_id},{mode},{r.snr_db:.6g},{r.seed},"
            f"{r.cpp:.9g},{r.acc:.9g},{r.f1:.9g},{r.psnr_db:.9g},{r.ssim:.9g}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# -- commands ----------------------------------------------------------------


def cmd_pretrain_classifier(cfg, out, args):
    train, _ = _load_datasets(cfg, out)
    model = pretrain_classifier(
        train,
        TrainClassifierConfig(
            epochs=cfg["classifier.epochs"],
            lr=cfg["classifier.lr"],
            batch=cfg["classifier.batch"],
            seed=args.seed if args.seed is not None else cfg["classifier.seed"],
        ),
    )
    save_checkpoint(
        model.params,
        "classifier",
        _paths(out)["classifier"],
        meta={
            "class_count": str(model.class_count),
            "height": str(model.in_hw[0]),
            "width": str(model.in_hw[1]),
            "config_hash": cfg.config_hash(),
            "theta_hash": model.theta_hash(),
            **_provenance(cfg, "dataset"),
        },
    )
    print(f"wrote {_paths(out)['classifier']} (theta {model.theta_hash()[:12]})")
    return 0


def cmd_extract_weights(cfg, out, args):
    train, _ = _load_datasets(cfg, out)
    model = _load_classifier(cfg, out)
    cache = extract_weight_cache(model, train, _paths(out)["weights"])
    n_fallback = int(cache.fallback.sum())
    print(f"wrote {_paths(out)['weights']} ({len(cache)} maps, {n_fallback} uniform fallbacks)")
    return 0


def cmd_train(cfg, out, args):
    train, _ = _load_datasets(cfg, out)
    mode = args.loss
    weight_cache = None
    classifier = None
    if mode == "sp":
        wpath = _paths(out)["weights"]
        if not wpath.exists():
            raise StageError(f"missing weight cache {wpath}; run extract-weights first")
        classifier = _load_classifier(cfg, out)
        weight_cache = load_weight_cache(
            wpath, expected_classifier_hash=classifier.theta_hash(), expected_dataset_id=train.dataset_id
        )
    tcfg = TrainConfig(
        loss_mode=mode,
        lambda_rate=cfg["train.lambda_rate"],
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch"],
        lr=cfg["train.lr"],
        seed=args.seed if args.seed is not None else cfg["train.seed"],
        snr_low=cfg["train.snr_low"],
        snr_high=cfg["train.snr_high"],
        temp_start=cfg["train.temp_start"],
        temp_end=cfg["train.temp_end"],
        patience=cfg["train.patience"],
    )
    enc, dec, log = train_jscc(tcfg, train, weight_cache, classifier, _codec_config(cfg))
    save_checkpoint(
        {**enc.params, **dec.params},
        f"codec-{mode}",
        _paths(out)[f"codec_{mode}"],
        meta={"config_hash": cfg.config_hash(), **_provenance(cfg, "dataset", "codec")},
    )
    log.to_csv(_paths(out)[f"trainlog_{mode}"], config_hash=cfg.config_hash())
    final = log.epoch_mean_loss(log.last_epoch())
    print(f"wrote {_paths(out)[f'codec_{mode}']} (final epoch mean loss {final:.6g})")
    print(f"wrote {_paths(out)[f'trainlog_{mode}']}")
    return 0


def _run_eval(cfg, out, mode, args):
    test = _load_datasets(cfg, out)[1]
    classifier = _load_classifier(cfg, out)
    enc, dec = _load_codec(cfg, out, mode)
    snr_grid = [args.snr] if args.snr is not None else cfg["eval.snr_grid"]
    reports = evaluate(enc, dec, classifier, test, snr_grid, cfg["eval.seeds"], run_id=mode)
    return [(mode, r) for r in reports]


def cmd_evaluate(cfg, out, args):
    mode = args.loss
    mode_reports = _run_eval(cfg, out, mode, args)
    path = _paths(out)[f"results_{mode}"]
    _write_results_csv(path, mode_reports, cfg.config_hash())
    print(f"wrote {path} ({len(mode_reports)} rows)")
    return 0


def cmd_compare(cfg, out, args):
    all_reports = []
    for mode in ("sp", "mse"):
        all_reports.extend(_run_eval(cfg, out, mode, args))
    path = _paths(out)["compare"]
    _write_results_csv(path, all_reports, cfg.config_hash())
    print(f"wrote {path} ({len(all_reports)} rows)")
    for mode in ("sp", "mse"):
        rows = [r for m, r in all_reports if m == mode]
        for snr, m in mean_over_seeds(rows).items():
            print(
                f"{mode} @ {snr:g} dB: acc {m['acc']:.4f} f1 {m['f1']:.4f} "
                f"psnr {m['psnr_db']:.2f} ssim {m['ssim']:.4f} cpp {m['cpp']:.4f}"
            )
    written = emit_plots(path, _paths(out)["plots"], config_hash=cfg.config_hash())
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_plot(cfg, out, args):
    src = _paths(out)["compare"]
    if not src.exists():
        for alt in ("results_sp", "results_mse"):
            if _paths(out)[alt].exists():
                src = _paths(out)[alt]
                break
    if not src.exists():
        raise StageError(f"no results CSV under {out}; run evaluate or compare first")
    written = emit_plots(src, _paths(out)["plots"], config_hash=cfg.config_hash())
    for p in written:
        print(f"wrote {p}")
    return 0


_COMMANDS = {
    "pretrain-classifier": cmd_pretrain_classifier,
    "extract-weights": cmd_extract_weights,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "plot": cmd_plot,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spjscc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override the stage seed")
        p.add_argument("--snr", type=float, default=None, help="evaluate a single SNR (dB)")
        if name == "train":
            p.add_argument("--loss", choices=("sp", "mse"), required=True)
        if name == "evaluate":
            p.add_argument("--loss", choices=("sp", "mse"), required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args)
    except (ConfigError, StageError, CheckpointError, ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
