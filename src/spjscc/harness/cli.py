"""Command-line pipeline: pretrain, extract weights, train, evaluate, plot.

Every command reads and writes only under --out. Stage order follows the
method: the classifier is pretrained and frozen, semantic weights are
extracted once from the clean training images, then a codec is trained per
loss mode and evaluated over the SNR grid. A stage rebuilds a stale dataset
cache and refuses any other stale input. Reruns with an unchanged config
reproduce every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from ..classifier import ClassifierModel, TrainClassifierConfig, pretrain_classifier
from ..dataio import LabeledImageDataset, generate_shapes, load_cache, load_cifar10, save_cache
from ..jscc import CodecConfig, DecoderModel, EncoderModel
from ..metrics import evaluate, mean_over_seeds
from ..saliency import extract_weight_cache, load_weight_cache
from ..training import TrainConfig, train_jscc
from .checkpoint import CheckpointError, StaleArtifactError, load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig, _snr, load_config
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


# The config sections an artifact depends on: it records their values and is
# checked against them. The weight cache records the classifier's parameter
# hash and the dataset id instead (see saliency.py).
_RECORDED_SECTIONS = {
    "dataset": ("dataset",),
    "classifier": ("dataset", "classifier"),
    "codec": ("dataset", "classifier", "codec", "train"),
}


def _provenance(cfg: ExperimentConfig, artifact: str) -> dict[str, str]:
    """The config values `artifact` records as meta, e.g. {"dataset.seed": "7"}."""
    sections = _RECORDED_SECTIONS[artifact]
    return {k: str(v) for k, v in cfg.values.items() if k.partition(".")[0] in sections}


@contextmanager
def _checked(path: Path, rerun: str):
    """Guards loading the artifact at `path`: missing or stale, it is a StageError that says to run `rerun`."""
    if not path.exists():
        raise StageError(f"missing {path}; run {rerun} first")
    try:
        yield path
    except StaleArtifactError as exc:
        raise StageError(f"{exc}; run {rerun}") from None


def _load_split(cfg: ExperimentConfig, out: Path, split: str) -> LabeledImageDataset:
    """The `split` ("train" or "test") dataset the config names, rebuilt unless its cache is current."""
    path = _paths(out)[f"{split}_cache"]
    provenance = _provenance(cfg, "dataset")
    if path.exists():
        try:
            return load_cache(path, expected_meta=provenance)
        except StaleArtifactError:
            pass  # built from other dataset.* values: rebuild below
    kind = cfg["dataset.kind"]
    if kind == "synthetic":
        seed = cfg["dataset.seed"] + (1 if split == "test" else 0)
        data = generate_shapes(seed, cfg[f"dataset.{split}_count"], cfg["dataset.height"], cfg["dataset.width"], split=split)
    elif kind == "cifar10":
        root = Path(cfg["dataset.path"])
        if not root.is_dir():
            raise StageError(f"dataset.path {root} is not a directory of CIFAR-10 binary batches")
        pattern = "data_batch_*.bin" if split == "train" else "test_batch.bin"
        files = sorted(root.glob(pattern))
        if not files:
            raise StageError(f"no {pattern} under {root}")
        data = load_cifar10(files, split=split)
    else:
        raise StageError(f"unknown dataset.kind {kind!r}")
    save_cache(data, path, meta=provenance)
    return data


def _codec_config(cfg: ExperimentConfig, data: LabeledImageDataset) -> CodecConfig:
    """Sized from the loaded images: CIFAR-10 is 32x32 whatever dataset.height/width say."""
    return CodecConfig(
        height=data.height,
        width=data.width,
        f_s=cfg["codec.f_s"],
        f_n=cfg["codec.f_n"],
        width_es=cfg["codec.width"],
    )


def _load_classifier(cfg: ExperimentConfig, out: Path) -> ClassifierModel:
    with _checked(_paths(out)["classifier"], "pretrain-classifier") as path:
        params, _, meta = load_checkpoint(path, expected_kind="classifier", expected_meta=_provenance(cfg, "classifier"))
    return ClassifierModel(
        params=params,
        class_count=int(meta["class_count"]),
        in_hw=(int(meta["height"]), int(meta["width"])),
    )


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
    train = _load_split(cfg, out, "train")
    model = pretrain_classifier(
        train,
        TrainClassifierConfig(
            epochs=cfg["classifier.epochs"],
            lr=cfg["classifier.lr"],
            batch=cfg["classifier.batch"],
            seed=cfg["classifier.seed"],
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
            **_provenance(cfg, "classifier"),
        },
    )
    print(f"wrote {_paths(out)['classifier']} (theta {model.theta_hash()[:12]})")
    return 0


def cmd_extract_weights(cfg, out, args):
    train = _load_split(cfg, out, "train")
    model = _load_classifier(cfg, out)
    cache = extract_weight_cache(model, train, _paths(out)["weights"])
    n_fallback = int(cache.fallback.sum())
    print(f"wrote {_paths(out)['weights']} ({len(cache)} maps, {n_fallback} uniform fallbacks)")
    return 0


def cmd_train(cfg, out, args):
    train = _load_split(cfg, out, "train")
    mode = args.loss
    weight_cache = classifier = None
    if mode == "sp":
        with _checked(_paths(out)["weights"], "extract-weights") as path:
            classifier = _load_classifier(cfg, out)
            weight_cache = load_weight_cache(
                path, expected_classifier_hash=classifier.theta_hash(), expected_dataset_id=train.dataset_id
            )
    tcfg = TrainConfig(
        loss_mode=mode,
        lambda_rate=cfg["train.lambda_rate"],
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch"],
        lr=cfg["train.lr"],
        seed=cfg["train.seed"],
        snr_low=cfg["train.snr_low"],
        snr_high=cfg["train.snr_high"],
        temp_start=cfg["train.temp_start"],
        temp_end=cfg["train.temp_end"],
        patience=cfg["train.patience"],
    )
    enc, dec, log = train_jscc(tcfg, train, weight_cache, classifier, _codec_config(cfg, train))
    save_checkpoint(
        {**enc.params, **dec.params},
        f"codec-{mode}",
        _paths(out)[f"codec_{mode}"],
        meta={"config_hash": cfg.config_hash(), **_provenance(cfg, "codec")},
    )
    log.to_csv(_paths(out)[f"trainlog_{mode}"], config_hash=cfg.config_hash())
    final = log.epoch_mean_loss(log.last_epoch())
    print(f"wrote {_paths(out)[f'codec_{mode}']} (final epoch mean loss {final:.6g})")
    print(f"wrote {_paths(out)[f'trainlog_{mode}']}")
    return 0


def _evaluate_codecs(cfg, out, modes, snr):
    """(mode, EvalReport) pairs for the codec of each loss mode, on one load of the test split and classifier."""
    test = _load_split(cfg, out, "test")
    classifier = _load_classifier(cfg, out)
    codec_cfg = _codec_config(cfg, test)
    codecs = []
    for mode in modes:
        with _checked(_paths(out)[f"codec_{mode}"], f"train --loss {mode}") as path:
            params, _, _ = load_checkpoint(path, expected_kind=f"codec-{mode}", expected_meta=_provenance(cfg, "codec"))
        codecs.append((mode, EncoderModel(params=params, config=codec_cfg), DecoderModel(params=params, config=codec_cfg)))
    snr_grid = [snr] if snr is not None else cfg["eval.snr_grid"]
    return [
        (mode, r)
        for mode, enc, dec in codecs
        for r in evaluate(enc, dec, classifier, test, snr_grid, cfg["eval.seeds"], run_id=mode)
    ]


def cmd_evaluate(cfg, out, args):
    mode_reports = _evaluate_codecs(cfg, out, (args.loss,), args.snr)
    path = _paths(out)[f"results_{args.loss}"]
    _write_results_csv(path, mode_reports, cfg.config_hash())
    print(f"wrote {path} ({len(mode_reports)} rows)")
    return 0


def cmd_compare(cfg, out, args):
    all_reports = _evaluate_codecs(cfg, out, ("sp", "mse"), args.snr)
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
    for key, rerun in (("compare", "compare"), ("results_sp", "evaluate --loss sp"), ("results_mse", "evaluate --loss mse")):
        src = _paths(out)[key]
        if src.exists():
            break
    else:
        raise StageError(f"no results CSV under {out}; run evaluate or compare first")
    with open(src, encoding="ascii") as fh:
        first = fh.readline().rstrip("\n")
    recorded = first.removeprefix("# config_hash=") if first.startswith("# config_hash=") else None
    if recorded != cfg.config_hash():
        raise StageError(f"{src}: config_hash differs (results have {recorded}, expected {cfg.config_hash()}); run {rerun}")
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


def _snr_arg(raw: str) -> float:
    """`--snr` by the config's finite-SNR rule; argparse then names the flag and the value."""
    try:
        return _snr(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spjscc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=True, help="artifact directory")
        if name in ("train", "evaluate"):
            p.add_argument("--loss", choices=("sp", "mse"), required=True)
        if name in ("evaluate", "compare"):
            p.add_argument("--snr", type=_snr_arg, default=None, help="evaluate a single SNR (dB)")
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
