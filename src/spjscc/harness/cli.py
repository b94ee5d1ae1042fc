"""Command-line pipeline: pretrain, extract weights, train, evaluate, plot.

Every command reads and writes only under --out. Stage order follows the
method: the classifier is pretrained and frozen, semantic weights are
extracted once from the clean training images, then a codec is trained per
loss mode and evaluated over the SNR grid. An artifact is named by its file
under --out, and `_RECORDED_KEYS` is the one table of them: each file but the
SVGs records the config keys it was built from, a binary one in its manifest,
a CSV on its first line. A stage rebuilds a stale artifact that it writes
itself (`_load_or_build`) and refuses one that another stage writes
(`_read`), naming the file, the key and the stage to rerun; a binary one
of an older container version is stale too, and a damaged one never rebuilt.
`evaluate --loss M` is the one stage that writes `results_M.csv`, for exactly
`eval.snr_grid` × `eval.seeds`, and `compare` only reads the two modes'
files, refusing one that is missing, stale, or holds other cells; it loads
nothing else. Having written `compare.csv` and the plots, `compare` exits 1
if the two modes' mean CPP differs by more than `CPP_TOLERANCE` at any SNR:
they were not compared at the same rate.
Reruns with an unchanged config reproduce every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..classifier import ClassifierModel, TrainClassifierConfig, pretrain_classifier
from ..dataio import LabeledImageDataset, generate_shapes, load_cache, load_cifar10, save_cache
from ..jscc import CodecConfig, DecoderModel, EncoderModel
from ..metrics import evaluate, mean_over_seeds
from .. import saliency  # weight maps are computed and saved through the module, where perfbench's probes see them
from ..saliency import load_weight_cache
from ..training import TrainConfig, train_jscc
from .checkpoint import CheckpointError, StaleArtifactError, load_checkpoint, save_checkpoint
from .config import SCHEMA, ConfigError, ExperimentConfig, load_config, snr_as_written
from .plots import emit_plots, read_results_csv, write_results_csv


class StageError(RuntimeError):
    """A pipeline stage cannot run (missing prerequisite, bad artifact)."""


# the largest |ΔCPP| at which `compare` takes the two modes to run at the same rate (acceptance criterion 6)
CPP_TOLERANCE = 0.02


# -- artifacts under --out --------------------------------------------------


def _section(name: str) -> tuple[str, ...]:
    return tuple(k for k in SCHEMA if k.startswith(name + "."))


# Every file a run writes under --out but the SVGs in plots/, keyed by its name,
# with the config keys it records as meta and is checked against: exactly the
# keys it was built from. So a split does not record the other split's size,
# the mse codec and log, which never see the classifier, do not record
# `classifier.*`, and a results CSV records them all. Beside a `dataset.path` the
# config refuses the keys only the shapes read, so those keep their defaults there.
_IMAGES = tuple(k for k in _section("dataset") if not k.endswith("_count"))
_TRAIN_SPLIT = _IMAGES + ("dataset.train_count",)
_CLASSIFIER = _TRAIN_SPLIT + _section("classifier")
_CODEC = _section("codec") + _section("train")
_RECORDED_KEYS = {
    "dataset_train.cache": _TRAIN_SPLIT,
    "dataset_test.cache": _IMAGES + ("dataset.test_count",),
    "classifier.ckpt": _CLASSIFIER,
    "weights.cache": _CLASSIFIER,
    "codec_sp.ckpt": _CLASSIFIER + _CODEC,
    "codec_mse.ckpt": _TRAIN_SPLIT + _CODEC,
    "trainlog_sp.csv": _CLASSIFIER + _CODEC,
    "trainlog_mse.csv": _TRAIN_SPLIT + _CODEC,
    "results_sp.csv": tuple(SCHEMA),
    "results_mse.csv": tuple(SCHEMA),
    "compare.csv": tuple(SCHEMA),
}


def _provenance(cfg: ExperimentConfig, name: str) -> dict[str, str]:
    """The config values the artifact file `name` records as meta, e.g. {"dataset.seed": "7"}."""
    return {k: str(cfg[k]) for k in _RECORDED_KEYS[name]}


def _read(cfg: ExperimentConfig, out: Path, name: str, rerun: str, load, **kwargs):
    """`load(out / name, ...)` of an artifact another stage writes: missing or stale, it is a StageError that says to run `rerun`."""
    path = out / name
    if not path.exists():
        raise StageError(f"missing {path}; run {rerun} first")
    try:
        return load(path, expected_meta=_provenance(cfg, name), **kwargs)
    except StaleArtifactError as exc:
        raise StageError(f"{exc}; run {rerun}") from None


def _load_or_build(cfg: ExperimentConfig, out: Path, name: str, load, save, build):
    """Guards an artifact the stage writes itself: (value, built), loaded if current, else built and saved; a damaged one raises."""
    path = out / name
    provenance = _provenance(cfg, name)
    if path.exists():
        try:
            return load(path, expected_meta=provenance), False
        except StaleArtifactError:
            pass  # built from other config values, or in another container version: rebuild below
    value = build()
    save(value, path, meta=provenance)
    return value, True


def _load_split(cfg: ExperimentConfig, out: Path, split: str) -> LabeledImageDataset:
    """The `split` ("train" or "test") dataset the config names, rebuilt unless its cache is current."""
    return _load_or_build(cfg, out, f"dataset_{split}.cache", load_cache, save_cache, lambda: _build_split(cfg, split))[0]


def _build_split(cfg: ExperimentConfig, split: str) -> LabeledImageDataset:
    """The synthetic shapes if dataset.path is empty, else the CIFAR-10 binary batches under it."""
    if not cfg["dataset.path"]:
        seed = cfg["dataset.seed"] + (1 if split == "test" else 0)
        count, h, w = cfg[f"dataset.{split}_count"], cfg["dataset.height"], cfg["dataset.width"]
        try:
            return generate_shapes(seed, count, h, w, split=split)
        except MemoryError:
            raise StageError(
                f"dataset.{split}_count {count} images of dataset.height × dataset.width {h}x{w} "
                f"need {count * (13 * h * w + 8):.3g} bytes (pixels, masks and labels), more than can be allocated"
            ) from None
    root = Path(cfg["dataset.path"])
    if not root.is_dir():
        raise StageError(f"dataset.path {root} is not a directory of CIFAR-10 binary batches")
    pattern = "data_batch_*.bin" if split == "train" else "test_batch.bin"
    files = sorted(root.glob(pattern))
    if not files:
        raise StageError(f"dataset.path {root} holds no {pattern}")
    return load_cifar10(files, split=split)


def _codec_config(cfg: ExperimentConfig) -> CodecConfig:
    return CodecConfig(
        height=cfg["dataset.height"],
        width=cfg["dataset.width"],
        f_s=cfg["codec.f_s"],
        f_n=cfg["codec.f_n"],
        width_es=cfg["codec.width"],
    )


def _load_classifier(cfg: ExperimentConfig, out: Path) -> ClassifierModel:
    params, _, _ = _read(cfg, out, "classifier.ckpt", "pretrain-classifier", load_checkpoint, expected_kind="classifier")
    return ClassifierModel(params=params, class_count=len(params["head.b"]), in_hw=(cfg["dataset.height"], cfg["dataset.width"]))


# -- commands ----------------------------------------------------------------


def cmd_pretrain_classifier(cfg, out, args):
    train = _load_split(cfg, out, "train")
    model = pretrain_classifier(train, TrainClassifierConfig(**cfg.section("classifier")))
    path = out / "classifier.ckpt"
    save_checkpoint(model.params, "classifier", path, meta=_provenance(cfg, path.name))
    print(f"wrote {path} (theta {model.theta_hash()[:12]})")
    return 0


def cmd_extract_weights(cfg, out, args):
    train = _load_split(cfg, out, "train")

    def build():
        model = _load_classifier(cfg, out)
        maps, fallback = saliency.compute_weight_maps(model, train.images)
        return saliency.WeightCache(maps, fallback, dataset_id=train.dataset_id, classifier_hash=model.theta_hash())

    cache, built = _load_or_build(cfg, out, "weights.cache", load_weight_cache, saliency.save_weight_cache, build)
    counts = f"{len(cache)} maps, {int(cache.fallback.sum())} uniform fallbacks"
    if built:
        print(f"wrote {out / 'weights.cache'} ({counts})")
    else:
        print(f"kept {out / 'weights.cache'} (current; {counts})")
    return 0


def cmd_train(cfg, out, args):
    train = _load_split(cfg, out, "train")
    mode = args.loss
    weight_cache = _read(cfg, out, "weights.cache", "extract-weights", load_weight_cache) if mode == "sp" else None
    options = cfg.section("train")
    tcfg = TrainConfig(loss_mode=mode, batch_size=options.pop("batch"), **options)
    enc, dec, log = train_jscc(tcfg, train, weight_cache, None, _codec_config(cfg))
    codec, trainlog = out / f"codec_{mode}.ckpt", out / f"trainlog_{mode}.csv"
    save_checkpoint(enc.params, f"codec-{mode}", codec, meta=_provenance(cfg, codec.name))
    log.to_csv(trainlog, _provenance(cfg, trainlog.name))
    final = log.epoch_mean_loss(log.last_epoch())
    print(f"wrote {codec} (final epoch mean loss {final:.6g})")
    print(f"wrote {trainlog}")
    return 0


def cmd_evaluate(cfg, out, args):
    mode = args.loss
    test = _load_split(cfg, out, "test")
    classifier = _load_classifier(cfg, out)
    codec_cfg = _codec_config(cfg)
    params, _, _ = _read(cfg, out, f"codec_{mode}.ckpt", f"train --loss {mode}", load_checkpoint, expected_kind=f"codec-{mode}")
    enc, dec = EncoderModel(params=params, config=codec_cfg), DecoderModel(params=params, config=codec_cfg)
    reports = evaluate(enc, dec, classifier, test, cfg["eval.snr_grid"], cfg["eval.seeds"], run_id=mode)
    path = out / f"results_{mode}.csv"
    write_results_csv(path, reports, _provenance(cfg, path.name))
    print(f"wrote {path} ({len(reports)} rows)")
    return 0


def _results(cfg, out, mode):
    """`mode`'s reports from the `results_{mode}.csv` that `evaluate --loss {mode}` wrote under this config.

    The file must hold exactly `mode`'s (SNR, seed) cells of `eval.snr_grid`
    × `eval.seeds`, in `evaluate`'s SNR-major, seed-minor order; one that
    does not is damaged.
    """
    name = f"results_{mode}.csv"
    reports = _read(cfg, out, name, f"evaluate --loss {mode}", read_results_csv)
    cells = [(mode, snr_as_written(snr), seed) for snr in cfg["eval.snr_grid"] for seed in cfg["eval.seeds"]]
    if [(r.run_id, snr_as_written(r.snr_db), r.seed) for r in reports] != cells:
        raise StageError(
            f"{out / name}: does not hold the {len(cells)} {mode} rows of eval.snr_grid × eval.seeds in order; "
            f"delete it or run evaluate --loss {mode}"
        )
    return reports


def cmd_compare(cfg, out, args):
    results = {mode: _results(cfg, out, mode) for mode in ("sp", "mse")}
    path = out / "compare.csv"
    rows = results["sp"] + results["mse"]
    write_results_csv(path, rows, _provenance(cfg, path.name))
    print(f"wrote {path} ({len(rows)} rows)")
    means = {mode: mean_over_seeds(reports) for mode, reports in results.items()}
    for mode, per_snr in means.items():
        for snr, m in per_snr.items():
            print(
                f"{mode} @ {snr:g} dB: acc {m['acc']:.4f} f1 {m['f1']:.4f} "
                f"psnr {m['psnr_db']:.2f} ssim {m['ssim']:.4f} cpp {m['cpp']:.4f}"
            )
    for p in emit_plots(path, out / "plots", _provenance(cfg, path.name)):
        print(f"wrote {p}")
    apart = [
        f"{snr:g} dB (sp cpp {m['cpp']:.4f}, mse cpp {means['mse'][snr]['cpp']:.4f})"
        for snr, m in means["sp"].items()
        if abs(m["cpp"] - means["mse"][snr]["cpp"]) > CPP_TOLERANCE
    ]
    if apart:
        raise StageError(
            f"sp and mse were not compared at the same rate: their mean CPP differs by more than {CPP_TOLERANCE} "
            f"at {', '.join(apart)}; compare.csv and the plots are written"
        )
    return 0


def cmd_plot(cfg, out, args):
    for name, rerun in (("compare.csv", "compare"), ("results_sp.csv", "evaluate --loss sp"), ("results_mse.csv", "evaluate --loss mse")):
        if (out / name).exists():
            break
    else:
        raise StageError(f"no results CSV under {out}; run evaluate first")
    for p in _read(cfg, out, name, rerun, emit_plots, out_dir=out / "plots"):
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
        if name in ("train", "evaluate"):
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
