"""Config schema, checkpoint format, SVG plots, CLI pipeline."""

import contextlib
import io
import itertools
import re
import shutil

import numpy as np
import pytest

from spjscc.classifier import init_classifier
from spjscc.dataio import generate_shapes, load_cache, save_cache
from spjscc.harness.checkpoint import FORMAT_LINE, CheckpointError, StaleArtifactError, load_checkpoint, save_checkpoint
from spjscc.harness import cli
from spjscc.harness.cli import build_parser, main
from spjscc.harness.config import SCHEMA, ConfigError, default_config, load_config, parse_config
from spjscc.harness.plots import PlotError, emit_plots, read_results_csv, write_results_csv
from spjscc.jscc import CodecConfig, init_decoder, init_encoder
from spjscc.metrics import EvalReport
from spjscc.saliency import WeightCache, load_weight_cache, save_weight_cache
from spjscc.training import TrainConfig


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults_and_overrides():
    cfg = parse_config("train.epochs = 3\neval.seeds = 1,2,3\n# comment\n")
    assert cfg["train.epochs"] == 3
    assert cfg["eval.seeds"] == [1, 2, 3]
    assert cfg["train.batch"] == 32  # untouched default


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("train.warmup = 5\n")


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("train.epochs = soon\n")


def test_config_hash_stable_and_sensitive():
    a = parse_config("train.epochs = 3\n")
    b = parse_config("# differently written\ntrain.epochs =   3\n")
    c = parse_config("train.epochs = 4\n")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert default_config().config_hash() == parse_config("").config_hash()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _toy_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "layer.w": rng.normal(size=(4, 3)).astype(np.float32),
        "layer.b": rng.normal(size=(3,)).astype(np.float32),
    }


def test_checkpoint_round_trip_forward_equality(tmp_path):
    params = _toy_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, "toy", path, meta={"note": "x"})
    loaded, kind, meta = load_checkpoint(path)
    assert kind == "toy" and meta["note"] == "x"
    rng = np.random.default_rng(5)
    for _ in range(5):  # probe inputs
        x = rng.normal(size=(2, 4)).astype(np.float32)
        np.testing.assert_array_equal(x @ params["layer.w"] + params["layer.b"], x @ loaded["layer.w"] + loaded["layer.b"])


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    params = _toy_params(1)
    save_checkpoint(params, "toy", tmp_path / "a.ckpt")
    loaded, _, _ = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(loaded, "toy", tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_truncated_blob_rejected_with_offset(tmp_path):
    save_checkpoint(_toy_params(), "toy", tmp_path / "m.ckpt")
    blob = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "m.ckpt").write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated at byte"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_checkpoint_version_mismatch_rejected(tmp_path):
    save_checkpoint(_toy_params(), "toy", tmp_path / "m.ckpt")
    blob = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "m.ckpt").write_bytes(blob.replace(FORMAT_LINE.encode(), b"spjscc-checkpoint v9", 1))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_checkpoint_corrupted_blob_hash_rejected(tmp_path):
    save_checkpoint(_toy_params(), "toy", tmp_path / "m.ckpt")
    blob = bytearray((tmp_path / "m.ckpt").read_bytes())
    blob[-1] ^= 0xFF
    (tmp_path / "m.ckpt").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_checkpoint_kind_check(tmp_path):
    save_checkpoint(_toy_params(), "classifier", tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="kind"):
        load_checkpoint(tmp_path / "m.ckpt", expected_kind="codec-sp")


def test_checkpoint_int64_and_bool_round_trip_exactly(tmp_path):
    params = {
        "labels": np.array([0, 9, -1, 2**40, np.iinfo(np.int64).max], dtype=np.int64),
        "mask": np.array([[True, False], [False, True]]),
        "w": np.array([1.5, -0.0, np.inf], dtype=np.float32),
    }
    save_checkpoint(params, "toy", tmp_path / "m.ckpt")
    loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    for name, arr in params.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].tobytes() == arr.tobytes(), name


def test_checkpoint_other_dtypes_refused(tmp_path):
    with pytest.raises(CheckpointError, match="float64"):
        save_checkpoint({"w": np.zeros(3)}, "toy", tmp_path / "m.ckpt")
    save_checkpoint(_toy_params(), "toy", tmp_path / "m.ckpt")
    blob = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "m.ckpt").write_bytes(blob.replace(b"tensor layer.w <f4", b"tensor layer.w <f8", 1))
    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(tmp_path / "m.ckpt")


@pytest.mark.parametrize(
    "old, new",
    [(b" 4,3 ", b" 3,4 "), (b"kind toy", b"kind classifier"), (b"meta note x", b"meta note y")],
    ids=["swapped-dims", "kind", "meta"],
)
def test_checkpoint_edited_manifest_rejected_by_hash(tmp_path, old, new):
    save_checkpoint(_toy_params(), "toy", tmp_path / "m.ckpt", meta={"note": "x"})
    blob = (tmp_path / "m.ckpt").read_bytes()
    assert blob.count(old) == 1
    (tmp_path / "m.ckpt").write_bytes(blob.replace(old, new))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(tmp_path / "m.ckpt", expected_kind="classifier", expected_meta={"note": "y"})


def test_checkpoint_meta_values_keep_spaces_and_non_ascii(tmp_path):
    meta = {"dataset.path": "/data/cifar 10/données", "empty": "", "note": " two  spaces "}
    save_checkpoint(_toy_params(), "toy", tmp_path / "m.ckpt", meta=meta)
    assert load_checkpoint(tmp_path / "m.ckpt", expected_meta=meta)[2] == meta
    for bad in ("a\nb", "a\rb"):
        with pytest.raises(CheckpointError, match="line break"):
            save_checkpoint(_toy_params(), "toy", tmp_path / "bad.ckpt", meta={"note": bad})


def test_checkpoint_expected_meta_names_file_key_and_values(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_toy_params(), "toy", path, meta={"dataset.seed": "7", "dataset.kind": "synthetic"})
    load_checkpoint(path, expected_meta={"dataset.seed": 7})
    with pytest.raises(StaleArtifactError, match=r"m\.ckpt: dataset\.seed .*'7'.*'99'"):
        load_checkpoint(path, expected_meta={"dataset.kind": "synthetic", "dataset.seed": "99"})
    with pytest.raises(StaleArtifactError, match="dataset.train_count .*None"):
        load_checkpoint(path, expected_meta={"dataset.train_count": "20"})


_PROVENANCE = {"dataset.seed": "3", "dataset.path": "/a b/é"}


def _artifact(kind, path):
    """Writes an artifact of `kind` (dataset, weights, classifier or codec) with the call its stage uses."""
    ds = generate_shapes(3, 10, 32, 32)
    if kind == "dataset":
        save_cache(ds, path, meta=_PROVENANCE)
    elif kind == "weights":
        maps = np.random.default_rng(0).uniform(size=ds.images.shape).astype(np.float32)
        fallback = np.arange(len(ds)) % 3 == 0
        save_weight_cache(WeightCache(maps=maps, fallback=fallback, dataset_id=ds.dataset_id, classifier_hash="ab" * 32), path)
    elif kind == "classifier":
        model = init_classifier(10, (32, 32), seed=1)
        save_checkpoint(model.params, "classifier", path, meta={"class_count": "10", "theta_hash": model.theta_hash()})
    else:
        cfg = CodecConfig()
        enc, dec = init_encoder(cfg, 1), init_decoder(cfg, 2)
        save_checkpoint({**enc.params, **dec.params}, "codec-sp", path, meta={"codec.f_s": "16"})


def _reload_and_save(kind, src, dst):
    if kind == "dataset":
        save_cache(load_cache(src, expected_meta=_PROVENANCE), dst, meta=_PROVENANCE)
    elif kind == "weights":
        save_weight_cache(load_weight_cache(src), dst)
    else:
        params, ckind, meta = load_checkpoint(src)
        save_checkpoint(params, ckind, dst, meta=meta)


@pytest.mark.parametrize("kind", ["dataset", "weights", "classifier", "codec"])
def test_every_artifact_kind_save_load_save_byte_identical(tmp_path, kind):
    _artifact(kind, tmp_path / "a")
    _reload_and_save(kind, tmp_path / "a", tmp_path / "b")
    assert (tmp_path / "a").read_bytes().startswith(FORMAT_LINE.encode() + b"\n")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_weight_cache_flipped_payload_byte_names_the_file(tmp_path):
    path = tmp_path / "weights.cache"
    _artifact("weights", path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="weights.cache.*hash"):
        load_weight_cache(path)


def test_cli_extract_weights_refuses_a_damaged_cache_naming_the_file(tmp_path, capsys):
    """Damaged is not stale: `extract-weights` stops before it needs the classifier and rebuilds nothing."""
    path = tmp_path / "run" / "weights.cache"
    path.parent.mkdir()
    _artifact("weights", path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    assert _run(tmp_path, "a.cfg", _SMALL, "extract-weights") == 1
    err = capsys.readouterr().err
    assert str(path) in err and "hash" in err and "Traceback" not in err
    assert path.read_bytes() == bytes(blob)


# ---------------------------------------------------------------------------
# plots
# ---------------------------------------------------------------------------


_CSV = """# config_hash=abc
run_id,loss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim
r,sp,0,1,0.5,0.30,0.28,12.0,0.40
r,sp,0,2,0.5,0.32,0.30,12.2,0.41
r,sp,5,1,0.5,0.50,0.47,14.0,0.55
r,sp,10,1,0.5,0.66,0.64,16.0,0.66
r,sp,15,1,0.5,0.71,0.69,17.0,0.71
r,sp,20,1,0.5,0.74,0.72,18.0,0.74
r,mse,0,1,0.5,0.28,0.27,12.1,0.41
r,mse,5,1,0.5,0.44,0.42,14.1,0.56
r,mse,10,1,0.5,0.60,0.58,16.1,0.67
r,mse,15,1,0.5,0.66,0.64,17.1,0.72
r,mse,20,1,0.5,0.69,0.67,18.1,0.75
"""


def test_plots_structure_two_polylines_five_vertices(tmp_path):
    (tmp_path / "r.csv").write_text(_CSV)
    written = emit_plots(tmp_path / "r.csv", tmp_path / "plots", config_hash="abc")
    assert sorted(p.name for p in written) == ["acc.svg", "cpp.svg", "f1.svg", "psnr_db.svg", "ssim.svg"]
    svg = (tmp_path / "plots" / "acc.svg").read_text()
    polylines = [l for l in svg.splitlines() if "<polyline" in l]
    assert len(polylines) == 2  # one per loss mode
    for line in polylines:
        points = line.split('points="')[1].split('"')[0].split()
        assert len(points) == 5  # one vertex per SNR
    assert "config_hash=abc" in svg
    assert "legend" not in svg  # legend is drawn as line+text pairs
    assert svg.count(">sp</text>") == 1 and svg.count(">mse</text>") == 1


def test_plots_identical_input_identical_bytes(tmp_path):
    (tmp_path / "r.csv").write_text(_CSV)
    emit_plots(tmp_path / "r.csv", tmp_path / "p1", config_hash="abc")
    emit_plots(tmp_path / "r.csv", tmp_path / "p2", config_hash="abc")
    for name in ("acc.svg", "psnr_db.svg", "cpp.svg"):
        assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()


def test_plots_missing_column_named(tmp_path):
    bad = _CSV.replace("psnr_db", "psnr")
    (tmp_path / "r.csv").write_text(bad)
    with pytest.raises(PlotError, match="psnr_db"):
        emit_plots(tmp_path / "r.csv", tmp_path / "plots", config_hash="abc")


def test_results_csv_round_trip_and_hash_check(tmp_path):
    report = EvalReport(run_id="sp", snr_db=-5.0, seed=3, cpp=0.5, acc=0.25, f1=0.2, psnr_db=12.5, ssim=0.3)
    path = tmp_path / "r.csv"
    write_results_csv(path, [("sp", report)], "abc")
    assert read_results_csv(path, "abc") == [("sp", report)]
    with pytest.raises(StaleArtifactError, match=r"r\.csv: config_hash differs \(results have abc, expected def\)"):
        read_results_csv(path, "def")


def test_plots_empty_csv_rejected(tmp_path):
    (tmp_path / "r.csv").write_text("# config_hash=abc\n")
    with pytest.raises(PlotError, match="empty"):
        read_results_csv(tmp_path / "r.csv")
    # damaged before stale: an empty file records no hash, and is refused as empty
    (tmp_path / "r0.csv").write_text("")
    with pytest.raises(PlotError, match=r"r0\.csv: empty results file"):
        read_results_csv(tmp_path / "r0.csv", "abc")
    (tmp_path / "r2.csv").write_text("run_id,loss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim\n")
    with pytest.raises(PlotError, match="no data rows"):
        read_results_csv(tmp_path / "r2.csv")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


TINY_CFG = """
dataset.train_count = 60
dataset.test_count = 20
classifier.epochs = 2
train.epochs = 1
train.batch = 20
eval.snr_grid = 5,15
eval.seeds = 1,2
"""


def _cfg_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(TINY_CFG)
    return str(p)


def test_cli_extract_weights_requires_classifier(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    rc = main(["extract-weights", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "classifier" in err and "pretrain-classifier" in err


def test_cli_train_sp_requires_weight_cache(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    rc = main(["train", "--loss", "sp", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "weight" in capsys.readouterr().err


def test_cli_missing_config_is_error(tmp_path, capsys):
    rc = main(["plot", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.slow
def test_cli_full_pipeline_and_determinism(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = str(tmp_path / "run")
    for cmd in (
        ["pretrain-classifier", "--config", cfg, "--out", out],
        ["extract-weights", "--config", cfg, "--out", out],
        ["train", "--loss", "sp", "--config", cfg, "--out", out],
        ["train", "--loss", "mse", "--config", cfg, "--out", out],
        ["compare", "--config", cfg, "--out", out],
    ):
        assert main(cmd) == 0, f"{cmd} failed: {capsys.readouterr().err}"

    compare = tmp_path / "run" / "compare.csv"
    assert compare.exists()
    rows = read_results_csv(compare)
    assert len(rows) == 8  # 2 modes x 2 snr x 2 seeds
    assert {mode for mode, _ in rows} == {"sp", "mse"}
    for name in ("acc.svg", "f1.svg", "psnr_db.svg", "ssim.svg", "cpp.svg"):
        assert (tmp_path / "run" / "plots" / name).exists()

    # evaluating again from scratch reproduces the results compare wrote, byte for byte
    results = {mode: (tmp_path / "run" / f"results_{mode}.csv").read_bytes() for mode in ("sp", "mse")}
    for mode in ("sp", "mse"):
        assert main(["evaluate", "--loss", mode, "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "run" / f"results_{mode}.csv").read_bytes() == results[mode]
    # a rerun of compare reads those results and rewrites compare.csv byte for byte
    first = compare.read_bytes()
    capsys.readouterr()
    assert main(["compare", "--config", cfg, "--out", out]) == 0
    assert "kept" in capsys.readouterr().out
    assert compare.read_bytes() == first

    # stage idempotence: re-running pretrain reproduces the checkpoint bytes
    ckpt = (tmp_path / "run" / "classifier.ckpt").read_bytes()
    assert main(["pretrain-classifier", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "run" / "classifier.ckpt").read_bytes() == ckpt

    # artifacts record the config hash they were produced from
    chash = load_config(cfg).config_hash()
    assert f"# config_hash={chash}" in compare.read_text()
    assert f"# config_hash={chash}" in (tmp_path / "run" / "trainlog_sp.csv").read_text()
    assert f"config_hash={chash}" in (tmp_path / "run" / "plots" / "acc.svg").read_text()

    # plot re-renders compare's SVGs byte for byte, and refuses results written under another config
    plots = tmp_path / "run" / "plots"
    svgs = {p.name: p.read_bytes() for p in plots.iterdir()}
    assert main(["plot", "--config", cfg, "--out", out]) == 0
    assert {p.name: p.read_bytes() for p in plots.iterdir()} == svgs
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CFG + "eval.seeds = 1,2,3\n")
    capsys.readouterr()
    assert main(["plot", "--config", str(other), "--out", out]) == 1
    err = capsys.readouterr().err
    assert str(compare) in err and chash in err and load_config(other).config_hash() in err and "run compare" in err

    # without compare.csv, plot falls back to results_sp.csv and names the stage that writes it
    compare.unlink()
    assert main(["plot", "--config", str(other), "--out", out]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "run" / "results_sp.csv") in err and "run evaluate --loss sp" in err


def _run(tmp_path, name, text, *argv):
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    return main([*argv, "--config", str(cfg), "--out", str(tmp_path / "run")])


def test_cli_stale_dataset_rebuilt_and_stale_classifier_refused(tmp_path, capsys):
    """pretrain at train_count 20; extract-weights at 40 images of seed 99 must not reuse either."""
    small = "dataset.train_count = 20\ndataset.test_count = 20\nclassifier.epochs = 1\n"
    assert _run(tmp_path, "a.cfg", small, "pretrain-classifier") == 0
    capsys.readouterr()
    changed = "dataset.train_count = 40\ndataset.seed = 99\ndataset.test_count = 20\nclassifier.epochs = 1\n"
    assert _run(tmp_path, "b.cfg", changed, "extract-weights") == 1
    captured = capsys.readouterr()
    assert "20 maps" not in captured.out
    assert "classifier.ckpt" in captured.err and "run pretrain-classifier" in captured.err
    assert "dataset.seed" in captured.err or "dataset.train_count" in captured.err
    train = load_cache(tmp_path / "run" / "dataset_train.cache")
    assert len(train) == 40 and train.dataset_id == generate_shapes(99, 40, 32, 32).dataset_id
    assert not (tmp_path / "run" / "weights.cache").exists()


def test_cli_stale_codec_refused(tmp_path, capsys):
    base = "dataset.train_count = 20\ndataset.test_count = 10\nclassifier.epochs = 1\ntrain.epochs = 1\neval.snr_grid = 5\neval.seeds = 1\n"
    for argv in (["pretrain-classifier"], ["train", "--loss", "mse"], ["evaluate", "--loss", "mse"]):
        assert _run(tmp_path, "a.cfg", base, *argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    for key, value in (("codec.f_s", "8"), ("train.lr", "0.5")):
        assert _run(tmp_path, "b.cfg", base + f"{key} = {value}\n", "evaluate", "--loss", "mse") == 1
        err = capsys.readouterr().err
        assert "codec_mse.ckpt" in err and key in err and "run train --loss mse" in err


def test_cli_damaged_dataset_cache_is_an_error_naming_the_file(tmp_path, capsys):
    cfg = "dataset.train_count = 20\ndataset.test_count = 10\n"
    assert _run(tmp_path, "a.cfg", cfg, "extract-weights") == 1  # writes the caches, then stops: no classifier
    path = tmp_path / "run" / "dataset_train.cache"
    blob = bytearray(path.read_bytes())
    blob[-200] ^= 0x01
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert _run(tmp_path, "a.cfg", cfg, "extract-weights") == 1
    err = capsys.readouterr().err
    assert str(path) in err and "hash" in err and "Traceback" not in err


def _cifar_batches(root):
    """Ten 32x32 CIFAR-10 records, record i of class i filled with 25 i, as both the train and the test batch."""
    root.mkdir(parents=True)
    records = b"".join(bytes([i % 10]) + bytes([25 * (i % 10)]) * 3072 for i in range(10))
    for name in ("data_batch_1.bin", "test_batch.bin"):
        (root / name).write_bytes(records)


def test_cli_cifar_path_with_space_and_non_ascii_is_cached(tmp_path, capsys, monkeypatch):
    root = tmp_path / "cifar batches" / "données"
    _cifar_batches(root)
    cfg = f"dataset.kind = cifar10\ndataset.path = {root}\n"
    assert _run(tmp_path, "a.cfg", cfg, "extract-weights") == 1  # caches written, classifier missing
    meta = load_checkpoint(tmp_path / "run" / "dataset_train.cache")[2]
    assert meta["dataset.path"] == str(root)

    def no_reload(*args, **kwargs):
        raise AssertionError("cached dataset was rebuilt")

    monkeypatch.setattr("spjscc.harness.cli.load_cifar10", no_reload)
    capsys.readouterr()
    assert _run(tmp_path, "a.cfg", cfg, "extract-weights") == 1
    assert "pretrain-classifier" in capsys.readouterr().err


def test_cli_cifar_codec_is_sized_from_the_images_not_the_config(tmp_path, capsys):
    """CIFAR-10 images are 32x32 whatever dataset.height/width say."""
    root = tmp_path / "cifar"
    _cifar_batches(root)  # record 0 is all black
    cfg = (
        f"dataset.kind = cifar10\ndataset.path = {root}\ndataset.height = 64\ndataset.width = 64\n"
        "classifier.epochs = 1\ntrain.epochs = 1\neval.snr_grid = 5\neval.seeds = 1\n"
    )
    for argv in (["pretrain-classifier"], ["train", "--loss", "mse"], ["evaluate", "--loss", "mse"]):
        assert _run(tmp_path, "a.cfg", cfg, *argv) == 0, capsys.readouterr().err


_SMALL = "dataset.train_count = 20\ndataset.test_count = 10\nclassifier.epochs = 1\ntrain.epochs = 1\neval.snr_grid = 5\neval.seeds = 1\n"


def test_cli_classifier_built_with_other_classifier_keys_refused(tmp_path, capsys):
    assert _run(tmp_path, "a.cfg", _SMALL, "pretrain-classifier") == 0
    capsys.readouterr()
    assert _run(tmp_path, "b.cfg", _SMALL + "classifier.epochs = 3\n", "extract-weights") == 1
    err = capsys.readouterr().err
    assert "classifier.ckpt" in err and "classifier.epochs" in err and "run pretrain-classifier" in err
    assert not (tmp_path / "run" / "weights.cache").exists()


def test_cli_weight_cache_of_another_classifier_refused_by_train(tmp_path, capsys):
    for argv in (["pretrain-classifier"], ["extract-weights"]):
        assert _run(tmp_path, "a.cfg", _SMALL, *argv) == 0, capsys.readouterr().err
    assert _run(tmp_path, "b.cfg", _SMALL + "classifier.seed = 5\n", "pretrain-classifier") == 0
    capsys.readouterr()
    assert _run(tmp_path, "b.cfg", _SMALL + "classifier.seed = 5\n", "train", "--loss", "sp") == 1
    err = capsys.readouterr().err
    assert "weights.cache: classifier.seed differs" in err and "run extract-weights" in err
    assert not (tmp_path / "run" / "codec_sp.ckpt").exists()


def test_cli_extract_weights_rebuilds_a_stale_cache_and_reuses_a_current_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "run" / "weights.cache"
    for argv in (["pretrain-classifier"], ["extract-weights"]):
        assert _run(tmp_path, "a.cfg", _SMALL, *argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out.endswith(f"wrote {path} (20 maps, 0 uniform fallbacks)\n")
    first = load_weight_cache(path)
    other = _SMALL + "classifier.seed = 5\n"
    for argv in (["pretrain-classifier"], ["extract-weights"]):
        assert _run(tmp_path, "b.cfg", other, *argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out.endswith(f"wrote {path} (20 maps, 0 uniform fallbacks)\n")
    rebuilt = load_weight_cache(path, expected_meta={"classifier.seed": "5"})
    retrained = cli._load_classifier(load_config(tmp_path / "b.cfg"), tmp_path / "run")
    assert rebuilt.dataset_id == first.dataset_id and rebuilt.classifier_hash == retrained.theta_hash()
    assert rebuilt.classifier_hash != first.classifier_hash
    assert not np.array_equal(rebuilt.maps, first.maps)
    blob = path.read_bytes()

    def no_recompute(*args, **kwargs):
        raise AssertionError("current weight cache was recomputed")

    monkeypatch.setattr("spjscc.saliency.compute_weight_maps", no_recompute)
    (tmp_path / "run" / "classifier.ckpt").unlink()  # a current cache needs no classifier
    assert _run(tmp_path, "b.cfg", other, "extract-weights") == 0, capsys.readouterr().err
    assert capsys.readouterr().out == f"kept {path} (current; 20 maps, 0 uniform fallbacks)\n"
    assert path.read_bytes() == blob


@pytest.mark.slow
def test_cli_test_count_and_eval_keys_retrain_nothing(tmp_path, capsys):
    """Only the test split and the results depend on dataset.test_count and eval.*."""
    for argv in (["pretrain-classifier"], ["extract-weights"], ["train", "--loss", "sp"], ["train", "--loss", "mse"]):
        assert _run(tmp_path, "a.cfg", _SMALL, *argv) == 0, capsys.readouterr().err
    run = tmp_path / "run"
    trained = {name: (run / name).read_bytes() for name in ("classifier.ckpt", "weights.cache", "codec_sp.ckpt", "codec_mse.ckpt")}
    for change in ("dataset.test_count = 12", "eval.seeds = 3,4", "eval.snr_grid = -5,0,10"):
        for argv in (["extract-weights"], ["compare"]):
            assert _run(tmp_path, "b.cfg", _SMALL + change + "\n", *argv) == 0, (change, capsys.readouterr().err)
        assert {name: (run / name).read_bytes() for name in trained} == trained, change
    rows = read_results_csv(run / "compare.csv")
    assert {(m, r.snr_db) for m, r in rows} == {(m, s) for m in ("sp", "mse") for s in (-5.0, 0.0, 10.0)}
    changed = _SMALL + "dataset.test_count = 12\n"
    assert _run(tmp_path, "b.cfg", changed, "evaluate", "--loss", "sp") == 0, capsys.readouterr().err
    assert len(load_cache(run / "dataset_test.cache", expected_meta={"dataset.test_count": "12"})) == 12


def test_cli_train_sp_needs_only_a_current_weight_cache(tmp_path, capsys):
    for argv in (["pretrain-classifier"], ["extract-weights"]):
        assert _run(tmp_path, "a.cfg", _SMALL, *argv) == 0, capsys.readouterr().err
    (tmp_path / "run" / "classifier.ckpt").unlink()
    assert _run(tmp_path, "a.cfg", _SMALL, "train", "--loss", "sp") == 0, capsys.readouterr().err
    assert (tmp_path / "run" / "codec_sp.ckpt").exists()


def test_cli_mse_codec_does_not_depend_on_the_classifier(tmp_path, capsys):
    for argv in (["pretrain-classifier"], ["train", "--loss", "mse"]):
        assert _run(tmp_path, "a.cfg", _SMALL, *argv) == 0, capsys.readouterr().err
    other = _SMALL + "classifier.seed = 5\n"
    for argv in (["pretrain-classifier"], ["evaluate", "--loss", "mse"]):
        assert _run(tmp_path, "b.cfg", other, *argv) == 0, capsys.readouterr().err
    meta = load_checkpoint(tmp_path / "run" / "codec_mse.ckpt")[2]
    assert not any(key.startswith("classifier.") for key in meta)


def test_cli_training_stages_read_only_the_train_split(tmp_path, capsys):
    assert _run(tmp_path, "a.cfg", _SMALL, "train", "--loss", "mse") == 0, capsys.readouterr().err
    assert (tmp_path / "run" / "dataset_train.cache").exists()
    assert not (tmp_path / "run" / "dataset_test.cache").exists()


def test_cli_compare_loads_the_test_split_and_classifier_once(tmp_path, capsys, monkeypatch):
    for argv in (["pretrain-classifier"], ["extract-weights"], ["train", "--loss", "sp"], ["train", "--loss", "mse"], ["compare"]):
        assert _run(tmp_path, "a.cfg", _SMALL, *argv) == 0, capsys.readouterr().err
    first = (tmp_path / "run" / "compare.csv").read_bytes()
    calls = []

    def counted(name):
        real = getattr(cli, name)

        def wrapper(path, *args, **kwargs):
            calls.append((name, path.name))
            return real(path, *args, **kwargs)

        return wrapper

    for name in ("load_cache", "load_checkpoint"):
        monkeypatch.setattr(cli, name, counted(name))
    assert _run(tmp_path, "a.cfg", _SMALL, "compare") == 0
    assert sorted(calls) == [
        ("load_cache", "dataset_test.cache"),
        ("load_checkpoint", "classifier.ckpt"),
        ("load_checkpoint", "codec_mse.ckpt"),
        ("load_checkpoint", "codec_sp.ckpt"),
    ]
    assert (tmp_path / "run" / "compare.csv").read_bytes() == first


# two SNRs and two seeds, so the order of a results CSV's cells can be checked
_GRID = _SMALL + "eval.snr_grid = 5,15\neval.seeds = 1,2\n"


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """An --out with both codecs trained under `_GRID`, and no results CSV."""
    root = tmp_path_factory.mktemp("trained")
    for argv in (["pretrain-classifier"], ["extract-weights"], ["train", "--loss", "sp"], ["train", "--loss", "mse"]):
        assert _run(root, "a.cfg", _GRID, *argv) == 0
    return root / "run"


def _compare(tmp_path, capsys, monkeypatch, run):
    """`compare` on `run` under `_GRID`: (return code, stdout, stderr, the run_id of each `cli.evaluate` call)."""
    calls = []
    real = cli.evaluate

    def counted(*args, **kwargs):
        calls.append(kwargs["run_id"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", counted)
    capsys.readouterr()
    cfg = tmp_path / "compare.cfg"
    cfg.write_text(_GRID, encoding="utf-8")
    rc = main(["compare", "--config", str(cfg), "--out", str(run)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, calls


def _outputs(run, out):
    """compare.csv's bytes, every SVG's bytes and the per-SNR lines of `out`."""
    svgs = {p.name: p.read_bytes() for p in sorted((run / "plots").iterdir())}
    return (run / "compare.csv").read_bytes(), svgs, [line for line in out.splitlines() if " dB: " in line]


def test_cli_compare_reuses_current_results_and_writes_what_a_fresh_compare_writes(tmp_path, capsys, monkeypatch, trained_run):
    fresh, run = tmp_path / "fresh", tmp_path / "run"
    shutil.copytree(trained_run, fresh)
    shutil.copytree(trained_run, run)
    for mode in ("sp", "mse"):
        assert _run(tmp_path, "a.cfg", _GRID, "evaluate", "--loss", mode) == 0, capsys.readouterr().err
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 0, err
    assert calls == []
    assert f"kept {run / 'results_sp.csv'} (current; 4 rows)" in out and f"kept {run / 'results_mse.csv'} (current; 4 rows)" in out
    rc, fresh_out, err, calls = _compare(tmp_path, capsys, monkeypatch, fresh)
    assert rc == 0, err
    assert calls == ["sp", "mse"]
    for mode in ("sp", "mse"):
        assert f"wrote {fresh / f'results_{mode}.csv'} (4 rows)" in fresh_out
        # a compare with no results CSV writes the ones evaluate writes
        assert (fresh / f"results_{mode}.csv").read_bytes() == (run / f"results_{mode}.csv").read_bytes()
    reused = _outputs(run, out)
    assert reused == _outputs(fresh, fresh_out)
    assert len(reused[2]) == 4 and len(reused[1]) == 5


_EDGE_VALUES = ("0", "1", "-1", "1e300", "nan", "inf", "-inf", "-0.0", "abc")
# the smallest run the config admits, so that a value the config accepts runs its stage in well under a second
_TINIEST = _SMALL + "dataset.train_count = 10\ndataset.height = 16\ndataset.width = 16\n"


@pytest.fixture(scope="module")
def tiniest_mse_run(tmp_path_factory):
    """An --out with the classifier and the mse codec trained under `_TINIEST`."""
    root = tmp_path_factory.mktemp("tiniest")
    for argv in (["pretrain-classifier"], ["train", "--loss", "mse"]):
        assert _run(root, "a.cfg", _TINIEST, *argv) == 0
    return root / "run"


def _first_stage_reading(key):
    if key.startswith("eval.") or key == "dataset.test_count":
        return ["evaluate", "--loss", "mse"]
    if key.startswith(("train.", "codec.")):
        return ["train", "--loss", "mse"]
    return ["pretrain-classifier"]


@pytest.mark.parametrize("key, value", list(itertools.product(sorted(SCHEMA), _EDGE_VALUES)))
def test_cli_an_edge_value_of_any_key_runs_or_is_refused_naming_the_key(tmp_path, tiniest_mse_run, key, value):
    """The first stage that reads `key` exits 0, or exits 1 naming the key: never a traceback. Every pair runs."""
    stage = _first_stage_reading(key)
    run = tmp_path / "run"
    if stage[0] == "evaluate":
        shutil.copytree(tiniest_mse_run, run)
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(_TINIEST + f"{key} = {value}\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([*stage, "--config", str(cfg), "--out", str(run)])
    assert rc in (0, 1) and "Traceback" not in err.getvalue()
    assert rc == 0 or key in err.getvalue(), err.getvalue()


def test_cli_train_whose_rate_gradient_overflows_adam_exits_1_before_writing_a_codec(tmp_path, capsys):
    """At λ = 1e30 a gradient's square overflows float32: the step is refused, not taken with an inf moment."""
    assert _run(tmp_path, "a.cfg", _TINIEST + "train.lambda_rate = 1e30\n", "train", "--loss", "mse") == 1
    err = capsys.readouterr().err
    assert "diverged" in err and "overflows float32 when squared" in err, err
    assert not (tmp_path / "run" / "codec_mse.ckpt").exists()


def _sp_results_under_other_seeds(tmp_path):
    assert _run(tmp_path, "b.cfg", _GRID + "eval.seeds = 1,3\n", "evaluate", "--loss", "sp") == 0


def _sp_results_of_another_test_split(tmp_path):
    """The same cells, written under another config hash."""
    assert _run(tmp_path, "b.cfg", _GRID + "dataset.test_count = 12\n", "evaluate", "--loss", "sp") == 0


@pytest.mark.parametrize("make_sp_results", [_sp_results_under_other_seeds, _sp_results_of_another_test_split])
def test_cli_compare_evaluates_only_the_mode_whose_results_are_not_current(tmp_path, capsys, monkeypatch, trained_run, make_sp_results):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    assert _run(tmp_path, "a.cfg", _GRID, "evaluate", "--loss", "mse") == 0
    make_sp_results(tmp_path)
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 0, err
    assert calls == ["sp"]
    assert f"wrote {run / 'results_sp.csv'} (4 rows)" in out and f"kept {run / 'results_mse.csv'} (current; 4 rows)" in out
    chash = load_config(tmp_path / "compare.cfg").config_hash()
    assert read_results_csv(run / "results_sp.csv", chash) == read_results_csv(run / "compare.csv", chash)[:4]
    rows = read_results_csv(run / "compare.csv", chash)
    assert [(m, r.snr_db, r.seed) for m, r in rows] == [(m, snr, seed) for m in ("sp", "mse") for snr in (5.0, 15.0) for seed in (1, 2)]


def _holding_mse_rows(path):
    path.write_bytes((path.parent / "results_mse.csv").read_bytes())


def _in_seed_major_order(path):
    head, header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([head, header, rows[0], rows[2], rows[1], rows[3]]) + "\n")


def _cut_at_a_row_boundary(path):
    """What `head -n 4` keeps: the hash line, the header and two of the four rows."""
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:4]))


def _emptied(path):
    path.write_text("")


@pytest.mark.parametrize("damage", [_holding_mse_rows, _in_seed_major_order, _cut_at_a_row_boundary, _emptied])
def test_cli_compare_refuses_results_that_do_not_hold_this_configs_cells(tmp_path, capsys, monkeypatch, trained_run, damage):
    """A results CSV under this config's hash, or with no hash at all, is damaged unless it holds exactly its cells: never re-evaluated."""
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    for mode in ("sp", "mse"):
        assert _run(tmp_path, "a.cfg", _GRID, "evaluate", "--loss", mode) == 0
    path = run / "results_sp.csv"
    damage(path)
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 1
    assert str(path) in err and "Traceback" not in err, err
    assert calls == [] and not (run / "compare.csv").exists()


def test_cli_compare_checks_every_results_csv_before_it_evaluates_any(tmp_path, capsys, monkeypatch, trained_run):
    """sp's results CSV is missing and mse's is damaged: compare evaluates nothing, not sp first."""
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    assert _run(tmp_path, "a.cfg", _GRID, "evaluate", "--loss", "mse") == 0
    path = run / "results_mse.csv"
    _cut_at_a_row_boundary(path)
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 1
    assert str(path) in err and "Traceback" not in err, err
    assert calls == [] and not (run / "results_sp.csv").exists() and not (run / "compare.csv").exists()


@pytest.mark.parametrize("mode", ["sp", "mse"])
def test_cli_compare_names_the_file_and_line_of_a_damaged_results_csv(tmp_path, capsys, monkeypatch, trained_run, mode):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    for m in ("sp", "mse"):
        assert _run(tmp_path, "a.cfg", _GRID, "evaluate", "--loss", m) == 0
    path = run / f"results_{mode}.csv"
    path.write_text(path.read_text().replace(f"{mode},{mode},15,1,", f"{mode},{mode},15,1,abc,", 1))
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 1
    assert f"{path}: line 5: 10 fields, expected 9" in err and "Traceback" not in err
    assert calls == [] and not (run / "compare.csv").exists()


def test_cli_compare_with_current_results_still_needs_both_codecs(tmp_path, capsys, monkeypatch, trained_run):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    for mode in ("sp", "mse"):
        assert _run(tmp_path, "a.cfg", _GRID, "evaluate", "--loss", mode) == 0
    (run / "codec_mse.ckpt").unlink()
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 1
    assert "codec_mse.ckpt" in err and "run train --loss mse" in err
    assert calls == [] and not (run / "compare.csv").exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("classifier.lr = inf", "classifier.lr"),
        ("classifier.lr = 0", "classifier.lr"),
        ("train.lr = nan", "train.lr"),
        ("train.lr = -0.001", "train.lr"),
        ("train.temp_start = -inf", "train.temp_start"),
        ("train.temp_end = -5", "train.temp_end"),
        ("train.temp_end = 0", "train.temp_end"),
        ("dataset.height = 30", "dataset.height"),
        ("dataset.height = 4", "dataset.height"),
        ("dataset.height = 8", "dataset.height"),
        ("dataset.width = 0", "dataset.width"),
        ("dataset.width = -32", "dataset.width"),
        ("classifier.lr = 1e300", "classifier.lr"),
        ("dataset.train_count = 5", "dataset.train_count"),
        ("dataset.test_count = 9", "dataset.test_count"),
        ("classifier.epochs = 0", "classifier.epochs"),
        ("classifier.batch = 0", "classifier.batch"),
        ("train.epochs = 0", "train.epochs"),
        ("train.patience = -3", "train.patience"),
        ("train.lambda_rate = nan", "train.lambda_rate"),
        ("train.lambda_rate = inf", "train.lambda_rate"),
        ("train.lambda_rate = -0.5", "train.lambda_rate"),
        ("train.lambda_rate = 1e39", "train.lambda_rate"),
        ("eval.seeds = 11,11", "eval.seeds"),
        ("eval.snr_grid = 0,-0", "eval.snr_grid"),
        # one cell in a results CSV, which records 6 significant digits
        ("eval.snr_grid = 5,5.0000001", "eval.snr_grid"),
    ],
)
def test_cli_refuses_config_values_the_stages_cannot_use(tmp_path, capsys, line, key):
    for argv in (["pretrain-classifier"], ["train", "--loss", "mse"]):
        assert _run(tmp_path, "a.cfg", _SMALL + line + "\n", *argv) == 1
        err = capsys.readouterr().err
        assert f"line 7: bad value for {key}: must be" in err and "Traceback" not in err, err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["pretrain-classifier", "extract-weights", "train", "evaluate", "compare", "plot"])
def test_cli_has_no_seed_or_snr_option(command, capsys):
    """Seeds and the SNR grid are config keys only."""
    argv = [command, "--config", "exp.cfg", "--out", "run"] + (["--loss", "mse"] if command in ("train", "evaluate") else [])
    for flag in ("--seed", "--snr"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + [flag, "3"])


@pytest.mark.parametrize(
    "line, key",
    [
        ("eval.snr_grid =", "eval.snr_grid"),
        ("eval.seeds = ,", "eval.seeds"),
        ("eval.snr_grid = 0,nan", "eval.snr_grid"),
        ("eval.snr_grid = inf", "eval.snr_grid"),
        ("train.snr_low = -inf", "train.snr_low"),
    ],
)
def test_cli_refuses_empty_eval_lists_and_non_finite_snr(tmp_path, capsys, line, key):
    assert _run(tmp_path, "a.cfg", _SMALL + line + "\n", "evaluate", "--loss", "mse") == 1
    err = capsys.readouterr().err
    assert "line 7" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "run" / "results_mse.csv").exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("eval.snr_grid = 0,5000", "eval.snr_grid"),
        ("eval.snr_grid = -101", "eval.snr_grid"),
        ("train.snr_low = -4000", "train.snr_low"),
        ("train.snr_high = 1e300", "train.snr_high"),
        ("eval.seeds = -1", "eval.seeds"),
        ("dataset.seed = -3", "dataset.seed"),
    ],
)
def test_cli_refuses_snr_beyond_100_db_and_negative_seeds(tmp_path, capsys, line, key):
    assert _run(tmp_path, "a.cfg", _SMALL + line + "\n", "evaluate", "--loss", "mse") == 1
    err = capsys.readouterr().err
    assert "line 7" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_refuses_an_snr_range_that_is_upside_down(tmp_path, capsys):
    assert _run(tmp_path, "a.cfg", _SMALL + "train.snr_low = 30\n", "train", "--loss", "mse") == 1
    err = capsys.readouterr().err
    assert "train.snr_low 30 is above train.snr_high 20" in err and "Traceback" not in err
    # -0 is 0, not a high end below a low end of 0
    assert _run(tmp_path, "a.cfg", _SMALL + "train.snr_low = 0\ntrain.snr_high = -0.0\n", "train", "--loss", "mse") == 0


def test_cli_train_refuses_zero_selective_channels(tmp_path, capsys):
    for key, value, bound in [
        ("codec.f_s", 0, "must be >= 1"),
        ("train.batch", 0, "must be >= 1"),
        ("codec.width", 1, "must be >= 2"),
        ("codec.width", 0, "must be >= 2"),
        ("codec.f_n", -1, "must be >= 0"),
    ]:
        assert _run(tmp_path, "a.cfg", _SMALL + f"{key} = {value}\n", "train", "--loss", "mse") == 1, key
        err = capsys.readouterr().err
        assert f"bad value for {key}: {bound}, got {value}" in err and "Traceback" not in err, err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "build, kwargs, message",
    [
        (CodecConfig, {"f_s": 0}, "f_s must be >= 1, got 0"),
        (CodecConfig, {"f_n": -1}, "f_n must be >= 0, got -1"),
        (CodecConfig, {"width_es": 1}, "width_es must be >= 2"),
        (CodecConfig, {"width_es": 0}, "width_es must be >= 2"),
        (TrainConfig, {"batch_size": 0}, "batch_size must be >= 1, got 0"),
        (TrainConfig, {"epochs": 0}, "epochs must be >= 1, got 0"),
        (TrainConfig, {"lambda_rate": -0.5}, "lambda_rate must be >= 0, got -0.5"),
    ],
)
def test_codec_and_train_dataclasses_refuse_what_the_config_refuses(build, kwargs, message):
    """Code that builds them directly, not from a config file, meets the same bounds."""
    with pytest.raises(ValueError, match=re.escape(message)):
        build(**kwargs)


@pytest.mark.parametrize(
    "last_row, reason",
    [
        ("mse,mse,10", "3 fields, expected 9"),
        ("mse,mse,10,1,0.5,abc,0.5,20.0,0.5", "bad acc"),
        ("x,x,10,1,0.5,0.5,0.5,20.0,0.5", "loss_mode 'x' is not sp or mse"),
    ],
)
def test_cli_plot_names_the_file_and_line_of_a_damaged_results_csv(tmp_path, capsys, last_row, reason):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(_SMALL, encoding="utf-8")
    results = tmp_path / "run" / "results_mse.csv"
    results.parent.mkdir()
    results.write_text(
        f"# config_hash={load_config(cfg).config_hash()}\n"
        "run_id,loss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim\n"
        "mse,mse,5,1,0.5,0.5,0.5,20.0,0.5\n"
        f"{last_row}\n"
    )
    assert main(["plot", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"{results}: line 4: {reason}" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "plots").exists()


def test_cli_plot_refuses_an_empty_results_csv_as_damaged_not_stale(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(_SMALL, encoding="utf-8")
    compare = tmp_path / "run" / "compare.csv"
    compare.parent.mkdir()
    compare.write_text("")
    assert main(["plot", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"{compare}: empty results file" in err and "config_hash" not in err and "Traceback" not in err
