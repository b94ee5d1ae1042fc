"""Config schema, checkpoint format, SVG plots, CLI pipeline."""

import contextlib
import io
import itertools
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from spjscc.classifier import init_classifier
from spjscc.dataio import generate_shapes, load_cache, save_cache
from spjscc.harness.checkpoint import FORMAT_LINE, CheckpointError, StaleArtifactError, load_checkpoint, meta_line, save_checkpoint
from spjscc.harness import cli
from spjscc.harness.cli import build_parser, main
from spjscc.harness.config import SCHEMA, ConfigError, load_config, parse_config
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


def test_config_learning_rates_reach_1():
    cfg = parse_config("classifier.lr = 1\ntrain.lr = 1\n")
    assert (cfg["classifier.lr"], cfg["train.lr"]) == (1.0, 1.0)


def test_readme_config_table_names_exactly_the_schema_keys():
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| section | keys |") + 2  # past the header and its | --- | row
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        section, keys = (cell.strip() for cell in line.strip("|").split("|"))
        section = section.strip("`")
        rows[section] = sorted(f"{section}.{k}" for k in re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", keys)))
    assert rows == {name: sorted(k for k in SCHEMA if k.startswith(name + ".")) for name in {k.split(".")[0] for k in SCHEMA}}


def test_provenance_stable_and_sensitive():
    a = parse_config("train.epochs = 3\neval.seeds = 1,2\n")
    b = parse_config("# differently written\neval.seeds = 1, 2,\ntrain.epochs =   3\n")
    c = parse_config("train.epochs = 4\neval.seeds = 1,2\n")
    for artifact in cli._RECORDED_KEYS:
        assert cli._provenance(a, artifact) == cli._provenance(b, artifact)
    assert cli._provenance(a, "codec_mse.ckpt") != cli._provenance(c, "codec_mse.ckpt")
    assert cli._provenance(a, "classifier.ckpt") == cli._provenance(c, "classifier.ckpt")  # built without train.*


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
    """Another container version is stale, naming both versions; any other first line is damaged."""
    save_checkpoint(_toy_params(), "toy", tmp_path / "m.ckpt")
    blob = (tmp_path / "m.ckpt").read_bytes()
    for other in (b"v2", b"v9", b"v10"):
        (tmp_path / "m.ckpt").write_bytes(blob.replace(FORMAT_LINE.encode(), b"spjscc-checkpoint " + other, 1))
        with pytest.raises(StaleArtifactError, match=rf"m\.ckpt: format version differs \(artifact has {other.decode()}, expected v3\)"):
            load_checkpoint(tmp_path / "m.ckpt")
    for first in (b"spjscc-checkpoint", b"spjscc-checkpoint v03", b"spjscc-checkpoint v3 ", b"PK\x03\x04"):
        (tmp_path / "m.ckpt").write_bytes(blob.replace(FORMAT_LINE.encode(), first, 1))
        with pytest.raises(CheckpointError, match=r"m\.ckpt: format version mismatch") as info:
            load_checkpoint(tmp_path / "m.ckpt")
        assert not isinstance(info.value, StaleArtifactError), first


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
    [(b" 4,3\n", b" 3,4\n"), (b"kind toy", b"kind classifier"), (b"meta note x", b"meta note y")],
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


@pytest.mark.parametrize("dims", [b"4,4", b"4,2", b"4", b"4,3,1000000000000", b"1000000000000,1000000000000"])
def test_checkpoint_dims_that_disagree_with_the_file_length_are_refused_before_allocating(tmp_path, dims):
    """The length check needs no allocation, so even a forged dim of 10**12 is refused by name, not a MemoryError."""
    save_checkpoint(_toy_params(), "toy", tmp_path / "m.ckpt")
    blob = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "m.ckpt").write_bytes(blob.replace(b"tensor layer.w <f4 4,3\n", b"tensor layer.w <f4 " + dims + b"\n", 1))
    with pytest.raises(CheckpointError, match=r"m\.ckpt: tensor bytes (truncated|extended) at byte \d+ \(the dims imply \d+ tensor bytes, got 60\)"):
        load_checkpoint(tmp_path / "m.ckpt")


@pytest.mark.parametrize("dims", [b"4,-3", b"-4,-3", b"4,3.0", b"4,x", b"4,,3", b"4,3 48"])
def test_checkpoint_negative_or_non_integer_dims_are_a_malformed_line(tmp_path, dims):
    save_checkpoint(_toy_params(), "toy", tmp_path / "m.ckpt")
    blob = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "m.ckpt").write_bytes(blob.replace(b"tensor layer.w <f4 4,3\n", b"tensor layer.w <f4 " + dims + b"\n", 1))
    with pytest.raises(CheckpointError, match=r"m\.ckpt: malformed manifest line"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_checkpoint_streams_its_tensors(tmp_path, traced_peak):
    rng = np.random.default_rng(0)
    params = {
        "images": rng.uniform(size=(200, 3, 32, 32)).astype(np.float32),
        "labels": rng.integers(0, 10, size=200),
        "foreground": rng.uniform(size=(200, 32, 32)) < 0.1,
    }
    tensor_bytes = sum(a.nbytes for a in params.values())
    save_peak, _ = traced_peak(lambda: save_checkpoint(params, "toy", tmp_path / "m.ckpt"))
    assert save_peak < 0.1 * tensor_bytes, f"saving a {tensor_bytes}-byte blob peaked at {save_peak} bytes"
    load_peak, (loaded, _, _) = traced_peak(lambda: load_checkpoint(tmp_path / "m.ckpt"))
    assert load_peak <= 1.1 * tensor_bytes, f"loading {tensor_bytes} bytes of tensors peaked at {load_peak} bytes"
    for name, arr in params.items():
        assert loaded[name].tobytes() == arr.tobytes(), name


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


@pytest.mark.parametrize("kind", ["dataset", "weights", "classifier", "codec"])
def test_every_artifact_kind_manifest_holds_only_kind_meta_tensor_and_hash_lines(tmp_path, kind):
    """No line records what dtype and dims already imply: no offset, byte count or total."""
    _artifact(kind, tmp_path / "a")
    first, *manifest = (tmp_path / "a").read_bytes().split(b"\nhash ", 1)[0].decode("utf-8").split("\n")
    assert first == FORMAT_LINE and manifest[0].startswith("kind ")
    for line in manifest[1:]:
        tag, *fields = line.split(" ")
        assert tag == "meta" or (tag == "tensor" and len(fields) == 3), line


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


_META = {"eval.seeds": "[1, 2]", "train.seed": "3"}
_CSV = meta_line(_META) + """
loss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim
sp,0,1,0.5,0.30,0.28,12.0,0.40
sp,0,2,0.5,0.32,0.30,12.2,0.41
sp,5,1,0.5,0.50,0.47,14.0,0.55
sp,10,1,0.5,0.66,0.64,16.0,0.66
sp,15,1,0.5,0.71,0.69,17.0,0.71
sp,20,1,0.5,0.74,0.72,18.0,0.74
mse,0,1,0.5,0.28,0.27,12.1,0.41
mse,5,1,0.5,0.44,0.42,14.1,0.56
mse,10,1,0.5,0.60,0.58,16.1,0.67
mse,15,1,0.5,0.66,0.64,17.1,0.72
mse,20,1,0.5,0.69,0.67,18.1,0.75
"""


def test_plots_structure_two_polylines_five_vertices(tmp_path):
    (tmp_path / "r.csv").write_text(_CSV)
    written = emit_plots(tmp_path / "r.csv", tmp_path / "plots", _META)
    assert sorted(p.name for p in written) == ["acc.svg", "cpp.svg", "f1.svg", "psnr_db.svg", "ssim.svg"]
    svg = (tmp_path / "plots" / "acc.svg").read_text()
    polylines = [l for l in svg.splitlines() if "<polyline" in l]
    assert len(polylines) == 2  # one per loss mode
    for line in polylines:
        points = line.split('points="')[1].split('"')[0].split()
        assert len(points) == 5  # one vertex per SNR
    assert "<!--" not in svg  # the CSV it is drawn from records the provenance
    assert "legend" not in svg  # legend is drawn as line+text pairs
    assert svg.count(">sp</text>") == 1 and svg.count(">mse</text>") == 1


def test_plots_identical_input_identical_bytes(tmp_path):
    (tmp_path / "r.csv").write_text(_CSV)
    emit_plots(tmp_path / "r.csv", tmp_path / "p1", _META)
    emit_plots(tmp_path / "r.csv", tmp_path / "p2", _META)
    for name in ("acc.svg", "psnr_db.svg", "cpp.svg"):
        assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()


def test_plots_missing_column_named(tmp_path):
    bad = _CSV.replace("psnr_db", "psnr")
    (tmp_path / "r.csv").write_text(bad)
    with pytest.raises(PlotError, match="psnr_db"):
        emit_plots(tmp_path / "r.csv", tmp_path / "plots", _META)


def test_results_csv_round_trip_and_provenance_check(tmp_path):
    report = EvalReport(run_id="sp", snr_db=-5.0, seed=3, cpp=0.5, acc=0.25, f1=0.2, psnr_db=12.5, ssim=0.3)
    path = tmp_path / "r.csv"
    write_results_csv(path, [report], {**_META, "dataset.path": "données"})
    assert path.read_text(encoding="ascii").splitlines()[0] == '# {"dataset.path": "donn\\u00e9es", "eval.seeds": "[1, 2]", "train.seed": "3"}'
    assert read_results_csv(path, _META) == [report]
    with pytest.raises(StaleArtifactError, match=re.escape("r.csv: eval.seeds differs (artifact has '[1, 2]', expected '[1, 3]')")):
        read_results_csv(path, {**_META, "eval.seeds": "[1, 3]"})
    # a first line that holds no JSON object, such as a whole-config hash, records nothing: stale, naming the first key
    for first in ("# config_hash=abc", '# ["eval.seeds"]', "# {", "# " + "[" * 100_000):
        path.write_text("\n".join([first, *path.read_text().splitlines()[1:]]) + "\n")
        with pytest.raises(StaleArtifactError, match=re.escape("r.csv: eval.seeds differs (artifact has None, expected '[1, 2]')")):
            read_results_csv(path, _META)


def test_plots_empty_csv_rejected(tmp_path):
    (tmp_path / "r.csv").write_text(meta_line(_META) + "\n")
    with pytest.raises(PlotError, match="empty"):
        read_results_csv(tmp_path / "r.csv")
    # damaged before stale: an empty file records nothing, and is refused as empty
    (tmp_path / "r0.csv").write_text("")
    with pytest.raises(PlotError, match=r"r0\.csv: empty results file"):
        read_results_csv(tmp_path / "r0.csv", _META)
    (tmp_path / "r2.csv").write_text(meta_line(_META) + "\nloss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim\n")
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


@pytest.mark.parametrize(
    "before, argv, missing, rerun",
    [
        ([], ["extract-weights"], "classifier.ckpt", "pretrain-classifier"),
        ([], ["train", "--loss", "sp"], "weights.cache", "extract-weights"),
        (["pretrain-classifier"], ["evaluate", "--loss", "sp"], "codec_sp.ckpt", "train --loss sp"),
        (["pretrain-classifier"], ["evaluate", "--loss", "mse"], "codec_mse.ckpt", "train --loss mse"),
    ],
)
def test_cli_refuses_a_missing_artifact_naming_the_stage_that_writes_it(tmp_path, capsys, before, argv, missing, rerun):
    if before:
        assert _run(tmp_path, "a.cfg", _SMALL, *before) == 0
    capsys.readouterr()
    assert _run(tmp_path, "a.cfg", _SMALL, *argv) == 1
    err = capsys.readouterr().err
    assert f"missing {tmp_path / 'run' / missing}; run {rerun} first" in err and "Traceback" not in err, err


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
        ["evaluate", "--loss", "sp", "--config", cfg, "--out", out],
        ["evaluate", "--loss", "mse", "--config", cfg, "--out", out],
        ["compare", "--config", cfg, "--out", out],
    ):
        assert main(cmd) == 0, f"{cmd} failed: {capsys.readouterr().err}"

    compare = tmp_path / "run" / "compare.csv"
    assert compare.exists()
    rows = read_results_csv(compare)
    assert len(rows) == 8  # 2 modes x 2 snr x 2 seeds
    assert {r.run_id for r in rows} == {"sp", "mse"}
    for name in ("acc.svg", "f1.svg", "psnr_db.svg", "ssim.svg", "cpp.svg"):
        assert (tmp_path / "run" / "plots" / name).exists()

    # evaluating again reproduces the results compare read, byte for byte
    results = {mode: (tmp_path / "run" / f"results_{mode}.csv").read_bytes() for mode in ("sp", "mse")}
    for mode in ("sp", "mse"):
        assert main(["evaluate", "--loss", mode, "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "run" / f"results_{mode}.csv").read_bytes() == results[mode]
    # a rerun of compare reads those results and rewrites compare.csv byte for byte
    first = compare.read_bytes()
    capsys.readouterr()
    assert main(["compare", "--config", cfg, "--out", out]) == 0
    assert compare.read_bytes() == first

    # stage idempotence: re-running pretrain reproduces the checkpoint bytes
    ckpt = (tmp_path / "run" / "classifier.ckpt").read_bytes()
    assert main(["pretrain-classifier", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "run" / "classifier.ckpt").read_bytes() == ckpt

    # a run writes exactly the files `_RECORDED_KEYS` names, beside the plots; a new artifact cannot ship without its keys
    run = tmp_path / "run"
    assert {p.name for p in run.iterdir()} == set(cli._RECORDED_KEYS) | {"plots"}
    # every CSV's first line records exactly the config values it was built from
    for name in cli._RECORDED_KEYS:
        if name.endswith(".csv"):
            assert (run / name).read_text().splitlines()[0] == meta_line(cli._provenance(load_config(cfg), name)), name

    # plot re-renders compare's SVGs byte for byte, and refuses results written under another config
    plots = tmp_path / "run" / "plots"
    svgs = {p.name: p.read_bytes() for p in plots.iterdir()}
    assert main(["plot", "--config", cfg, "--out", out]) == 0
    assert {p.name: p.read_bytes() for p in plots.iterdir()} == svgs
    other = tmp_path / "other.cfg"
    other.write_text(_with(TINY_CFG, "eval.seeds = 1,2,3"))
    capsys.readouterr()
    assert main(["plot", "--config", str(other), "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"{compare}: eval.seeds differs (artifact has '[1, 2]', expected '[1, 2, 3]'); run compare" in err, err

    # without compare.csv, plot falls back to results_sp.csv and names the stage that writes it
    compare.unlink()
    assert main(["plot", "--config", str(other), "--out", out]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "run" / "results_sp.csv") in err and "run evaluate --loss sp" in err


def _run(tmp_path, name, text, *argv):
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    return main([*argv, "--config", str(cfg), "--out", str(tmp_path / "run")])


def _with(base, line):
    """Config text `base` with `line` in place of the line that sets the same key, or appended if none does."""
    pattern = rf"^{re.escape(line.split(' =')[0])} =.*$"
    if re.search(pattern, base, flags=re.M):
        return re.sub(pattern, lambda _: line, base, flags=re.M)
    return base + line + "\n"


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


def _with_first_line(path, first):
    """Rewrites the container at `path` with `first` in place of its format line; returns the bytes written."""
    blob = first + path.read_bytes().removeprefix(FORMAT_LINE.encode())
    path.write_bytes(blob)
    return blob


def test_cli_extract_weights_rebuilds_caches_of_an_older_container_version(tmp_path, capsys):
    for argv in (["pretrain-classifier"], ["extract-weights"]):
        assert _run(tmp_path, "a.cfg", _SMALL, *argv) == 0, capsys.readouterr().err
    run = tmp_path / "run"
    current = {name: (run / name).read_bytes() for name in ("dataset_train.cache", "weights.cache")}
    for name in current:
        _with_first_line(run / name, b"spjscc-checkpoint v2")
    capsys.readouterr()
    assert _run(tmp_path, "a.cfg", _SMALL, "extract-weights") == 0, capsys.readouterr().err
    assert capsys.readouterr().out == f"wrote {run / 'weights.cache'} (20 maps, 0 uniform fallbacks)\n"
    assert {name: (run / name).read_bytes() for name in current} == current


def test_cli_names_the_stage_to_rerun_for_a_classifier_of_an_older_container_version(tmp_path, capsys):
    assert _run(tmp_path, "a.cfg", _SMALL, "pretrain-classifier") == 0
    path = tmp_path / "run" / "classifier.ckpt"
    blob = _with_first_line(path, b"spjscc-checkpoint v2")
    capsys.readouterr()
    assert _run(tmp_path, "a.cfg", _SMALL, "extract-weights") == 1
    err = capsys.readouterr().err
    assert f"{path}: format version differs (artifact has v2, expected v3); run pretrain-classifier" in err, err
    assert "Traceback" not in err and path.read_bytes() == blob
    assert not (tmp_path / "run" / "weights.cache").exists()


@pytest.mark.parametrize("name", ["dataset_train.cache", "weights.cache"])
def test_cli_a_cache_whose_first_line_is_no_format_line_is_damaged_not_rebuilt(tmp_path, capsys, name):
    for argv in (["pretrain-classifier"], ["extract-weights"]):
        assert _run(tmp_path, "a.cfg", _SMALL, *argv) == 0, capsys.readouterr().err
    path = tmp_path / "run" / name
    blob = _with_first_line(path, b"spjscc-checkpoint 2")
    capsys.readouterr()
    assert _run(tmp_path, "a.cfg", _SMALL, "extract-weights") == 1
    err = capsys.readouterr().err
    assert f"{path}: format version mismatch" in err and "Traceback" not in err, err
    assert path.read_bytes() == blob


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
    cfg = f"dataset.path = {root}\nclassifier.epochs = 1\ntrain.epochs = 1\neval.snr_grid = 5\neval.seeds = 1\n"
    assert _run(tmp_path, "a.cfg", cfg, "extract-weights") == 1  # caches written, classifier missing
    meta = load_checkpoint(tmp_path / "run" / "dataset_train.cache")[2]
    assert meta["dataset.path"] == str(root)

    def no_reload(*args, **kwargs):
        raise AssertionError("cached dataset was rebuilt")

    monkeypatch.setattr("spjscc.harness.cli.load_cifar10", no_reload)
    capsys.readouterr()
    assert _run(tmp_path, "a.cfg", cfg, "extract-weights") == 1
    assert "pretrain-classifier" in capsys.readouterr().err
    # the 32x32 CIFAR-10 images run every stage, sized by the config's defaults
    monkeypatch.undo()  # evaluate reads the test batch
    for argv in (["pretrain-classifier"], ["train", "--loss", "mse"], ["evaluate", "--loss", "mse"]):
        assert _run(tmp_path, "a.cfg", cfg, *argv) == 0, capsys.readouterr().err


_SHAPES_ONLY_LINES = ("dataset.seed = 8", "dataset.train_count = 20", "dataset.test_count = 20", "dataset.height = 64", "dataset.width = 64")


@pytest.mark.parametrize("line", _SHAPES_ONLY_LINES, ids=[line.split(" =")[0] for line in _SHAPES_ONLY_LINES])
def test_cli_refuses_a_key_only_the_shapes_read_beside_a_dataset_path(tmp_path, capsys, line):
    """Beside CIFAR-10 batches such a key would be recorded and never read: refused before --out is made."""
    root = tmp_path / "cifar"
    _cifar_batches(root)
    key = line.split(" =")[0]
    assert _run(tmp_path, "a.cfg", f"classifier.epochs = 1\n{line}\ndataset.path = {root}\n", "pretrain-classifier") == 1
    err = capsys.readouterr().err
    assert f"line 2: {key} is read only by the synthetic shapes, not beside dataset.path" in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def _not_a_directory(tmp_path):
    (tmp_path / "batches").write_bytes(b"")
    return tmp_path / "batches", ["pretrain-classifier"], "is not a directory of CIFAR-10 binary batches"


def _an_empty_directory(tmp_path):
    (tmp_path / "batches").mkdir()
    return tmp_path / "batches", ["pretrain-classifier"], "holds no data_batch_*.bin"


def _train_batches_only(tmp_path):
    _cifar_batches(tmp_path / "batches")
    (tmp_path / "batches" / "test_batch.bin").unlink()
    return tmp_path / "batches", ["evaluate", "--loss", "mse"], "holds no test_batch.bin"


@pytest.mark.parametrize("make_path", [_not_a_directory, _an_empty_directory, _train_batches_only])
def test_cli_a_dataset_path_without_the_batches_a_stage_reads_names_the_key(tmp_path, capsys, make_path):
    root, argv, reason = make_path(tmp_path)
    assert _run(tmp_path, "a.cfg", f"dataset.path = {root}\n", *argv) == 1
    err = capsys.readouterr().err
    assert f"dataset.path {root} {reason}" in err and "Traceback" not in err, err


@pytest.mark.parametrize("split, argv", [("train", ["pretrain-classifier"]), ("test", ["evaluate", "--loss", "sp"])])
def test_cli_an_image_count_that_cannot_be_allocated_names_the_key(tmp_path, capsys, split, argv):
    """10**12 images are 10.9 PiB of pixels, more than a process can map: the first allocation fails, touching nothing."""
    assert _run(tmp_path, "a.cfg", f"dataset.{split}_count = {10**12}\n", *argv) == 1
    err = capsys.readouterr().err
    assert f"dataset.{split}_count 1000000000000 images" in err and "dataset.height" in err and "Traceback" not in err, err
    assert list((tmp_path / "run").iterdir()) == []


def test_every_dataset_key_a_cache_records_changes_the_split_built(tmp_path):
    """A recorded key that the source never reads would make a stage rebuild, or refuse, an artifact that is still current."""
    _cifar_batches(tmp_path / "cifar")
    # a value other than its default for each key a dataset cache may record
    changed = {
        "dataset.path": str(tmp_path / "cifar"),
        "dataset.seed": "8",
        "dataset.train_count": "10",
        "dataset.test_count": "10",
        "dataset.height": "16",
        "dataset.width": "16",
    }
    for split in ("train", "test"):
        default = cli._build_split(parse_config(""), split)
        for key in cli._RECORDED_KEYS[f"dataset_{split}.cache"]:
            assert key in changed, f"{key} is recorded by dataset_{split}.cache but has no changed value here"
            built = cli._build_split(parse_config(f"{key} = {changed[key]}\n"), split)
            assert (
                built.images.shape != default.images.shape
                or not np.array_equal(built.images, default.images)
                or not np.array_equal(built.labels, default.labels)
            ), f"{split} split built without reading {key}"


_SMALL = "dataset.train_count = 20\ndataset.test_count = 10\nclassifier.epochs = 1\ntrain.epochs = 1\neval.snr_grid = 5\neval.seeds = 1\n"


def test_cli_classifier_built_with_other_classifier_keys_refused(tmp_path, capsys):
    assert _run(tmp_path, "a.cfg", _SMALL, "pretrain-classifier") == 0
    capsys.readouterr()
    assert _run(tmp_path, "b.cfg", _with(_SMALL, "classifier.epochs = 3"), "extract-weights") == 1
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
        for argv in (["extract-weights"], ["evaluate", "--loss", "sp"], ["evaluate", "--loss", "mse"], ["compare"]):
            assert _run(tmp_path, "b.cfg", _with(_SMALL, change), *argv) == 0, (change, capsys.readouterr().err)
        assert {name: (run / name).read_bytes() for name in trained} == trained, change
    rows = read_results_csv(run / "compare.csv")
    assert {(r.run_id, r.snr_db) for r in rows} == {(m, s) for m in ("sp", "mse") for s in (-5.0, 0.0, 10.0)}
    changed = _with(_SMALL, "dataset.test_count = 12")
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
    params, _, meta = load_checkpoint(tmp_path / "run" / "codec_mse.ckpt")
    assert not any(key.startswith("classifier.") for key in meta)
    # the one parameter table: exactly the encoder's and the decoder's names
    assert set(params) == set(init_encoder(CodecConfig(), seed=0).params) | set(init_decoder(CodecConfig(), seed=0).params)


def test_cli_training_stages_read_only_the_train_split(tmp_path, capsys):
    assert _run(tmp_path, "a.cfg", _SMALL, "train", "--loss", "mse") == 0, capsys.readouterr().err
    assert (tmp_path / "run" / "dataset_train.cache").exists()
    assert not (tmp_path / "run" / "dataset_test.cache").exists()


# two SNRs and two seeds, so the order of a results CSV's cells can be checked
_GRID = _with(_with(_SMALL, "eval.snr_grid = 5,15"), "eval.seeds = 1,2")


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


def _evaluated_run(tmp_path, trained_run):
    """A copy of `trained_run` in which `evaluate` wrote both modes' results under `_GRID`."""
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    for mode in ("sp", "mse"):
        assert _run(tmp_path, "a.cfg", _GRID, "evaluate", "--loss", mode) == 0
    return run


def test_cli_compare_reads_only_the_two_results_csvs(tmp_path, capsys, monkeypatch, trained_run):
    """With every other artifact deleted from --out, compare writes what it writes beside them."""
    run = _evaluated_run(tmp_path, trained_run)
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 0 and calls == [], err
    written = _outputs(run, out)
    assert len(written[2]) == 4 and len(written[1]) == 5
    for path in run.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name not in ("results_sp.csv", "results_mse.csv"):
            path.unlink()
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 0 and calls == [], err
    assert _outputs(run, out) == written


@pytest.mark.parametrize("mode", ["sp", "mse"])
def test_cli_compare_refuses_a_missing_results_csv_naming_the_evaluate_that_writes_it(tmp_path, capsys, monkeypatch, trained_run, mode):
    run = _evaluated_run(tmp_path, trained_run)
    path = run / f"results_{mode}.csv"
    path.unlink()
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 1 and calls == []
    assert f"missing {path}; run evaluate --loss {mode} first" in err and "Traceback" not in err, err
    assert not (run / "compare.csv").exists()


_EDGE_VALUES = ("0", "1", "-1", "1e300", "nan", "inf", "-inf", "-0.0", "abc")
# the smallest run the config admits, so that a value the config accepts runs its stage in well under a second
_TINIEST = _with(_SMALL, "dataset.train_count = 10") + "dataset.height = 16\ndataset.width = 16\n"


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
    cfg.write_text(_with(_TINIEST, f"{key} = {value}"), encoding="utf-8")
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
    assert _run(tmp_path, "b.cfg", _with(_GRID, "eval.seeds = 1,3"), "evaluate", "--loss", "sp") == 0
    return "eval.seeds differs (artifact has '[1, 3]', expected '[1, 2]')"


def _sp_results_of_another_test_split(tmp_path):
    """The same cells, written under another dataset.test_count."""
    assert _run(tmp_path, "b.cfg", _with(_GRID, "dataset.test_count = 12"), "evaluate", "--loss", "sp") == 0
    return "dataset.test_count differs (artifact has '12', expected '10')"


@pytest.mark.parametrize("make_sp_results", [_sp_results_under_other_seeds, _sp_results_of_another_test_split])
def test_cli_compare_refuses_results_written_under_another_config(tmp_path, capsys, monkeypatch, trained_run, make_sp_results):
    """A stale results CSV is never re-evaluated: compare exits 1 naming the file, the key, both values and the stage that writes it."""
    run = _evaluated_run(tmp_path, trained_run)
    assert _compare(tmp_path, capsys, monkeypatch, run)[0] == 0
    before = (run / "compare.csv").read_bytes()
    differs = make_sp_results(tmp_path)
    path = run / "results_sp.csv"
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 1 and calls == [] and "Traceback" not in err
    assert f"{path}: {differs}; run evaluate --loss sp" in err, err
    assert (run / "compare.csv").read_bytes() == before


def _holding_mse_rows(path):
    path.write_bytes((path.parent / "results_mse.csv").read_bytes())


def _in_seed_major_order(path):
    head, header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([head, header, rows[0], rows[2], rows[1], rows[3]]) + "\n")


def _cut_at_a_row_boundary(path):
    """What `head -n 4` keeps: the provenance line, the header and two of the four rows."""
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:4]))


def _emptied(path):
    path.write_text("")


@pytest.mark.parametrize("damage", [_holding_mse_rows, _in_seed_major_order, _cut_at_a_row_boundary, _emptied])
def test_cli_compare_refuses_results_that_do_not_hold_this_configs_cells(tmp_path, capsys, monkeypatch, trained_run, damage):
    """A results CSV under this config's provenance, or with none at all, is damaged unless it holds exactly its cells: never re-evaluated."""
    run = _evaluated_run(tmp_path, trained_run)
    path = run / "results_sp.csv"
    damage(path)
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 1
    assert str(path) in err and "Traceback" not in err, err
    assert calls == [] and not (run / "compare.csv").exists()


@pytest.mark.parametrize("mode", ["sp", "mse"])
def test_cli_compare_names_the_file_and_line_of_a_damaged_results_csv(tmp_path, capsys, monkeypatch, trained_run, mode):
    run = _evaluated_run(tmp_path, trained_run)
    path = run / f"results_{mode}.csv"
    path.write_text(path.read_text().replace(f"{mode},15,1,", f"{mode},15,1,abc,", 1))
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 1
    assert f"{path}: line 5: 9 fields, expected 8" in err and "Traceback" not in err
    assert calls == [] and not (run / "compare.csv").exists()


def _with_mse_cpp_moved_by(run, delta):
    """Hand-edit every cpp of `run`'s results_mse.csv by `delta`, keeping its provenance line and its cells; returns the path."""
    path = run / "results_mse.csv"
    head, header, *rows = path.read_text().splitlines()
    col = header.split(",").index("cpp")
    edited = []
    for row in rows:
        fields = row.split(",")
        fields[col] = f"{float(fields[col]) + delta:.9g}"
        edited.append(",".join(fields))
    path.write_text("\n".join([head, header, *edited]) + "\n")
    return path


def test_cli_compare_exits_1_naming_each_snr_where_the_modes_ran_at_different_rates(tmp_path, capsys, monkeypatch, trained_run):
    """Within 0.02 the rates are the same; past it compare keeps the edited file, writes compare.csv and the plots, and exits 1."""
    run = _evaluated_run(tmp_path, trained_run)
    sp_cpp = {r.snr_db: r.cpp for r in read_results_csv(run / "results_sp.csv")}
    _with_mse_cpp_moved_by(run, -0.015)
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 0 and calls == [], err
    path = _with_mse_cpp_moved_by(run, -0.11)
    edited = path.read_bytes()
    rc, out, err, calls = _compare(tmp_path, capsys, monkeypatch, run)
    assert rc == 1 and calls == [] and "Traceback" not in err
    assert path.read_bytes() == edited
    for snr in (5.0, 15.0):
        assert f"{snr:g} dB (sp cpp {sp_cpp[snr]:.4f}, mse cpp {sp_cpp[snr] - 0.125:.4f})" in err, err
    cfg = load_config(tmp_path / "compare.cfg")
    compared = read_results_csv(run / "compare.csv", cli._provenance(cfg, "compare.csv"))
    assert compared[4:] == read_results_csv(path, cli._provenance(cfg, "results_mse.csv"))
    assert len(list((run / "plots").iterdir())) == 5


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
        ("classifier.lr = 1e30", "classifier.lr"),
        ("classifier.lr = 1.0001", "classifier.lr"),
        ("train.lr = 10", "train.lr"),
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


def test_cli_refuses_dataset_kind_as_an_unknown_key_before_writing_anything(tmp_path, capsys):
    """dataset.path alone picks the source: a path means CIFAR-10 batches, none the synthetic shapes."""
    assert _run(tmp_path, "a.cfg", _SMALL + "dataset.kind = cifar10\n", "pretrain-classifier") == 1
    err = capsys.readouterr().err
    assert "line 7: unknown key 'dataset.kind'" in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_cli_refuses_a_key_set_on_two_lines_before_writing_anything(tmp_path, capsys):
    """The last line does not silently win: both lines are named."""
    assert _run(tmp_path, "a.cfg", _SMALL + "train.epochs = 10\n", "train", "--loss", "mse") == 1
    err = capsys.readouterr().err
    assert "line 7: train.epochs is already set on line 4" in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_cli_refuses_a_config_that_is_not_utf8_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_bytes(b"train.epochs = 1 # caf\xe9\n")
    assert main(["train", "--loss", "mse", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xe9" in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_cli_train_refuses_zero_selective_channels(tmp_path, capsys):
    for key, value, bound in [
        ("codec.f_s", 0, "must be >= 1"),
        ("train.batch", 0, "must be >= 1"),
        ("codec.width", 1, "must be >= 2"),
        ("codec.width", 0, "must be >= 2"),
        ("codec.f_n", 0, "must be >= 1"),
    ]:
        assert _run(tmp_path, "a.cfg", _SMALL + f"{key} = {value}\n", "train", "--loss", "mse") == 1, key
        err = capsys.readouterr().err
        assert f"bad value for {key}: {bound}, got {value}" in err and "Traceback" not in err, err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "build, kwargs, message",
    [
        (CodecConfig, {"f_s": 0}, "f_s must be >= 1, got 0"),
        (CodecConfig, {"f_n": 0}, "f_n must be >= 1, got 0"),
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
        ("mse,10", "2 fields, expected 8"),
        ("mse,10,1,0.5,abc,0.5,20.0,0.5", "bad acc"),
        ("x,10,1,0.5,0.5,0.5,20.0,0.5", "loss_mode 'x' is not sp or mse"),
        ("mse,10,1,nan,0.5,0.5,20.0,0.5", "bad cpp: nan is not finite"),
        ("mse,10,1,0.5,0.5,0.5,inf,0.5", "bad psnr_db: inf is not finite"),
    ],
)
def test_cli_plot_names_the_file_and_line_of_a_damaged_results_csv(tmp_path, capsys, last_row, reason):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(_SMALL, encoding="utf-8")
    results = tmp_path / "run" / "results_mse.csv"
    results.parent.mkdir()
    results.write_text(
        f"{meta_line(cli._provenance(load_config(cfg), 'results_mse.csv'))}\n"
        "loss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim\n"
        "mse,5,1,0.5,0.5,0.5,20.0,0.5\n"
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
    assert f"{compare}: empty results file" in err and "differs" not in err and "Traceback" not in err


def test_cli_plot_without_a_results_csv_says_to_run_evaluate(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(_SMALL, encoding="utf-8")
    assert main(["plot", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"no results CSV under {tmp_path / 'run'}; run evaluate first" in err and "Traceback" not in err


def _results_with_header(tmp_path, name, header):
    """`name` under --out with this config's provenance line, `header` and one row of as many fields."""
    cfg = load_config(tmp_path / "a.cfg")
    path = tmp_path / "run" / name
    path.parent.mkdir(exist_ok=True)
    row = ",".join(["sp"] * (header.count(",") - 6) + ["5", "1", "0.5", "0.5", "0.5", "20.0", "0.5"])
    path.write_text(f"{meta_line(cli._provenance(cfg, name))}\n{header}\n{row}\n")
    return path


_RUN_ID_HEADER = "run_id,loss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim"


@pytest.mark.parametrize(
    "stage, name, rerun",
    [("compare", "results_sp.csv", "evaluate --loss sp"), ("plot", "compare.csv", "compare"), ("plot", "results_mse.csv", "evaluate --loss mse")],
)
def test_cli_refuses_a_results_csv_with_the_run_id_header_as_stale_naming_the_stage_to_rerun(tmp_path, capsys, stage, name, rerun):
    """A results CSV written before each file recorded its mode once is stale: both headers and the stage that writes it are named."""
    (tmp_path / "a.cfg").write_text(_SMALL, encoding="utf-8")
    for written in ("results_sp.csv", "results_mse.csv") if stage == "compare" else (name,):
        _results_with_header(tmp_path, written, _RUN_ID_HEADER)
    path = tmp_path / "run" / name
    assert main([stage, "--config", str(tmp_path / "a.cfg"), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    expected = "loss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim"
    assert f"{path}: header differs (artifact has '{_RUN_ID_HEADER}', expected '{expected}'); run {rerun}\n" in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "plots").exists() and (stage == "plot" or not (tmp_path / "run" / "compare.csv").exists())


@pytest.mark.parametrize("stage, name", [("compare", "results_sp.csv"), ("plot", "results_mse.csv")])
@pytest.mark.parametrize(
    "header", ["run_id,loss_mode,snr_db,seed,cpp,acc,f1,psnr_db", "run_id,snr_db,seed,cpp,acc,f1,psnr_db,ssim", "mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim"]
)
def test_cli_refuses_a_results_csv_with_any_other_header_as_damaged(tmp_path, capsys, stage, name, header):
    (tmp_path / "a.cfg").write_text(_SMALL, encoding="utf-8")
    path = _results_with_header(tmp_path, name, header)
    assert main([stage, "--config", str(tmp_path / "a.cfg"), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: line 2: header is not loss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim\n" in err, err
    assert "differs" not in err and "; run" not in err and "Traceback" not in err
