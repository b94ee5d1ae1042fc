"""The four benchmark workloads: set-up, one timed operation, correctness checks.

Every input comes from the workload seed through the program's own
generators (`dataio.generate_shapes` and the seeded model inits); nothing is
downloaded. Each workload loads a different set of modules, so an
optimisation of one layer shows on the workload that stresses it and leaves
the others flat:

- codec-train: `training.train_jscc` in sp mode. Backward-heavy; never runs
  the classifier forward, saliency or metrics inside the timed call.
- classifier: `classifier.pretrain_classifier` then
  `saliency.compute_weight_maps` on the same images. Mean-pool shapes, and
  weight maps that are input-only backward passes, C per batch.
- evaluate: `metrics.evaluate` over an SNR grid and several noise seeds.
  Forward only: no `Tape.backward`, no Adam.
- pipeline: every CLI stage into a fresh --out, then a warm rerun of the
  stages that should only read. The only workload where the harness and the
  dataio caches do measurable work.

Calls go through module attributes (`training.train_jscc(...)`), never
names bound at import, so the traced run's probes see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spjscc import classifier, dataio, metrics, saliency, training
from spjscc.harness import cli, load_config

SIZE = 32  # image height and width, the size the paper and the ROADMAP baselines use
UNIT_NORM_TOL = 1e-4
ORACLE_TOL = 1e-5


@dataclass
class OpResult:
    items: int  # images (or image cells) the operation processed
    failures: list[str] = field(default_factory=list)


class Workload:
    """setup(seed) -> state; op(state, tracer) -> OpResult is timed; the other hooks are not.

    `work_root` is a directory inside the checkout for files an operation writes.
    """

    name = ""

    def __init__(self, work_root: Path):
        self.work_root = Path(work_root)

    def reset(self, st):
        """Runs before every operation."""

    def final_checks(self, st) -> list[tuple[str, str | None]]:
        """(check name, error or None) for checks run once per run."""
        return []

    def teardown(self, st):
        """Runs once, after the last operation."""


class CodecTrain(Workload):
    name = "codec-train"
    images = 71  # 64 training images in two batches of 32, and 7 held out for validation

    def setup(self, seed):
        data = dataio.generate_shapes(seed, self.images, SIZE, SIZE)
        clf = classifier.init_classifier(data.class_count, (SIZE, SIZE), seed=seed + 1)
        maps, fallback = saliency.compute_weight_maps(clf, data.images)
        cache = saliency.WeightCache(
            maps=maps, fallback=fallback, dataset_id=data.dataset_id, classifier_hash=clf.theta_hash()
        )
        config = training.TrainConfig(loss_mode="sp", epochs=1, batch_size=32, seed=seed)
        return SimpleNamespace(data=data, clf=clf, cache=cache, theta=clf.theta_hash(), config=config, losses=[])

    def op(self, st, tracer):
        _, _, log = training.train_jscc(st.config, st.data, st.cache, st.clf)
        cfg = st.config
        n_train = len(st.data) - max(1, round(len(st.data) * cfg.val_fraction))
        steps = math.ceil(n_train / cfg.batch_size) * cfg.epochs
        res = OpResult(items=n_train * cfg.epochs)
        if len(log.rows) != steps:
            res.failures.append(f"training log has {len(log.rows)} rows for {steps} steps")
        if not np.isfinite([r[2:4] for r in log.rows]).all():
            res.failures.append("non-finite loss in the training log")
        if st.clf.theta_hash() != st.theta:
            res.failures.append("frozen classifier parameters changed")
        if log.rows:
            loss = log.epoch_mean_loss(log.last_epoch())
            if st.losses and loss != st.losses[0]:
                res.failures.append(f"loss {loss!r} differs from the first operation's {st.losses[0]!r}")
            st.losses.append(loss)
        return res

    def result_loss(self, st):
        return float(np.median(st.losses)) if st.losses else math.nan


class Classifier(Workload):
    name = "classifier"
    images = 64  # two pretraining batches of 32; one weight-map batch of 64
    oracle_images = 4

    def setup(self, seed):
        data = dataio.generate_shapes(seed, self.images, SIZE, SIZE)
        config = classifier.TrainClassifierConfig(epochs=1, batch=32, seed=seed + 1)
        return SimpleNamespace(data=data, config=config, seed=seed, model=None, maps=None)

    def op(self, st, tracer):
        model = classifier.pretrain_classifier(st.data, st.config)
        maps, _ = saliency.compute_weight_maps(model, st.data.images)
        res = OpResult(items=len(st.data) * st.config.epochs + len(maps))
        flat = maps.reshape(len(maps), -1).astype(np.float64)
        if not np.isfinite(flat).all() or flat.min() < 0:
            res.failures.append("weight map has negative or non-finite entries")
        dev = float(np.abs(np.sqrt((flat * flat).sum(axis=1)) - 1.0).max())
        if dev > UNIT_NORM_TOL:
            res.failures.append(f"weight map norm deviates from 1 by {dev:.2e}")
        st.model, st.maps = model, maps
        return res

    def final_checks(self, st):
        """One sampled batch against the per-class oracle `saliency.class_gradient`."""
        if st.model is None:
            return [("oracle", "no operation produced a model")]
        rng = np.random.default_rng(st.seed)
        idx = np.sort(rng.choice(len(st.data), self.oracle_images, replace=False))
        worst = 0.0
        for i in idx:
            img = st.data.images[i]
            mean = np.mean([saliency.class_gradient(st.model, img, c) for c in range(st.model.class_count)], axis=0)
            expect, _ = saliency.normalize_weights(mean)
            worst = max(worst, float(np.abs(expect - st.maps[i]).max()))
        err = None if worst <= ORACLE_TOL else f"weight maps differ from the class_gradient oracle by {worst:.2e}"
        return [("oracle", err)]

    def result_loss(self, st):
        """Cross-entropy of the pretrained classifier on its training images."""
        if st.model is None:
            return math.nan
        logits = classifier.perceive(st.model, st.data.images).logits.astype(np.float64)
        m = logits.max(axis=1)
        lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        return float(np.mean(lse - logits[np.arange(len(logits)), st.data.labels]))


class Evaluate(Workload):
    name = "evaluate"
    train_images = 71
    test_images = 32
    snr_grid = (0.0, 10.0, 20.0)
    noise_seeds = 3

    def setup(self, seed):
        train = dataio.generate_shapes(seed, self.train_images, SIZE, SIZE)
        test = dataio.generate_shapes(seed + 1, self.test_images, SIZE, SIZE, split="test")
        clf = classifier.pretrain_classifier(train, classifier.TrainClassifierConfig(epochs=1, batch=32, seed=seed + 2))
        enc, dec, _ = training.train_jscc(
            training.TrainConfig(loss_mode="mse", epochs=1, batch_size=32, seed=seed + 3), train, None, None
        )
        seeds = [10 * seed + k for k in range(1, self.noise_seeds + 1)]
        return SimpleNamespace(test=test, clf=clf, enc=enc, dec=dec, seeds=seeds, seed=seed, reports=None)

    def op(self, st, tracer):
        reports = metrics.evaluate(st.enc, st.dec, st.clf, st.test, list(self.snr_grid), st.seeds)
        cells = len(self.snr_grid) * len(st.seeds)
        res = OpResult(items=len(st.test) * cells)
        if len(reports) != cells:
            res.failures.append(f"{len(reports)} reports for {cells} cells")
        for r in reports:
            if not 0.25 <= r.cpp <= 0.50:
                res.failures.append(f"cpp {r.cpp} outside [0.25, 0.50] at {r.snr_db} dB")
            if not np.isfinite([r.acc, r.f1, r.psnr_db, r.ssim]).all():
                res.failures.append(f"non-finite metric at {r.snr_db} dB seed {r.seed}")
        st.reports = reports
        return res

    def final_checks(self, st):
        """One (SNR, seed) cell re-run alone must equal the same cell of the grid run."""
        if st.reports is None:
            return [("single-cell", "no operation produced reports")]
        rng = np.random.default_rng(st.seed)
        cell = st.reports[int(rng.integers(len(st.reports)))]
        (alone,) = metrics.evaluate(st.enc, st.dec, st.clf, st.test, [cell.snr_db], [cell.seed])
        err = None if alone == cell else f"cell ({cell.snr_db} dB, seed {cell.seed}) re-run alone gives {alone}, grid gave {cell}"
        return [("single-cell", err)]

    def result_loss(self, st):
        """Mean squared reconstruction error over every grid cell."""
        if st.reports is None:
            return math.nan
        return float(np.mean([10.0 ** (-r.psnr_db / 10.0) for r in st.reports]))


def _digest(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and their total size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(data)
        total += len(data)
    return h.hexdigest(), total


class Pipeline(Workload):
    name = "pipeline"
    cold = (
        ("pretrain-classifier", ["pretrain-classifier"]),
        ("extract-weights", ["extract-weights"]),
        ("train-sp", ["train", "--loss", "sp"]),
        ("train-mse", ["train", "--loss", "mse"]),
        ("evaluate-sp", ["evaluate", "--loss", "sp"]),
        ("evaluate-mse", ["evaluate", "--loss", "mse"]),
        ("compare", ["compare"]),
        ("plot", ["plot"]),
    )
    warm = (("extract-weights", ["extract-weights"]), ("plot", ["plot"]))

    def __init__(self, work_root: Path):
        super().__init__(work_root)
        self.work = self.work_root / f"pipeline-{os.getpid()}"

    def setup(self, seed):
        self.work.mkdir(parents=True, exist_ok=True)  # the directory is this process's own
        config = self.work / "exp.cfg"
        config.write_text(
            f"dataset.seed = {seed}\n"
            "dataset.train_count = 32\n"
            "dataset.test_count = 16\n"
            "classifier.epochs = 1\n"
            f"classifier.seed = {seed + 1}\n"
            "train.epochs = 1\n"
            f"train.seed = {seed + 2}\n"
            "eval.snr_grid = 0,10\n"
            f"eval.seeds = {10 * seed + 1},{10 * seed + 2}\n"
        )
        cfg = load_config(config)
        return SimpleNamespace(config=config, out=self.work / "out", images=cfg["dataset.train_count"], digest=None, trainlog=None)

    def reset(self, st):
        shutil.rmtree(st.out, ignore_errors=True)

    def _stage(self, st, tracer, phase, stage, argv):
        span = tracer.begin(f"harness.cli.{phase}.{stage}") if tracer else None
        if span is not None:
            tracer.start_unit(span)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv + ["--config", str(st.config), "--out", str(st.out)])
        finally:
            if span is not None:
                tracer.end(span)

    def op(self, st, tracer):
        res = OpResult(items=st.images)
        for stage, argv in self.cold:
            if self._stage(st, tracer, "cold", stage, argv) != 0:
                res.failures.append(f"cold stage {stage} returned non-zero")
        cold, total = _digest(st.out)
        for stage, argv in self.warm:
            if self._stage(st, tracer, "warm", stage, argv) != 0:
                res.failures.append(f"warm stage {stage} returned non-zero")
        if _digest(st.out)[0] != cold:
            res.failures.append("warm rerun changed artifact bytes")
        if st.digest is None:
            st.digest = cold
        elif cold != st.digest:
            res.failures.append("cold rerun did not reproduce the artifacts byte for byte")
        if tracer is not None:
            tracer.sample("harness.artifact_bytes", total)
            tracer.sample("dataio.cache_bytes", sum(p.stat().st_size for p in st.out.glob("dataset_*.cache")))
        log = st.out / "trainlog_sp.csv"
        if log.exists():
            st.trainlog = log.read_text()
        return res

    def result_loss(self, st):
        """Last epoch's mean loss in the sp training log of the cold pass."""
        if st.trainlog is None:
            return math.nan
        rows = [line.split(",") for line in st.trainlog.splitlines()[2:] if line]
        last = max(int(r[0]) for r in rows)
        return float(np.mean([float(r[2]) for r in rows if int(r[0]) == last]))

    def teardown(self, st):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (CodecTrain, Classifier, Evaluate, Pipeline)}
