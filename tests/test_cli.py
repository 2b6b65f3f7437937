import ctypes
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import seglab
from seglab import cli, grid, losses, synthdata, train
from seglab.cli import (
    AUDIT_TERM_SETS,
    AUDIT_TRIALS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    main,
    run_audit,
    run_comparison,
    run_experiment,
)
from seglab.errors import ConfigError
from seglab.grid import ClassSet, LabelMap
from seglab.losses import LOSS_IDS, LossConfig, combined_loss
from seglab.net import SegNet, backward, forward, load_checkpoint, save_checkpoint, softmax, softmax_backward
from seglab.optim import OptimizerConfig, default_optimizer_config
from seglab.synthdata import DatasetSpec, Sample, generate

from .oracles import audit_via_maps

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity_artifacts.py"

TINY_DATASET = {
    "kind": "acdc_like",
    "image_size": [48, 48],
    "train": 8,
    "val": 2,
    "test": 2,
    "noise_sigma": 0.03,
    "seed": None,
}


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


def tiny_config(loss="dice", epochs=2, **overrides):
    data = {
        "dataset": dict(TINY_DATASET),
        "loss": {"kind": loss},
        "optimizer": {"kind": "adam"},
        "epochs": epochs,
        "batch_size": 2,
        "seed": 0,
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def count_maps_built(monkeypatch, classes=(grid.LabelMap, grid.ProbabilityMap, grid.GradientMap)) -> list[type]:
    """Patch each map class's __init__ to record the type of every map built."""
    built = []
    for cls in classes:
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def artifact_bytes(run_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}


class TestConfigParsing:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.loss.kind == "dice"
        assert cfg.loss.loss_terms == (("dice", 1.0),)
        assert cfg.optimizer.kind == "adam"
        assert cfg.epochs == 60
        assert cfg.batch_size == 1
        assert cfg.dataset.seed is None
        # each default has one home: the dataclasses and default_optimizer_config
        assert cfg == ExperimentConfig(dataset=DatasetSpec(seed=None), optimizer=default_optimizer_config("adam"))
        assert cfg == config_from_dict({"dataset": {}, "loss": {}, "optimizer": {}})
        assert config_from_dict({"dataset": {"seed": 0}}).dataset == DatasetSpec()
        assert config_from_dict({"optimizer": "sgd"}).optimizer == default_optimizer_config("sgd")
        mime = config_from_dict({"loss": "mime"}).loss
        assert (mime.a, mime.b) == (LossConfig().a, LossConfig().b)

    def test_round_trip(self):
        data = tiny_config(loss="mime", output_dir="runs/x")
        data["loss"]["a"] = 2.5
        cfg = config_from_dict(data)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_to_dict_keeps_json_types(self):
        data = config_to_dict(config_from_dict({}))
        assert type(data["dataset"]["image_size"]) is list and data["dataset"]["image_size"] == [64, 64]
        assert data["dataset"]["seed"] is None
        assert json.loads(json.dumps(data)) == data
        assert config_from_dict(data) == config_from_dict({})

    def test_combined_loss_terms(self):
        cfg = config_from_dict(
            tiny_config() | {"loss": {"kind": "combined", "terms": [["ce", 1.0], ["dice", 0.5]]}}
        )
        assert cfg.loss.loss_terms == (("ce", 1.0), ("dice", 0.5))

    def test_unknown_loss_kind_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"loss": {"kind": "tversky"}})

    def test_combined_needs_terms(self):
        with pytest.raises(ConfigError):
            config_from_dict({"loss": {"kind": "combined"}})

    @pytest.mark.parametrize("kind", LOSS_IDS)
    @pytest.mark.parametrize("terms", [[["ce", 1.0]], []], ids=["one_term", "empty"])
    def test_terms_only_for_combined(self, kind, terms):
        with pytest.raises(ConfigError, match="'terms'"):
            config_from_dict({"loss": {"kind": kind, "terms": terms}})

    @pytest.mark.parametrize("kind", LOSS_IDS)
    def test_a_single_kind_is_its_own_term(self, kind):
        cfg = ExperimentConfig(loss=LossConfig(kind=kind))
        assert cfg.loss.loss_terms == ((kind, 1.0),)
        assert cfg == config_from_dict(config_to_dict(cfg))

    def test_direct_construction_obeys_the_loss_rules(self):
        with pytest.raises(ConfigError, match="'kind'"):
            LossConfig(kind="bogus")
        with pytest.raises(ConfigError, match="'terms'"):
            LossConfig(kind="ce", terms=(("dice", 1.0),))
        with pytest.raises(ConfigError, match="'terms'"):
            LossConfig(kind="combined")
        cfg = LossConfig(kind="combined", terms=(("ce", 1.0), ("dice", 0.5)))
        with pytest.raises(ConfigError, match="'terms'"):
            replace(cfg, kind="dice")

    def test_config_shape_is_the_json_schema(self):
        # one field per top-level key, and each block's keys are fields of its dataclass
        schema = seglab.config
        assert [f.name for f in fields(ExperimentConfig)] == list(schema._CONFIG)
        for converters, block in ((schema._DATASET, DatasetSpec), (schema._LOSS, LossConfig), (schema._OPTIMIZER, OptimizerConfig)):
            assert set(converters) <= {f.name for f in fields(block)}
        # loss blocks as checkpoint headers have embedded them: kind, a and b, and terms as lists
        for embedded in (
            '{"a": 1.9, "b": 0.1, "kind": "dice"}',
            '{"a": 2.5, "b": 0.3, "kind": "mime"}',
            '{"a": 1.9, "b": 0.1, "kind": "combined", "terms": [["ce", 1.0], ["dice", 0.5]]}',
        ):
            loss = json.loads(embedded)
            assert config_to_dict(config_from_dict({"loss": loss}))["loss"] == loss

    def test_combined_round_trip_keeps_terms(self):
        cfg = config_from_dict({"loss": {"kind": "combined", "terms": [["ce", 1.0], ["dice", 0.5]]}})
        assert config_from_dict(config_to_dict(cfg)) == cfg
        assert "terms" not in config_to_dict(config_from_dict({}))["loss"]

    def test_nm_on_binary_dataset_rejected(self):
        data = tiny_config(loss="nm")
        data["dataset"]["kind"] = "promise_like"
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_nm_on_multiclass_dataset_accepted(self):
        cfg = config_from_dict(tiny_config(loss="nm"))
        assert cfg.loss.kind == "nm"

    def test_mime_weights_validated(self):
        data = tiny_config(loss="mime")
        data["loss"]["a"] = -1.9
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_sgd_reference_defaults_applied(self):
        cfg = config_from_dict(tiny_config() | {"optimizer": {"kind": "sgd"}})
        assert cfg.optimizer.eta == 1e-2
        assert cfg.optimizer.momentum == 0.9


class TestRunExperiment:
    def test_zero_epochs_boundary(self, tmp_path):
        cfg = config_from_dict(tiny_config(epochs=0, output_dir=str(tmp_path / "run")))
        result = run_experiment(cfg)
        assert result.log == []
        assert result.best_epoch is None
        curve = (tmp_path / "run" / "val_dsc.csv").read_text().splitlines()
        assert curve == ["epoch,dsc_k1,dsc_k2,dsc_k3,dsc_mean,lr"]
        metrics = json.loads((tmp_path / "run" / "test_metrics.json").read_text())
        assert 0.0 <= metrics["mean_dsc"] <= 1.0
        net, header = load_checkpoint(tmp_path / "run" / "best.ckpt")
        assert header["epoch"] == -1
        assert header["best_val_dsc"] is None
        for k in range(4):
            assert (tmp_path / "run" / f"gradmap_dice_k{k}.pfm").exists()

    def test_zero_epoch_run_holds_one_test_sample_at_a_time(self, tmp_path):
        # A 64x64 sample holds about 37 KB, so a run holding its whole test split
        # peaks about 1.4 MB higher at 40 test samples than at 2.
        def peak(test: int) -> int:
            dataset = {**TINY_DATASET, "image_size": [64, 64], "train": 1, "val": 1, "test": test}
            cfg = config_from_dict(tiny_config(epochs=0, dataset=dataset, output_dir=str(tmp_path / f"run{test}")))
            tracemalloc.start()
            try:
                result = run_experiment(cfg)
                assert result.test_metrics["n_test"] == test
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm-up
        assert peak(40) - peak(2) <= 0.3e6

    def test_curve_and_checkpoint_invariants(self, tmp_path):
        cfg = config_from_dict(tiny_config(epochs=3, output_dir=str(tmp_path / "run")))
        result = run_experiment(cfg)
        lines = (tmp_path / "run" / "val_dsc.csv").read_text().splitlines()
        assert lines[0] == "epoch,dsc_k1,dsc_k2,dsc_k3,dsc_mean,lr"
        assert len(lines) == 1 + 3
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2]
        curve_means = [rec.val_dsc_mean for rec in result.log]
        _, header = load_checkpoint(tmp_path / "run" / "best.ckpt")
        assert header["best_val_dsc"] == max(curve_means)
        assert header["epoch"] == int(np.argmax(curve_means))
        assert header["config"].get("output_dir") is None

    def test_plateau_halves_the_rate_and_keeps_the_best_epoch(self, tmp_path):
        # the plateau config of tools/parity_artifacts.py: no epoch beats epoch 0
        spec = importlib.util.spec_from_file_location("parity_artifacts", PARITY)
        parity = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(parity)
        result = run_experiment(config_from_dict(parity.CONFIGS["plateau"] | {"output_dir": str(tmp_path / "run")}))
        lines = (tmp_path / "run" / "val_dsc.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["1e-06"] * 21 + ["5e-07"] * 3
        _, header = load_checkpoint(tmp_path / "run" / "best.ckpt")
        assert header["epoch"] == result.best_epoch == 0
        assert header["best_val_dsc"] == result.log[0].val_dsc_mean == max(rec.val_dsc_mean for rec in result.log)

    @pytest.mark.parametrize("kind, state_type", [("sgd", "MomentumState"), ("adam", "AdamState")])
    def test_one_optimizer_call_per_step(self, tmp_path, monkeypatch, kind, state_type):
        calls = []

        def counted(theta, grad, cfg, state, _step=getattr(train, f"{kind}_step")):
            calls.append(type(state).__name__)
            return _step(theta, grad, cfg, state)

        monkeypatch.setattr(train, f"{kind}_step", counted)
        data = tiny_config(epochs=1, batch_size=3, optimizer={"kind": kind}, output_dir=str(tmp_path / "run"))
        run_experiment(config_from_dict(data))
        # 8 training samples in batches of 3
        assert calls == [state_type] * 3

    def test_needs_output_dir(self):
        cfg = config_from_dict(tiny_config())
        with pytest.raises(ConfigError):
            run_experiment(cfg)


def hot_path_sample(kind: str, dims: tuple[int, int], seed: int) -> Sample:
    """A generated 64x64 sample, or random image and labels on grids too small to generate."""
    spec = DatasetSpec(kind=kind, image_size=dims, train=1, val=1, test=1, seed=seed)
    if dims == (64, 64):
        return generate(spec)[0][0]
    rng = np.random.default_rng(seed)
    label = LabelMap(rng.integers(0, spec.classes.total, size=dims), spec.classes)
    return Sample(image=rng.random(dims), label=label, id="random")


class TestHotPath:
    """The training engine calls raw kernels; the public map functions wrap the same ones."""

    @pytest.mark.parametrize("terms", [((lid, 1.0),) for lid in LOSS_IDS] + [(("ce", 1.0), ("dice", 1.0))], ids=str)
    @pytest.mark.parametrize("kind", ["acdc_like", "promise_like"])
    @pytest.mark.parametrize("dims", [(64, 64), (5, 9), (1, 7)], ids=str)
    def test_engine_step_equals_public_map_path(self, terms, kind, dims):
        sample = hot_path_sample(kind, dims, seed=len(terms) + dims[1])
        net = SegNet(sample.label.classes, seed=3)
        lcfg = LossConfig(kind="combined", terms=terms)
        value, grad = train._sample_loss_grad(net, sample, lcfg, 0)
        logits, cache = forward(net, sample.image)
        probs = softmax(logits)
        ref_value, grad_s = combined_loss(terms, sample.label, probs, lcfg)
        assert type(value) is float and value == ref_value
        assert np.array_equal(grad, backward(net, cache, softmax_backward(probs, grad_s)))

    def test_training_run_builds_no_map_per_step(self, tmp_path, monkeypatch):
        built = count_maps_built(monkeypatch, (grid.ProbabilityMap, grid.GradientMap))
        run_experiment(config_from_dict(tiny_config(epochs=2, output_dir=str(tmp_path / "run"))))
        # only the gradient-map export after training, one map per term set
        assert [cls.__name__ for cls in built] == ["GradientMap"]

    def test_warm_step_allocates_under_2_5_mb(self):
        # 2.22 MB: the forward cache, the loss path, and backward's gradient grid and window buffers
        sample = hot_path_sample("acdc_like", (64, 64), seed=0)
        net = SegNet(sample.label.classes, seed=0)
        train._sample_loss_grad(net, sample, LossConfig(), 0)
        tracemalloc.start()
        try:
            train._sample_loss_grad(net, sample, LossConfig(), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    @pytest.mark.skipif(not has_mallopt(), reason="the heap setting needs glibc's mallopt")
    def test_warm_forward_keeps_its_memory_mapped(self):
        # 0 faults with the heap setting SegNet applies.  Without it, 128x128 faults
        # about 1,190 times; at 64x64 the count (0 to 442) depends on the heap layout.
        script = (
            "import resource\n"
            "import numpy as np\n"
            "from seglab.grid import ClassSet\n"
            "from seglab.net import SegNet, forward\n"
            "net = SegNet(ClassSet(3), seed=0)\n"
            "image = np.random.default_rng(0).uniform(0, 1, (128, 128))\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    forward(net, image)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = os.environ | {"PYTHONPATH": str(Path(seglab.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
        assert int(done.stdout) < 50


class TestDeterminism:
    def test_train_twice_is_byte_identical(self, tmp_path):
        base = tiny_config(epochs=2)
        cfg_a = config_from_dict(base | {"output_dir": str(tmp_path / "a")})
        cfg_b = config_from_dict(base | {"output_dir": str(tmp_path / "b")})
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        a = artifact_bytes(tmp_path / "a")
        b = artifact_bytes(tmp_path / "b")
        assert set(a) == set(b)
        for name in a:
            assert a[name] == b[name], f"artifact {name} differs between runs"

    def test_augmented_sgd_batch_run_is_byte_identical(self, tmp_path):
        base = tiny_config(
            epochs=2,
            batch_size=4,
            augment=True,
            dataset=TINY_DATASET | {"kind": "promise_like", "image_size": [32, 28]},
            optimizer={"kind": "sgd"},
        ) | {"loss": {"kind": "combined", "terms": [["ce", 1.0], ["dice", 1.0]]}}
        run_experiment(config_from_dict(base | {"output_dir": str(tmp_path / "a")}))
        run_experiment(config_from_dict(base | {"output_dir": str(tmp_path / "b")}))
        a = artifact_bytes(tmp_path / "a")
        b = artifact_bytes(tmp_path / "b")
        assert set(a) == set(b) and "gradmap_combined_k1.pfm" in a
        for name in a:
            assert a[name] == b[name], f"artifact {name} differs between augmented runs"

    def test_parity_artifacts_twice_are_identical(self, tmp_path):
        # every command of tools/parity_artifacts.py, audit, gradmap and compare included
        for out in ("a", "b"):
            subprocess.run([sys.executable, str(PARITY), str(PARITY.parents[1]), str(tmp_path / out)], check=True, capture_output=True)
        trees = [{p.relative_to(tmp_path / out): p.read_bytes() for p in sorted((tmp_path / out).rglob("*")) if p.is_file()} for out in ("a", "b")]
        assert len(trees[0]) > 50 and set(trees[0]) == set(trees[1])
        for name, data in trees[0].items():
            assert data == trees[1][name], f"{name} differs between the two parity runs"

    def test_generate_twice_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "d1")]) == 0
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "d2")]) == 0
        m1 = (tmp_path / "d1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "d2" / "manifest.json").read_bytes()
        assert m1 == m2
        sample_id = json.loads(m1)["splits"]["train"][0]
        img1 = (tmp_path / "d1" / "images" / f"{sample_id}.pgm").read_bytes()
        img2 = (tmp_path / "d2" / "images" / f"{sample_id}.pgm").read_bytes()
        assert img1 == img2


class TestComparison:
    def test_two_loss_table(self, tmp_path):
        cfgs = [
            config_from_dict(tiny_config(loss=loss, epochs=1))
            for loss in ("dice", "ce")
        ]
        table, results = run_comparison(cfgs, tmp_path)
        lines = table.read_text().splitlines()
        assert lines[0] == "loss,optimizer,dsc_k1,dsc_k2,dsc_k3,dsc_mean"
        assert len(lines) == 3
        assert lines[1].startswith("dice,adam,")
        assert lines[2].startswith("ce,adam,")
        single_table, _ = run_comparison([cfgs[0]], tmp_path / "single")
        assert len(single_table.read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "change",
        [{"dataset": TINY_DATASET | {"train": 6}}, {"epochs": 2}, {"batch_size": 1}, {"seed": 1}, {"augment": True}],
        ids=["dataset", "epochs", "batch_size", "seed", "augment"],
    )
    def test_non_comparable_configs_rejected(self, tmp_path, change):
        a = config_from_dict(tiny_config(epochs=1))
        b = config_from_dict(tiny_config(epochs=1) | change)
        with pytest.raises(ConfigError, match="differ only in loss/optimizer"):
            run_comparison([a, b], tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "change",
        [
            {"loss": {"kind": "mime", "a": 2.5, "b": 0.3}},
            {"loss": {"kind": "combined", "terms": [["ce", 1.0], ["dice", 0.5]]}},
            {"optimizer": {"kind": "sgd"}},
            {"output_dir": "elsewhere"},
        ],
        ids=["loss_kind_a_b", "loss_terms", "optimizer", "output_dir"],
    )
    def test_configs_differing_in_loss_optimizer_or_output_dir_are_comparable(self, change):
        a = config_from_dict(tiny_config(epochs=1))
        b = config_from_dict(tiny_config(epochs=1) | change)
        assert a != b
        train._require_comparable([a, b])


class TestCliCommands:
    def test_train_then_gradmap(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(epochs=1, output_dir=str(tmp_path / "run")))
        assert main(["train", "--config", str(cfg_path)]) == 0
        sample_id = "acdc_like-val-0000"
        code = main(
            [
                "gradmap",
                "--checkpoint",
                str(tmp_path / "run" / "best.ckpt"),
                "--sample",
                sample_id,
                "--out",
                str(tmp_path / "maps"),
            ]
        )
        assert code == 0
        per_loss = {p.name for p in (tmp_path / "maps").iterdir()}
        assert {"gradmap_ce_k0.pfm", "gradmap_dice_k0.pfm", "gradmap_mime_k0.pfm", "gradmap_nm_k0.pfm"} <= per_loss
        assert len(per_loss) == 16  # four losses x four class planes

    def test_gradmap_unknown_sample(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(epochs=0, output_dir=str(tmp_path / "run")))
        assert main(["train", "--config", str(cfg_path)]) == 0
        code = main(
            [
                "gradmap",
                "--checkpoint",
                str(tmp_path / "run" / "best.ckpt"),
                "--sample",
                "nope",
                "--out",
                str(tmp_path / "maps"),
            ]
        )
        assert code == 2

    def test_gradmap_draws_only_its_split_up_to_the_sample(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, tiny_config(epochs=0, output_dir=str(tmp_path / "run")))
        assert main(["train", "--config", str(cfg_path)]) == 0
        drawn = []

        def counted(spec, rng, sample_id, _make=synthdata._make_sample):
            drawn.append(sample_id)
            return _make(spec, rng, sample_id)

        monkeypatch.setattr(synthdata, "_make_sample", counted)
        args = ["--checkpoint", str(tmp_path / "run" / "best.ckpt"), "--out", str(tmp_path / "maps")]
        assert main(["gradmap", "--sample", "acdc_like-val-0001", *args]) == 0
        assert drawn == ["acdc_like-val-0000", "acdc_like-val-0001"]
        drawn.clear()
        for bad in ("acdc_like-val-0002", "acdc_like-val-1", "acdc_like-bogus-0000", "promise_like-val-0000", "acdc_like-val-0000-x"):
            assert main(["gradmap", "--sample", bad, *args]) == 2
        assert all(d.startswith("acdc_like-val-") for d in drawn)

    def test_audit_command(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        code = main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "audit")])
        assert code == 0
        report = json.loads((tmp_path / "audit" / "gradaudit.json").read_text())
        assert set(report) == {
            "max_rel_error",
            "distinct_values",
            "bound_violations",
            "dynamic_range_db",
        }
        assert report["max_rel_error"] < 1e-5
        assert report["bound_violations"] == 0
        assert report["distinct_values"] == [2, 2, 2, 2]

    def test_audit_is_deterministic(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "a1")]) == 0
        assert main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "a2")]) == 0
        assert (tmp_path / "a1" / "gradaudit.json").read_bytes() == (
            tmp_path / "a2" / "gradaudit.json"
        ).read_bytes()

    def test_audit_builds_no_map_per_probe(self, tmp_path, monkeypatch):
        built = count_maps_built(monkeypatch)
        _, passed = run_audit(config_from_dict(tiny_config()), tmp_path / "gradaudit.json")
        assert passed
        # 2 * |K| * P probes per instance would be hundreds of maps
        assert len(built) <= 10 * AUDIT_TRIALS * len(AUDIT_TERM_SETS)

    def test_audit_builds_maps_only_for_the_dataset_sample(self, tmp_path, monkeypatch):
        built = count_maps_built(monkeypatch)
        run_audit(config_from_dict(tiny_config()), tmp_path / "gradaudit.json")
        # the sample's label and its dice gradient; the probabilities stay a raw array
        assert len(built) <= 2

    def test_audit_takes_one_loss_call_per_random_instance(self, tmp_path, monkeypatch):
        value_calls = []

        def counted(terms, yv, sv, cfg, grad=True, _combined=cli._combined):
            if not grad:
                value_calls.append(sv.shape)
            return _combined(terms, yv, sv, cfg, grad)

        monkeypatch.setattr(cli, "_combined", counted)
        run_audit(config_from_dict(tiny_config(seed=3)), tmp_path / "gradaudit.json")
        # each instance's probes fit one PROBE_BLOCK stack, so one value-only call each
        assert len(value_calls) == AUDIT_TRIALS * len(AUDIT_TERM_SETS) == 125

    @pytest.mark.parametrize("seed", [0, 3, 17])
    @pytest.mark.parametrize("scale", [1.0, 3.0], ids=["dice", "scaled_dice"])
    def test_audit_matches_the_loop_over_maps(self, tmp_path, monkeypatch, seed, scale):
        # a scaled dice gradient, the negative control, fails both audits alike
        dice = losses._KERNELS["dice"]

        def scaled(yv, sv, cfg, grad=True):
            value, g = dice(yv, sv, cfg, grad)
            return value, (scale * g if grad else None)

        monkeypatch.setitem(losses._KERNELS, "dice", scaled)
        cfg = config_from_dict(tiny_config(seed=seed))
        report, _ = run_audit(cfg, tmp_path / "gradaudit.json")
        max_err, violations = audit_via_maps(cfg)
        assert report.max_rel_error == max_err
        assert report.bound_violations == violations  # the dataset sample adds none
        assert (violations > 0) == (scale > 1.0)

    @pytest.mark.skipif(not has_mallopt(), reason="the heap setting needs glibc's mallopt")
    def test_warm_audit_keeps_its_memory_mapped(self, tmp_path):
        # 3 faults with the heap setting; 9.8k without it, now that forward frees no 2.4 MB block
        script = (
            "import resource, sys\n"
            "from seglab.cli import config_from_dict, run_audit\n"
            "cfg = config_from_dict({'seed': 3})\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    run_audit(cfg, sys.argv[1])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = os.environ | {"PYTHONPATH": str(Path(seglab.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "gradaudit.json")],
            env=env, check=True, capture_output=True, text=True,
        )
        assert int(done.stdout) < 1000

    def test_loss_and_seed_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(epochs=0))
        out = tmp_path / "override"
        code = main(
            ["train", "--config", str(cfg_path), "--loss", "ce", "--opt", "sgd", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        _, header = load_checkpoint(out / "best.ckpt")
        assert header["config"]["loss"]["kind"] == "ce"
        assert header["config"]["optimizer"] == asdict(default_optimizer_config("sgd"))
        assert header["config"]["optimizer"]["eta"] == 1e-2
        assert header["config"]["seed"] == 3
        assert (out / "gradmap_ce_k0.pfm").exists()

    def test_loss_and_opt_flags_set_only_the_kind(self, tmp_path):
        # Each flag sets the kind of its configured block and keeps the block's
        # other keys; --loss drops "terms", which only "combined" takes, and a
        # block given as a string counts as its kind.
        cases = [
            (
                {"kind": "mime", "a": 2.5, "b": 0.3},
                {"kind": "sgd", "eta": 0.05},
                ["--loss", "mime", "--opt", "sgd"],
                {"kind": "mime", "a": 2.5, "b": 0.3},
                asdict(default_optimizer_config("sgd")) | {"eta": 0.05},
            ),
            (
                {"kind": "combined", "terms": [["ce", 1.0], ["dice", 0.5]], "a": 1.5, "b": 0.2},
                "adam",
                ["--loss", "ce", "--opt", "sgd"],
                {"kind": "ce", "a": 1.5, "b": 0.2},
                asdict(default_optimizer_config("sgd")),
            ),
        ]
        for i, (loss, optimizer, flags, want_loss, want_optimizer) in enumerate(cases):
            cfg_path = write_config(tmp_path, tiny_config(epochs=0) | {"loss": loss, "optimizer": optimizer}, f"{i}.json")
            out = tmp_path / f"run{i}"
            assert main(["train", "--config", str(cfg_path), *flags, "--out", str(out)]) == 0
            _, header = load_checkpoint(out / "best.ckpt")
            assert header["config"]["loss"] == want_loss
            assert header["config"]["optimizer"] == want_optimizer

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, {"loss": {"kind": "nonsense"}})
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2

    def test_compare_command(self, tmp_path):
        paths = []
        for loss in ("dice", "ce"):
            paths.append(str(write_config(tmp_path, tiny_config(loss=loss, epochs=1), f"{loss}.json")))
        assert main(["compare", "--configs", *paths, "--out", str(tmp_path / "cmp")]) == 0
        assert (tmp_path / "cmp" / "comparison.csv").exists()


class TestBadInput:
    """Bad input ends as exit code 2 with one error line, never a traceback."""

    @staticmethod
    def single_error_line(capsys) -> str:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"epochs": "ten"}, "epochs"),
            ({"dataset": TINY_DATASET | {"image_size": 5}}, "image_size"),
            ({"epoch": 1, "datset": dict(TINY_DATASET)}, "epoch"),
            ({"loss": {"kind": "dice", "wieght": 2}}, "wieght"),
            ({"augment": "false"}, "augment"),
            ({"epochs": 2.7}, "epochs"),
            ({"batch_size": True}, "batch_size"),
            ({"dataset": TINY_DATASET | {"image_size": [48.5, 48]}}, "image_size"),
            ({"dataset": TINY_DATASET | {"seed": False}}, "seed"),
            ({"loss": {"kind": "mime", "a": True}}, "a"),
            ({"loss": {"kind": "mime", "b": "0.5"}}, "b"),
            ({"dataset": TINY_DATASET | {"noise_sigma": "nan"}}, "noise_sigma"),
            ({"loss": {"kind": "combined", "terms": [["dice", "nan"]]}}, "terms"),
            ({"loss": {"kind": "combined", "terms": [["dice", float("nan")]]}}, "terms"),
            ({"loss": {"kind": "dice", "terms": [["ce", 1.0]]}}, "terms"),
            ({"loss": {"kind": "combined", "terms": [["dice", -1.0]]}}, "terms"),
            ({"loss": {"kind": "combined", "terms": [["ce", 1.0], ["dice", 0.0]]}}, "terms"),
            ({"optimizer": {"kind": "adam", "lam": float("inf")}}, "lam"),
            ({"optimizer": {"kind": "adam", "eta": "nan"}}, "eta"),
            ({"optimizer": {"kind": "sgd", "lam": -1.0, "weight_decay": -5.0}}, "lam"),
            ({"optimizer": {"kind": "sgd", "weight_decay": -5.0}}, "weight_decay"),
            ({"optimizer": {"kind": "adam", "adam_eps": 0.0}}, "adam_eps"),
            ({"seed": -1}, "seed"),
            ({"dataset": TINY_DATASET | {"seed": -5}}, "seed"),
            ({"epochs": -1}, "epochs"),
            ({"batch_size": 0}, "batch_size"),
            ({"dataset": 3}, "dataset"),
            ({"optimizer": {"kind": "rmsprop"}}, "kind"),
            ({"loss": {"kind": "tversky"}}, "kind"),
            ({"output_dir": 0}, "output_dir"),
            ({"output_dir": False}, "output_dir"),
            ({"dataset": TINY_DATASET | {"train": 0}}, "train"),
            ({"dataset": TINY_DATASET | {"val": 0}}, "val"),
            ({"dataset": TINY_DATASET | {"test": 0}}, "test"),
            ({"dataset": TINY_DATASET | {"kind": "foo"}}, "kind"),
            ({"dataset": TINY_DATASET | {"image_size": [0, 64]}}, "image_size"),
            ({"dataset": TINY_DATASET | {"image_size": [32, 32]}}, "image_size"),
            ({"dataset": TINY_DATASET | {"noise_sigma": -1}}, "noise_sigma"),
            ({"optimizer": {"kind": "adam", "eta": 0}}, "eta"),
            ({"optimizer": {"kind": "sgd", "momentum": 1}}, "momentum"),
            ({"optimizer": {"kind": "adam", "beta1": 1}}, "beta1"),
            ({"optimizer": {"kind": "adam", "beta2": 1}}, "beta2"),
            ({"loss": {"kind": "combined", "terms": []}}, "terms"),
            ({"loss": {"kind": "combined", "terms": [["jaccard", 1]]}}, "terms"),
            ({"loss": {"kind": "mime", "a": -1.9}}, "a"),
            ({"loss": "nm", "dataset": TINY_DATASET | {"kind": "promise_like"}}, "kind"),
            (
                {"loss": {"kind": "combined", "terms": [["ce", 1], ["nm", 1]]}, "dataset": TINY_DATASET | {"kind": "promise_like"}},
                "terms",
            ),
            ({"dataset": TINY_DATASET | {"train": 10000}}, "train"),
            ({"dataset": TINY_DATASET | {"train": 2**70}}, "train"),
            ({"dataset": TINY_DATASET | {"val": 1e308}}, "val"),
            ({"dataset": TINY_DATASET | {"test": 10000}}, "test"),
            ({"dataset": TINY_DATASET | {"image_size": [48, 513]}}, "image_size"),
            ({"epochs": 10001}, "epochs"),
            ({"epochs": 1e308}, "epochs"),
        ],
        ids=[
            "epochs_not_int",
            "image_size_not_list",
            "misspelled_keys",
            "misspelled_loss_key",
            "augment_not_bool",
            "epochs_not_integral",
            "batch_size_bool",
            "image_size_not_integral",
            "dataset_seed_bool",
            "mime_a_bool",
            "mime_b_string",
            "noise_sigma_nan_string",
            "term_weight_nan_string",
            "term_weight_nan",
            "terms_on_single_loss",
            "term_weight_negative",
            "term_weight_zero",
            "lam_infinity",
            "eta_nan_string",
            "sgd_gradient_ascent",
            "weight_decay_negative",
            "adam_eps_zero",
            "run_seed_negative",
            "dataset_seed_negative",
            "epochs_negative",
            "batch_size_zero",
            "dataset_not_object",
            "unknown_optimizer_kind",
            "unknown_loss_kind",
            "output_dir_number",
            "output_dir_false",
            "train_split_empty",
            "val_split_empty",
            "test_split_empty",
            "unknown_dataset_kind",
            "image_side_zero",
            "image_side_too_small_for_kind",
            "noise_sigma_negative",
            "eta_zero",
            "momentum_one",
            "beta1_one",
            "beta2_one",
            "terms_empty",
            "term_unknown_loss_id",
            "mime_a_negative",
            "nm_on_binary_dataset",
            "nm_term_on_binary_dataset",
            "train_split_beyond_id_width",
            "train_split_huge",
            "val_split_huge_float",
            "test_split_beyond_id_width",
            "image_side_beyond_limit",
            "epochs_beyond_limit",
            "epochs_huge_float",
        ],
    )
    def test_bad_config_names_the_key(self, tmp_path, capsys, change, key):
        cfg_path = write_config(tmp_path, tiny_config(epochs=0, output_dir=str(tmp_path / "run")) | change)
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert repr(key) in self.single_error_line(capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, flags, dataset_seed",
        [("train", ["--seed", "-1"], None), ("audit", ["--seed", "-3"], None), ("generate", [], -5)],
        ids=["train_run_seed", "audit_run_seed", "generate_dataset_seed"],
    )
    def test_negative_seed_names_the_key(self, tmp_path, capsys, command, flags, dataset_seed):
        data = tiny_config(epochs=0)
        data["dataset"]["seed"] = dataset_seed
        cfg_path = write_config(tmp_path, data)
        assert main([command, "--config", str(cfg_path), *flags, "--out", str(tmp_path / "out")]) == 2
        assert "'seed'" in self.single_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "data, flags, where",
        [
            ([tiny_config(epochs=0)], ["--seed", "3"], "config must be a JSON object"),
            (tiny_config(epochs=0) | {"loss": 5}, ["--loss", "ce"], "config key 'loss' must be a JSON object"),
            (tiny_config(epochs=0) | {"optimizer": None}, ["--opt", "sgd"], "config key 'optimizer' must be a JSON object"),
        ],
        ids=["config_list_with_seed", "loss_number_with_loss", "optimizer_null_with_opt"],
    )
    def test_override_flags_leave_a_non_object_to_the_reader(self, tmp_path, capsys, data, flags, where):
        cfg_path = write_config(tmp_path, data)
        assert main(["train", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "out")]) == 2
        assert where in self.single_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gradmap", "--checkpoint", "{tmp}/missing.ckpt", "--sample", "acdc_like-val-0000", "--out", "{tmp}/maps"],
            ["gradmap", "--checkpoint", "{tmp}", "--sample", "acdc_like-val-0000", "--out", "{tmp}/maps"],
            ["train", "--config", "{cfg}", "--out", "{tmp}/file"],
            ["audit", "--config", "{cfg}", "--out", "{tmp}/file"],
            ["generate", "--config", "{cfg}", "--out", "{tmp}/file"],
            ["train", "--config", "{tmp}/not_utf8.json"],
        ],
        ids=[
            "missing_checkpoint",
            "checkpoint_is_directory",
            "train_out_is_file",
            "audit_out_is_file",
            "generate_out_is_file",
            "config_not_utf8",
        ],
    )
    def test_bad_path_exit_code(self, tmp_path, capsys, argv):
        cfg_path = write_config(tmp_path, tiny_config(epochs=0))
        (tmp_path / "file").write_text("")
        (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe{}")
        assert main([arg.format(tmp=tmp_path, cfg=cfg_path) for arg in argv]) == 2
        self.single_error_line(capsys)

    def test_generate_of_a_huge_split_writes_nothing(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(dataset=TINY_DATASET | {"train": 2**70}))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "data")]) == 2
        assert "'train'" in self.single_error_line(capsys)
        assert not (tmp_path / "data").exists()

    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        cfg_path = write_config(tmp_path, tiny_config(epochs=0))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert self.single_error_line(capsys) == "error: out of memory"

    def test_generate_of_a_spec_that_cannot_be_drawn_writes_nothing(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(dataset=TINY_DATASET | {"image_size": [32, 32]}))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "data")]) == 2
        assert "acdc_like" in self.single_error_line(capsys)
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["train", "audit"])
    def test_a_dataset_that_cannot_be_drawn_leaves_no_output_directory(self, tmp_path, capsys, command):
        data = tiny_config(epochs=0, dataset={"kind": "promise_like", "image_size": [16, 16]})
        cfg_path = write_config(tmp_path, data)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "promise_like" in self.single_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_compare_of_a_dataset_that_cannot_be_drawn_leaves_no_output_directory(self, tmp_path, capsys):
        dataset = {"kind": "promise_like", "image_size": [16, 16]}
        paths = [write_config(tmp_path, tiny_config(loss, epochs=0, dataset=dataset), f"{loss}.json") for loss in ("dice", "ce")]
        assert main(["compare", "--configs", *map(str, paths), "--out", str(tmp_path / "out")]) == 2
        assert "promise_like" in self.single_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_gradmap_of_overflowing_logits_leaves_no_output_directory(self, tmp_path, capsys):
        net = SegNet(ClassSet(3), seed=0)
        net.set_params(np.full(net.param_count, 1e200))
        config = config_to_dict(config_from_dict(tiny_config(epochs=0)), include_output=False)
        ckpt = save_checkpoint(tmp_path / "net.ckpt", net, epoch=0, config=config)
        args = ["--checkpoint", str(ckpt), "--sample", "acdc_like-val-0000", "--out", str(tmp_path / "maps")]
        assert main(["gradmap", *args]) == 2
        assert "non-finite logits" in self.single_error_line(capsys)
        assert not (tmp_path / "maps").exists()

    def test_gradmap_of_a_plane_beyond_float32_leaves_no_output_directory(self, tmp_path, capsys):
        # a dice run's embedded mime weight a = 1e308 makes the mime planes unwritable;
        # the ce and dice planes, computed first, are not written either
        config = config_to_dict(config_from_dict(tiny_config(epochs=0)), include_output=False)
        config["loss"]["a"] = 1e308
        ckpt = save_checkpoint(tmp_path / "net.ckpt", SegNet(ClassSet(3), seed=0), epoch=0, config=config)
        args = ["--checkpoint", str(ckpt), "--sample", "acdc_like-val-0000", "--out", str(tmp_path / "maps")]
        assert main(["gradmap", *args]) == 2
        assert "gradmap_mime_k0.pfm: PFM values must be finite" in self.single_error_line(capsys)
        assert not (tmp_path / "maps").exists()

    def test_gradmap_rejects_a_config_with_other_classes(self, tmp_path, capsys):
        data = tiny_config(epochs=0, dataset=TINY_DATASET | {"kind": "promise_like", "image_size": [32, 32]})
        assert main(["train", "--config", str(write_config(tmp_path, data)), "--out", str(tmp_path / "run")]) == 0
        ckpt = tmp_path / "run" / "best.ckpt"
        header, block = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["config"]["dataset"] |= {"kind": "acdc_like", "image_size": [48, 48]}
        ckpt.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + block)
        capsys.readouterr()
        args = ["--checkpoint", str(ckpt), "--sample", "acdc_like-val-0000", "--out", str(tmp_path / "maps")]
        assert main(["gradmap", *args]) == 2
        line = self.single_error_line(capsys)
        assert str(ckpt) in line and "2 classes" in line and "has 4" in line
        assert not (tmp_path / "maps").exists()

    def test_integral_floats_and_json_booleans_accepted(self):
        cfg = config_from_dict({"epochs": 2.0, "augment": True, "dataset": {"train": 4.0}})
        assert (cfg.epochs, cfg.augment, cfg.dataset.train) == (2, True, 4)
        assert type(cfg.epochs) is int and type(cfg.dataset.train) is int

    def test_json_integers_accepted_as_floats(self):
        cfg = config_from_dict({"loss": {"kind": "mime", "a": 2}, "optimizer": {"kind": "sgd", "eta": 1}})
        assert (cfg.loss.a, cfg.optimizer.eta) == (2.0, 1.0)
        assert type(cfg.loss.a) is float and type(cfg.optimizer.eta) is float

    def test_non_finite_logits_name_epoch_and_sample(self, tmp_path, capsys, monkeypatch):
        cfg = config_from_dict(tiny_config(epochs=1))
        spec = train._streams(cfg)[0]
        target = generate(spec)[0][3]
        real_forward = train.forward

        def overflowing(net, image):
            logits, cache = real_forward(net, image)
            if np.array_equal(image, target.image):
                logits[1] = np.inf
            return logits, cache

        monkeypatch.setattr(train, "forward", overflowing)
        cfg_path = write_config(tmp_path, tiny_config(epochs=1, output_dir=str(tmp_path / "run")))
        assert main(["train", "--config", str(cfg_path)]) == 2
        line = self.single_error_line(capsys)
        assert "epoch 0" in line and target.id in line

    @pytest.mark.parametrize(
        "eta, batch_size, where",
        [
            (1e300, 2, "epoch 0 on sample acdc_like-train-"),
            (1e308, 2, "epoch 0 on sample acdc_like-train-"),
            # one step per epoch: validation is the first forward after it
            (1e300, 8, "epoch 0 on sample acdc_like-val-"),
            (1e100, 8, "epoch 1 on sample acdc_like-val-"),
        ],
    )
    def test_diverging_run_reports_only_the_error_line(self, tmp_path, capsys, eta, batch_size, where):
        data = tiny_config(
            epochs=2,
            optimizer={"kind": "sgd", "eta": eta},
            batch_size=batch_size,
            output_dir=str(tmp_path / "run"),
        )
        cfg_path = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg_path)]) == 2
        line = self.single_error_line(capsys)
        assert "non-finite logits" in line and where in line
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_huge_loss_weights_report_only_the_error_line(self, tmp_path, capsys):
        # 1e306 overflows a batch loss; at 1e305 with one sample per batch
        # every batch loss is finite and only the epoch mean overflows
        for weight, batch_size in [(1e306, 2), (1e305, 1)]:
            data = tiny_config(epochs=1, loss="mime", batch_size=batch_size, output_dir=str(tmp_path / f"run{batch_size}"))
            data["loss"] |= {"a": weight, "b": weight}
            cfg_path = write_config(tmp_path, data)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["train", "--config", str(cfg_path)]) == 2
            assert "non-finite training loss" in self.single_error_line(capsys)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_loss_gradient_names_epoch_and_sample(self, tmp_path, capsys):
        data = tiny_config(epochs=1, output_dir=str(tmp_path / "run"))
        data["loss"] = {"kind": "combined", "terms": [["mime", 1e308]]}
        cfg_path = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg_path)]) == 2
        line = self.single_error_line(capsys)
        assert "loss gradient" in line and "epoch 0" in line and "acdc_like-train-" in line
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_huge_integral_float_is_quoted_as_written(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(dataset=TINY_DATASET | {"val": 1e308}))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "data")]) == 2
        line = self.single_error_line(capsys)
        assert "'val'" in line and "1e+308" in line and len(line) < 200
        assert not (tmp_path / "data").exists()

    def test_integral_floats_are_exact_only_up_to_2_to_the_53(self):
        assert config_from_dict({"seed": float(2**53)}).seed == 2**53
        with pytest.raises(ConfigError, match="'seed'.*expected an integer"):
            config_from_dict({"seed": float(2**53 + 2)})

    def test_gradient_map_beyond_float32_reports_only_the_error_line(self, tmp_path, capsys):
        data = tiny_config(epochs=0, loss="mime", output_dir=str(tmp_path / "run"))
        data["loss"] |= {"a": 1e300, "b": 1e300}
        cfg_path = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg_path)]) == 2
        assert "gradmap_mime_k" in self.single_error_line(capsys)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not list((tmp_path / "run").glob("*.pfm"))

    @pytest.mark.parametrize("value", [np.inf, 1e300, np.nan], ids=["inf", "huge", "nan"])
    def test_gradmap_of_a_blown_up_checkpoint_reports_only_the_error_line(self, tmp_path, capsys, value):
        cfg_path = write_config(tmp_path, tiny_config(epochs=0, output_dir=str(tmp_path / "run")))
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "run" / "best.ckpt"
        header, block = ckpt.read_bytes().split(b"\n", 1)
        ckpt.write_bytes(header + b"\n" + np.full(len(block) // 8, value).astype("<f8").tobytes())
        capsys.readouterr()
        args = ["--checkpoint", str(ckpt), "--sample", "acdc_like-val-0001", "--out", str(tmp_path / "maps")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["gradmap", *args]) == 2
        line = self.single_error_line(capsys)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # a finite block loads; its overflow is reported for the sample
        assert (str(ckpt) if not np.isfinite(value) else "acdc_like-val-0001") in line

    def test_non_finite_audit_gradient_reports_only_the_error_line(self, tmp_path, capsys, monkeypatch):
        # max(0.0, nan) is 0.0, so a NaN error would pass the audit unless the gradient is checked
        dice = losses._KERNELS["dice"]

        def nan_grad(yv, sv, cfg, grad=True):
            value, g = dice(yv, sv, cfg, grad)
            return value, (np.full_like(g, np.nan) if grad else None)

        monkeypatch.setitem(losses._KERNELS, "dice", nan_grad)
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "audit")]) == 2
        assert "gradient values must be finite" in self.single_error_line(capsys)
        assert not (tmp_path / "audit" / "gradaudit.json").exists()

    def test_compare_rejects_configs_sharing_an_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        paths = [write_config(tmp_path, tiny_config(loss, epochs=1, output_dir="same"), f"{loss}.json") for loss in ("dice", "ce")]
        assert main(["compare", "--configs", *map(str, paths), "--out", "cmp"]) == 2
        assert "same" in self.single_error_line(capsys)
        assert not (tmp_path / "same").exists() and not (tmp_path / "cmp").exists()

    def test_misspelled_keys_rejected_before_defaults_apply(self):
        with pytest.raises(ConfigError, match="'datset', 'epoch'"):
            config_from_dict({"epoch": 1, "datset": dict(TINY_DATASET)})

    @pytest.mark.parametrize(
        "content",
        [np.random.default_rng(0).bytes(300), b'{"format": "seglab-checkpoint-v1"}\n'],
        ids=["random_bytes", "header_without_keys"],
    )
    def test_bad_checkpoint_exit_code(self, tmp_path, capsys, content):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(content)
        args = ["--checkpoint", str(ckpt), "--sample", "acdc_like-val-0000", "--out", str(tmp_path / "maps")]
        assert main(["gradmap", *args]) == 2
        self.single_error_line(capsys)

    @pytest.mark.parametrize(
        "change",
        [
            {"dtype": ">f4"},
            {"in_channels": 3},
            # A size no machine can allocate: the header check rejects it before a net is built.
            {"hidden_channels": 10**6},
            {"hidden_channels": 10**6, "param_count": 9_000_013_000_002},
        ],
        ids=["dtype", "in_channels", "hidden_channels", "consistent_hidden_channels"],
    )
    def test_checkpoint_header_constant_exit_code(self, tmp_path, capsys, change):
        ckpt = save_checkpoint(tmp_path / "net.ckpt", SegNet(ClassSet(3), seed=0), epoch=0)
        header, block = ckpt.read_bytes().split(b"\n", 1)
        ckpt.write_bytes(json.dumps(json.loads(header) | change).encode("utf-8") + b"\n" + block)
        args = ["--checkpoint", str(ckpt), "--sample", "acdc_like-val-0000", "--out", str(tmp_path / "maps")]
        assert main(["gradmap", *args]) == 2
        assert next(iter(change)) in self.single_error_line(capsys)

    @pytest.mark.parametrize(
        "change",
        # Sizes no machine can allocate: without the header check, reading the
        # block or building the net fails at once instead of filling memory.
        [{"param_count": 10**18}, {"classes_total": 10**12}],
        ids=["param_count", "classes_total"],
    )
    def test_oversized_checkpoint_header_exit_code(self, tmp_path, capsys, change):
        ckpt = save_checkpoint(tmp_path / "net.ckpt", SegNet(ClassSet(1), seed=0), epoch=0)
        header, block = ckpt.read_bytes().split(b"\n", 1)
        ckpt.write_bytes(json.dumps(json.loads(header) | change).encode("utf-8") + b"\n" + block)
        args = ["--checkpoint", str(ckpt), "--sample", "acdc_like-val-0000", "--out", str(tmp_path / "maps")]
        assert main(["gradmap", *args]) == 2
        assert "param_count" in self.single_error_line(capsys)
