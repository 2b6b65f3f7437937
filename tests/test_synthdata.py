import dataclasses
import json

import numpy as np
import pytest

from seglab.errors import ValidationError
from seglab.grid import GridShape, LabelMap
from seglab.imgio import read_pgm16
from seglab.metrics import dsc
from seglab.synthdata import (
    ACDC_INTENSITIES,
    PROMISE_INTENSITIES,
    DatasetSpec,
    Sample,
    _make_sample,
    augment,
    export_dataset,
    flip_rotate,
    generate,
    generate_split,
    split_of,
)

from .oracles import one_hot, synthetic_sample_mgrid

SMALL = DatasetSpec(kind="acdc_like", train=4, val=2, test=2, seed=7)


def neighbors4(mask):
    """Pixels 4-adjacent to the mask but outside it."""
    grown = np.zeros_like(mask)
    grown[1:, :] |= mask[:-1, :]
    grown[:-1, :] |= mask[1:, :]
    grown[:, 1:] |= mask[:, :-1]
    grown[:, :-1] |= mask[:, 1:]
    return grown & ~mask


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            DatasetSpec(kind="brats_like")

    def test_counts_and_noise_validated(self):
        with pytest.raises(ValidationError):
            DatasetSpec(train=0)
        with pytest.raises(ValidationError):
            DatasetSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, sigma):
        with pytest.raises(ValidationError, match="noise_sigma"):
            DatasetSpec(noise_sigma=sigma)

    def test_classes_per_kind(self):
        assert DatasetSpec(kind="acdc_like").classes.count_objects == 3
        assert DatasetSpec(kind="promise_like").classes.count_objects == 1

    @pytest.mark.parametrize(
        "kind, size, fits",
        [
            ("acdc_like", (32, 32), False),
            ("acdc_like", (47, 64), False),
            ("acdc_like", (48, 48), True),
            ("promise_like", (16, 16), False),
            ("promise_like", (23, 40), False),
            ("promise_like", (24, 24), True),
        ],
    )
    def test_least_image_side_per_kind(self, kind, size, fits):
        spec = DatasetSpec(kind=kind, image_size=size, train=1, val=1, test=1, seed=0)
        if fits:
            assert generate(spec)[0][0].image.shape == size
        else:
            with pytest.raises(ValidationError, match=rf"{kind}.*\({size[0]}, {size[1]}\)"):
                generate(spec)

    def test_unseeded_spec_cannot_generate(self):
        with pytest.raises(ValidationError):
            generate(DatasetSpec(seed=None))


class TestGenerate:
    def test_same_seed_is_bit_identical(self):
        a_train, a_val, a_test = generate(SMALL)
        b_train, b_val, b_test = generate(SMALL)
        for a, b in zip(a_train + a_val + a_test, b_train + b_val + b_test):
            assert a.id == b.id
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.label.values, b.label.values)

    def test_generate_lists_each_split_of_generate_split(self):
        for split, samples in zip(("train", "val", "test"), generate(SMALL)):
            streamed = list(generate_split(SMALL, split))
            assert [s.id for s in streamed] == [s.id for s in samples]
            for a, b in zip(streamed, samples):
                assert np.array_equal(a.image, b.image)
                assert np.array_equal(a.label.indices, b.label.indices)

    @pytest.mark.parametrize(
        "spec, split",
        [
            (DatasetSpec(kind="acdc_like", image_size=(32, 32), seed=0), "train"),
            (DatasetSpec(seed=None), "test"),
            (SMALL, "holdout"),
        ],
        ids=["too-small", "unseeded", "unknown-split"],
    )
    def test_bad_spec_raises_at_the_first_draw(self, spec, split):
        draws = generate_split(spec, split)
        with pytest.raises(ValidationError):
            next(draws)

    def test_split_of_names_the_split_of_every_drawn_id(self):
        for split, samples in zip(("train", "val", "test"), generate(SMALL)):
            assert {split_of(SMALL, s.id) for s in samples} == {split}
        for other in ("nope", "promise_like-val-0000", "acdc_like-holdout-0000", "acdc_like-val"):
            assert split_of(SMALL, other) is None

    def test_different_seeds_differ(self):
        a, _, _ = generate(SMALL)
        b, _, _ = generate(DatasetSpec(kind="acdc_like", train=4, val=2, test=2, seed=8))
        assert not np.array_equal(a[0].image, b[0].image)

    def test_zero_noise_is_piecewise_constant(self):
        spec = DatasetSpec(kind="acdc_like", train=2, val=1, test=1, noise_sigma=0.0, seed=3)
        train, _, _ = generate(spec)
        for sample in train:
            idx = sample.label.indices
            for k, level in ACDC_INTENSITIES.items():
                region = sample.image[idx == k]
                assert region.size > 0
                assert (region == level).all()
        promise = DatasetSpec(kind="promise_like", train=2, val=1, test=1, noise_sigma=0.0, seed=3)
        p_train, _, _ = generate(promise)
        for sample in p_train:
            idx = sample.label.indices
            for k, level in PROMISE_INTENSITIES.items():
                assert (sample.image[idx == k] == level).all()

    def test_split_ids_are_disjoint(self):
        train, val, test = generate(SMALL)
        ids = [s.id for s in train + val + test]
        assert len(ids) == len(set(ids))

    def test_images_in_unit_range(self):
        train, _, _ = generate(SMALL)
        for s in train:
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_labels_equal_loop_built_one_hot(self):
        promise = DatasetSpec(kind="promise_like", image_size=(48, 40), train=2, val=1, test=1, seed=3)
        for split in (*generate(SMALL), *generate(promise)):
            for s in split:
                assert s.label.shape == GridShape(s.image.shape)
                assert np.array_equal(s.label.values, one_hot(s.label.indices, s.label.classes))


class TestAgainstMgridOracle:
    @pytest.mark.parametrize(
        "kind, size, noise_sigma",
        [
            ("acdc_like", (64, 64), 0.03),
            ("acdc_like", (48, 80), 0.03),
            ("acdc_like", (97, 50), 0.0),
            ("promise_like", (64, 64), 0.03),
            ("promise_like", (24, 37), 0.1),
            ("promise_like", (70, 31), 0.0),
        ],
    )
    def test_samples_equal_full_index_grid_build(self, kind, size, noise_sigma):
        spec = DatasetSpec(kind=kind, image_size=size, noise_sigma=noise_sigma, seed=0)
        for seed in range(150):
            sample = _make_sample(spec, np.random.default_rng(seed), "s")
            image, idx = synthetic_sample_mgrid(spec, np.random.default_rng(seed))
            assert sample.image.tobytes() == image.tobytes()
            assert np.array_equal(sample.label.indices, idx)


@pytest.fixture(scope="module")
def samples():
    spec = DatasetSpec(kind="acdc_like", train=100, val=1, test=1, seed=0)
    train, _, _ = generate(spec)
    return train


class TestGeometryOver100Samples:
    def test_every_class_occupied(self, samples):
        for s in samples:
            assert (s.label.foreground_sizes()[1:] >= 1).all()

    def test_disk_enclosed_by_annulus(self, samples):
        # every pixel bordering the disk belongs to the annulus
        for s in samples:
            idx = s.label.indices
            ring = neighbors4(idx == 3)
            assert (idx[ring] == 2).all()

    def test_annulus_and_crescent_disjoint_with_gap(self, samples):
        for s in samples:
            idx = s.label.indices
            assert not ((idx == 1) & (idx == 2)).any()
            touching = neighbors4(idx == 1)
            assert (idx[touching] != 2).all()

    def test_class_pixel_fractions_in_documented_ranges(self, samples):
        n = samples[0].label.shape.pixel_count
        for s in samples:
            crescent, annulus, disk = s.label.foreground_sizes()[1:] / n
            assert 0.010 <= disk <= 0.050  # documented 1.8 - 4.5 %
            assert 0.015 <= annulus <= 0.085
            assert 0.005 <= crescent <= 0.060


class TestAugment:
    def test_identity_draw_leaves_sample_unchanged(self):
        train, _, _ = generate(SMALL)
        sample = train[0]
        for seed in range(200):  # find a seed whose draw is (no flip, no turn)
            rng = np.random.default_rng(seed)
            if not (rng.random() < 0.5) and not (rng.random() < 0.5) and int(rng.integers(0, 4)) == 0:
                break
        else:
            pytest.fail("no identity seed found in range")
        out = augment(sample, seed)
        assert out.id == sample.id
        assert np.array_equal(out.image, sample.image)
        assert np.array_equal(out.label.values, sample.label.values)

    def test_double_horizontal_flip_is_identity(self):
        train, _, _ = generate(SMALL)
        img = train[0].image
        assert np.array_equal(flip_rotate(flip_rotate(img, True, False, 0), True, False, 0), img)

    def test_one_hot_and_alignment_preserved_over_100_draws(self):
        train, _, _ = generate(SMALL)
        sample = train[1]
        for seed in range(100):
            out = augment(sample, seed)
            assert (out.label.values.sum(axis=0) == 1.0).all()
            # image and label saw the same transform: class regions still sit
            # on the matching intensity plateaus (noise-free check via ranks)
            assert sorted(np.bincount(out.label.indices.ravel(), minlength=4)) == sorted(
                np.bincount(sample.label.indices.ravel(), minlength=4)
            )
            assert dsc(out.label, out.label)[1:].min() > 0.99

    def test_alignment_via_index_transport(self):
        train, _, _ = generate(SMALL)
        sample = train[2]
        for seed in (3, 17, 92):
            out = augment(sample, seed)
            # transporting the index map as an image must match the new labels
            rng = np.random.default_rng(seed)
            hflip = bool(rng.random() < 0.5)
            vflip = bool(rng.random() < 0.5)
            k = int(rng.integers(0, 4))
            moved_idx = flip_rotate(sample.label.indices, hflip, vflip, k)
            moved_img = flip_rotate(sample.image, hflip, vflip, k)
            assert np.array_equal(out.label.indices, moved_idx)
            assert np.array_equal(out.image, moved_img)


class TestExport:
    def test_export_round_trip(self, tmp_path):
        train, val, test = generate(SMALL)
        manifest_path = export_dataset(SMALL, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "acdc_like"
        assert manifest["count_objects"] == 3
        assert manifest["seed"] == SMALL.seed
        assert manifest["splits"] == {name: [s.id for s in split] for name, split in zip(("train", "val", "test"), (train, val, test))}
        assert len(manifest["splits"]["train"]) == 4
        for sample in [*train, *val, *test]:
            assert np.array_equal(read_pgm16(tmp_path / "labels" / f"{sample.id}.pgm"), sample.label.indices)
        sample = train[0]
        image_back = read_pgm16(tmp_path / "images" / f"{sample.id}.pgm")
        assert np.array_equal(image_back, np.round(sample.image * 65535.0).astype(np.uint16))
        label_back = read_pgm16(tmp_path / "labels" / f"{sample.id}.pgm")
        assert np.array_equal(label_back, sample.label.indices.astype(np.uint16))

    def test_image_reconstruction_error_within_quantization(self, tmp_path):
        train, _, _ = generate(SMALL)
        export_dataset(SMALL, tmp_path)
        back = read_pgm16(tmp_path / "images" / f"{train[0].id}.pgm").astype(np.float64) / 65535.0
        assert np.abs(back - train[0].image).max() <= 0.5 / 65535.0 + 1e-12


class TestSampleType:
    def test_image_label_shape_mismatch_rejected(self):
        train, _, _ = generate(SMALL)
        label = train[0].label
        with pytest.raises(ValidationError):
            Sample(image=np.zeros((3, 3)), label=label, id="bad")

    def test_sample_arrays_frozen(self):
        train, _, _ = generate(SMALL)
        with pytest.raises(ValueError):
            train[0].image[0, 0] = 0.5
        with pytest.raises(ValueError):
            train[0].label.indices[0, 0] = 1

    def test_generated_sample_holds_at_most_40_kb(self):
        train, _, _ = generate(DatasetSpec(kind="acdc_like", image_size=(64, 64), train=1, val=1, test=1, seed=2))
        sample = train[0]
        assert sample.label.indices.dtype == np.uint8
        assert sample.image.nbytes + sample.label.indices.nbytes <= 40 * 1024
        assert not sample.label.indices.flags.writeable

    def test_label_round_trips_through_the_constructor(self):
        train, _, _ = generate(SMALL)
        label = train[0].label
        sample = Sample(image=train[0].image, label=label, id="copy")
        assert [f.name for f in dataclasses.fields(Sample)] == ["image", "label", "id"]
        assert sample.label is label
        assert sample.image is not train[0].image and np.array_equal(sample.image, train[0].image)
