"""Unit tests for the transfer package and Cloud initialization."""

import json

import numpy as np
import pytest

from repro.core import (
    CloudConfig,
    CloudInitializer,
    TransferPackage,
)
from repro.exceptions import (
    ConfigurationError,
    SerializationError,
)
from repro.nn import TrainConfig


class TestTransferPackage:
    def test_component_sizes_present(self, scenario):
        sizes = scenario.package.component_sizes()
        assert set(sizes) == {"pipeline", "model", "support_set"}
        assert all(v > 0 for v in sizes.values())

    def test_total_is_sum(self, scenario):
        package = scenario.package
        assert package.size_bytes() == sum(package.component_sizes().values())

    def test_describe_mentions_total(self, scenario):
        text = scenario.package.describe()
        assert "total" in text
        assert "model" in text

    def test_support_set_dominated_by_capacity(self, scenario):
        sizes = scenario.package.component_sizes()
        store = scenario.package.support_set
        expected = store.total_samples * store.n_features * 4
        assert sizes["support_set"] == expected

    def test_save_load_roundtrip(self, scenario, tmp_path, rng):
        package = scenario.package
        path = tmp_path / "package.npz"
        package.save(path)
        loaded = TransferPackage.load(path)

        network = loaded.embedder.network
        assert network.to_config() == package.embedder.network.to_config()
        want = package.embedder.network.state_dict()
        got = network.state_dict()
        assert set(got) == set(want)
        for key, value in want.items():  # lossless: same dtype, same bytes
            assert got[key].dtype == value.dtype
            assert got[key].tobytes() == value.tobytes()
        x = rng.normal(size=(3, package.pipeline.n_features))
        assert np.allclose(
            loaded.embedder.embed(x), package.embedder.embed(x)
        )
        assert loaded.support_set.class_names == package.support_set.class_names
        windows = rng.normal(size=(2, 120, 22))
        assert np.allclose(
            loaded.pipeline.process_windows(windows),
            package.pipeline.process_windows(windows),
        )

    def test_load_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(SerializationError):
            TransferPackage.load(path)

    def test_serialized_bytes_close_to_footprint(self, scenario):
        package = scenario.package
        wire = package.serialized_bytes()
        logical = package.size_bytes()
        # The wire format is float32 npz: same order of magnitude.
        assert 0.5 * logical < wire < 3.0 * logical

    def test_save_and_wire_format_share_one_encoding(
        self, scenario, tmp_path
    ):
        """save() and serialized_bytes() differ only in dtype casting."""
        package = scenario.package
        path = tmp_path / "package.npz"
        package.save(path)
        saved = np.load(path)
        wire = package._collect_arrays(dtype=np.float32)
        assert set(saved.files) == set(wire)
        for key in saved.files:
            if key.startswith(("model/", "support/")):
                assert wire[key].dtype == np.float32
                np.testing.assert_allclose(
                    saved[key].astype(np.float32), wire[key], rtol=0, atol=0
                )


def _write_package(path, package, meta):
    """Save ``package``'s arrays under a replacement metadata object."""
    arrays = package._collect_arrays()
    arrays["__meta_json__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


class TestPackageLoadErrors:
    """``TransferPackage.load`` is the one network file loader: whatever is
    wrong with the file, it raises :class:`SerializationError` naming it."""

    @pytest.mark.parametrize("missing", [
        "pipeline", "network_config", "support_capacity", "support_selection",
    ])
    def test_metadata_missing_a_key_rejected(
        self, scenario, tmp_path, missing
    ):
        meta = {
            "pipeline": scenario.package.pipeline.to_dict(),
            "network_config": scenario.package.embedder.network.to_config(),
            "support_capacity": 4,
            "support_selection": "random",
        }
        del meta[missing]
        path = tmp_path / "partial.npz"
        _write_package(path, scenario.package, meta)
        with pytest.raises(SerializationError, match="partial.npz") as info:
            TransferPackage.load(path)
        assert missing in str(info.value)

    @pytest.mark.parametrize(
        "meta", [["pipeline"], "pipeline", 3, None],
        ids=["list", "string", "number", "null"],
    )
    def test_metadata_not_an_object_rejected(self, scenario, tmp_path, meta):
        path = tmp_path / "scalar.npz"
        _write_package(path, scenario.package, meta)
        with pytest.raises(SerializationError, match="scalar.npz"):
            TransferPackage.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="absent.npz"):
            TransferPackage.load(tmp_path / "absent.npz")

    @pytest.mark.parametrize("key, value, reason", [
        ("network_config", [], "not a sequential config"),
        ("network_config", {"kind": "sequential", "layers": [{"kind": "linear"}]},
         "invalid layer config"),
        ("support_capacity", "x", "support_capacity must be an integer"),
        ("support_capacity", True, "support_capacity must be an integer"),
        ("pipeline", {"window_len": "x"}, "invalid pipeline payload"),
    ], ids=[
        "network-config-list", "layer-without-widths", "capacity-string",
        "capacity-bool", "pipeline-fields",
    ])
    def test_metadata_of_the_wrong_shape_rejected(
        self, scenario, tmp_path, key, value, reason
    ):
        """Present but malformed metadata raises ``SerializationError``
        naming the file, not ``AttributeError`` or ``ValueError``."""
        package = scenario.package
        meta = {
            "pipeline": package.pipeline.to_dict(),
            "network_config": package.embedder.network.to_config(),
            "support_capacity": package.support_set.capacity_per_class,
            "support_selection": package.support_set.selection,
            key: value,
        }
        path = tmp_path / "shape.npz"
        _write_package(path, package, meta)
        with pytest.raises(SerializationError, match="shape.npz") as info:
            TransferPackage.load(path)
        assert reason in str(info.value)

    @pytest.mark.parametrize("name", ["junk", "class_walk", "class_x_walk"])
    def test_support_key_without_class_index_rejected(
        self, scenario, tmp_path, name
    ):
        package = scenario.package
        arrays = package._collect_arrays()
        arrays[f"support/{name}"] = np.zeros((2, package.pipeline.n_features))
        path = tmp_path / "support.npz"
        np.savez(path, **arrays)
        with pytest.raises(SerializationError, match="support.npz") as info:
            TransferPackage.load(path)
        assert f"unexpected support-set key {name!r}" in str(info.value)

    def test_weights_of_the_wrong_shape_rejected(self, scenario, tmp_path):
        package = scenario.package
        arrays = package._collect_arrays()
        arrays["model/0.weight"] = arrays["model/0.weight"][:, :-1]
        path = tmp_path / "weights.npz"
        np.savez(path, **arrays)
        with pytest.raises(SerializationError, match="weights.npz") as info:
            TransferPackage.load(path)
        assert "shape mismatch for '0.weight'" in str(info.value)


class TestCloudInitializer:
    def test_pretrain_learns_base_activities(self, scenario):
        report = scenario.pretrain_report
        assert report.train_accuracy > 0.9
        assert report.class_names == ("drive", "escooter", "run", "still", "walk")

    def test_loss_decreased_during_pretraining(self, scenario):
        history = scenario.pretrain_report.history
        assert history.total[-1] < history.total[0]

    def test_support_set_covers_all_classes(self, scenario):
        store = scenario.package.support_set
        assert store.class_names == scenario.pretrain_report.class_names
        assert all(count > 0 for count in store.counts().values())

    def test_support_capacity_respected(self, scenario):
        store = scenario.package.support_set
        assert max(store.counts().values()) <= store.capacity_per_class

    def test_pipeline_fitted(self, scenario):
        assert scenario.package.pipeline.is_fitted

    def test_generates_campaign_when_none_given(self):
        cloud = CloudInitializer(
            CloudConfig(
                backbone_dims=(32,),
                embedding_dim=8,
                train=TrainConfig(epochs=2, batch_pairs=16),
                support_capacity=10,
            ),
            rng=3,
        )
        package, report = cloud.pretrain(
            n_users=2, windows_per_user_per_activity=4
        )
        assert report.n_train_windows == 2 * 4 * 5
        assert package.support_set.n_classes == 5

    def test_empty_dataset_rejected(self, tiny_campaign):
        cloud = CloudInitializer(rng=0)
        empty = tiny_campaign.subset(np.zeros(tiny_campaign.n_windows, dtype=bool))
        with pytest.raises(ConfigurationError):
            cloud.pretrain(empty)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CloudConfig(embedding_dim=0)
        with pytest.raises(ConfigurationError):
            CloudConfig(support_capacity=0)

    def test_n_parameters_reported(self, scenario):
        assert scenario.pretrain_report.n_parameters == (
            scenario.package.embedder.n_parameters()
        )
