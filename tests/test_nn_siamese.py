"""Unit tests for pair sampling, the Siamese embedder and its trainer."""

import numpy as np
import pytest
from reference_training import reference_sample_pairs, reference_train

from repro.exceptions import ConfigurationError, DataShapeError, NotFittedError
from repro.nn import (
    PairSampler,
    SiameseEmbedder,
    SiameseTrainer,
    TrainConfig,
    all_pairs,
    build_mlp,
    sample_pairs,
)
from repro.nn.pairs import _WordBlock


@pytest.fixture
def labels():
    return np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])


class TestSamplePairs:
    def test_balanced_fractions(self, labels, rng):
        ia, ib, same = sample_pairs(labels, 200, rng=rng)
        assert same.mean() == pytest.approx(0.5, abs=0.05)

    def test_positive_pairs_share_class(self, labels, rng):
        ia, ib, same = sample_pairs(labels, 100, rng=rng)
        assert np.all(labels[ia[same]] == labels[ib[same]])

    def test_negative_pairs_differ(self, labels, rng):
        ia, ib, same = sample_pairs(labels, 100, rng=rng)
        assert np.all(labels[ia[~same]] != labels[ib[~same]])

    def test_positive_pairs_are_distinct_samples(self, labels, rng):
        ia, ib, same = sample_pairs(labels, 100, rng=rng)
        assert np.all(ia[same] != ib[same])

    def test_rare_class_is_represented(self, rng):
        # Class 1 has only 2 of 102 samples; uniform-over-classes positives
        # must still include it.
        labels = np.array([0] * 100 + [1] * 2)
        ia, ib, same = sample_pairs(labels, 400, rng=rng)
        positive_classes = labels[ia[same]]
        assert (positive_classes == 1).sum() > 50

    def test_single_class_all_positive(self, rng):
        ia, ib, same = sample_pairs(np.zeros(5, dtype=int), 20, rng=rng)
        assert np.all(same)

    def test_singleton_classes_all_negative(self, rng):
        ia, ib, same = sample_pairs(np.array([0, 1, 2]), 20, rng=rng)
        assert not np.any(same)

    def test_single_sample_rejected(self, rng):
        with pytest.raises(DataShapeError):
            sample_pairs(np.array([0]), 5, rng=rng)

    def test_bad_n_pairs_rejected(self, labels):
        with pytest.raises(ConfigurationError):
            sample_pairs(labels, 0)

    def test_bad_fraction_rejected(self, labels):
        with pytest.raises(ConfigurationError):
            sample_pairs(labels, 10, positive_fraction=1.5)

    def test_deterministic_given_seed(self, labels):
        a = sample_pairs(labels, 50, rng=3)
        b = sample_pairs(labels, 50, rng=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestAllPairs:
    def test_count(self):
        ia, ib, same = all_pairs(np.array([0, 0, 1]))
        assert len(ia) == 3

    def test_same_flags(self):
        ia, ib, same = all_pairs(np.array([0, 0, 1]))
        lookup = {(int(a), int(b)): bool(s) for a, b, s in zip(ia, ib, same)}
        assert lookup[(0, 1)] is True
        assert lookup[(0, 2)] is False


class TestSiameseEmbedder:
    def test_dims_inferred(self, rng):
        net = build_mlp(10, hidden_dims=(8,), output_dim=4, rng=rng)
        emb = SiameseEmbedder(net)
        assert emb.input_dim == 10
        assert emb.embedding_dim == 4

    def test_embed_shape(self, rng):
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(8,), output_dim=3, rng=rng))
        out = emb.embed(rng.normal(size=(7, 6)))
        assert out.shape == (7, 3)

    def test_embed_one(self, rng):
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(8,), output_dim=3, rng=rng))
        x = rng.normal(size=6)
        single = emb.embed_one(x)
        assert single.shape == (3,)
        assert np.allclose(single, emb.embed(x[None, :])[0])

    def test_embed_wrong_width_rejected(self, rng):
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(8,), output_dim=3, rng=rng))
        with pytest.raises(DataShapeError):
            emb.embed(rng.normal(size=(2, 5)))

    def test_clone_frozen_while_original_trains(self, rng):
        emb = SiameseEmbedder(build_mlp(4, hidden_dims=(6,), output_dim=2, rng=rng))
        frozen = emb.clone()
        x = rng.normal(size=(3, 4))
        before = frozen.embed(x)
        emb.network.layers[0].weight.data += 1.0
        assert np.allclose(frozen.embed(x), before)
        assert not np.allclose(emb.embed(x), before)


def two_blob_data(rng, n_per=20, d=6, sep=4.0):
    """Two well-separated Gaussian blobs."""
    a = rng.normal(size=(n_per, d))
    b = rng.normal(size=(n_per, d)) + sep
    X = np.concatenate([a, b])
    y = np.concatenate([np.zeros(n_per, dtype=int), np.ones(n_per, dtype=int)])
    return X, y


class TestSiameseTrainer:
    def test_loss_decreases(self, rng):
        X, y = two_blob_data(rng)
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(16,), output_dim=4, rng=1))
        history = SiameseTrainer(
            TrainConfig(epochs=15, batch_pairs=32, lr=1e-3), rng=2
        ).train(emb, X, y)
        assert history.n_epochs == 15
        assert history.total[-1] < history.total[0]

    def test_embedding_space_separates_classes(self, rng):
        X, y = two_blob_data(rng)
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(16,), output_dim=4, rng=1))
        SiameseTrainer(TrainConfig(epochs=20, batch_pairs=32, lr=1e-3), rng=2).train(
            emb, X, y
        )
        Z = emb.embed(X)
        center0, center1 = Z[y == 0].mean(0), Z[y == 1].mean(0)
        within = np.linalg.norm(Z[y == 0] - center0, axis=1).mean()
        between = np.linalg.norm(center0 - center1)
        assert between > 2.0 * within

    def test_distillation_keeps_student_near_teacher(self, rng):
        X, y = two_blob_data(rng)
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(16,), output_dim=4, rng=1))
        SiameseTrainer(TrainConfig(epochs=10, batch_pairs=32), rng=2).train(emb, X, y)
        teacher = emb.clone()

        anchored = emb.clone()
        free = emb.clone()
        cfg_anchored = TrainConfig(epochs=10, batch_pairs=32, lr=1e-3,
                                   distill_weight=50.0)
        cfg_free = TrainConfig(epochs=10, batch_pairs=32, lr=1e-3,
                               distill_weight=0.0)
        SiameseTrainer(cfg_anchored, rng=3).train(anchored, X, y, teacher=teacher)
        SiameseTrainer(cfg_free, rng=3).train(free, X, y, teacher=teacher)

        drift_anchored = np.abs(anchored.embed(X) - teacher.embed(X)).mean()
        drift_free = np.abs(free.embed(X) - teacher.embed(X)).mean()
        assert drift_anchored < drift_free

    def test_distillation_history_recorded(self, rng):
        X, y = two_blob_data(rng, n_per=10)
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(8,), output_dim=3, rng=1))
        teacher = emb.clone()
        history = SiameseTrainer(
            TrainConfig(epochs=3, batch_pairs=16, distill_weight=1.0), rng=2
        ).train(emb, X, y, teacher=teacher)
        assert len(history.distillation) == 3
        assert all(v >= 0.0 for v in history.distillation)

    def test_no_teacher_means_zero_distill_trace(self, rng):
        X, y = two_blob_data(rng, n_per=8)
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(8,), output_dim=3, rng=1))
        history = SiameseTrainer(
            TrainConfig(epochs=2, batch_pairs=8), rng=2
        ).train(emb, X, y)
        assert all(v == 0.0 for v in history.distillation)

    def test_too_few_samples_rejected(self, rng):
        emb = SiameseEmbedder(build_mlp(4, hidden_dims=(4,), output_dim=2, rng=1))
        with pytest.raises(DataShapeError):
            SiameseTrainer(TrainConfig(epochs=1), rng=0).train(
                emb, rng.normal(size=(1, 4)), np.array([0])
            )

    def test_history_final_loss(self, rng):
        X, y = two_blob_data(rng, n_per=8)
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(8,), output_dim=3, rng=1))
        history = SiameseTrainer(TrainConfig(epochs=2, batch_pairs=8), rng=2).train(
            emb, X, y
        )
        assert history.final_loss() == history.total[-1]

    def test_empty_history_final_loss_rejected(self):
        from repro.nn.siamese import TrainHistory

        with pytest.raises(NotFittedError, match="history is empty"):
            TrainHistory().final_loss()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ConfigurationError):
            TrainConfig(distill_weight=-1.0)

    def test_sgd_optimizer_path(self, rng):
        X, y = two_blob_data(rng, n_per=10)
        emb = SiameseEmbedder(build_mlp(6, hidden_dims=(8,), output_dim=3, rng=1))
        history = SiameseTrainer(
            TrainConfig(epochs=5, batch_pairs=16, optimizer="sgd", lr=1e-2),
            rng=2,
        ).train(emb, X, y)
        assert history.total[-1] <= history.total[0]


# --------------------------------------------------------------------- #
# the exactness contract: the fast loop moves no weight
# --------------------------------------------------------------------- #

PAIR_LABELS = {
    # the Edge situation: full old classes, a short new one
    "skewed": np.repeat(np.arange(6), [50, 50, 50, 50, 50, 15]),
    "singletons_only": np.arange(7),
    "single_class": np.zeros(9, dtype=int),
    # draws over a range of zero read no generator word: a 2-member class
    # (Floyd's first pick), a singleton side, a choice of two classes
    "sizes_2_2_1_3": np.repeat(np.arange(4), [2, 2, 1, 3]),
    "two_classes": np.repeat(np.arange(2), [2, 5]),
    "one_pair_and_singletons": np.array([0, 0, 1, 2]),
    "two_samples_one_class": np.zeros(2, dtype=int),
}

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


def assert_same_stream(rng_a, rng_b):
    """Both generators draw the same from here on, 32-bit half-words included.

    Compared by drawing rather than by ``bit_generator.state``, whose dict
    holds an array for MT19937.
    """
    assert np.array_equal(
        rng_a.integers(0, 2**32, size=9), rng_b.integers(0, 2**32, size=9)
    )
    assert np.array_equal(rng_a.random(4), rng_b.random(4))


class TestPairSampler:
    @pytest.mark.parametrize("name", sorted(PAIR_LABELS))
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    def test_draws_match_sequential_reference_for_200_batches(
        self, name, fraction, bit_generator
    ):
        labels = PAIR_LABELS[name]
        fast_rng = np.random.Generator(bit_generator(3))
        ref_rng = np.random.Generator(bit_generator(3))
        sampler = PairSampler(labels, positive_fraction=fraction)
        for _ in range(200):
            got = sampler.draw(48, fast_rng)
            want = reference_sample_pairs(labels, 48, ref_rng, fraction)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)
        # nothing downstream of the sampler re-draws either
        assert_same_stream(fast_rng, ref_rng)

    def test_impossible_side_is_clamped_once(self):
        assert PairSampler(PAIR_LABELS["singletons_only"]).positive_fraction == 0.0
        assert PairSampler(PAIR_LABELS["single_class"]).positive_fraction == 1.0
        assert PairSampler(PAIR_LABELS["skewed"], 0.25).positive_fraction == 0.25

    @pytest.mark.parametrize("seed", [0, 12345])
    @pytest.mark.parametrize("fraction", [0.5, 0.3])
    def test_sample_pairs_is_one_draw_of_the_sampler(self, labels, seed, fraction):
        got = sample_pairs(labels, 40, rng=seed, positive_fraction=fraction)
        want = reference_sample_pairs(
            labels, 40, np.random.default_rng(seed), fraction
        )
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_validation_happens_at_construction(self):
        with pytest.raises(ConfigurationError):
            PairSampler(np.array([0, 0, 1]), positive_fraction=1.5)
        with pytest.raises(DataShapeError):
            PairSampler(np.array([0]))
        with pytest.raises(DataShapeError):
            PairSampler(np.zeros((2, 2), dtype=int))
        with pytest.raises(ConfigurationError):
            PairSampler(np.array([0, 0, 1])).draw(0, np.random.default_rng(0))


class TestWordBlock:
    """``_WordBlock.bounded`` is ``Generator.integers(0, r + 1)``, draw for draw."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize("r, budget", [
        (2**31, 1000),  # about half of all words are redrawn
        (2**31, 3),  # ... with a block refilled each time it runs out
        (2**32 - 2, 1000),  # the widest range the rule covers
        (6, 1),  # a one-word block, refilled each time it runs out
        (0, 4),  # reads nothing
    ])
    def test_bounded_matches_integers(self, bit_generator, r, budget):
        rng = np.random.Generator(bit_generator(17))
        ref_rng = np.random.Generator(bit_generator(17))
        rng.integers(5)  # start half-way through a 64-bit output
        ref_rng.integers(5)

        words = _WordBlock(rng, budget)
        got = [words.bounded(r) for _ in range(300)]
        words.release()
        want = [int(ref_rng.integers(0, r + 1)) for _ in range(300)]

        assert got == want
        assert_same_stream(rng, ref_rng)
        if r == 0:
            assert words.used == 0
        elif r == 2**31:
            assert words.used > 400
        else:
            assert words.used >= 300


def skewed_training_set():
    """Five full classes and one short one, as after a new recording."""
    y = np.repeat(np.arange(6), [20, 20, 20, 20, 20, 6])
    X = np.random.default_rng(11).normal(size=(y.size, 10)) + 0.4 * y[:, None]
    return X, y


class CountingTeacher(SiameseEmbedder):
    """A teacher that counts how often it is asked to embed."""

    def __init__(self, network):
        super().__init__(network)
        self.embed_calls = 0

    def embed(self, features):
        self.embed_calls += 1
        return super().embed(features)


class TestTrainingIsExact:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("grad_clip", [None, 5.0])
    @pytest.mark.parametrize("use_teacher", [True, False])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_same_seed_same_weights_as_reference_loop(
        self, optimizer, use_teacher, grad_clip, weight_decay
    ):
        X, y = skewed_training_set()
        cfg = TrainConfig(
            epochs=3, batch_pairs=24, optimizer=optimizer, momentum=0.9,
            lr=3e-4 if optimizer == "adam" else 1e-2,
            weight_decay=weight_decay, grad_clip=grad_clip, distill_weight=2.0,
        )
        start = SiameseEmbedder(build_mlp(10, hidden_dims=(32, 16), output_dim=8, rng=5))
        fast, ref = start.clone(), start.clone()
        teacher = start.clone() if use_teacher else None

        fast_history = SiameseTrainer(cfg, rng=7).train(fast, X, y, teacher=teacher)
        ref_history = reference_train(
            cfg, np.random.default_rng(7), ref, X, y, teacher=teacher
        )

        fast_state, ref_state = fast.network.state_dict(), ref.network.state_dict()
        assert fast_state.keys() == ref_state.keys()
        for key in ref_state:
            assert np.array_equal(fast_state[key], ref_state[key]), key
        assert not np.array_equal(
            ref_state["0.weight"], start.network.state_dict()["0.weight"]
        )
        assert fast_history.contrastive == ref_history.contrastive
        assert fast_history.distillation == ref_history.distillation
        assert fast_history.total == ref_history.total

    def test_trainer_leaves_generator_where_the_reference_does(self):
        X, y = skewed_training_set()
        cfg = TrainConfig(epochs=2, batch_pairs=24)
        start = SiameseEmbedder(build_mlp(10, hidden_dims=(16,), output_dim=4, rng=5))
        fast_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        SiameseTrainer(cfg, rng=fast_rng).train(start.clone(), X, y)
        reference_train(cfg, ref_rng, start.clone(), X, y)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_teacher_embeds_once_per_train_call(self):
        X, y = skewed_training_set()
        emb = SiameseEmbedder(build_mlp(10, hidden_dims=(16,), output_dim=4, rng=5))
        teacher = CountingTeacher(emb.network.clone())
        trainer = SiameseTrainer(TrainConfig(epochs=3, batch_pairs=24), rng=7)
        trainer.train(emb, X, y, teacher=teacher)
        assert teacher.embed_calls == 1
        trainer.train(emb, X, y, teacher=teacher)
        assert teacher.embed_calls == 2

    def test_teacher_not_consulted_without_distillation(self):
        X, y = skewed_training_set()
        emb = SiameseEmbedder(build_mlp(10, hidden_dims=(16,), output_dim=4, rng=5))
        teacher = CountingTeacher(emb.network.clone())
        SiameseTrainer(
            TrainConfig(epochs=1, batch_pairs=24, distill_weight=0.0), rng=7
        ).train(emb, X, y, teacher=teacher)
        assert teacher.embed_calls == 0


class TestTrainConfigRejectsEarly:
    """Every field is checked at construction, not inside the first batch."""

    @pytest.mark.parametrize("bad", [
        dict(positive_fraction=1.5),
        dict(positive_fraction=-0.1),
        dict(pairs_per_epoch=0),
        dict(pairs_per_epoch=2.5),
        dict(batch_pairs=2.5),
        dict(epochs=2.5),
        dict(epochs=True),
        dict(lr=0.0),
        dict(lr=-1e-3),
        dict(lr=float("nan")),
        dict(margin=0.0),
        dict(grad_clip=0.0),
        dict(grad_clip=-1.0),
        dict(momentum=1.0),
        dict(weight_decay=-1e-4),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            TrainConfig(**bad)

    def test_numpy_integer_sizes_accepted(self):
        cfg = TrainConfig(
            epochs=np.int64(2), batch_pairs=np.int32(8), pairs_per_epoch=np.int64(16)
        )
        X, y = skewed_training_set()
        emb = SiameseEmbedder(build_mlp(10, hidden_dims=(8,), output_dim=4, rng=5))
        assert SiameseTrainer(cfg, rng=1).train(emb, X, y).n_epochs == 2

    def test_optional_fields_accept_none(self):
        cfg = TrainConfig(pairs_per_epoch=None, grad_clip=None)
        assert cfg.pairs_per_epoch is None and cfg.grad_clip is None
