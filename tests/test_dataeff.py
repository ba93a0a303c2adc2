"""Data-efficiency tests: synthetic world, recommenders, sampling, decay."""

import numpy as np
import pytest

from repro.dataeff.perishability import HalfLifeModel, fit_half_life
from repro.dataeff.ranking import kendall_tau, run_panel
from repro.dataeff.recommenders import (
    BiasMF,
    ItemKNN,
    ItemPop,
    evaluate,
)
from repro.dataeff.sampling import (
    head_users,
    random_interactions,
    recent_interactions,
    svp_users,
)
from repro.dataeff.synthetic import LatentFactorWorld
from repro.errors import CalibrationError, UnitError


WORLD = LatentFactorWorld(n_users=400, n_items=200, seed=7)
DATA = WORLD.sample(12_000, seed_offset=0)


class TestSyntheticWorld:
    def test_deterministic(self):
        a = WORLD.sample(1000, seed_offset=3)
        b = WORLD.sample(1000, seed_offset=3)
        np.testing.assert_array_equal(a.items, b.items)

    def test_ids_in_range(self):
        assert DATA.users.max() < WORLD.n_users
        assert DATA.items.max() < WORLD.n_items

    def test_popularity_skew(self):
        counts = np.bincount(DATA.items, minlength=WORLD.n_items)
        top_decile = np.sort(counts)[-WORLD.n_items // 10 :].sum()
        assert top_decile / counts.sum() > 0.3  # head items dominate

    def test_leave_last_out_removes_one_per_user(self):
        train, test = DATA.leave_last_out()
        assert len(train) + len(test) == len(DATA)
        for user, item in list(test.items())[:50]:
            user_rows = train.items[train.users == user]
            # The held-out event is the user's most recent one.
            held_time = DATA.timestamps[
                (DATA.users == user) & (DATA.items == item)
            ].max()
            if len(user_rows):
                last_train_time = train.timestamps[train.users == user].max()
                assert held_time >= last_train_time

    def test_subset_validation(self):
        with pytest.raises(UnitError):
            DATA.subset(np.zeros(len(DATA), dtype=bool))
        with pytest.raises(UnitError):
            DATA.subset(np.ones(3, dtype=bool))

    @pytest.mark.parametrize("seed_offset", [-1, -2, -7919])
    def test_negative_seed_offset_rejected(self, seed_offset):
        # -1 would replay the factor stream; -2 and below are invalid seeds.
        with pytest.raises(UnitError):
            WORLD.sample(100, seed_offset=seed_offset)

    def test_time_offset_shifts_timestamps(self):
        shifted = WORLD.sample(100, time_offset_years=2.0, seed_offset=1)
        assert shifted.timestamps.min() >= 2.0

    def test_item_factors_rotate_with_drift(self):
        world = LatentFactorWorld(n_users=50, n_items=30, drift_per_year=1.0, seed=1)
        v0 = world.item_factors_at(0.0)
        v1 = world.item_factors_at(1.5)
        cos = np.sum(v0 * v1) / (np.linalg.norm(v0) * np.linalg.norm(v1))
        assert cos < 0.5  # substantially rotated


class TestRecommenders:
    def test_itempop_scores_by_count(self):
        model = ItemPop().fit(DATA)
        counts = np.bincount(DATA.items, minlength=DATA.n_items)
        popular = int(np.argmax(counts))
        rare = int(np.argmin(counts))
        scores = model.score(0, np.array([popular, rare]))
        assert scores[0] > scores[1]

    def test_unfit_model_rejects_scoring(self):
        with pytest.raises(UnitError):
            ItemPop().score(0, np.array([1]))
        with pytest.raises(UnitError):
            ItemKNN().score(0, np.array([1]))
        with pytest.raises(UnitError):
            BiasMF().score(0, np.array([1]))

    def test_all_beat_random_baseline(self):
        train, test = DATA.leave_last_out()
        for model in (ItemPop(), ItemKNN(), BiasMF(n_epochs=5, seed=0)):
            model.fit(train)
            result = evaluate(model, train, test, k=10)
            # Random ranking of 100 candidates puts the positive in the
            # top-10 with probability 0.1.
            assert result.hr_at_k > 0.15

    def test_personalized_beats_popularity(self):
        world = LatentFactorWorld(n_users=600, n_items=300, seed=3)
        data = world.sample(30_000, seed_offset=0)
        panel = run_panel(data, seed=0)
        scores = panel.scores()
        assert scores["BiasMF"] > scores["ItemPop"]
        assert scores["ItemKNN"] > scores["ItemPop"]

    def test_evaluate_empty_test_rejected(self):
        with pytest.raises(UnitError):
            evaluate(ItemPop().fit(DATA), DATA, {})


class TestSampling:
    def test_rates_respected(self):
        for sampler in (random_interactions, svp_users):
            sample = sampler(DATA, 0.2, seed=0)
            assert 0.05 * len(DATA) < len(sample) < 0.4 * len(DATA)

    def test_head_users_keeps_whole_histories(self):
        sample = head_users(DATA, 0.2)
        counts_full = np.bincount(DATA.users, minlength=DATA.n_users)
        counts_sample = np.bincount(sample.users, minlength=DATA.n_users)
        kept = np.unique(sample.users)
        np.testing.assert_array_equal(counts_sample[kept], counts_full[kept])

    def test_recent_keeps_latest(self):
        sample = recent_interactions(DATA, 0.1)
        cutoff = np.quantile(DATA.timestamps, 0.9)
        assert sample.timestamps.min() >= cutoff - 1e-9

    def test_rate_validation(self):
        with pytest.raises(UnitError):
            random_interactions(DATA, 0.0)
        with pytest.raises(UnitError):
            svp_users(DATA, 1.5)

    def test_svp_band_validation(self):
        with pytest.raises(UnitError):
            svp_users(DATA, 0.1, difficulty_band=(0.9, 0.1))


class TestRankingStudy:
    def test_kendall_tau_identity(self):
        panel = run_panel(DATA, seed=0)
        assert kendall_tau(panel, panel) == pytest.approx(1.0)

    def test_panel_times_positive(self):
        panel = run_panel(DATA, seed=0)
        assert panel.wall_time_s > 0
        assert len(panel.results) == 3


class TestHalfLife:
    def test_decay_at_half_life(self):
        model = HalfLifeModel(half_life_years=7.0)
        assert model.value_at_age(7.0) == pytest.approx(0.5)
        assert model.value_at_age(0.0) == pytest.approx(1.0)

    def test_floor_limits_decay(self):
        model = HalfLifeModel(2.0, floor=0.3)
        assert model.value_at_age(1000.0) == pytest.approx(0.3, abs=1e-6)

    def test_fit_recovers_known_half_life(self):
        truth = HalfLifeModel(3.5, floor=0.1)
        ages = np.linspace(0, 10, 12)
        values = np.array([truth.value_at_age(a) for a in ages])
        fitted = fit_half_life(ages, values)
        assert fitted.half_life_years == pytest.approx(3.5, rel=0.05)
        assert fitted.floor == pytest.approx(0.1, abs=0.02)

    def test_fit_needs_points(self):
        with pytest.raises(CalibrationError):
            fit_half_life(np.array([0.0, 1.0]), np.array([1.0, 0.9]))

    def test_retention_schedule_respects_budget(self):
        model = HalfLifeModel(2.0)
        ages = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
        rates = model.retention_schedule(ages, 0.5)
        assert np.all((rates >= 0) & (rates <= 1))
        assert np.mean(rates) == pytest.approx(0.5, abs=0.02)

    def test_retention_favors_fresh_data(self):
        model = HalfLifeModel(2.0)
        rates = model.retention_schedule(np.array([0.0, 4.0]), 0.5)
        assert rates[0] > rates[1]

    def test_storage_saving(self):
        model = HalfLifeModel(2.0)
        saving = model.storage_saving(np.array([0.0, 2.0, 4.0]), 0.5)
        assert saving == pytest.approx(0.5, abs=0.02)

    def test_validation(self):
        with pytest.raises(UnitError):
            HalfLifeModel(0.0)
        with pytest.raises(UnitError):
            HalfLifeModel(1.0, floor=1.0)
        with pytest.raises(UnitError):
            HalfLifeModel(1.0).value_at_age(-1.0)
