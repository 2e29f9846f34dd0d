"""Unit tests for repro.utils.rng and repro.utils.timing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, iter_param_combinations, spawn_rngs
from repro.utils.timing import Timer


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).standard_normal(5)
        b = ensure_rng(42).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).standard_normal(5)
        b = ensure_rng(2).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_generator_passed_through(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator


class TestSpawnRngs:
    def test_count_and_types(self):
        children = spawn_rngs(0, 4)
        assert len(children) == 4
        assert all(isinstance(child, np.random.Generator) for child in children)

    def test_children_independent(self):
        children = spawn_rngs(0, 2)
        a = children[0].standard_normal(8)
        b = children[1].standard_normal(8)
        assert not np.array_equal(a, b)

    def test_deterministic_for_fixed_seed(self):
        a = [child.standard_normal(3) for child in spawn_rngs(7, 3)]
        b = [child.standard_normal(3) for child in spawn_rngs(7, 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        generator = np.random.default_rng(0)
        children = spawn_rngs(generator, 3)
        assert len(children) == 3

    @pytest.mark.parametrize("start", [0, 1, 4])
    def test_start_skips_the_first_children(self, start):
        tail = [child.standard_normal(3) for child in spawn_rngs(11, 3, start=start)]
        whole = [child.standard_normal(3) for child in spawn_rngs(11, start + 3)]
        for x, y in zip(tail, whole[start:], strict=True):
            assert np.array_equal(x, y)

    def test_start_with_a_generator_seed_is_rejected_before_any_draw(self):
        generator = np.random.default_rng(5)
        with pytest.raises(ValueError, match="Generator"):
            spawn_rngs(generator, 2, start=3)
        assert generator.integers(0, 100) == np.random.default_rng(5).integers(0, 100)

    def test_start_with_zero_count(self):
        assert spawn_rngs(0, 0, start=7) == []

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_rngs(0, 2, start=-1)


class TestIterParamCombinations:
    def test_full_grid(self):
        combos = list(iter_param_combinations((2, 3), (2, 4)))
        assert combos == [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]

    def test_single_point(self):
        assert list(iter_param_combinations((5, 5), (7, 7))) == [(5, 7)]

    def test_empty_when_reversed(self):
        assert list(iter_param_combinations((3, 2), (2, 2))) == []


class TestTimer:
    def test_elapsed_non_negative(self):
        with Timer() as timer:
            sum(range(100))
        assert timer.elapsed >= 0.0

    def test_elapsed_zero_before_use(self):
        assert Timer().elapsed == 0.0
