"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_1d,
    check_2d,
    check_count,
    check_fraction,
    check_in_choices,
    check_matching_length,
    check_positive,
    check_probability_vector,
    require_columns,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3.5) == 3.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive("x", 0, strict=False) == 0

    def test_rejects_negative_always(self):
        with pytest.raises(ValueError):
            check_positive("x", -1, strict=False)


class TestCheckCount:
    def test_accepts_integers(self):
        assert check_count("n", 3) == 3
        assert check_count("n", np.int64(2)) == 2
        assert check_count("n", 0, strict=False) == 0

    @pytest.mark.parametrize("value", [0, -1, 1.5, float("nan"), True, "1"])
    def test_rejects_non_counts(self, value):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            check_count("n", value)

    def test_non_strict_names_the_bound(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            check_count("n", -1, strict=False)


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_inclusive_bounds(self, value):
        assert check_fraction("f", value) == value

    def test_exclusive_rejects_bounds(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            check_fraction("f", 0.0, inclusive=False)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="f must be in"):
            check_fraction("f", 1.5)


class TestCheckInChoices:
    def test_accepts_member(self):
        assert check_in_choices("mode", "a", ["a", "b"]) == "a"

    def test_rejects_non_member_naming_choices(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            check_in_choices("mode", "z", ["a", "b"])


class TestArrayChecks:
    def test_check_1d_coerces_list(self):
        out = check_1d("v", [1, 2, 3])
        assert out.dtype == float and out.shape == (3,)

    def test_check_1d_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_1d("v", [[1, 2]])

    def test_check_2d_rejects_vector(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_2d("m", [1, 2])

    def test_require_columns(self):
        matrix = np.zeros((3, 4))
        assert require_columns("m", matrix, 4) is matrix
        with pytest.raises(ValueError, match="must have 5 columns"):
            require_columns("m", matrix, 5)


class TestMatchingLength:
    def test_accepts_equal(self):
        check_matching_length(("a", [1, 2]), ("b", [3, 4]))

    def test_rejects_mismatch_with_detail(self):
        with pytest.raises(ValueError, match="a=2, b=3"):
            check_matching_length(("a", [1, 2]), ("b", [3, 4, 5]))

    def test_empty_call_is_noop(self):
        check_matching_length()


class TestProbabilityVector:
    def test_accepts_distribution(self):
        out = check_probability_vector("p", [0.25, 0.75])
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_probability_vector("p", [-0.5, 1.5])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="must sum to 1"):
            check_probability_vector("p", [0.3, 0.3])
