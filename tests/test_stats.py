import math
import random
import warnings

import pytest
import scipy.stats as scipy_stats

from rerankeval.errors import RerankEvalError, ZeroVariance
from rerankeval.metrics import MetricResult
from rerankeval.stats import (compare_models, paired_t_test,
                              reg_incomplete_beta, stars,
                              t_two_sided_p, two_sample_t_test)


def no_spread(test, *args, **kwargs):
    """The scipy test on samples with no spread, without the warning scipy
    gives for them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return test(*args, **kwargs)


class TestTCdf:
    def test_df2_closed_form(self):
        # two-sided p for df=2: 1 - t/sqrt(t^2+2)
        for t in (0.5, 1.0, 3.4641, 8.0):
            closed = 1.0 - t / math.sqrt(t * t + 2.0)
            assert t_two_sided_p(t, 2) == pytest.approx(closed, abs=1e-12)

    def test_matches_scipy_to_1e10(self):
        rng = random.Random(3)
        for _ in range(200):
            t = rng.uniform(-12, 12)
            df = rng.uniform(1, 250)
            assert t_two_sided_p(t, df) == \
                pytest.approx(2 * scipy_stats.t.sf(abs(t), df), abs=1e-10)

    def test_monotone_in_abs_t(self):
        ps = [t_two_sided_p(t, 7) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 9.0)]
        assert ps == sorted(ps, reverse=True)

    def test_incomplete_beta_bounds(self):
        assert reg_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        assert reg_incomplete_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)


class TestPaired:
    def test_diffs_one_two_three(self):
        # oracle: closed-form df=2 CDF
        result = paired_t_test([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
        assert result.t_value == pytest.approx(3.4641, abs=1e-4)
        assert result.degrees_of_freedom == 2.0
        assert result.p_value == pytest.approx(0.0742, abs=1e-3)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_nonzero_difference_is_certain(self):
        # every pair differs by 1: no spread, but a difference
        for a, b, sign in (([4.0, 5.0, 3.0], [3.0, 4.0, 2.0], 1.0),
                           ([3.0, 4.0, 2.0], [4.0, 5.0, 3.0], -1.0)):
            result = paired_t_test(a, b)
            ref = no_spread(scipy_stats.ttest_rel, a, b)
            assert (result.t_value, result.p_value, result.significant) == \
                (sign * math.inf, 0.0, "***")
            assert (result.t_value, result.p_value, result.degrees_of_freedom) == \
                (ref.statistic, ref.pvalue, ref.df)

    def test_antisymmetry(self):
        a, b = [1.0, 2.5, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
        assert paired_t_test(a, b).t_value == -paired_t_test(b, a).t_value
        assert paired_t_test(a, b).p_value == \
            pytest.approx(paired_t_test(b, a).p_value, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(RerankEvalError, match="paired samples differ in length: 2 vs 1"):
            paired_t_test([1.0, 2.0], [1.0])

    def test_matches_scipy(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(3, 40)
            a = [rng.gauss(0, 1) for _ in range(n)]
            b = [rng.gauss(0.3, 1) for _ in range(n)]
            mine = paired_t_test(a, b)
            ref = scipy_stats.ttest_rel(a, b)
            assert mine.t_value == pytest.approx(ref.statistic, abs=1e-10)
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-10)


class TestTwoSample:
    def test_identical_samples(self):
        result = two_sample_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_value == 0.0
        assert result.p_value == 1.0

    def test_both_constant_and_equal_is_no_difference(self):
        with pytest.raises(ZeroVariance):
            two_sample_t_test([1.0, 1.0], [1.0, 1.0, 1.0])

    def test_both_constant_and_different_is_certain(self):
        for a, b, sign in (([5.0, 5.0, 5.0], [3.0, 3.0, 3.0], 1.0),
                           ([0.0, 0.0], [1.0, 1.0], -1.0)):
            result = two_sample_t_test(a, b)
            ref = no_spread(scipy_stats.ttest_ind, a, b, equal_var=False)
            assert (result.t_value, result.p_value, result.significant) == \
                (sign * math.inf, 0.0, "***")
            assert (result.t_value, result.p_value, result.degrees_of_freedom) == \
                (ref.statistic, ref.pvalue, ref.df)

    def test_welch_matches_scipy_oracle(self):
        # oracle-computed (scipy.stats.ttest_ind, equal_var=False)
        result = two_sample_t_test([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0])
        assert result.t_value == pytest.approx(-1.0954, abs=1e-4)
        assert result.p_value == pytest.approx(0.3153, abs=1e-3)

    def test_pooled_matches_scipy(self):
        rng = random.Random(4)
        a = [rng.gauss(0, 1) for _ in range(12)]
        b = [rng.gauss(0.5, 2) for _ in range(17)]
        mine = two_sample_t_test(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert mine.t_value == pytest.approx(ref.statistic, abs=1e-10)
        assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-10)


def test_equal_values_have_no_spread():
    # all 0.1, yet their computed variance is not 0: the test sees no spread
    assert paired_t_test([0.1] * 3, [0.0] * 3).t_value == math.inf
    assert two_sample_t_test([0.1] * 3, [0.2] * 2).t_value == -math.inf


class TestStars:
    def test_thresholds_boundary_inclusive(self):
        assert stars(0.001) == "***"
        assert stars(0.0011) == "**"
        assert stars(0.01) == "**"
        assert stars(0.011) == "*"
        assert stars(0.05) == "*"
        assert stars(0.051) == ""


def result_grid(values_by_user, cutoffs=(3,)):
    return [MetricResult(metric=m, n=n, per_user=dict(values_by_user),
                         mean=sum(values_by_user.values()) / len(values_by_user))
            for m in ("ndcg",) for n in cutoffs]


class TestCompareModels:
    def test_identical_runs_render_dash(self):
        vals = {f"u{i}": 0.5 for i in range(10)}
        table = compare_models(result_grid(vals), result_grid(vals))
        assert table[("ndcg", 3)] is None

    def test_constant_shift_is_certain(self):
        # every user gains the same 0.25: the runs differ, so the cell is no "-"
        base = {f"u{i}": 0.25 * (i % 3) for i in range(10)}
        table = compare_models(result_grid({u: v + 0.25 for u, v in base.items()}),
                               result_grid(base))
        result = table[("ndcg", 3)]
        assert (result.t_value, result.p_value, result.significant) == (math.inf, 0.0, "***")

    def test_known_shift_is_significant(self):
        # Monte-Carlo sanity: a 0.5 shift over 50 users with sd 0.1
        rng = random.Random(12)
        base = {f"u{i}": rng.gauss(0.3, 0.1) for i in range(50)}
        shifted = {u: v + 0.5 + rng.gauss(0, 0.05) for u, v in base.items()}
        table = compare_models(result_grid(shifted), result_grid(base))
        assert table[("ndcg", 3)].p_value < 0.05

    def test_single_user_rejected(self):
        a = result_grid({"u": 0.2})
        b = result_grid({"u": 0.4})
        with pytest.raises(ValueError):
            compare_models(a, b)

    def test_grid_mismatch(self):
        # runs scored at different cutoffs cannot be paired cell by cell
        vals = {"u1": 0.2, "u2": 0.3}
        with pytest.raises(RerankEvalError, match="metric/cutoff grids differ"):
            compare_models(result_grid(vals, cutoffs=(3, 5)), result_grid(vals))

    def test_user_set_mismatch(self):
        a = result_grid({"u1": 0.2, "u2": 0.3})
        b = result_grid({"u1": 0.2, "u3": 0.3})
        with pytest.raises(RerankEvalError, match="user sets differ"):
            compare_models(a, b)
