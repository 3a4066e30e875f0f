"""Tests for the closed-form bound formulas (Table 1, Theorems 3/21, eq. 1)."""

import math

import numpy as np
import pytest

from repro.bits.random import random_bmmc_with_rank_gamma, random_mrc_matrix
from repro.core import bounds
from repro.pdm.geometry import DiskGeometry


@pytest.fixture
def geometry():
    return DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**7)  # n=12 b=3 d=2 m=7


class TestTheorem3:
    def test_formula(self, geometry):
        g = geometry
        # N/BD = 128, lg(M/B) = 4
        assert bounds.theorem3_lower_bound(g, 0) == 128.0
        assert bounds.theorem3_lower_bound(g, 4) == 128 * 2.0
        assert bounds.theorem3_lower_bound(g, 2) == 128 * 1.5

    def test_monotone_in_rank(self, geometry):
        vals = [bounds.theorem3_lower_bound(geometry, r) for r in range(4)]
        assert vals == sorted(vals)


class TestSharpenedBound:
    def test_close_to_upper_bound(self, geometry):
        """Section 7: the sharpened LB is within ~6% of 2N/BD * rank/lg(M/B)
        as lg(M/B) grows; here just check it is below the exact UB and
        within the stated constant."""
        g = geometry
        for r in range(1, 4):
            lb = bounds.sharpened_lower_bound(g, r)
            naive = 2 * g.N / (g.B * g.D) * r / (g.m - g.b)
            assert lb < naive
            assert lb > naive / 1.3  # 2/(e ln 2)/lg(M/B) is a small correction

    def test_factor_quoted_in_paper(self):
        assert abs(2 / (math.e * math.log(2)) - 1.06) < 0.01


class TestTheorem21:
    def test_formula(self, geometry):
        g = geometry
        one_pass = g.one_pass_ios
        assert bounds.theorem21_upper_bound(g, 0) == one_pass * 2
        assert bounds.theorem21_upper_bound(g, 1) == one_pass * 3
        assert bounds.theorem21_upper_bound(g, 4) == one_pass * 3
        # rank gamma can't exceed min(b, n-b) but the formula is total anyway
        assert bounds.theorem21_upper_bound(g, 5) == one_pass * 4

    def test_upper_dominates_lower(self, geometry):
        for r in range(4):
            assert bounds.theorem21_upper_bound(geometry, r) >= bounds.theorem3_lower_bound(
                geometry, r
            )
            assert bounds.theorem21_upper_bound(geometry, r) >= bounds.sharpened_lower_bound(
                geometry, r
            )

    def test_asymptotic_ratio_bounded(self):
        """UB/LB ratio is bounded by a constant across geometries and ranks
        (that is what 'asymptotically tight' means)."""
        for n, b, d, m in [(12, 3, 2, 7), (16, 4, 3, 9), (20, 5, 2, 11), (14, 2, 0, 6)]:
            g = DiskGeometry(N=2**n, B=2**b, D=2**d, M=2**m)
            for r in range(0, min(b, n - b) + 1):
                ub = bounds.theorem21_upper_bound(g, r)
                lb = bounds.theorem3_lower_bound(g, r)
                assert ub / lb <= 6.0


class TestPredictedPasses:
    def test_mrc_is_one(self, geometry):
        a = random_mrc_matrix(geometry.n, geometry.m, np.random.default_rng(0))
        assert bounds.predicted_passes(a, geometry) == 1

    def test_matches_factoring(self, geometry):
        from repro.core.factoring import factor_bmmc
        from repro.bits.random import random_nonsingular

        for seed in range(10):
            a = random_nonsingular(geometry.n, np.random.default_rng(seed))
            fact = factor_bmmc(a, geometry.b, geometry.m)
            assert bounds.predicted_passes(a, geometry) == fact.num_passes

    @pytest.mark.parametrize(
        "seed, lg_n, lg_b, lg_m",
        [(1, 12, 2, 6), (0, 14, 3, 9), (1, 14, 3, 9)],
    )
    def test_inverse_mld_is_one_pass(self, seed, lg_n, lg_b, lg_m):
        """Permuted Gray codes that are inverse-MLD but neither MRC nor
        MLD: ``plan_bmmc_passes`` runs them in one pass, and the
        prediction must say so (it used to predict two)."""
        from repro.bits.colops import is_mld_form, is_mrc_form
        from repro.core.inverse_mld import is_inverse_mld
        from repro.core.runner import perform_permutation
        from repro.pdm.system import ParallelDiskSystem
        from repro.perms.library import permuted_gray_code

        g = DiskGeometry(N=2**lg_n, B=2**lg_b, D=2**2, M=2**lg_m)
        order = np.random.default_rng(seed).permutation(g.n)
        perm = permuted_gray_code(g.n, list(order))
        a = perm.matrix
        assert is_inverse_mld(a, g.b, g.m)
        assert not is_mrc_form(a, g.m) and not is_mld_form(a, g.b, g.m)
        assert bounds.predicted_passes(a, g) == 1
        system = ParallelDiskSystem(g)
        system.fill_identity()
        report = perform_permutation(system, perm, method="bmmc")
        assert report.verified and report.passes == 1
        assert report.io.parallel_ios == report.bounds["predicted_ios"]
        assert report.io.parallel_ios == g.one_pass_ios

    def test_predicted_ios(self, geometry):
        from repro.bits.random import random_nonsingular

        a = random_nonsingular(geometry.n, np.random.default_rng(3))
        assert bounds.predicted_ios(a, geometry) == geometry.one_pass_ios * bounds.predicted_passes(
            a, geometry
        )


class TestHFunction:
    """Eq. 1's three regimes, selected by exact power-of-two comparisons."""

    def test_small_memory_regime(self):
        # M <= sqrt(N): 2m <= n
        g = DiskGeometry(N=2**16, B=2**3, D=2**2, M=2**7)  # 2*7 < 16
        assert bounds.h_function(g) == 4 * math.ceil(3 / 4) + 9

    def test_middle_regime(self):
        # sqrt(N) < M < sqrt(NB): n < 2m < n + b
        g = DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**7)  # 12 < 14 < 15
        assert bounds.h_function(g) == 4 * math.ceil((12 - 3) / 4) + 1

    def test_large_memory_regime(self):
        # sqrt(NB) <= M: 2m >= n + b
        g = DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**8)  # 16 >= 15
        assert bounds.h_function(g) == 5

    def test_boundary_m_squared_equals_n(self):
        g = DiskGeometry(N=2**14, B=2**3, D=2**2, M=2**7)  # 2m == n -> first regime
        assert bounds.h_function(g) == 4 * math.ceil(3 / 4) + 9


class TestOldBounds:
    def test_old_bmmc_passes(self, geometry):
        g = geometry
        h = bounds.h_function(g)
        # leading rank = m -> 2*ceil(0/4) + H = H
        assert bounds.old_bmmc_bound_passes(g, g.m) == h
        assert bounds.old_bmmc_bound_passes(g, 0) == 2 * math.ceil(7 / 4) + h

    def test_old_bpc_passes(self, geometry):
        assert bounds.old_bpc_bound_passes(geometry, 0) == 1
        assert bounds.old_bpc_bound_passes(geometry, 4) == 3
        assert bounds.old_bpc_bound_passes(geometry, 5) == 5

    def test_new_bound_beats_old_bmmc(self, geometry):
        """The whole point of the paper: Theorem 21 <= the bound of [4]
        (for every leading-rank/rank-gamma pair realizable together)."""
        g = geometry
        rng = np.random.default_rng(1)
        for seed in range(10):
            a = random_bmmc_with_rank_gamma(
                g.n, g.b, int(rng.integers(0, g.b + 1)), np.random.default_rng(seed)
            )
            from repro.bits import linalg

            new = bounds.predicted_ios(a, g)
            old = bounds.old_bmmc_bound_ios(g, linalg.rank(a[0 : g.m, 0 : g.m]))
            assert new <= old

    def test_mrc_row(self):
        assert bounds.mrc_bound_passes() == 1


class TestGeneralAndDetection:
    def test_general_bound_positive(self, geometry):
        assert bounds.general_permutation_bound(geometry) > 0

    def test_general_bound_small_B_regime(self):
        """With B=1 the N/D term of the Vitter-Shriver bound wins."""
        g = DiskGeometry(N=2**10, B=1, D=2**2, M=2**5)
        val = bounds.general_permutation_bound(g)
        assert val == 2 * g.N / g.D  # N/D < (N/BD) ceil(...) here? both equal N/D * c
        # with B = 1, N/BD * anything >= N/D, so min picks N/D

    def test_detection_bound(self, geometry):
        g = geometry
        assert bounds.detection_read_bound(g) == g.num_stripes + math.ceil(
            (g.n - g.b + 1) / g.D
        )
        assert bounds.detection_formation_reads(g) == math.ceil((g.n - g.b + 1) / g.D)

    def test_merge_sort_passes_monotone(self):
        g1 = DiskGeometry(N=2**10, B=2**2, D=2**1, M=2**5)
        g2 = DiskGeometry(N=2**14, B=2**2, D=2**1, M=2**5)
        assert bounds.merge_sort_passes(g1) < bounds.merge_sort_passes(g2)

    def test_delta_max(self, geometry):
        g = geometry
        expected = g.B * (2 / (math.e * math.log(2)) + (g.m - g.b))
        assert abs(bounds.delta_max(g) - expected) < 1e-12

    def test_nonidentity_lower_bound(self, geometry):
        g = geometry
        assert bounds.nonidentity_lower_bound(g) == g.N / (2 * g.B * g.D)

    def test_rank_gamma_helper(self, geometry):
        a = random_bmmc_with_rank_gamma(geometry.n, geometry.b, 2, np.random.default_rng(5))
        assert bounds.rank_gamma(a, geometry.b) == 2
