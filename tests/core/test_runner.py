"""Tests for the classification-driven dispatcher."""

import numpy as np
import pytest

from repro.bits.random import random_mld_matrix, random_mrc_matrix, random_nonsingular
from repro.core.runner import perform_permutation
from repro.errors import ValidationError
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms.base import ExplicitPermutation
from repro.perms.bmmc import BMMCPermutation
from repro.perms.classify import PermClass
from repro.perms.library import gray_code


@pytest.fixture
def geometry():
    return DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**8)


def fresh(geometry):
    s = ParallelDiskSystem(geometry)
    s.fill_identity(0)
    return s


class TestAutoDispatch:
    def test_mrc_dispatch(self, geometry):
        s = fresh(geometry)
        report = perform_permutation(s, gray_code(geometry.n))
        assert report.method == "mrc" and report.passes == 1 and report.verified

    def test_mld_dispatch(self, geometry):
        g = geometry
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = random_mld_matrix(g.n, g.b, g.m, rng)
            from repro.perms.mrc import is_mrc

            if not is_mrc(a, g.m):
                break
        s = fresh(g)
        report = perform_permutation(s, BMMCPermutation(a))
        assert report.method == "mld" and report.passes == 1 and report.verified

    def test_bmmc_dispatch(self, geometry):
        g = geometry
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_nonsingular(g.n, rng)
            from repro.perms.mld import is_mld

            if not is_mld(a, g.b, g.m):
                break
        s = fresh(g)
        report = perform_permutation(s, BMMCPermutation(a))
        assert report.method == "bmmc" and report.verified

    def test_general_dispatch_for_non_bmmc(self, geometry):
        g = geometry
        tv = np.random.default_rng(2).permutation(g.N)
        s = fresh(g)
        report = perform_permutation(s, ExplicitPermutation(tv))
        assert report.method == "general" and report.verified
        assert report.classes == {PermClass.NON_BMMC}

    def test_explicit_bmmc_vector_gets_fast_path(self, geometry):
        """An explicit vector that *is* BMMC must be fitted and run through
        the BMMC machinery, not the general sorter."""
        g = geometry
        perm = gray_code(g.n)
        s = fresh(g)
        report = perform_permutation(s, ExplicitPermutation(perm.target_vector()))
        assert report.method == "mrc" and report.verified


class TestExplicitMethods:
    def test_forced_general_on_bmmc(self, geometry):
        s = fresh(geometry)
        report = perform_permutation(s, gray_code(geometry.n), method="general")
        assert report.method == "general" and report.verified

    def test_forced_bmmc(self, geometry):
        g = geometry
        perm = BMMCPermutation(random_nonsingular(g.n, np.random.default_rng(3)))
        s = fresh(g)
        report = perform_permutation(s, perm, method="bmmc")
        assert report.verified

    def test_ablation_method(self, geometry):
        g = geometry
        rng = np.random.default_rng(4)
        from repro.perms.mld import is_mld

        for _ in range(50):
            a = random_nonsingular(g.n, rng)
            if not is_mld(a, g.b, g.m):
                break
        perm = BMMCPermutation(a)
        s1 = fresh(g)
        merged = perform_permutation(s1, perm, method="bmmc")
        s2 = fresh(g)
        unmerged = perform_permutation(s2, perm, method="bmmc-unmerged")
        assert merged.verified and unmerged.verified
        assert unmerged.passes == 2 * merged.passes
        assert unmerged.io.parallel_ios == 2 * merged.io.parallel_ios

    def test_unknown_method_rejected(self, geometry):
        s = fresh(geometry)
        with pytest.raises(ValidationError):
            perform_permutation(s, gray_code(geometry.n), method="magic")

    def test_mld_method_on_non_bmmc_rejected(self, geometry):
        g = geometry
        tv = np.random.default_rng(5).permutation(g.N)
        s = fresh(g)
        with pytest.raises(ValidationError):
            perform_permutation(s, ExplicitPermutation(tv), method="mld")


class TestReport:
    def test_bounds_table_populated(self, geometry):
        g = geometry
        perm = BMMCPermutation(random_nonsingular(g.n, np.random.default_rng(6)))
        s = fresh(g)
        report = perform_permutation(s, perm)
        for key in [
            "rank_gamma",
            "theorem3_lower_bound",
            "theorem21_upper_bound",
            "predicted_ios",
            "old_bmmc_bound_ios",
            "general_permutation_bound",
        ]:
            assert key in report.bounds
        assert report.io.parallel_ios <= report.bounds["theorem21_upper_bound"]
        assert report.io.parallel_ios == report.bounds["predicted_ios"]

    def test_bpc_bound_included_for_bpc(self, geometry):
        from repro.perms.library import bit_reversal

        s = fresh(geometry)
        report = perform_permutation(s, bit_reversal(geometry.n))
        assert "old_bpc_bound_ios" in report.bounds

    def test_summary_text(self, geometry):
        s = fresh(geometry)
        report = perform_permutation(s, gray_code(geometry.n))
        text = report.summary()
        assert "method=mrc" in text and "verified=True" in text

    def test_detects_wrong_result(self, geometry):
        """verify=True must catch an algorithm writing to the wrong portion
        -- simulated by verifying a different permutation."""
        g = geometry
        s = fresh(g)
        report = perform_permutation(s, gray_code(g.n), verify=True)
        assert report.verified
        # now check that verification is meaningful: a fresh system without
        # running anything does not verify
        s2 = fresh(g)
        assert not s2.verify_permutation(gray_code(g.n), np.arange(g.N), 1)


class TestMemo:
    def test_equal_bmmc_runs_get_equal_but_distinct_analysis(self, geometry, monkeypatch):
        from repro.bits.matrix import BitMatrix
        from repro.core import runner

        g = geometry
        a = random_nonsingular(g.n, np.random.default_rng(11))
        runner._bmmc_analysis.cache_clear()
        calls = []
        classify = runner.classify

        def counting_classify(*args):
            calls.append(args)
            return classify(*args)

        monkeypatch.setattr(runner, "classify", counting_classify)

        def run():
            perm = BMMCPermutation(BitMatrix(a.to_array().copy()), 5)
            return perform_permutation(fresh(g), perm)

        first, second = run(), run()
        assert len(calls) == 1  # the second run was served by the memo
        assert first.classes == second.classes and first.bounds == second.bounds
        assert first.classes is not second.classes
        assert first.bounds is not second.bounds

        expected_classes, expected_bounds = set(second.classes), dict(second.bounds)
        first.classes.add(PermClass.NON_BMMC)
        first.bounds["rank_gamma"] = -1.0
        third = run()
        for report in (second, third):
            assert report.classes == expected_classes
            assert report.bounds == expected_bounds

    def test_random_permutation_is_never_memoized(self, geometry):
        from repro.serve.requests import make_permutation

        first = make_permutation("random", geometry, seed=3)
        second = make_permutation("random", geometry, seed=3)
        assert first is not second
        assert (first.target_vector() == second.target_vector()).all()
        named = make_permutation("random-bmmc", geometry, seed=3)
        assert make_permutation("random-bmmc", geometry, seed=3) is named
