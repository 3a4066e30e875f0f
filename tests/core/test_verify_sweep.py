"""Verification of answers: the inverse-image compare and the gather agree.

``perform_permutation`` verifies with
``verify_permutation(perm, None, final)``: ``target[pi(x)] == x`` for
every ``x``.  A BMMC permutation is checked by one sequential compare of
the target with its inverse image ``A^-1 (y (+) c)``; an explicit one by
a gather compared with the identity array.  These tests hold both to the
reference the test computes itself, by gather, on every named
permutation, every method that applies, three seeds and two geometries.
"""

import hashlib

import numpy as np
import pytest

from repro.core.runner import perform_permutation
from repro.pdm.cache import PlanCache
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms.bmmc import BMMCPermutation
from repro.perms.classify import PermClass, classify
from repro.serve.requests import (
    PERM_CHOICES,
    PermutationRequest,
    _MIX_TEMPLATES,
    _execute_request,
    make_permutation,
)

GEOMETRIES = [
    DiskGeometry(N=2**10, B=2**2, D=2**2, M=2**7),
    DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7),
]

#: Methods that need the permutation to be in a class.
CLASS_METHODS = {
    "mrc": PermClass.MRC,
    "mld": PermClass.MLD,
    "inv-mld": PermClass.INVERSE_MLD,
    "bmmc": PermClass.BMMC,
    "bmmc-unmerged": PermClass.BMMC,
}

#: Methods that route records by address; the two sorts route by payload.
ADDRESS_ROUTED = ("mrc", "mld", "inv-mld", "bmmc", "bmmc-unmerged")


def applicable_methods(perm, g):
    classes = classify(perm, g)
    return ["auto", "general", "distribution"] + [
        m for m, c in CLASS_METHODS.items() if c in classes
    ]


def reference_verified(system, perm, portion):
    """``target[pi(x)] == x`` for every ``x``, by gather."""
    target = system.portion_values(portion)
    return bool((target[perm.target_vector()] == np.arange(system.geometry.N)).all())


def swap_two_records(system, portion, rng):
    values = system.portion_values(portion)
    i, j = rng.choice(values.size, size=2, replace=False)
    values[[i, j]] = values[[j, i]]
    system.fill(portion, values)


def cases():
    for g in GEOMETRIES:
        for name in PERM_CHOICES:
            for seed in range(3):
                yield pytest.param(g, name, seed, id=f"B{g.B}-{name}-{seed}")


@pytest.mark.parametrize("g, name, seed", list(cases()))
def test_verified_matches_gather_and_catches_a_swap(g, name, seed):
    perm = make_permutation(name, g, seed=seed)
    rng = np.random.default_rng(seed)
    for method in applicable_methods(perm, g):
        system = ParallelDiskSystem(g)
        system.fill_identity(0)
        report = perform_permutation(system, perm, method=method, engine="fast", seed=seed)
        final = report.final_portion
        assert report.verified is True, method
        assert reference_verified(system, perm, final), method

        swap_two_records(system, final, rng)
        assert not reference_verified(system, perm, final)
        # The canonical-source path (inverse image for BMMC, gather
        # against the identity array otherwise) and the explicit gather.
        assert system.verify_permutation(perm, None, final) is False, method
        assert system.verify_permutation(perm, np.arange(g.N), final) is False, method


@pytest.mark.parametrize("name", ["random-bmmc", "bit-reversal", "random-mld", "gray", "random"])
def test_non_canonical_source(name):
    """``verified`` is ``target[pi(x)] == x`` whatever the source held.

    A shuffled source breaks the documented precondition.  The
    address-routed methods then move the shuffled payloads and read
    ``verified=False``; the sorts route each record by ``pi`` of its
    payload, so their answer still passes the same predicate.
    """
    g = GEOMETRIES[1]
    perm = make_permutation(name, g, seed=1)
    for method in applicable_methods(perm, g):
        system = ParallelDiskSystem(g)
        system.fill(0, np.random.default_rng(5).permutation(g.N))
        report = perform_permutation(system, perm, method=method, engine="fast")
        assert report.verified == reference_verified(system, perm, report.final_portion)
        if report.method in ADDRESS_ROUTED:  # what "auto" chose, too
            assert report.verified is False, method


@pytest.mark.parametrize("name, method", _MIX_TEMPLATES)
def test_digest_hashes_the_final_portion(name, method):
    g = GEOMETRIES[1]
    system = ParallelDiskSystem(g)
    request = PermutationRequest(
        perm=name, method=method, seed=2, geometry=g, capture_portion=True
    )
    report, digest = _execute_request(system, request, PlanCache())
    assert report.verified
    want = hashlib.sha256(system.portion_values(report.final_portion)).hexdigest()
    assert digest == want


@pytest.mark.parametrize("name", ["bit-reversal", "random-bmmc"])
def test_warm_request_builds_no_inverse(name, monkeypatch):
    """The inverse is built once per permutation object; the named
    permutations are shared, so a warm request builds none."""
    g = GEOMETRIES[1]
    perm = make_permutation(name, g, seed=3)
    assert perm.inverse() is perm.inverse()
    assert perm.inverse().compose(perm).is_identity()

    cache = PlanCache()
    request = PermutationRequest(perm=name, seed=3, geometry=g, capture_portion=True)
    system = ParallelDiskSystem(g)
    cold, cold_digest = _execute_request(system, request, cache)

    built = []
    init = BMMCPermutation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BMMCPermutation, "__init__", counting_init)
    system.reset()
    warm, warm_digest = _execute_request(system, request, cache)
    assert warm.verified and cold.verified
    assert warm_digest == cold_digest
    assert built == []
