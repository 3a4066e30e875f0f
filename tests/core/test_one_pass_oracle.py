"""The bulk one-pass planners against their per-memoryload originals.

:mod:`tests.core.reference_one_pass` keeps the MRC, MLD and inverse-MLD
planners that argsort each memoryload's targets or loop over the
memoryloads.  The planners in :mod:`repro.core` read the same routing
off the permutation's images in bulk.  For every case of the sweep the
two must build the same plan -- each :class:`PassColumns` field, with
its dtype, and each pass label -- or raise the same
:class:`NotInClassError` type with the same text.

The sweep covers ordinary geometries and the corners (``B = 1``,
``D = 1``, ``BD = M``, ``M = N/2``), every BMMC name in
``PERM_CHOICES`` and its inverse, seeds 0-2, and ``check_class`` both
ways.  With the class check off, non-members reach the planners'
in-flight Lemma 13 and property-3 assertions, and the sweep must reach
each of the four.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inverse_mld import plan_inverse_mld_pass
from repro.core.mld_algorithm import plan_mld_pass
from repro.core.mrc_algorithm import plan_mrc_pass
from repro.errors import NotInClassError
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import PassColumns
from repro.serve.requests import PERM_CHOICES, make_permutation
from tests.core.reference_one_pass import (
    reference_plan_inverse_mld_pass,
    reference_plan_mld_pass,
    reference_plan_mrc_pass,
)

GEOMETRIES = [
    dict(N=2**10, B=2**3, D=2**2, M=2**7),
    dict(N=2**12, B=2**2, D=2**3, M=2**8),
    dict(N=2**16, B=2**3, D=2**2, M=2**9),
    dict(N=2**10, B=2**0, D=2**2, M=2**5),  # one-record blocks
    dict(N=2**10, B=2**2, D=2**0, M=2**6),  # one disk
    dict(N=2**11, B=2**3, D=2**3, M=2**6),  # BD == M
    dict(N=2**9, B=2**2, D=2**2, M=2**8),  # M == N/2
]

#: Every BMMC name ("random" is an explicit permutation).
NAMES = [name for name in PERM_CHOICES if name != "random"]

#: (label, bulk planner, reference planner, takes check_class)
PLANNERS = [
    ("mrc", plan_mrc_pass, reference_plan_mrc_pass, False),
    ("mld", plan_mld_pass, reference_plan_mld_pass, True),
    ("inv-mld", plan_inverse_mld_pass, reference_plan_inverse_mld_pass, True),
]

#: The in-flight assertions, which only a non-member with the class
#: check off can reach.
IN_FLIGHT = {
    "memoryload does not cluster into full target blocks; "
    "the kernel condition (eq. 4) is violated",
    "target blocks are not spread evenly over the disks",
    "target memoryload does not gather from full source "
    "blocks; the inverse kernel condition is violated",
    "source blocks not spread evenly over disks",
}


def _outcome(planner, g, perm, kwargs):
    """The plan's passes as (label, columns), or the raised error."""
    try:
        plan = planner(g, perm, 0, 1, **kwargs)
    except NotInClassError as exc:
        return type(exc), str(exc)
    return [(p.label, p.columns_if_fresh()) for p in plan.passes]


def _assert_same(expected, got, case):
    if isinstance(expected, tuple):  # an error
        assert got == expected, case
        return
    assert isinstance(got, list), (case, got)
    assert [label for label, _ in got] == [label for label, _ in expected], case
    for (_, want), (_, have) in zip(expected, got):
        assert have is not None, case
        for name in PassColumns.__slots__:
            x, y = getattr(want, name), getattr(have, name)
            assert np.asarray(x).dtype == np.asarray(y).dtype, (case, name)
            assert np.array_equal(x, y), (case, name)


#: In-flight messages each geometry's sweep raised, by geometry.
_SEEN: dict[tuple, set[str]] = {}


def _sweep(params) -> set[str]:
    """Compare every case at one geometry; the messages the reference raised."""
    g = DiskGeometry(**params)
    seen: set[str] = set()
    cases = 0
    for name in NAMES:
        for seed in range(3):
            forward = make_permutation(name, g, seed)
            for perm, way in ((forward, "forward"), (forward.inverse(), "inverse")):
                for label, bulk, reference, has_check in PLANNERS:
                    for check in (True, False) if has_check else (None,):
                        kwargs = {} if check is None else {"check_class": check}
                        case = (params, name, seed, way, label, check)
                        expected = _outcome(reference, g, perm, kwargs)
                        _assert_same(expected, _outcome(bulk, g, perm, kwargs), case)
                        if isinstance(expected, tuple):
                            seen.add(expected[1])
                        cases += 1
    assert cases == len(NAMES) * 3 * 2 * 5
    return seen


@pytest.mark.parametrize(
    "params", GEOMETRIES, ids=lambda p: f"N{p['N']}-B{p['B']}-D{p['D']}-M{p['M']}"
)
def test_bulk_planners_match_reference(params):
    _SEEN[tuple(params.values())] = _sweep(params)


def test_sweep_reaches_every_in_flight_assertion():
    """The sweep cannot pass without reaching each in-flight assertion.
    Geometries whose sweep did not run in this session run here."""
    seen: set[str] = set()
    for params in GEOMETRIES:
        key = tuple(params.values())
        if key not in _SEEN:
            _SEEN[key] = _sweep(params)
        seen |= _SEEN[key]
    assert IN_FLIGHT <= seen, f"never reached: {sorted(IN_FLIGHT - seen)}"
