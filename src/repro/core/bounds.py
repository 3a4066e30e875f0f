"""Every closed-form bound in the paper, as executable formulas.

All functions return parallel-I/O counts (or pass counts where noted)
for a given :class:`DiskGeometry` and the relevant structural rank.
The benchmark harness compares these against *measured* I/O counts from
the simulator.

Index (paper source -> function):

* Theorem 3 (universal lower bound) ........ :func:`theorem3_lower_bound`
* Section 7 sharpened lower bound .......... :func:`sharpened_lower_bound`
* Lemma 9 trivial bound (non-identity) ..... :func:`nonidentity_lower_bound`
* Theorem 21 upper bound ................... :func:`theorem21_upper_bound`
* exact pass prediction (Section 5) ........ :func:`predicted_passes`
* Table 1, BMMC row of [4] (incl. eq. 1) ... :func:`old_bmmc_bound_passes`,
  :func:`h_function`
* Table 1, BPC row of [4] .................. :func:`old_bpc_bound_passes`
* Table 1, MRC row ......................... :func:`mrc_bound_passes`
* Vitter-Shriver general/sorting bound ..... :func:`general_permutation_bound`
* Section 6 detection cost ................. :func:`detection_read_bound`
* Section 7 potential-increase cap ......... :func:`delta_max`
"""

from __future__ import annotations

import math

from repro.bits import linalg
from repro.bits.colops import is_mld_form, is_mrc_form
from repro.bits.matrix import BitMatrix
from repro.core.inverse_mld import is_inverse_mld
from repro.pdm.geometry import DiskGeometry

__all__ = [
    "theorem3_lower_bound",
    "sharpened_lower_bound",
    "nonidentity_lower_bound",
    "theorem21_upper_bound",
    "predicted_passes",
    "predicted_ios",
    "h_function",
    "old_bmmc_bound_passes",
    "old_bmmc_bound_ios",
    "old_bpc_bound_passes",
    "old_bpc_bound_ios",
    "mrc_bound_passes",
    "general_permutation_bound",
    "merge_sort_passes",
    "detection_read_bound",
    "delta_max",
    "rank_gamma",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def rank_gamma(matrix: BitMatrix, b: int) -> int:
    """``rank gamma`` for ``gamma = A[b..n-1, 0..b-1]`` (Theorem 3's submatrix)."""
    n = matrix.num_rows
    return linalg.rank(matrix[b:n, 0:b])


# --------------------------------------------------------------------------
# lower bounds
# --------------------------------------------------------------------------

def theorem3_lower_bound(geometry: DiskGeometry, rank_g: int) -> float:
    """Theorem 3: ``Omega((N/BD) (1 + rank gamma / lg(M/B)))`` parallel I/Os.

    Returned as the expression's value with constant 1 -- an Omega
    statement, so measured/bound ratios (not absolute dominance) are
    what the experiments report.
    """
    g = geometry
    return (g.N / (g.B * g.D)) * (1 + rank_g / (g.m - g.b))


def sharpened_lower_bound(geometry: DiskGeometry, rank_g: int) -> float:
    """Section 7: ``2N/BD * rank gamma / (2/(e ln 2) + lg(M/B))`` parallel I/Os.

    Derived from the exact ``Delta_max`` bound; within a factor of about
    1.06 of the exact upper bound when ``rank gamma`` dominates.
    """
    g = geometry
    denom = 2.0 / (math.e * math.log(2)) + (g.m - g.b)
    return 2.0 * g.N / (g.B * g.D) * rank_g / denom


def nonidentity_lower_bound(geometry: DiskGeometry) -> float:
    """Lemma 9: any non-identity BMMC permutation moves >= N/2 records,
    so at least ``N/(2B)`` block reads, i.e. ``N/(2BD)`` parallel I/Os."""
    g = geometry
    return g.N / (2 * g.B * g.D)


# --------------------------------------------------------------------------
# this paper's upper bound
# --------------------------------------------------------------------------

def theorem21_upper_bound(geometry: DiskGeometry, rank_g: int) -> int:
    """Theorem 21: at most ``(2N/BD) (ceil(rank gamma / lg(M/B)) + 2)`` I/Os."""
    g = geometry
    passes = _ceil_div(rank_g, g.m - g.b) + 2
    return g.one_pass_ios * passes


def predicted_passes(matrix: BitMatrix, geometry: DiskGeometry) -> int:
    """Exact pass count of our implementation for a characteristic matrix.

    1 for MRC, MLD or inverse-MLD matrices (the one-pass shortcuts
    :func:`~repro.core.bmmc_algorithm.plan_bmmc_passes` takes), else
    ``g + 1 = ceil(rho / lg(M/B)) + 1`` with
    ``rho = rank A[m:, 0:m]`` (eqs. 16-17: ``rho <= rank gamma +
    lg(M/B)``, which is how Theorem 21's form arises).
    """
    g = geometry
    if (
        is_mrc_form(matrix, g.m)
        or is_mld_form(matrix, g.b, g.m)
        or is_inverse_mld(matrix, g.b, g.m)
    ):
        return 1
    rho = linalg.rank(matrix[g.m : g.n, 0 : g.m])
    return _ceil_div(rho, g.m - g.b) + 1


def predicted_ios(matrix: BitMatrix, geometry: DiskGeometry) -> int:
    """Exact parallel-I/O count: ``2N/BD`` per predicted pass."""
    return geometry.one_pass_ios * predicted_passes(matrix, geometry)


# --------------------------------------------------------------------------
# prior art: the bounds of [4] (Table 1)
# --------------------------------------------------------------------------

def h_function(geometry: DiskGeometry) -> int:
    """``H(N, M, B)`` of eq. 1, with exact power-of-two case analysis.

    ``M <= sqrt(N)``         iff ``2m <= n``      -> ``4 ceil(b/(m-b)) + 9``
    ``sqrt(N) < M < sqrt(NB)`` iff ``n < 2m < n+b`` -> ``4 ceil((n-b)/(m-b)) + 1``
    ``sqrt(NB) <= M``        iff ``2m >= n+b``    -> ``5``
    """
    g = geometry
    lg_mb = g.m - g.b
    if 2 * g.m <= g.n:
        return 4 * _ceil_div(g.b, lg_mb) + 9
    if 2 * g.m < g.n + g.b:
        return 4 * _ceil_div(g.n - g.b, lg_mb) + 1
    return 5


def old_bmmc_bound_passes(geometry: DiskGeometry, leading_rank: int) -> int:
    """BMMC bound of [4]: ``2 ceil((lg M - r)/lg(M/B)) + H(N, M, B)`` passes,
    where ``r`` is the rank of the leading ``lg M x lg M`` submatrix."""
    g = geometry
    return 2 * _ceil_div(g.m - leading_rank, g.m - g.b) + h_function(geometry)


def old_bmmc_bound_ios(geometry: DiskGeometry, leading_rank: int) -> int:
    return geometry.one_pass_ios * old_bmmc_bound_passes(geometry, leading_rank)


def old_bpc_bound_passes(geometry: DiskGeometry, cross_rank_value: int) -> int:
    """BPC bound of [4]: ``2 ceil(rho(A)/lg(M/B)) + 1`` passes (eq. 3 cross-rank)."""
    g = geometry
    return 2 * _ceil_div(cross_rank_value, g.m - g.b) + 1


def old_bpc_bound_ios(geometry: DiskGeometry, cross_rank_value: int) -> int:
    return geometry.one_pass_ios * old_bpc_bound_passes(geometry, cross_rank_value)


def mrc_bound_passes() -> int:
    """Table 1, MRC row: one pass."""
    return 1


# --------------------------------------------------------------------------
# general permutations
# --------------------------------------------------------------------------

def general_permutation_bound(geometry: DiskGeometry) -> float:
    """Vitter-Shriver general-permutation bound (expression value):
    ``min(N/D, (N/BD) * ceil(lg(N/B)/lg(M/B)))`` parallel I/Os (one way);
    doubled here to count reads and writes like our pass accounting."""
    g = geometry
    sorting = (g.N / (g.B * g.D)) * _ceil_div(g.n - g.b, g.m - g.b)
    return 2 * min(g.N / g.D, sorting)


def merge_sort_passes(geometry: DiskGeometry, fan_in: int | None = None) -> int:
    """Exact pass count of the striped merge-sort baseline.

    One run-formation pass plus ``ceil(log_K(N/M))`` merge passes with
    fan-in ``K = M/(BD) - 2`` (two stripes of head-room for the output
    buffer), the choice made by :mod:`repro.core.general`.
    """
    g = geometry
    if fan_in is None:
        fan_in = max(2, g.M // (g.B * g.D) - 2)
    runs = g.num_memoryloads
    passes = 1
    while runs > 1:
        runs = _ceil_div(runs, fan_in)
        passes += 1
    return passes


# --------------------------------------------------------------------------
# detection and potential
# --------------------------------------------------------------------------

def detection_read_bound(geometry: DiskGeometry) -> int:
    """Section 6: ``N/BD + ceil((lg(N/B) + 1)/D)`` parallel reads."""
    g = geometry
    return g.num_stripes + _ceil_div(g.n - g.b + 1, g.D)


def detection_formation_reads(geometry: DiskGeometry) -> int:
    """The candidate-formation part alone: ``ceil((lg(N/B) + 1)/D)`` reads."""
    g = geometry
    return _ceil_div(g.n - g.b + 1, g.D)


def delta_max(geometry: DiskGeometry) -> float:
    """Section 7: ``Delta_max <= B (2/(e ln 2) + lg(M/B))`` per read."""
    g = geometry
    return g.B * (2.0 / (math.e * math.log(2)) + (g.m - g.b))
