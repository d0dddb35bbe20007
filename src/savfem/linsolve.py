"""Solution of the coupled (c, mu) block system with a rank-one update.

Each implicit step couples concentration and chemical potential through a
2x2 block operator plus one rank-one term sigma * u v^T sitting in the
(mu-equation, c-unknown) block:

    [ B_cc   B_cmu  ] [c ]   [rhs_c ]
    [ B_muc  B_mumu ] [mu] + [rhs_mu],   B_muc <- B_muc + sigma u v^T.

The base operator is factorized by sparse LU without the rank-one term; the
update is folded in with the Sherman-Morrison formula

    x = x0 - sigma (v^T x0_c) / (1 + sigma v^T x1_c) * x1,

where x0 solves A x0 = b and x1 solves A x1 = [0; u].

Fixed-pattern path.  All four blocks of the trace FEM operator are
assembled over the same element scatter pattern with explicit zeros kept,
so the 2N x 2N pattern is fixed for a mesh.  A ``BlockPattern`` orders it
once by geometric nested dissection (George 1973): the dofs are split at the
median of their coordinates along the longest extent, the left dofs adjacent
to the right half form a separator that is numbered after both halves, and
the halves are split recursively down to LEAF_SIZE dofs.  The c and mu
unknowns of each dof are interleaved, so every dof is one 2x2 block of the
permuted matrix.  Each solve scatters the blocks' data into the fixed CSC
positions and factorizes in that order with SuperLU's pivot-free mode
(natural column order, diagonal pivots: ``diag_pivot_thresh = 0``).  This
roughly halves the L+U fill against the default COLAMD ordering with partial
pivoting on the band meshes (level-5 sphere: 7.0M against 13.3M nonzeros).
Any threshold above zero is ruled out: row interchanges then destroy the
ordering (thresh = 0.1 gives 40M L+U nonzeros at level 5).

Every solve checks the full-operator residual against
``SolverConfig.rel_tolerance``.  Without pivoting the LU is not backward
stable in general, so if the fixed-pattern factorization fails that check
(or its Sherman-Morrison denominator vanishes, or SuperLU reports a zero
pivot) the same system is refactored with COLAMD and partial pivoting, a
WARNING is logged and ``SolveStats.fallback`` is set.  Only a failure of
that path raises.  Without a pattern, ``solve_rank_one_system`` takes the
COLAMD path directly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolverConfig",
    "BlockSystem",
    "BlockPattern",
    "SolveStats",
    "LinearSolveError",
    "SingularUpdateError",
    "apply_operator",
    "solve_rank_one_system",
]

log = logging.getLogger(__name__)

SINGULAR_TOL = 1e-14
LEAF_SIZE = 64  # dofs per nested-dissection leaf


class LinearSolveError(RuntimeError):
    pass


class SingularUpdateError(LinearSolveError):
    """The Sherman-Morrison denominator 1 + sigma v^T A^{-1} u is numerically zero."""


@dataclass(frozen=True)
class SolverConfig:
    """How to solve the block systems.

    rel_tolerance : accepted relative residual of the full operator
    """

    rel_tolerance: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance <= 1e-2):
            raise ValueError("rel_tolerance must lie in (0, 1e-2]")


@dataclass
class BlockSystem:
    """One step's linear system; all blocks are N x N sparse matrices."""

    b_cc: sp.spmatrix
    b_cmu: sp.spmatrix
    b_muc: sp.spmatrix
    b_mumu: sp.spmatrix
    rank_one_scale: float
    rank_one_left: np.ndarray  # u, lives in the mu-equation rows
    rank_one_right: np.ndarray  # v, acts on the c unknowns
    rhs: np.ndarray  # (2N,)

    @property
    def n(self) -> int:
        return self.b_cc.shape[0]


@dataclass
class SolveStats:
    residual: float
    rel_residual: float
    woodbury_denominator: float
    fallback: bool = False  # the fixed-pattern LU failed and COLAMD solved the system


def _nested_dissection_order(coords: np.ndarray, graph: sp.csr_matrix) -> np.ndarray:
    """Node order by recursive median bisection of ``coords``.

    ``graph`` is a CSR matrix whose pattern is the symmetric node
    adjacency.  Each split cuts at the median coordinate along the longest
    extent (dofs on the median plane go right); the left nodes with a
    neighbour in the right half form the separator and come after both
    halves.  Parts of at most LEAF_SIZE nodes keep their input order.
    """
    adjacency = sp.csr_matrix(
        (np.ones(len(graph.indices), dtype=np.int32), graph.indices, graph.indptr),
        shape=graph.shape,
    )
    in_right = np.zeros(len(coords), dtype=np.int32)
    parts: list[np.ndarray] = []

    def dissect(nodes: np.ndarray) -> None:
        if len(nodes) <= LEAF_SIZE:
            parts.append(nodes)
            return
        pts = coords[nodes]
        x = pts[:, int(np.argmax(np.ptp(pts, axis=0)))]
        median = np.median(x)
        is_left = x < median
        if not is_left.any():  # over half the dofs at the minimum: they go left
            is_left = x <= median
        if is_left.all():  # all dofs at one point
            parts.append(nodes)
            return
        left, right = nodes[is_left], nodes[~is_left]
        in_right[right] = 1
        touches = (adjacency[left] @ in_right) > 0
        in_right[right] = 0
        dissect(left[~touches])
        dissect(right)
        parts.append(left[touches])

    dissect(np.arange(len(coords)))
    return np.concatenate(parts)


@dataclass(frozen=True)
class BlockPattern:
    """The fixed 2N x 2N CSC pattern of the block operator, permuted into
    nested-dissection order with c and mu interleaved per dof.

    ``block_indptr`` / ``block_indices`` are the N x N CSR pattern every
    block must have; ``order[k]`` is the unknown (c_i = i, mu_i = N + i) at
    permuted position k; ``positions[b]`` maps block b's CSR ``data``
    (blocks in the order cc, cmu, muc, mumu) into the CSC ``data``.
    """

    block_indptr: np.ndarray
    block_indices: np.ndarray
    order: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    positions: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, coords: np.ndarray, block: sp.csr_matrix) -> "BlockPattern":
        """Pattern of the block operator whose blocks share ``block``'s CSR
        pattern, on dofs located at ``coords``."""
        n = block.shape[0]
        nodes = _nested_dissection_order(coords, block)
        slot = np.empty(n, dtype=np.int64)
        slot[nodes] = np.arange(n)
        rows = slot[np.repeat(np.arange(n), np.diff(block.indptr))]
        cols = slot[block.indices]
        prow = np.concatenate([2 * rows + a for a in (0, 0, 1, 1)])
        pcol = np.concatenate([2 * cols + b for b in (0, 1, 0, 1)])
        sort = np.lexsort((prow, pcol))
        where = np.empty_like(sort)
        where[sort] = np.arange(len(sort))
        nnz = block.nnz
        return cls(
            block_indptr=block.indptr.copy(),
            block_indices=block.indices.copy(),
            order=np.column_stack([nodes, nodes + n]).reshape(-1),
            indptr=np.concatenate([[0], np.cumsum(np.bincount(pcol, minlength=2 * n))]),
            indices=prow[sort],
            positions=tuple(where[k * nnz : (k + 1) * nnz] for k in range(4)),
        )

    def matrix(self, system: BlockSystem) -> sp.csc_matrix:
        """The permuted base operator of ``system``; raises LinearSolveError
        when a block's pattern is not the fixed one."""
        blocks = (system.b_cc, system.b_cmu, system.b_muc, system.b_mumu)
        data = np.empty(len(self.indices))
        for name, block, where in zip(("cc", "cmu", "muc", "mumu"), blocks, self.positions):
            if not (
                block.format == "csr"
                and np.array_equal(block.indptr, self.block_indptr)
                and np.array_equal(block.indices, self.block_indices)
            ):
                raise LinearSolveError(f"block {name} does not have the fixed CSR pattern")
            data[where] = block.data
        size = len(self.order)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(size, size))


def apply_operator(system: BlockSystem, x: np.ndarray) -> np.ndarray:
    """Full operator (blocks plus rank-one term) applied to x = [c; mu]."""
    n = system.n
    xc, xm = x[:n], x[n:]
    yc = system.b_cc @ xc + system.b_cmu @ xm
    ym = system.b_muc @ xc + system.b_mumu @ xm
    if system.rank_one_scale != 0.0:
        ym = ym + system.rank_one_scale * np.dot(system.rank_one_right, xc) * system.rank_one_left
    return np.concatenate([yc, ym])


def _colamd_solver(system: BlockSystem):
    a = sp.bmat([[system.b_cc, system.b_cmu], [system.b_muc, system.b_mumu]], format="csc")
    return spla.splu(a).solve


def _pivot_free_solver(a: sp.csc_matrix, order: np.ndarray):
    lu = spla.splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0)

    def solve(b):
        x = np.empty_like(b)
        x[order] = lu.solve(b[order])
        return x

    return solve


def _sherman_morrison(system: BlockSystem, config: SolverConfig, solve):
    n = system.n
    x0 = solve(system.rhs)
    denom = 1.0
    if system.rank_one_scale != 0.0 and np.any(system.rank_one_left != 0.0):
        u_hat = np.concatenate([np.zeros(n), system.rank_one_left])
        x1 = solve(u_hat)
        denom = 1.0 + system.rank_one_scale * np.dot(system.rank_one_right, x1[:n])
        if not abs(denom) >= SINGULAR_TOL:
            raise SingularUpdateError(
                f"rank-one update is singular: |1 + sigma v^T A^-1 u| = {abs(denom):.3e}"
            )
        x = x0 - x1 * (system.rank_one_scale * np.dot(system.rank_one_right, x0[:n]) / denom)
    else:
        x = x0

    res = apply_operator(system, x) - system.rhs
    res_norm = float(np.linalg.norm(res))
    rhs_norm = float(np.linalg.norm(system.rhs))
    rel = res_norm / rhs_norm if rhs_norm > 0 else res_norm
    if not rel <= config.rel_tolerance:
        raise LinearSolveError(
            f"block solve residual {rel:.3e} exceeds tolerance {config.rel_tolerance:.1e}"
        )
    stats = SolveStats(residual=res_norm, rel_residual=rel, woodbury_denominator=float(denom))
    return x[:n], x[n:], stats


def solve_rank_one_system(
    system: BlockSystem,
    config: SolverConfig | None = None,
    pattern: BlockPattern | None = None,
):
    """Solve the block system; returns (c, mu, stats).

    With a ``pattern`` the base operator is factorized pivot-free in its
    nested-dissection order, falling back to COLAMD with partial pivoting
    (``stats.fallback``) when that solve fails its checks; a block off the
    fixed pattern raises LinearSolveError.  Raises SingularUpdateError when
    the Sherman-Morrison denominator is below 1e-14 in magnitude, and
    LinearSolveError when the full-operator residual exceeds
    rel_tolerance * ||rhs||.
    """
    config = config or SolverConfig()
    if pattern is None:
        return _sherman_morrison(system, config, _colamd_solver(system))
    a = pattern.matrix(system)  # a pattern mismatch raises here, before any fallback
    try:
        return _sherman_morrison(system, config, _pivot_free_solver(a, pattern.order))
    except RuntimeError as exc:  # LinearSolveError, or SuperLU's exactly singular factor
        log.warning("pivot-free LU failed (%s); refactoring with COLAMD and partial pivoting", exc)
    c, mu, stats = _sherman_morrison(system, config, _colamd_solver(system))
    stats.fallback = True
    return c, mu, stats
