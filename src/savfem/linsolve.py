"""Solution of the coupled (c, mu) block system with a rank-one update.

Each implicit step couples concentration and chemical potential through a
2x2 block operator plus one rank-one term sigma * u v^T sitting in the
(mu-equation, c-unknown) block:

    [ B_cc   B_cmu  ] [c ]   [rhs_c ]
    [ B_muc  B_mumu ] [mu] + [rhs_mu],   B_muc <- B_muc + sigma u v^T.

The base operator A is factorized by sparse LU without the rank-one term;
the update is folded in with the Sherman-Morrison formula

    x = x0 - sigma (v^T x0_c) / (1 + sigma v^T x1_c) * x1,

where x0 solves A x0 = b and x1 solves A x1 = [0; u].

Fixed-pattern LU.  All four blocks of the trace FEM operator are assembled
over the same element scatter pattern with explicit zeros kept, so the
2N x 2N pattern is fixed for a mesh.  A ``BlockPattern`` orders it once by
geometric nested dissection (George 1973): the dofs are split at the median
of their coordinates along the longest extent, the left dofs adjacent to
the right half form a separator that is numbered after both halves, and the
halves are split recursively down to LEAF_SIZE dofs.  The c and mu unknowns
of each dof are interleaved, so every dof is one 2x2 block of the permuted
matrix.  A factorization scatters the blocks' data into the fixed CSC
positions and factorizes in that order with SuperLU's pivot-free mode
(natural column order, diagonal pivots: ``diag_pivot_thresh = 0``).  This
roughly halves the L+U fill against the default COLAMD ordering with
partial pivoting on the band meshes (level-5 sphere: 7.0M against 13.3M
nonzeros).  Any threshold above zero is ruled out: row interchanges then
destroy the ordering (thresh = 0.1 gives 40M L+U nonzeros at level 5).

Mixed precision.  The pivot-free LU is factored and applied in float32:
``BlockPattern.matrix`` scatters the blocks straight into float32 data, and
each application casts the permuted right-hand side to float32 and writes
the result into a float64 vector.  The operator, the Sherman-Morrison term,
GMRES, the residual gate and the solution stay float64.  The LU only
preconditions GMRES, so its precision sets the iteration count and not the
accuracy, and float32 halves the bytes of L and U (GMRES-based iterative
refinement with a low-precision LU: Carson and Higham, SIAM J. Sci. Comput.
40, 2018; Higham and Mary, Acta Numerica 31, 2022).  Without pivoting the
LU is not backward stable in general either, so a fresh solve is always
refined on its own LU before the residual gate, the static pivoting plus
iterative refinement of SuperLU_DIST (Li and Demmel, ACM TOMS 29, 2003).

Fallback ladder.  A fresh solve that fails (GMRES gives up, the residual
gate fails, the Sherman-Morrison denominator vanishes, or SuperLU reports a
zero pivot) is refactored on the next rung: float32 pivot-free, then
float64 pivot-free (logged at INFO; the ``BlockSolver`` then factors in
float64 for the rest of its life), then COLAMD with partial pivoting in
float64 (logged as a WARNING; ``SolveStats.fallback`` is set).  Only a
failure of COLAMD raises.  Every rung attempted counts as a factorization.
Every rung factors the same scattered, permuted matrix and solves through
the same order permutation; COLAMD then reorders its columns itself.

One solve path.  Every solve, on a fresh or a kept LU, runs right-
preconditioned GMRES (``gmres``) on the full operator from the
preconditioner applied to the rhs; the preconditioner is the LU with the
current rank-one term folded in by Sherman-Morrison; its A^{-1} [0; u] and
A^{-1} rhs are one two-column LU sweep, then one per iteration.  GMRES stops at
FRESH_TOL * ||rhs|| on a fresh LU, the residual a float64 direct solve
reaches, so a fresh solve is as accurate as one, and at GMRES_TOL * ||rhs||
on a reused LU.  It gives up after GMRES_MAX_ITER iterations (one
preconditioner application costs 1/15 (level 3) to 1/28 (level 5) of a
factorization), or from the second on as soon as the last residual
reduction factor, kept for the remaining iterations, would not reach the
target.  Then the full-operator residual is checked against
``SolverConfig.rel_tolerance``.

LU reuse.  A ``BlockSolver``, owned by a time loop, is built on the dof
coordinates of one mesh and builds its ``BlockPattern`` at its first solve,
from that system's B_mumu, and keeps it for life.  It keeps its last LU and
serves every later solve with it (lagged preconditioners: Knoll and Keyes,
JCP 193, 2004; the Jacobian reuse of CVODE, Hindmarsh et al., ACM TOMS 31,
2005), although B_cc = alpha rho / dt M changes with dt and the scheme, at
every solve of an adaptive run.  A reuse that fails refactors, dropping the
old LU first.  The solver also keeps the previous solve's B_cc data: after
a reuse of more than REFRESH_ITER iterations whose B_cc equals it (a
steady, fixed-step run whose LU has gone stale) the LU is dropped and the
next solve factors; alternating B_cc never refreshes.  The policy counts
iterations and reads no clock, so a run is deterministic.
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
    "BlockSolver",
    "SolveStats",
    "SolverTotals",
    "LinearSolveError",
    "SingularUpdateError",
    "apply_operator",
    "gmres",
    "solve_rank_one_system",
]

log = logging.getLogger(__name__)

SINGULAR_TOL = 1e-14
LEAF_SIZE = 64  # dofs per nested-dissection leaf
FRESH_TOL = 1e-15  # GMRES target on a fresh LU, relative to ||rhs||
GMRES_TOL = 1e-13  # GMRES target on a reused LU, relative to ||rhs||
GMRES_MAX_ITER = 20  # GMRES iteration cap
REFRESH_ITER = 5  # a reuse above this many iterations in a steady run drops the LU
_KEY_BITS = 62  # widest packed sort key of BlockPattern.build, below the int64 sign bit


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

    @property
    def blocks(self) -> tuple:
        return (self.b_cc, self.b_cmu, self.b_muc, self.b_mumu)


@dataclass
class SolveStats:
    rel_residual: float
    woodbury_denominator: float  # of the solve's LU: the fresh one, or the reused one
    fallback: bool = False  # the pivot-free LUs failed and COLAMD solved the system
    iterations: int = 0  # GMRES iterations on the solve's LU
    refactored: bool = True  # the solve factored the base operator


@dataclass
class SolverTotals:
    """Counts over the solves of one BlockSolver.  ``iterations`` includes
    those of abandoned reuses and failed refinements; every rung of the
    fallback ladder attempted is a factorization.  ``refreshed`` counts the
    LUs dropped after a slow reuse in a steady run, ``refined`` the fresh
    solves that needed iterations, ``promoted`` the float32 LUs that failed,
    so that the solver went on in float64."""

    solves: int = 0
    factorizations: int = 0
    reused: int = 0
    abandoned: int = 0
    refreshed: int = 0
    iterations: int = 0
    refined: int = 0
    promoted: int = 0
    fallbacks: int = 0

    def __str__(self) -> str:
        return (
            f"{self.solves} solves, {self.factorizations} factorizations, {self.reused} reused, "
            f"{self.abandoned} abandoned reuses, {self.refreshed} refreshed, "
            f"{self.iterations} GMRES iterations, {self.refined} refined, "
            f"{self.promoted} promoted to float64, {self.fallbacks} fallbacks"
        )


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
        sort = _column_major(prow, pcol)
        where = np.empty(len(sort), dtype=np.int32)  # int32 CSC pattern and positions: read per factorization
        where[sort] = np.arange(len(sort))
        nnz = block.nnz
        return cls(
            block_indptr=block.indptr.copy(),
            block_indices=block.indices.copy(),
            order=np.column_stack([nodes, nodes + n]).reshape(-1),  # intp: gathered at every LU solve
            indptr=np.concatenate([[0], np.cumsum(np.bincount(pcol, minlength=2 * n))]).astype(np.int32),
            indices=prow[sort].astype(np.int32),
            positions=tuple(where[k * nnz : (k + 1) * nnz] for k in range(4)),
        )

    def check(self, system: BlockSystem) -> None:
        """Raise LinearSolveError when a block's pattern is not the fixed one."""
        for name, block in zip(("cc", "cmu", "muc", "mumu"), system.blocks):
            if not (
                block.format == "csr"
                and np.array_equal(block.indptr, self.block_indptr)
                and np.array_equal(block.indices, self.block_indices)
            ):
                raise LinearSolveError(f"block {name} does not have the fixed CSR pattern")

    def matrix(self, system: BlockSystem, dtype) -> sp.csc_matrix:
        """The permuted base operator of ``system`` with ``dtype`` data,
        scattered from the blocks without a float64 copy.  The blocks'
        pattern is not checked here; see ``check``."""
        data = np.empty(len(self.indices), dtype=dtype)
        for block, where in zip(system.blocks, self.positions):
            data[where] = block.data
        size = len(self.order)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(size, size))


def _column_major(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The permutation that sorts distinct (row, col) pairs by column, then
    row: np.lexsort((rows, cols)), as one np.sort of the packed keys (col,
    row, position) while they fit in _KEY_BITS."""
    pos_bits = (len(rows) - 1).bit_length()
    row_bits = int(rows.max()).bit_length()
    if pos_bits + row_bits + int(cols.max()).bit_length() > _KEY_BITS:
        return np.lexsort((rows, cols))
    key = (cols << (row_bits + pos_bits)) | (rows << pos_bits) | np.arange(len(rows))
    key.sort()
    return key & ((1 << pos_bits) - 1)


def apply_operator(system: BlockSystem, x: np.ndarray) -> np.ndarray:
    """Full operator (blocks plus rank-one term) applied to x = [c; mu]."""
    n = system.n
    xc, xm = x[:n], x[n:]
    yc = system.b_cc @ xc + system.b_cmu @ xm
    ym = system.b_muc @ xc + system.b_mumu @ xm
    ym = ym + system.rank_one_scale * np.dot(system.rank_one_right, xc) * system.rank_one_left
    return np.concatenate([yc, ym])


def _lu_solver(a: sp.csc_matrix, order: np.ndarray, pivoting: bool = False):
    """Float64 solve of a (2N,) or (2N, k) right side in one sweep by the LU
    of the permuted operator ``a``, in ``a``'s precision: pivot-free in
    ``a``'s own order, or with ``pivoting``, in SuperLU's default COLAMD
    column order with partial pivoting."""
    options = {} if pivoting else {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}
    lu = spla.splu(a, **options)
    dtype = a.dtype

    def solve(b):
        x = np.empty(b.shape, order="F")  # a block's columns are contiguous
        x[order] = lu.solve(b[order].astype(dtype, copy=False))
        return x

    return solve


def _sherman_morrison(system: BlockSystem, solve):
    """(apply, start, denominator): ``apply`` inverts the operator whose base LU is
    ``solve`` plus the rank-one term; ``start`` = apply(rhs), swept with A^-1 [0; u]
    as one block.  Raises SingularUpdateError when |denominator| < SINGULAR_TOL."""
    n, sigma, u = system.n, system.rank_one_scale, system.rank_one_left
    x1, x0 = solve(np.column_stack([np.concatenate([np.zeros(n), u]), system.rhs])).T
    v = system.rank_one_right
    denom = 1.0 + sigma * np.dot(v, x1[:n])
    if not abs(denom) >= SINGULAR_TOL:
        raise SingularUpdateError(
            f"rank-one update is singular: |1 + sigma v^T A^-1 u| = {abs(denom):.3e}"
        )

    def update(x):
        return x - x1 * (sigma * np.dot(v, x[:n]) / denom)

    return lambda b: update(solve(b)), update(x0), float(denom)


def _residual(system: BlockSystem, x: np.ndarray) -> float:
    """Relative full-operator residual of x (absolute for a zero rhs)."""
    res_norm = float(np.linalg.norm(apply_operator(system, x) - system.rhs))
    rhs_norm = float(np.linalg.norm(system.rhs))
    return res_norm / rhs_norm if rhs_norm > 0 else res_norm


def gmres(matvec, precond, rhs, x0, target: float, max_iter: int):
    """Right-preconditioned GMRES for A x = rhs from x0, without restarts.

    ``matvec`` applies A and ``precond`` the preconditioner inverse M^{-1};
    iteration k minimises ||rhs - A x|| over x0 + M^{-1} K_k(A M^{-1}, r0).
    Returns (x, k) once the least-squares residual is at most ``target``
    after k iterations, and (None, k) when the solve is abandoned: after
    ``max_iter`` iterations, or from the second iteration on as soon as the
    last residual reduction factor, kept for the remaining iterations, would
    not reach ``target``.
    """
    r = rhs - matvec(x0)
    beta = float(np.linalg.norm(r))
    if beta <= target:
        return x0, 0
    basis = np.empty((max_iter + 1, len(rhs)))
    search = np.empty((max_iter, len(rhs)))  # M^{-1} applied to the basis
    hess = np.zeros((max_iter + 1, max_iter))
    cs, sn = np.zeros(max_iter), np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    g[0] = beta
    basis[0] = r / beta
    for k in range(max_iter):
        search[k] = precond(basis[k])
        w = matvec(search[k])
        h = basis[: k + 1] @ w  # classical Gram-Schmidt, applied twice
        w -= h @ basis[: k + 1]
        dh = basis[: k + 1] @ w
        w -= dh @ basis[: k + 1]
        hess[: k + 1, k] = h + dh
        w_norm = float(np.linalg.norm(w))
        for j in range(k):  # the earlier Givens rotations
            a, b = hess[j, k], hess[j + 1, k]
            hess[j, k], hess[j + 1, k] = cs[j] * a + sn[j] * b, cs[j] * b - sn[j] * a
        rr = float(np.hypot(hess[k, k], w_norm))
        if rr == 0.0:
            return None, k + 1
        cs[k], sn[k] = hess[k, k] / rr, w_norm / rr
        hess[k, k] = rr
        prev = abs(g[k])
        g[k + 1], g[k] = -sn[k] * g[k], cs[k] * g[k]
        res = abs(g[k + 1])
        if res <= target:
            y = np.linalg.solve(hess[: k + 1, : k + 1], g[: k + 1])
            return x0 + y @ search[: k + 1], k + 1
        factor = res / prev
        if k >= 1 and (factor >= 1.0 or res * factor ** (max_iter - k - 1) > target):
            return None, k + 1
        basis[k + 1] = w / w_norm
    return None, max_iter


class BlockSolver:
    """Block solves of one time loop on the dofs at ``coords``, reusing the
    last LU.

    Builds its pattern at the first solve and keeps it for life; holds the
    solve of its last LU (pivot-free, or the COLAMD fallback), the previous
    solve's B_cc data and the precision of its pivot-free LUs (float32
    until one fails); see the module docstring for the reuse policy and the
    fallback ladder.  ``totals`` counts the solves.  Call ``release`` to
    drop the stored LU when the loop ends.
    """

    def __init__(self, coords: np.ndarray, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self.totals = SolverTotals()
        self._coords = coords
        self._pattern = None
        self._dtype = np.float32
        self.release()

    def release(self) -> None:
        self._solve = self._prev_b_cc = None

    def solve(self, system: BlockSystem):
        """(c, mu, stats) of ``system``; see ``solve_rank_one_system``."""
        if self._pattern is None:
            self._pattern = BlockPattern.build(self._coords, system.b_mumu)
        self._pattern.check(system)  # a pattern mismatch raises here, before any fallback
        n, totals = system.n, self.totals
        totals.solves += 1
        stats = None
        if self._solve is not None:
            try:
                x, stats = self._gmres(system, self._solve, GMRES_TOL)
            except LinearSolveError:
                totals.abandoned += 1
        if stats is not None:
            totals.reused += 1
            stats.refactored = False
            if stats.iterations > REFRESH_ITER and np.array_equal(
                system.b_cc.data, self._prev_b_cc
            ):
                totals.refreshed += 1
                self.release()  # the next solve factors
        else:
            self.release()  # drop the old LU before factoring a new one
            x, stats = self._factor(system)
            totals.refined += stats.iterations > 0
        self._prev_b_cc = system.b_cc.data.copy()
        return x[:n], x[n:], stats

    def _factor(self, system: BlockSystem):
        """(x, stats) on a fresh LU, which is kept for reuse: the first rung
        of the fallback ladder, from the solver's precision on, that passes."""
        pattern, totals = self._pattern, self.totals
        for dtype in [np.float32, np.float64] if self._dtype == np.float32 else [np.float64]:
            totals.factorizations += 1
            try:
                a = pattern.matrix(system, dtype)
                return self._keep(system, _lu_solver(a, pattern.order))
            except RuntimeError as exc:  # LinearSolveError, or SuperLU's exactly singular factor
                if dtype == np.float32:
                    log.info(
                        "float32 pivot-free LU failed (%s); factoring in float64 from now on", exc
                    )
                    self._dtype = np.float64
                    totals.promoted += 1
                else:
                    log.warning(
                        "pivot-free LU failed (%s); refactoring with COLAMD and partial pivoting",
                        exc,
                    )
        totals.factorizations += 1
        totals.fallbacks += 1
        a = pattern.matrix(system, np.float64)
        x, stats = self._keep(system, _lu_solver(a, pattern.order, pivoting=True))
        stats.fallback = True
        return x, stats

    def _keep(self, system: BlockSystem, solve):
        """(x, stats) refined on the fresh LU ``solve``, which is kept."""
        x, stats = self._gmres(system, solve, FRESH_TOL)
        self._solve = solve
        return x, stats

    def _gmres(self, system: BlockSystem, solve, tol: float):
        """(x, stats) by GMRES on the LU ``solve`` to ``tol`` * ||rhs||.  Raises
        SingularUpdateError when the Sherman-Morrison denominator vanishes
        and LinearSolveError when GMRES gives up or the true residual
        exceeds the gate."""
        precond, start, denom = _sherman_morrison(system, solve)
        x, iterations = gmres(
            lambda y: apply_operator(system, y), precond, system.rhs, start,
            tol * float(np.linalg.norm(system.rhs)), GMRES_MAX_ITER,
        )
        self.totals.iterations += iterations
        if x is None:
            raise LinearSolveError(f"GMRES gave up after {iterations} iterations")
        rel = _residual(system, x)
        if not rel <= self.config.rel_tolerance:
            raise LinearSolveError(
                f"block solve residual {rel:.3e} exceeds tolerance {self.config.rel_tolerance:.1e}"
            )
        return x, SolveStats(rel, denom, iterations=iterations)


def solve_rank_one_system(system: BlockSystem, solver: BlockSolver):
    """``solver.solve(system)``: (c, mu, stats), by the policy of the module
    docstring.  It is the module-level entry of every block solve, which
    savbench wraps by name."""
    return solver.solve(system)
