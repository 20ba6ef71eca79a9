"""P1 finite elements on a structured triangulation of the unit square.

Every pixel of the d x d grid is split into two linear triangles along the
lower-left to upper-right diagonal. This keeps fluxes element-wise constant
and makes nested grids (fine size a multiple of coarse size) share shape
functions exactly: each coarse triangle is a union of fine triangles.

Node n sits at (ix/d, iy/d) with n = iy*(d+1) + ix; the first coordinate is
s1, the second s2. Dirichlet nodes are the left/right edges (s1 in {0, 1});
the top/bottom edges carry the natural zero-flux condition. Solution vectors
always store all (d+1)^2 nodes, Dirichlet entries included, so constraint
operators act on a fixed-size vector.

An assembled system keeps the element blocks. Every factorization sums them
with np.bincount into a LAPACK band: K_ff with the lift -K_fd g for solves,
tau K + diag(shift) over all nodes for the energy q(y). The CSR K is built
only on read, for vobs rows, the energy value, tests and bench/checks.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import GridMismatch, InvalidSize, NonPositiveConductivity, SingularSystem
from .field import BoundaryCoeffs, FieldSample

# Number of linear solves performed, keyed by grid size d. Used to assert
# that prediction never touches the fine grid.
SOLVE_COUNTS: dict[int, int] = {}


def reset_solve_counts() -> None:
    SOLVE_COUNTS.clear()


def solve_count(d: int) -> int:
    return SOLVE_COUNTS.get(d, 0)


# Reference element stiffness (kappa = 1) and gradient matrices for the two
# triangle orientations; grid-size independent apart from the 1/h in B.
# Lower triangle: vertices (0,0), (h,0), (h,h). Upper: (0,0), (h,h), (0,h).
_K_REF = np.array(
    [
        [[0.5, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 0.5]],
        [[0.5, 0.0, -0.5], [0.0, 0.5, -0.5], [-0.5, -0.5, 1.0]],
    ]
)
_B_REF = np.array(
    [
        [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]],
        [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]],
    ]
)


class Mesh:
    """Structured triangulation with precomputed assembly indexing."""

    def __init__(self, d: int):
        if d < 1:
            raise InvalidSize(f"grid size must be >= 1, got {d}")
        self.d = d
        self.h = 1.0 / d
        self.n_nodes = (d + 1) ** 2
        self.n_pixels = d * d
        self.n_elements = 2 * d * d

        ix, iy = np.meshgrid(np.arange(d + 1), np.arange(d + 1), indexing="xy")
        self.nodes = np.column_stack((ix.ravel() / d, iy.ravel() / d))

        pix = np.arange(self.n_pixels)
        row, col = pix // d, pix % d
        n00 = row * (d + 1) + col
        n10 = n00 + 1
        n01 = n00 + d + 1
        n11 = n01 + 1
        lower = np.column_stack((n00, n10, n11))
        upper = np.column_stack((n00, n11, n01))
        self.elements = np.empty((self.n_elements, 3), dtype=np.int64)
        self.elements[0::2] = lower
        self.elements[1::2] = upper
        self.pixel_of_element = np.arange(self.n_elements) // 2
        # 0 = lower triangle, 1 = upper triangle
        self.element_kind = np.tile(np.array([0, 1]), self.n_pixels)

        node_ix = np.arange(self.n_nodes) % (d + 1)
        dirichlet = (node_ix == 0) | (node_ix == d)
        self.dirichlet_nodes = np.where(dirichlet)[0]
        self.free_nodes = np.where(~dirichlet)[0]

        # Assembly indexing, built once per mesh. Entry (a, b) of element e's
        # 3x3 block goes to K[_rows, _cols].
        self._k_ref = _K_REF[self.element_kind]
        self._rows = np.repeat(self.elements, 3, axis=1).ravel()
        self._cols = np.tile(self.elements, (1, 3)).ravel()
        # Band positions of the blocks in K_ff (free-node order, half-bandwidth d)
        # and in K over all nodes (d + 1); free x Dirichlet entries form the lift.
        free_index = np.where(dirichlet, -1, np.cumsum(~dirichlet) - 1)
        r, c = free_index[self._rows], free_index[self._cols]
        self._band_pos = _band_index(r, c, d, self.free_nodes.size)
        self._node_band_pos = _band_index(self._rows, self._cols, d + 1, self.n_nodes)
        self._lift_entries = np.flatnonzero((r >= 0) & (c < 0))
        self._lift_rows = r[self._lift_entries]
        self._dirichlet_s2 = self.nodes[self.dirichlet_nodes, 1]
        self._dirichlet_left = self.nodes[self.dirichlet_nodes, 0] == 0.0

    def dirichlet_values(self, bc: BoundaryCoeffs) -> np.ndarray:
        """Full-length vector, zero on free nodes, prescribed data on Gamma_D."""
        vals = np.zeros(self.n_nodes)
        s2 = self._dirichlet_s2
        vals[self.dirichlet_nodes] = np.where(
            self._dirichlet_left,
            bc.a0 * s2 + bc.a1 * (1.0 - s2),
            bc.a2 * s2 + bc.a3 * (1.0 - s2),
        )
        return vals

    @cached_property
    def _csr(self):
        """(slot, indices, indptr) of the CSR K, built on the first read of a K. Entry k
        of the blocks is summed into data slot slot[k] in element order, like np.add.at."""
        keys, slot = np.unique(self._rows * self.n_nodes + self._cols, return_inverse=True)
        indptr = np.searchsorted(keys // self.n_nodes, np.arange(self.n_nodes + 1))
        return slot, keys % self.n_nodes, indptr


def _band_index(r, c, kd, n):
    """Flat index kd (c + 1) + r of entry (r, c) in the F-ordered (kd + 1, n) upper
    LAPACK band; entries outside the band go one bin past its end."""
    inside = (r >= 0) & (c >= r) & (c - r <= kd)
    return np.where(inside, kd * (c + 1) + r, (kd + 1) * n)


def _band(blocks, pos, n, kd):
    """The (kd + 1, n) F-ordered upper band of the blocks summed at pos."""
    return np.bincount(pos, blocks, (kd + 1) * n + 1)[:-1].reshape(n, kd + 1).T


@lru_cache(maxsize=None)
def build_mesh(d: int) -> Mesh:
    """Construct (and memoize) the structured mesh; treat it as read-only."""
    return Mesh(d)


def _as_kappa(mesh: Mesh, kappa) -> np.ndarray:
    if isinstance(kappa, FieldSample):
        kappa = kappa.kappa_vec
    kappa = np.asarray(kappa, dtype=np.float64)
    if kappa.shape != (mesh.n_pixels,):
        raise GridMismatch(
            f"kappa has shape {kappa.shape}, expected ({mesh.n_pixels},)"
        )
    if not np.all((kappa > 0.0) & (kappa < np.inf)):
        raise NonPositiveConductivity("conductivity must be positive and finite everywhere")
    return kappa


@dataclass
class FemSystem:
    """Assembled stiffness and Dirichlet data for one (kappa, bc), kept as element blocks."""

    mesh: Mesh
    f_vec: np.ndarray  # zero load (no source term); bench/checks.py reads it
    dirichlet_values: np.ndarray
    kappa: np.ndarray
    _blocks: np.ndarray = field(repr=False)  # flat element blocks
    _K: sp.csr_matrix = field(default=None, repr=False)  # built on first read of K
    _solve: object = field(default=None, repr=False)
    _solution: np.ndarray = field(default=None, repr=False)

    dense = False  # read only by bench/checks.py

    @property
    def K(self) -> sp.csr_matrix:
        """CSR stiffness over all nodes, summed from the blocks on first read; no solve reads it."""
        if self._K is None:
            (slot, indices, indptr), n = self.mesh._csr, self.mesh.n_nodes
            data = np.bincount(slot, self._blocks, indices.size)
            self._K = sp.csr_matrix((data, indices, indptr), (n, n))
        return self._K

    def solve_free(self, rhs_f: np.ndarray) -> np.ndarray:
        """Solve K_ff u = rhs_f, reusing the cached factor."""
        if self._solve is None:
            m = self.mesh
            self._solve = _band_cholesky(_band(self._blocks, m._band_pos, m.free_nodes.size, m.d))
        SOLVE_COUNTS[self.mesh.d] = SOLVE_COUNTS.get(self.mesh.d, 0) + 1
        return self._solve(rhs_f)


def factorize_shifted(sys: FemSystem, tau: float, shift: np.ndarray):
    """Solve function and diagonal of tau K + diag(shift) over all nodes, factored from the
    band of K at half-bandwidth d + 1 (n00 and n11 couple by zero); raises SingularSystem."""
    m = sys.mesh
    band = _band(sys._blocks, m._node_band_pos, m.n_nodes, m.d + 1)
    band *= tau
    band[-1] += shift
    diagonal = band[-1].copy()
    return _band_cholesky(band), diagonal


def _band_cholesky(band: np.ndarray):
    """Solve function of the SPD matrix with upper LAPACK band `band` (F-ordered)."""
    if not np.isfinite(band).all():
        raise SingularSystem("matrix has non-finite entries")
    chol, info = lapack.dpbtrf(band, overwrite_ab=True)
    if info != 0:
        raise SingularSystem(f"band Cholesky factorization failed (LAPACK info {info})")
    return lambda rhs: lapack.dpbtrs(chol, rhs)[0]


@dataclass(frozen=True)
class Solution:
    """Nodal solution over all (d+1)^2 nodes, Dirichlet entries included."""

    y_vec: np.ndarray


def assemble(mesh: Mesh, kappa, bc: BoundaryCoeffs) -> FemSystem:
    """Assemble the stiffness for piecewise-constant kappa; the load is zero.

    K[a, b] = sum_e kappa_e int_e grad(phi_a) . grad(phi_b).
    """
    kappa = _as_kappa(mesh, kappa)
    blocks = (kappa[mesh.pixel_of_element][:, None, None] * mesh._k_ref).ravel()
    return FemSystem(mesh, np.zeros(mesh.n_nodes), mesh.dirichlet_values(bc), kappa, blocks)


def solve(sys: FemSystem) -> Solution:
    """Solve the constrained system; Dirichlet entries are set exactly."""
    if sys._solution is not None:
        return Solution(y_vec=sys._solution)
    mesh = sys.mesh
    free = mesh.free_nodes
    y = sys.dirichlet_values.copy()
    lift = sys._blocks[mesh._lift_entries] * y[mesh._cols[mesh._lift_entries]]
    rhs = -np.bincount(mesh._lift_rows, lift, len(free))
    y[free] = sys.solve_free(rhs)
    sys._solution = y
    return Solution(y_vec=y)


def solve_vjp(sys: FemSystem, cotangent: np.ndarray) -> np.ndarray:
    """Gradient of cotangent^T y(kappa) with respect to per-pixel kappa.

    One adjoint solve: K_ff mu = cotangent_f, then per pixel p the gradient
    is -sum_{e in p} mu_e^T (dK_e) y_e. Dirichlet components of the cotangent
    drop out because the prescribed values do not depend on kappa.
    """
    cotangent = np.asarray(cotangent, dtype=np.float64)
    if cotangent.shape != (sys.mesh.n_nodes,):
        raise GridMismatch(
            f"cotangent has shape {cotangent.shape}, expected ({sys.mesh.n_nodes},)"
        )
    mesh = sys.mesh
    y = solve(sys).y_vec
    mu = np.zeros(mesh.n_nodes)
    mu[mesh.free_nodes] = sys.solve_free(cotangent[mesh.free_nodes])

    per_elem = -np.einsum("ei,eij,ej->e", mu[mesh.elements], mesh._k_ref, y[mesh.elements])
    return np.bincount(mesh.pixel_of_element, per_elem, mesh.n_pixels)


def _locate_in_coarse(fine_nodes: np.ndarray, d_c: int):
    """Coarse cell (row, col) and local coords (xi, eta) of each fine node."""
    x, y = fine_nodes[:, 0], fine_nodes[:, 1]
    col = np.minimum((x * d_c).astype(np.int64), d_c - 1)
    row = np.minimum((y * d_c).astype(np.int64), d_c - 1)
    xi = x * d_c - col
    eta = y * d_c - row
    return row, col, xi, eta


def _check_nested(d_c: int, d_f: int):
    if d_f % d_c != 0:
        raise GridMismatch(f"fine size {d_f} is not a multiple of coarse size {d_c}")


def bilinear_prolongation(d_c: int, d_f: int) -> sp.csr_matrix:
    """Coarse-to-fine nodal interpolation with tensor-product hat weights.

    Rows sum to one, and globally linear fields are reproduced exactly.
    """
    _check_nested(d_c, d_f)
    fine = build_mesh(d_f)
    row, col, xi, eta = _locate_in_coarse(fine.nodes, d_c)
    n00 = row * (d_c + 1) + col
    corners = np.column_stack((n00, n00 + 1, n00 + d_c + 1, n00 + d_c + 2))
    weights = np.column_stack(
        ((1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta)
    )
    rows = np.repeat(np.arange(fine.n_nodes), 4)
    mat = sp.coo_matrix(
        (weights.ravel(), (rows, corners.ravel())),
        shape=(fine.n_nodes, (d_c + 1) ** 2),
    )
    return mat.tocsr()


def p1_prolongation(d_c: int, d_f: int) -> sp.csr_matrix:
    """Coarse P1 shape functions evaluated at fine nodes.

    Column m is the fine-mesh nodal interpolant of the coarse hat function at
    coarse node m. Because the grids are nested and share the diagonal split,
    these interpolants lie exactly in the fine FE space.
    """
    _check_nested(d_c, d_f)
    fine = build_mesh(d_f)
    row, col, xi, eta = _locate_in_coarse(fine.nodes, d_c)
    n00 = row * (d_c + 1) + col
    lower = eta <= xi
    # Lower triangle barycentrics: (1-xi, xi-eta, eta) on (n00, n10, n11);
    # upper: (1-eta, xi, eta-xi) on (n00, n11, n01). They agree on the diagonal.
    cols = np.where(
        lower[:, None],
        np.column_stack((n00, n00 + 1, n00 + d_c + 2)),
        np.column_stack((n00, n00 + d_c + 2, n00 + d_c + 1)),
    )
    weights = np.where(
        lower[:, None],
        np.column_stack((1 - xi, xi - eta, eta)),
        np.column_stack((1 - eta, xi, eta - xi)),
    )
    rows = np.repeat(np.arange(fine.n_nodes), 3)
    mat = sp.coo_matrix(
        (weights.ravel(), (rows, cols.ravel())),
        shape=(fine.n_nodes, (d_c + 1) ** 2),
    )
    return mat.tocsr()
