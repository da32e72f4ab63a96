"""Cosine eigenbasis of the Neumann Laplacian on boxes, transforms and norms.

On an interval (0, L) the eigenpairs are e_1 = sqrt(1/L) (eigenvalue 0) and
e_j(x) = sqrt(2/L) cos((j-1) pi x / L) with eigenvalue ((j-1) pi / L)^2;
rectangles use tensor products.  Quadrature is the uniform midpoint rule,
which integrates products of any two retained eigenfunctions exactly, so the
coefficient transform is the L2-orthogonal projection onto the span and all
spectral norms are Parseval-exact.

Because every eigenfunction is a product of 1-D cosines sampled on the same
midpoint nodes, the transforms factor axis by axis (sum factorisation): the
basis keeps one small matrix C[k, i] = e_k(x_i) per axis, and a transform
contracts the grid with each C in turn, O(M^(d+1) K) work and O(M K) memory
for M nodes and K wavenumbers per axis.  The dense n x N matrix of sampled
eigenfunctions is built only on request (``eigenfunction_values``), as the
oracle the tests compare against and for the dense Newton Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, MeanDomainError

# Relative tolerance for zero-mean membership when inverting the Laplacian.
MEAN_TOL = 1e-10


@dataclass(frozen=True)
class BoxDomain:
    """Interval or rectangle with a uniform midpoint quadrature grid."""

    lengths: tuple[float, ...]
    grid_points_per_axis: int

    def __post_init__(self):
        if len(self.lengths) not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {len(self.lengths)}")
        if any(L <= 0.0 for L in self.lengths):
            raise ConfigurationError(f"lengths must be positive, got {self.lengths}")
        if self.grid_points_per_axis < 4:
            raise ConfigurationError(
                f"grid_points_per_axis must be >= 4, got {self.grid_points_per_axis}"
            )

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @cached_property
    def measure(self) -> float:
        return float(np.prod(self.lengths))

    @cached_property
    def n_grid(self) -> int:
        return self.grid_points_per_axis ** self.dim

    @cached_property
    def cell_weight(self) -> float:
        return self.measure / self.n_grid

    def grid_axes(self) -> list[np.ndarray]:
        """Midpoint nodes per axis: x_i = (i + 1/2) L / M."""
        m = self.grid_points_per_axis
        return [(np.arange(m) + 0.5) * (L / m) for L in self.lengths]

    def grid_coords(self) -> list[np.ndarray]:
        """Flattened coordinate arrays of the tensor grid (C order)."""
        meshes = np.meshgrid(*self.grid_axes(), indexing="ij")
        return [mesh.ravel() for mesh in meshes]


@dataclass(frozen=True)
class Field:
    """Samples of a function on the quadrature grid of a box domain."""

    values: np.ndarray
    domain: BoxDomain

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).ravel())
        if self.values.size != self.domain.n_grid:
            raise ValueError(
                f"field has {self.values.size} samples, grid has {self.domain.n_grid}"
            )


def constant_field(value: float, domain: BoxDomain) -> Field:
    return Field(np.full(domain.n_grid, float(value)), domain)


def cosine_sum_field(
    domain: BoxDomain,
    constant: float = 0.0,
    terms: Sequence[tuple[tuple[int, ...], float]] = (),
) -> Field:
    """Field c0 + sum_k a_k prod_d cos(k_d pi x_d / L_d) (plain cosines)."""
    coords = domain.grid_coords()
    out = np.full(domain.n_grid, float(constant))
    for mode, amp in terms:
        if len(mode) != domain.dim:
            raise ValueError(f"mode {mode} does not match dim {domain.dim}")
        term = np.full(domain.n_grid, float(amp))
        for k, x, L in zip(mode, coords, domain.lengths):
            term = term * np.cos(k * math.pi * x / L)
        out += term
    return Field(out, domain)


def field_mean(f: Field) -> float:
    """Quadrature mean value (exact for band-limited samples)."""
    return float(f.values.mean())


def norm_Lp(f: Field, p: float) -> float:
    """Quadrature p-norm; p = inf is the grid max of |values|."""
    if p == np.inf:
        return float(np.abs(f.values).max(initial=0.0))
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    w = f.domain.cell_weight
    return float((w * np.abs(f.values) ** p).sum() ** (1.0 / p))


def _axis_eigenfunctions(k_max: int, x: np.ndarray, L: float) -> np.ndarray:
    """Rows e_k(x) for k = 0..k_max: C[k, i] = e_k(x_i)."""
    out = math.sqrt(2.0 / L) * np.cos(np.multiply.outer(np.arange(k_max + 1) * math.pi, x) / L)
    out[0] = math.sqrt(1.0 / L)
    return out


@dataclass(frozen=True)
class SpectralBasis:
    """First n Neumann eigenpairs on a box, sorted by (eigenvalue, mode).

    ``axis_factors[d]`` holds the 1-D eigenfunctions of axis d sampled on its
    nodes, one row per wavenumber up to the largest one any mode uses on that
    axis; ``mode_index[j]`` is the flat (C-order) position of mode j in the
    tensor grid of those wavenumbers.
    """

    domain: BoxDomain
    modes: tuple[tuple[int, ...], ...]
    eigenvalues: np.ndarray = field(compare=False)
    axis_factors: tuple[np.ndarray, ...] = field(compare=False, repr=False)
    mode_index: np.ndarray = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.modes)

    @property
    def quadrature_weight(self) -> float:
        return self.domain.cell_weight

    @cached_property
    def eigenfunction_values(self) -> np.ndarray:
        """Dense n x N matrix of sampled eigenfunctions, built on first use.

        Slow path: the transforms never touch it.  It serves as the oracle
        for the factored transforms and for the dense Newton Jacobians.
        """
        rows = []
        for mode in self.modes:
            prod = self.axis_factors[0][mode[0]]
            for C, k in zip(self.axis_factors[1:], mode[1:]):
                prod = np.multiply.outer(prod, C[k])
            rows.append(prod.ravel())
        return np.array(rows)


def build_basis(domain: BoxDomain, n: int) -> SpectralBasis:
    """Enumerate, sort and sample the first n eigenpairs.

    Modes are multi-indices k with every component at most
    grid_points_per_axis // 2 (anti-aliasing capacity); requesting more modes
    than the grid can carry is a configuration error.  Ties in the eigenvalue
    are broken lexicographically, so bases on a common grid are nested.
    """
    if n < 1:
        raise ConfigurationError(f"basis size must be >= 1, got {n}")
    cap = domain.grid_points_per_axis // 2
    # Every multi-index with components in 0..cap, one row per axis.
    candidates = np.indices((cap + 1,) * domain.dim).reshape(domain.dim, -1)
    if n > candidates.shape[1]:
        raise ConfigurationError(
            f"n = {n} exceeds the {candidates.shape[1]} modes resolvable on a "
            f"{domain.grid_points_per_axis}-point-per-axis grid"
        )
    eig = sum((k * math.pi / L) ** 2 for k, L in zip(candidates, domain.lengths))
    # Sort by eigenvalue, then by mode: lexsort's last key is the primary one.
    order = np.lexsort((*candidates[::-1], eig))[:n]
    chosen = candidates[:, order]
    modes = tuple(map(tuple, chosen.T.tolist()))
    eigenvalues = eig[order]

    k_max = chosen.max(axis=1)
    factors = tuple(
        _axis_eigenfunctions(int(k), x, L)
        for k, x, L in zip(k_max, domain.grid_axes(), domain.lengths)
    )
    mode_index = np.ravel_multi_index(tuple(chosen), tuple(k_max + 1))
    return SpectralBasis(
        domain=domain,
        modes=modes,
        eigenvalues=eigenvalues,
        axis_factors=factors,
        mode_index=mode_index,
    )


@dataclass(frozen=True)
class Coeffs:
    """Coordinates of an element of the span in the eigenfunction basis."""

    values: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).ravel())
        if self.values.size != self.basis.n:
            raise ValueError(f"expected {self.basis.n} coefficients, got {self.values.size}")

    def __add__(self, other: "Coeffs") -> "Coeffs":
        _require_same_basis(self, other)
        return Coeffs(self.values + other.values, self.basis)

    def __sub__(self, other: "Coeffs") -> "Coeffs":
        _require_same_basis(self, other)
        return Coeffs(self.values - other.values, self.basis)

    def __rmul__(self, scalar: float) -> "Coeffs":
        return Coeffs(float(scalar) * self.values, self.basis)


def _require_same_basis(a: Coeffs, b: Coeffs) -> None:
    if a.basis is not b.basis and a.basis != b.basis:
        raise ValueError("coefficient vectors use different bases")


def zero_coeffs(basis: SpectralBasis) -> Coeffs:
    return Coeffs(np.zeros(basis.n), basis)


def _contract_axes(grid: np.ndarray, factors: Sequence[np.ndarray], axis: int) -> np.ndarray:
    """Contract each axis of ``grid`` in turn with axis ``axis`` of its factor.

    Each step contracts the leading axis and appends the factor's other axis,
    so after d steps the axes are back in their original order.
    """
    for C in factors:
        grid = np.tensordot(grid, C, axes=([0], [axis]))
    return grid


def to_coeffs(f: Field, basis: SpectralBasis) -> Coeffs:
    """Project a grid field onto the span (quadrature inner products)."""
    if f.domain != basis.domain:
        raise ValueError("field and basis live on different domains")
    grid = (basis.quadrature_weight * f.values).reshape(
        (basis.domain.grid_points_per_axis,) * basis.domain.dim
    )
    return Coeffs(_contract_axes(grid, basis.axis_factors, 1).ravel()[basis.mode_index], basis)


def to_field(c: Coeffs) -> Field:
    """Evaluate the spectral element on the quadrature grid."""
    basis = c.basis
    grid = np.zeros(tuple(C.shape[0] for C in basis.axis_factors))
    grid.flat[basis.mode_index] = c.values
    return Field(_contract_axes(grid, basis.axis_factors, 0), basis.domain)


def mean_value(c: Coeffs) -> float:
    """Mean over the box: first coefficient divided by sqrt(|Omega|)."""
    return float(c.values[0]) / math.sqrt(c.basis.domain.measure)


def inner(a: Coeffs, b: Coeffs) -> float:
    _require_same_basis(a, b)
    return float(a.values @ b.values)


def norm_L2(c: Coeffs) -> float:
    return float(np.linalg.norm(c.values))


def grad_norm(c: Coeffs) -> float:
    """L2 norm of the gradient: sqrt(sum lambda_j c_j^2)."""
    return math.sqrt(float((c.basis.eigenvalues * c.values**2).sum()))


def norm_H1(c: Coeffs) -> float:
    return math.sqrt(float(((1.0 + c.basis.eigenvalues) * c.values**2).sum()))


def norm_Hm1(c: Coeffs) -> float:
    """Dual norm: sqrt(sum_{j>=2} c_j^2/lambda_j + mean^2)."""
    lam = c.basis.eigenvalues
    tail = float((c.values[1:] ** 2 / lam[1:]).sum()) if c.basis.n > 1 else 0.0
    return math.sqrt(tail + mean_value(c) ** 2)


def apply_stiffness(c: Coeffs) -> Coeffs:
    """Apply the (diagonal) negative Laplacian: c_j -> lambda_j c_j."""
    return Coeffs(c.basis.eigenvalues * c.values, c.basis)


def solve_poisson(psi: Coeffs) -> Coeffs:
    """Invert the Neumann Laplacian on a zero-mean element.

    Returns the unique zero-mean u with lambda_j u_j = psi_j (j >= 2); input
    whose mean exceeds MEAN_TOL relative to its L2 norm is rejected with
    MeanDomainError.
    """
    if abs(psi.values[0]) > MEAN_TOL * max(norm_L2(psi), 1e-300):
        raise MeanDomainError(
            f"operand must have zero mean: mean = {mean_value(psi):.3e}"
        )
    out = np.zeros_like(psi.values)
    lam = psi.basis.eigenvalues
    if psi.basis.n > 1:
        out[1:] = psi.values[1:] / lam[1:]
    return Coeffs(out, psi.basis)


def embed(c: Coeffs, larger: SpectralBasis) -> Coeffs:
    """Zero-pad coefficients into a larger nested basis on the same grid."""
    if larger.domain != c.basis.domain or larger.modes[: c.basis.n] != c.basis.modes:
        raise ValueError("bases are not nested; cannot embed")
    out = np.zeros(larger.n)
    out[: c.basis.n] = c.values
    return Coeffs(out, larger)
