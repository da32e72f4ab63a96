"""Cosine eigenbasis of the Neumann Laplacian on boxes, transforms and norms.

On an interval (0, L) the eigenpairs are e_1 = sqrt(1/L) (eigenvalue 0) and
e_j(x) = sqrt(2/L) cos((j-1) pi x / L) with eigenvalue ((j-1) pi / L)^2;
rectangles use tensor products.  Quadrature is the uniform midpoint rule,
which integrates products of any two retained eigenfunctions exactly, so the
coefficient transform is the L2-orthogonal projection onto the span and all
spectral norms are Parseval-exact.

Because every eigenfunction is a product of 1-D cosines sampled on the same
midpoint nodes, the transforms factor axis by axis (sum factorisation): the
basis keeps one small matrix C[k, i] = e_k(x_i) per axis, and a transform is
one BLAS product with each C (C0^T G C1 on a rectangle), O(M^(d+1) K) work
and O(M K) memory for M nodes and K wavenumbers per axis.  The quadrature
weights are a product over axes too, so the Gram matrix of the basis
(``gram_matrix``) factors into per-axis Gram matrices.  No n x N matrix of sampled
eigenfunctions is ever formed; the Newton solvers apply their Jacobians
through the transforms.

Coefficients are bare (n,) arrays, always passed beside their basis, and grid
samples bare (N,) arrays of any strides (a constant datum is one number, a
read-only stride-0 view, copied only while ``to_coeffs`` projects it): the
transforms, ``project``, ``solve_poisson`` and ``norm_Lp`` take them.  ``Field``
ties samples to their domain where parsed data enters (initial data, sources),
and ``project`` checks that domain.  The per-row norms
(``row_squares``, ``norm_Hm1_rows``) take a run's blocks of levels
(``galerkin.Run``) and the studies' differences of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import MeanDomainError, require

# Relative tolerance for zero-mean membership when inverting the Laplacian.
MEAN_TOL = 1e-10


@dataclass(frozen=True)
class BoxDomain:
    """Interval or rectangle with a uniform midpoint quadrature grid."""

    lengths: tuple[float, ...]
    grid_points_per_axis: int

    def __post_init__(self):
        require(
            (len(self.lengths) in (1, 2), f"(2.12) dim must be 1 or 2, got {len(self.lengths)}"),
            (all(L > 0.0 for L in self.lengths), f"(2.12) domain lengths must be positive, got {self.lengths}"),
            (self.grid_points_per_axis >= 4, f"(2.11) grid must be >= 4, got {self.grid_points_per_axis}"),
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


@dataclass(frozen=True)
class Field:
    """Samples of a function on the quadrature grid of a box domain; ``values`` may be a
    read-only broadcast view (kept by ``reshape(-1)``, which ``ravel`` would copy), and nothing writes into it."""

    values: np.ndarray
    domain: BoxDomain

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).reshape(-1))
        if self.values.size != self.domain.n_grid:
            raise ValueError(
                f"field has {self.values.size} samples, grid has {self.domain.n_grid}"
            )


def constant_field(value: float, domain: BoxDomain) -> Field:
    """The constant ``value`` on ``domain``: one number, broadcast read-only to the N samples."""
    return Field(np.broadcast_to(float(value), (domain.n_grid,)), domain)


def cosine_sum_field(
    domain: BoxDomain,
    constant: float = 0.0,
    terms: Sequence[tuple[tuple[int, ...], float]] = (),
) -> Field:
    """Field c0 + sum_k a_k prod_d cos(k_d pi x_d / L_d), one k_d per axis (plain cosines).

    Each term is the outer product of its per-axis cosines on the axis nodes,
    the first scaled by a_k: the same products, in the same order, as on the
    full tensor grid, with M cosines per axis instead of M^d.  The terms are added out of
    place, in the same order, to c0 broadcast read-only: the bits of summing into a filled grid.
    """
    axes = domain.grid_axes()
    out = np.broadcast_to(float(constant), (domain.n_grid,))
    for mode, amp in terms:
        factors = [np.cos(k * math.pi * x / L) for k, x, L in zip(mode, axes, domain.lengths)]
        factors[0] = float(amp) * factors[0]
        out = out + reduce(np.multiply.outer, factors).ravel()
    return Field(out, domain)


def norm_Lp(values: np.ndarray, domain: BoxDomain, p: float) -> float:
    """Quadrature p-norm of grid samples on ``domain``: w sum |x| for p = 1 and, with sq = x^2,
    (w sum sq (sq sq))^(1/6) for p = 6, with no pointwise power and no BLAS dot, whose
    threads would split the sum; finite samples whose sum overflows are scaled by max |x|
    first. Other p raise ValueError."""
    w = domain.cell_weight
    if p == 1:
        return float(w * np.abs(values).sum())
    if p == 6:
        with np.errstate(over="ignore"):
            sq = np.square(values)
            total = w * np.einsum("i,i->", sq, sq * sq)
        if math.isinf(total) and np.isfinite(values).all():
            top = float(np.abs(values).max())
            return top * norm_Lp(values / top, domain, 6)
        return float(total ** (1.0 / 6.0))
    raise ValueError(f"p must be 1 or 6, got {p}")


def _axis_eigenfunctions(k_max: int, x: np.ndarray, L: float) -> np.ndarray:
    """Rows e_k(x) for k = 0..k_max: C[k, i] = e_k(x_i)."""
    out = math.sqrt(2.0 / L) * np.cos(np.multiply.outer(np.arange(k_max + 1) * math.pi, x) / L)
    out[0] = math.sqrt(1.0 / L)
    return out


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """First n Neumann eigenpairs on a box, sorted by (eigenvalue, mode).

    ``modes[d, j]`` is the wavenumber of mode j on axis d; ``axis_factors[d]``
    holds the 1-D eigenfunctions of axis d sampled on its nodes, one row per
    wavenumber up to the largest one any mode uses on that axis;
    ``mode_index[j]`` is the flat (C-order) position of mode j in the tensor
    grid of those wavenumbers.
    """

    domain: BoxDomain
    modes: np.ndarray
    eigenvalues: np.ndarray
    axis_factors: tuple[np.ndarray, ...] = field(repr=False)
    mode_index: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def tensor_shape(self) -> tuple[int, ...]:
        """The shape of the tensor grid of wavenumbers that ``mode_index`` indexes."""
        return tuple(C.shape[0] for C in self.axis_factors)


def build_basis(domain: BoxDomain, n: int) -> SpectralBasis:
    """Enumerate, sort and sample the first n eigenpairs.

    Modes are multi-indices k with every component at most
    grid_points_per_axis // 2 (anti-aliasing capacity); requesting more modes
    than the grid can carry is a configuration error.  One stable sort of the eigenvalues in C
    order breaks ties lexicographically, so the m-mode basis of a domain is the first m modes of
    any larger one (``converge modes`` zero-pads).  Equal axes share one sampled factor.
    """
    cap = domain.grid_points_per_axis // 2
    capacity = (cap + 1) ** domain.dim
    require(
        (n >= 1, f"(2.11) n_modes must be >= 1, got {n}"),
        (n <= capacity, f"(2.11) n_modes = {n} exceeds the capacity of "
                        f"{capacity} modes on a {domain.grid_points_per_axis}-point-per-axis grid"),
    )
    # The eigenvalues of every mode with components in 0..cap, in C (lexicographic) order.
    eig = reduce(np.add.outer, [(np.arange(cap + 1) * math.pi / L) ** 2 for L in domain.lengths]).ravel()
    order = np.argsort(eig, kind="stable")[:n]
    modes = np.array(np.unravel_index(order, (cap + 1,) * domain.dim))
    eigenvalues = eig[order]

    k_max = modes.max(axis=1)
    axes = {(int(k), L): x for k, x, L in zip(k_max, domain.grid_axes(), domain.lengths)}
    sampled = {(k, L): _axis_eigenfunctions(k, x, L) for (k, L), x in axes.items()}
    factors = tuple(sampled[int(k), L] for k, L in zip(k_max, domain.lengths))
    mode_index = np.ravel_multi_index(tuple(modes), tuple(k_max + 1))
    return SpectralBasis(
        domain=domain,
        modes=modes,
        eigenvalues=eigenvalues,
        axis_factors=factors,
        mode_index=mode_index,
    )


def gram_matrix(basis: SpectralBasis) -> np.ndarray:
    """Quadrature inner products of the sampled eigenfunctions, n x n.

    The midpoint weights are a product over axes, so
    G[j, l] = prod_d G_d[k_d(j), k_d(l)] with G_d = C_d (L_d / M) C_d^T;
    an n x N matrix of samples is never formed.
    """
    m = basis.domain.grid_points_per_axis
    gram = np.ones((basis.n, basis.n))
    for C, L, k in zip(basis.axis_factors, basis.domain.lengths, basis.modes):
        gram *= ((L / m) * C @ C.T)[np.ix_(k, k)]
    return gram


def to_coeffs(values: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Project the N grid samples ``values`` onto the span (quadrature inner
    products); returns a new (n,) array.

    With per-axis factors C0 (and C1) this is w C0 f in 1-D and w C0 F C1^T
    in 2-D, F being the samples on the M x M grid.  The weight w scales the
    n outputs: the same floats as weighting the N samples when w is a power of 2.  ``values``
    may have any strides (non-contiguous samples are copied once, for BLAS); samples of another
    grid size raise ValueError.
    """
    C0, m = basis.axis_factors[0], basis.domain.grid_points_per_axis
    values = np.ascontiguousarray(values)
    if basis.domain.dim == 1:
        out = C0 @ values
    else:
        # Associated as (F^T C0^T)^T C1^T, the BLAS summation order that the
        # stored reference trajectories were made with.
        out = (values.reshape(m, m).T @ C0.T).T @ basis.axis_factors[1].T
    out = out.ravel()[basis.mode_index]  # a new array
    out *= basis.domain.cell_weight
    return out


def to_field(coeffs: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """The (N,) grid values of the spectral element with coefficients ``coeffs``:
    C0^T g in 1-D, C0^T G C1 in 2-D."""
    tensor = np.zeros(basis.tensor_shape)
    tensor.reshape(-1)[basis.mode_index] = coeffs  # a view; several times cheaper than .flat
    if basis.domain.dim == 1:
        return basis.axis_factors[0].T @ tensor
    C0, C1 = basis.axis_factors
    return (C0.T @ tensor @ C1).ravel()


def project(f: Field, basis: SpectralBasis) -> np.ndarray:
    """The (n,) coefficients of the Field ``f`` on ``basis``; a field on another domain raises ValueError."""
    if f.domain != basis.domain:
        raise ValueError("field and basis live on different domains")
    return to_coeffs(f.values, basis)


def row_squares(rows: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sums of c^2 and of lam c^2 over the last axis of a (levels x ... x n)
    array of coefficients."""
    sq = np.square(rows)
    return sq.sum(axis=-1), sq @ lam


def norm_Hm1_rows(rows: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """The dual norm of each row of a (k x n) array of coefficients."""
    dual = (np.square(rows[:, 1:]) / basis.eigenvalues[1:]).sum(axis=1)
    mean = rows[:, 0] / math.sqrt(basis.domain.measure)
    return np.sqrt(dual + mean**2)


def solve_poisson(psi: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Invert the Neumann Laplacian on the zero-mean element with coefficients ``psi``.

    Returns the unique zero-mean u with lambda_j u_j = psi_j (j >= 2); input
    whose mean exceeds MEAN_TOL relative to its L2 norm is rejected with
    MeanDomainError.
    """
    if abs(psi[0]) > MEAN_TOL * max(float(np.linalg.norm(psi)), 1e-300):
        raise MeanDomainError(
            f"operand must have zero mean: mean = {float(psi[0]) / math.sqrt(basis.domain.measure):.3e}"
        )
    out = np.zeros_like(psi)
    out[1:] = psi[1:] / basis.eigenvalues[1:]
    return out
