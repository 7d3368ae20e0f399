"""Periodic pseudospectral building blocks.

Everything downstream (norms, linear solves, nonlinear fixed-point runs)
works on Fourier coefficients of functions on the torus ``[0, L)^n``.  A
field is stored as the full complex coefficient array in the usual FFT
layout; the coefficient ``c_k`` multiplies ``exp(i <2*pi*k/L, x>)``, so a
physical sample array ``u`` and its coefficients are related by
``c = fftn(u) / N**n``.  With this normalisation a single mode has unit
coefficient and Parseval reads ``||u||_L2 = L**(n/2) * ||c||_2``.

Products (tensor divergence, pointwise powers) are formed in physical
space with two-thirds dealiasing applied before and after.  The Leray
projection, divergence, tensor divergence and pointwise power take a
single field or a ``norms.Trajectory`` and act on every time node at once.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np
import scipy.fft

if TYPE_CHECKING:
    from .norms import Trajectory

__all__ = [
    "TorusGrid",
    "SpectralField",
    "FourierMultiplier",
    "identity_multiplier",
    "laplacian_multiplier",
    "heat_multiplier",
    "sector_multiplier",
    "constant_multiplier",
    "resolvent_scalar_multiplier",
    "apply_multiplier",
    "heat_semigroup_apply",
    "fractional_laplacian_apply",
    "helmholtz_project",
    "gradient",
    "divergence",
    "tensor_divergence",
    "pointwise_power_nonlinearity",
    "dealias",
]

#: Relative tolerance used when a nominally-real physical field is checked.
_REALITY_TOL = 1e-10

#: Relative ``l^2`` size of the coefficients outside the dealias mask up to
#: which a field counts as dealiased already (the rounding of a band-limited
#: field).
_MASK_TOL = 1e-14

#: A single field or a time-node stack; the operators that accept either
#: work over coefficient arrays shaped ``(..., m) + grid.shape``.
_FieldOrStack = TypeVar("_FieldOrStack", "SpectralField", "Trajectory")


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the torus ``[0, L)^n`` with FFT wavevectors.

    Parameters
    ----------
    dimension:
        Spatial dimension ``n >= 1``.
    points_per_axis:
        Number of points ``N`` per axis; must be a power of two, ``N >= 4``.
    period:
        Side length ``L > 0`` of the torus.
    """

    dimension: int = 2
    points_per_axis: int = 64
    period: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        n, N, L = self.dimension, self.points_per_axis, self.period
        if n < 1:
            raise ValueError("dimension must be positive")
        if N < 4 or (N & (N - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two, at least 4")
        if not L > 0:
            raise ValueError("period must be positive")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return (self.period / self.points_per_axis) ** self.dimension

    @property
    def volume(self) -> float:
        return self.period ** self.dimension

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """1-D wavevector component ``2*pi*k/L`` in FFT ordering."""
        N = self.points_per_axis
        return 2.0 * np.pi * np.fft.fftfreq(N, d=self.period / N)

    @cached_property
    def xi(self) -> np.ndarray:
        """Stacked wavevectors, shape ``(n,) + shape``."""
        axes = np.meshgrid(*([self.wavenumbers] * self.dimension), indexing="ij")
        return np.stack(axes)

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """``|xi|**2``, the symbol of ``-Laplacian``."""
        return np.sum(self.xi**2, axis=0)

    @cached_property
    def laplacian_spectrum(self) -> np.ndarray:
        """Sorted distinct eigenvalues of ``-Laplacian`` on this grid."""
        return np.unique(self.xi_sq)

    @cached_property
    def _dealias_dropped(self) -> slice:
        """The index block ``|k| >= N/3`` the 2/3 rule drops along each axis;
        in FFT ordering these mode numbers are contiguous."""
        N = self.points_per_axis
        dropped = np.flatnonzero(np.abs(np.fft.fftfreq(N, d=1.0 / N)) >= N / 3.0)
        return slice(int(dropped[0]), int(dropped[-1]) + 1)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping ``|k| < N/3`` along every axis (2/3 rule)."""
        mask = np.ones(self.shape, dtype=bool)
        for axis in range(self.dimension):
            mask[(slice(None),) * axis + (self._dealias_dropped,)] = False
        return mask

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Physical grid coordinates, shape ``(n,) + shape``."""
        x1 = np.linspace(0.0, self.period, self.points_per_axis, endpoint=False)
        return np.stack(np.meshgrid(*([x1] * self.dimension), indexing="ij"))


def _physical_values(
    coefficients: np.ndarray, grid: TorusGrid, *, require_real: bool = False
) -> np.ndarray:
    """Physical samples of coefficients shaped ``(..., m) + grid.shape``.

    With ``require_real`` the imaginary part of the whole array must be
    negligible (conjugate symmetry), otherwise a ``ValueError`` is raised.
    """
    values = scipy.fft.ifftn(coefficients, axes=tuple(range(-grid.dimension, 0)), norm="forward")
    return _real_part(values) if require_real else values


def _is_real(values: np.ndarray) -> bool:
    """Whether the imaginary part of ``values`` is negligible against ``max(1, max |values|)``."""
    scale = max(1.0, float(np.max(np.abs(values))))
    return not np.max(np.abs(values.imag)) > _REALITY_TOL * scale


def _real_part(values: np.ndarray) -> np.ndarray:
    """Real part of samples that must be real; a ``ValueError`` if they are not."""
    if np.iscomplexobj(values) and not _is_real(values):
        raise ValueError("field is not real: conjugate symmetry is broken")
    return values.real


def _fourier_coefficients(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Inverse of :func:`_physical_values` on samples shaped ``(..., m) + grid.shape``."""
    return scipy.fft.fftn(values, axes=tuple(range(-grid.dimension, 0)), norm="forward")


def _xi_dot(grid: TorusGrid, coefficients: np.ndarray) -> np.ndarray:
    """``sum_j xi_j c_j`` over the component axis of ``(..., n) + grid.shape``."""
    space = list(range(1, grid.dimension + 1))
    return np.einsum(grid.xi, [0, *space], coefficients, [..., 0, *space], [..., *space])


def _with_component_axis(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """``values`` shaped ``(...,) + grid.shape`` with a unit component axis."""
    return np.expand_dims(values, -(grid.dimension + 1))


class _CoefficientArithmetic:
    """Linear structure of an immutable dataclass holding ``grid`` and
    ``coefficients``, and its cached physical view ``samples``.

    Shared by :class:`SpectralField` and ``norms.Trajectory``; each defines
    ``_check_compatible`` for its own notion of a matching operand.  The
    linear operations carry ``samples`` through when every operand already
    holds it, so a sum, difference or real multiple of transformed states
    needs no transform of its own.  ``dataclasses.replace`` builds an
    instance without it, which is why ``coefficients`` is never written in
    place.
    """

    @property
    def samples(self) -> np.ndarray:
        """Physical samples, computed once.

        Real float64 samples that own their memory when the imaginary part
        is negligible (the check of ``require_real``), complex otherwise.
        Not a ``functools.cached_property``: before Python 3.12 its lock is
        shared by every instance, which would serialise the transforms of
        an ensemble's worker threads.
        """
        samples = vars(self).get("_samples")
        if samples is None:
            values = _physical_values(self.coefficients, self.grid)
            samples = values.real.copy() if _is_real(values) else values
            vars(self)["_samples"] = samples
        return samples

    def _linear(self, op: Callable[..., np.ndarray], *others):
        """``op`` of the coefficients, and of the samples when every operand holds them."""
        operands = (self, *others)
        out = replace(self, coefficients=op(*(x.coefficients for x in operands)))
        if all("_samples" in vars(x) for x in operands):
            vars(out)["_samples"] = op(*(x.samples for x in operands))
        return out

    def __add__(self, other):
        self._check_compatible(other)
        return self._linear(operator.add, other)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._linear(operator.sub, other)

    def __mul__(self, scalar: complex):
        if isinstance(scalar, numbers.Real):
            return self._linear(lambda c: c * scalar)
        return replace(self, coefficients=self.coefficients * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self._linear(operator.neg)


@dataclass(frozen=True, eq=False)
class SpectralField(_CoefficientArithmetic):
    """Fourier-side representation of an ``m``-component field.

    ``coefficients`` has shape ``(m,) + grid.shape`` and is complex.  Real
    physical fields correspond to conjugate-symmetric coefficients; that
    symmetry is never enforced on construction, only checked where an
    operation requires real samples.
    """

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeff = np.asarray(self.coefficients, dtype=np.complex128)
        if coeff.ndim == self.grid.dimension:
            coeff = coeff[np.newaxis]
        if coeff.shape[1:] != self.grid.shape:
            raise ValueError(
                f"coefficient shape {coeff.shape} incompatible with grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "coefficients", coeff)

    # -- basic queries -------------------------------------------------

    @property
    def components(self) -> int:
        return self.coefficients.shape[0]

    def is_mean_free(self, tol: float = 1e-12) -> bool:
        zero_mode = self.coefficients[(slice(None),) + (0,) * self.grid.dimension]
        scale = max(1.0, float(np.max(np.abs(self.coefficients))))
        return bool(np.all(np.abs(zero_mode) <= tol * scale))

    # -- transforms ----------------------------------------------------

    @classmethod
    def from_physical(cls, grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        """Build a field from physical samples on ``grid``."""
        values = np.asarray(values)
        if values.ndim == grid.dimension:
            values = values[np.newaxis]
        if values.shape[1:] != grid.shape:
            raise ValueError(
                f"sample shape {values.shape} incompatible with grid shape {grid.shape}"
            )
        return cls(grid, _fourier_coefficients(values, grid))

    @classmethod
    def zeros(cls, grid: TorusGrid, components: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((components,) + grid.shape, dtype=np.complex128))

    def to_physical(self, *, require_real: bool = False) -> np.ndarray:
        """Physical samples; complex in general, real part if requested.

        With ``require_real`` the imaginary part must be negligible
        (conjugate symmetry), otherwise a ``ValueError`` is raised.
        """
        return _physical_values(self.coefficients, self.grid, require_real=require_real)

    # -- linear structure ----------------------------------------------

    def _check_compatible(self, other: "SpectralField") -> None:
        if self.grid != other.grid or self.components != other.components:
            raise ValueError("fields live on different grids or component counts")


@dataclass(frozen=True)
class FourierMultiplier:
    """Operator acting modewise through a symbol ``xi -> a(xi)``.

    ``symbol`` receives the stacked wavevector array of shape
    ``(n,) + shape`` and returns either a scalar symbol of shape ``shape``
    or a matrix symbol of shape ``(m, m) + shape``.
    """

    symbol: Callable[[np.ndarray], np.ndarray]
    descriptor: str = "multiplier"

    def evaluate(self, grid: TorusGrid) -> np.ndarray:
        return np.asarray(self.symbol(grid.xi))


# -- common symbols ----------------------------------------------------


def identity_multiplier() -> FourierMultiplier:
    return FourierMultiplier(lambda xi: np.ones(xi.shape[1:]), "identity")


def laplacian_multiplier() -> FourierMultiplier:
    """Symbol of ``A = -Laplacian``: ``|xi|**2``."""
    return FourierMultiplier(lambda xi: np.sum(xi**2, axis=0), "minus-laplacian")


def heat_multiplier(t: float) -> FourierMultiplier:
    """Heat semigroup ``exp(t*Laplacian)`` at time ``t >= 0``."""
    if t < 0:
        raise ValueError("heat semigroup time must be nonnegative")
    return FourierMultiplier(
        lambda xi: np.exp(-t * np.sum(xi**2, axis=0)), f"heat(t={t})"
    )


def sector_multiplier(theta: float) -> FourierMultiplier:
    """Rotated Laplacian symbol ``|xi|**2 * exp(i*theta)``."""
    phase = np.exp(1j * theta)
    return FourierMultiplier(
        lambda xi: np.sum(xi**2, axis=0) * phase, f"sector(theta={theta})"
    )


def constant_multiplier(value: complex) -> FourierMultiplier:
    """Scalar multiple of the identity, constant symbol ``value``."""
    return FourierMultiplier(
        lambda xi: np.full(xi.shape[1:], value, dtype=np.complex128),
        f"const({value})",
    )


def resolvent_scalar_multiplier(sigma: float) -> FourierMultiplier:
    """Symbol ``i*sigma / (i*sigma + |xi|**2)`` of the scaled resolvent."""

    def symbol(xi: np.ndarray) -> np.ndarray:
        lam = np.sum(xi**2, axis=0)
        denom = 1j * sigma + lam
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(denom == 0, 0.0, (1j * sigma) / np.where(denom == 0, 1.0, denom))
        return out

    return FourierMultiplier(symbol, f"resolvent(sigma={sigma})")


# -- operations --------------------------------------------------------


def apply_multiplier(field: SpectralField, op: FourierMultiplier) -> SpectralField:
    """Apply a Fourier multiplier modewise.

    Scalar symbols broadcast over components; matrix symbols contract the
    component index and must match the field's component count.
    """
    sym = op.evaluate(field.grid)
    if sym.shape == field.grid.shape:
        return SpectralField(field.grid, field.coefficients * sym[np.newaxis])
    m = field.components
    if sym.shape == (m, m) + field.grid.shape:
        out = np.einsum("ij...,j...->i...", sym, field.coefficients)
        return SpectralField(field.grid, out)
    raise ValueError(
        f"symbol shape {sym.shape} does not match grid shape {field.grid.shape} "
        f"or matrix form for {m} components"
    )


def heat_semigroup_apply(field: SpectralField, t: float) -> SpectralField:
    """``exp(t*Laplacian)`` applied to ``field``; contraction for ``t >= 0``."""
    if t < 0:
        raise ValueError("heat semigroup time must be nonnegative")
    damp = np.exp(-t * field.grid.xi_sq)
    return SpectralField(field.grid, field.coefficients * damp[np.newaxis])


def fractional_laplacian_apply(field: SpectralField, s: float) -> SpectralField:
    """``(-Laplacian)**s`` through the symbol ``|xi|**(2s)``.

    The zero mode is annihilated for ``s > 0`` and requires a mean-free
    field for ``s < 0`` (the inverse does not see constants).
    """
    if s < 0 and not field.is_mean_free(tol=1e-12):
        raise ValueError("negative fractional power requires a mean-free field")
    xi_sq = field.grid.xi_sq
    zero = (0,) * field.grid.dimension
    if s == 0:
        return SpectralField(field.grid, field.coefficients.copy())
    with np.errstate(divide="ignore"):
        sym = xi_sq**s
    sym[zero] = 0.0
    return SpectralField(field.grid, field.coefficients * sym[np.newaxis])


def helmholtz_project(field: _FieldOrStack) -> _FieldOrStack:
    """Leray projection onto divergence-free fields.

    Modewise ``P = I - xi xi^T / |xi|**2``; the zero mode (spatial mean)
    passes through unchanged.
    """
    grid = field.grid
    if field.components != grid.dimension:
        raise ValueError(
            f"projection needs {grid.dimension} components, field has {field.components}"
        )
    inv = np.zeros_like(grid.xi_sq)
    nonzero = grid.xi_sq > 0
    inv[nonzero] = 1.0 / grid.xi_sq[nonzero]
    xi_dot_u = _xi_dot(grid, field.coefficients)
    out = field.coefficients - grid.xi * _with_component_axis(xi_dot_u * inv, grid)
    return replace(field, coefficients=out)


def gradient(field: SpectralField) -> SpectralField:
    """Gradient of a scalar field: ``i*xi_j*c`` per direction."""
    if field.components != 1:
        raise ValueError("gradient expects a scalar field")
    out = 1j * field.grid.xi * field.coefficients[0][np.newaxis]
    return SpectralField(field.grid, out)


def divergence(field: _FieldOrStack) -> _FieldOrStack:
    """Divergence of a vector field: ``i * sum_j xi_j c_j``."""
    if field.components != field.grid.dimension:
        raise ValueError("divergence expects one component per dimension")
    out = 1j * _xi_dot(field.grid, field.coefficients)
    return replace(field, coefficients=_with_component_axis(out, field.grid))


def dealias(field: SpectralField) -> SpectralField:
    """Zero all modes outside the 2/3-rule ball."""
    mask = field.grid.dealias_mask
    return SpectralField(field.grid, field.coefficients * mask[np.newaxis])


def _dealiased_samples(u: _FieldOrStack, *, require_real: bool = False) -> np.ndarray:
    """Physical samples of ``u`` with the modes outside the dealias mask dropped.

    A field already inside the mask, up to ``_MASK_TOL``, gives its cached
    ``samples``; any other is masked and transformed.  ``require_real`` is
    as in :func:`_physical_values`.
    """
    grid = u.grid
    c = u.coefficients
    # The dropped modes are the union over the axes of the slab where that
    # axis runs through the dropped block; a mode in several slabs is
    # counted once per slab, which only makes the test stricter.
    n = grid.dimension
    slabs = ((Ellipsis, grid._dealias_dropped) + (slice(None),) * (n - 1 - d) for d in range(n))
    if sum(_energy(c[slab]) for slab in slabs) <= _MASK_TOL**2 * _energy(c):
        return _real_part(u.samples) if require_real else u.samples
    return _physical_values(c * grid.dealias_mask, grid, require_real=require_real)


def _energy(coefficients: np.ndarray) -> float:
    """``sum |c|**2`` over the whole array, without forming the moduli."""
    return float(np.sum(np.square(coefficients.real)) + np.sum(np.square(coefficients.imag)))


def tensor_divergence(u: _FieldOrStack, v: _FieldOrStack) -> _FieldOrStack:
    """``div(u (x) v)``, the vector with components ``sum_i d_i (u_i v_j)``.

    The tensor product is formed in physical space with dealiasing before
    and after, then differentiated spectrally.  All products ``u_i v_j``
    are transformed in one stacked call.  When ``v`` is ``u`` itself it is
    not transformed again, and only the products with ``i <= j`` are
    formed: ``u_j u_i`` is read from ``u_i u_j``; a ``u`` inside the
    dealias mask then gives its cached samples.
    """
    u._check_compatible(v)
    grid = u.grid
    n = grid.dimension
    if u.components != n:
        raise ValueError("tensor divergence expects one component per dimension")
    mask = grid.dealias_mask
    space = (slice(None),) * n
    if v is u:
        u_phys = v_phys = _dealiased_samples(u)
        rows, cols = np.triu_indices(n)
    else:
        u_phys = _physical_values(u.coefficients * mask, grid)
        v_phys = _physical_values(v.coefficients * mask, grid)
        rows, cols = np.indices((n, n)).reshape(2, -1)
    products = u_phys[(Ellipsis, rows) + space] * v_phys[(Ellipsis, cols) + space]
    coeff = _fourier_coefficients(products, grid)
    coeff *= mask
    # slot[j, i] is the stack position of m_ij = u_i v_j
    slot = np.empty((n, n), dtype=np.intp)
    slot[cols, rows] = np.arange(rows.size)
    if v is u:
        slot[rows, cols] = slot[cols, rows]
    out = 1j * _xi_dot(grid, coeff[(Ellipsis, slot) + space])
    return replace(u, coefficients=out)


def pointwise_power_nonlinearity(
    u: _FieldOrStack, nu: float, variant: str = "signed"
) -> _FieldOrStack:
    """Dealiased pointwise power of a real scalar field.

    ``signed`` produces ``|u|**(nu-1) * u`` and ``unsigned`` produces
    ``|u|**nu``.  The input must have negligible imaginary part in physical
    space; one inside the dealias mask gives its cached samples.
    """
    if u.components != 1:
        raise ValueError("pointwise power expects a scalar field")
    if nu <= 1:
        raise ValueError("power exponent nu must exceed 1")
    if variant not in ("signed", "unsigned"):
        raise ValueError(f"unknown variant {variant!r}; use 'signed' or 'unsigned'")
    grid = u.grid
    mask = grid.dealias_mask
    values = _dealiased_samples(u, require_real=True)
    if variant == "signed":
        w = np.abs(values) ** (nu - 1.0) * values
    else:
        w = np.abs(values) ** nu
    return replace(u, coefficients=_fourier_coefficients(w, grid) * mask)
