"""Periodic pseudospectral building blocks.

Everything downstream (norms, linear solves, nonlinear fixed-point runs)
works on Fourier coefficients of functions on the torus ``[0, L)^n``.  The
coefficient ``c_k`` multiplies ``exp(i <2*pi*k/L, x>)``, so a physical
sample array ``u`` and its coefficients are related by
``c = fftn(u) / N**n``.  With this normalisation a single mode has unit
coefficient and Parseval reads ``||u||_L2 = L**(n/2) * ||c||_2``.

A field stores one of two layouts, and the stored array's last axis says
which.  A real field (conjugate-symmetric coefficients) stores its half
spectrum, the ``rfftn`` layout ``(..., m, N, ..., N//2 + 1)``: its samples
come from one ``irfftn`` and are real.  Any other field stores the full
FFT layout ``(..., m, N, ..., N)`` and has complex samples.  Each operator
is written once over the stored array and the per-mode arrays of its
layout (:meth:`TorusGrid.layout`: wavevectors, dealias mask, Parseval
weights).  Conjugate symmetry is checked once, when a full array enters a
constructor, and an operator that does not map real fields to real
fields (a symbol with ``a(-xi) != conj(a(xi))``, a complex scalar, an odd
derivative of a field with energy on a Nyquist row) gives a full-layout
field.  The full array stays readable as ``coefficients``.

Products (tensor divergence, momentum forcing, pointwise powers) are
formed in physical space with two-thirds dealiasing applied before and
after; the product spectra are differentiated (and Leray-projected) by one
contraction with a per-mode kernel of the layout.  Every operator takes a
single field or a ``norms.Trajectory`` and acts on every time node at once.
"""

from __future__ import annotations

import dataclasses
import numbers
import operator
from dataclasses import InitVar, dataclass, replace
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
    "laplacian_multiplier",
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
    "momentum_forcing",
    "pointwise_power_nonlinearity",
    "dealias",
]

#: Relative tolerance of the conjugate-symmetry check a full coefficient
#: array (or a symbol) passes to count as real.
_REALITY_TOL = 1e-10

#: Number of coefficients the conjugate-symmetry check compares per block
#: (1 MB of complex128: a block and its mirror stay in cache).
_HERMITIAN_BLOCK = 1 << 16

#: Relative ``l^2`` size of the coefficients outside the dealias mask up to
#: which a field counts as dealiased already (the rounding of a band-limited
#: field).
_MASK_TOL = 1e-14

#: A single field or a time-node stack; the operators that accept either
#: work over stored arrays shaped ``(..., m) + layout shape``.
_FieldOrStack = TypeVar("_FieldOrStack", "SpectralField", "Trajectory")


def _product_slots(n: int, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """Operand indices ``(i, j)`` of the products ``u_i v_j`` in stack order:
    the pairs ``i <= j`` when ``v`` is ``u`` (``u_j u_i`` is ``u_i u_j``),
    all ``n**2`` pairs otherwise."""
    if symmetric:
        return np.triu_indices(n)
    return np.indices((n, n)).reshape(2, -1)


@dataclass(frozen=True)
class _Layout:
    """Per-mode arrays of one storage layout, shaped like its spatial axes.

    The contraction kernels are built on first use and kept with the layout,
    so each grid builds each one once per layout.
    """

    xi: np.ndarray
    xi_sq: np.ndarray
    #: ``1/|xi|**2``, zero at the zero mode
    inv_xi_sq: np.ndarray
    dealias_mask: np.ndarray
    #: block of the last axis the 2/3 rule drops
    dealias_last: slice
    #: how often each last-axis column occurs in the full spectrum
    weights: np.ndarray

    def _divergence_symbol(self, symmetric: bool) -> np.ndarray:
        """Real ``R`` with ``div(u (x) v)_k = i sum_s R[k, s] m_s`` for the
        dealiased product spectra ``m_s`` in :func:`_product_slots` order,
        shaped ``(n, slots) + layout shape``; zero outside the dealias mask."""
        n = self.xi.shape[0]
        dealiased_xi = self.xi * self.dealias_mask
        rows, cols = _product_slots(n, symmetric)
        symbol = np.zeros((n, rows.size) + self.xi_sq.shape)
        for s, (i, j) in enumerate(zip(rows, cols)):
            symbol[j, s] += dealiased_xi[i]  # d_i (u_i v_j) in component j
            if symmetric and i != j:
                symbol[i, s] += dealiased_xi[j]  # the slot stands for u_j u_i too
        return symbol

    # The kernels act on the float view of the product spectra, so each
    # mode's value appears twice along the last axis (real and imaginary
    # part); :func:`_contract` applies the common factor ``i``.

    @cached_property
    def divergence_kernel(self) -> np.ndarray:
        """``div(u (x) v)`` from the ``n**2`` product spectra ``u_i v_j``."""
        return np.repeat(self._divergence_symbol(symmetric=False), 2, axis=-1)

    @cached_property
    def symmetric_divergence_kernel(self) -> np.ndarray:
        """``div(u (x) u)`` from the ``n(n+1)/2`` product spectra ``u_i u_j``, ``i <= j``."""
        return np.repeat(self._divergence_symbol(symmetric=True), 2, axis=-1)

    @cached_property
    def forcing_kernel(self) -> np.ndarray:
        """``-P div(u (x) u)`` from the ``n(n+1)/2`` product spectra: the
        symmetric divergence kernel with the Leray projector
        ``P = I - xi xi^T / |xi|**2`` and the sign folded in."""
        symbol = self._divergence_symbol(symmetric=True)
        xi_dot = np.einsum("a...,as...->s...", self.xi, symbol)
        projected = symbol - self.xi[:, np.newaxis] * (xi_dot * self.inv_xi_sq)
        return np.repeat(-projected, 2, axis=-1)


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
        if not 0 < L < np.inf:
            raise ValueError("period must be positive and finite")
        try:  # a float power that overflows raises
            in_range = self.cell_volume > 0 and np.isfinite([self.volume, np.pi * N / L]).all()
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(
                "period out of range: the cell volume (L/N)^n, the volume L^n and the top"
                " wavenumber pi N/L must be positive and finite"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Spatial shape of a half spectrum: the last axis keeps ``k = 0 .. N/2``."""
        return self.shape[:-1] + (self.points_per_axis // 2 + 1,)

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

    def layout(self, stored: np.ndarray) -> _Layout:
        """Per-mode arrays matching a stored array, read from its last axis's length."""
        if stored.shape[-1] == self.points_per_axis:
            return self._full_layout
        return self._half_layout

    @cached_property
    def _full_layout(self) -> _Layout:
        return self._columns(self.points_per_axis)

    @cached_property
    def _half_layout(self) -> _Layout:
        return self._columns(self.points_per_axis // 2 + 1)

    def _columns(self, count: int) -> _Layout:
        """The layout keeping the first ``count`` columns of the last axis.

        The half layout's Nyquist column keeps the full layout's ``-N/2``
        wavenumber, so both give the same numbers on the modes they share.
        """
        cut = (Ellipsis, slice(0, count))
        xi_sq = np.ascontiguousarray(self.xi_sq[cut])
        inv_xi_sq = np.zeros_like(xi_sq)
        np.divide(1.0, xi_sq, out=inv_xi_sq, where=xi_sq > 0)
        weights = np.ones(count)
        if count < self.points_per_axis:
            weights[1:-1] = 2.0  # k and -k; the k = 0 and Nyquist columns occur once
        dropped = self._dealias_dropped
        return _Layout(
            xi=np.ascontiguousarray(self.xi[cut]),
            xi_sq=xi_sq,
            inv_xi_sq=inv_xi_sq,
            dealias_mask=np.ascontiguousarray(self.dealias_mask[cut]),
            dealias_last=slice(dropped.start, min(dropped.stop, count)),
            weights=weights,
        )


def _is_half(stored: np.ndarray, grid: TorusGrid) -> bool:
    """Whether ``stored`` is a half spectrum (the layout of a real field)."""
    return stored.shape[-1] != grid.points_per_axis


def _spatial_axes(grid: TorusGrid) -> tuple[int, ...]:
    return tuple(range(-grid.dimension, 0))


def _physical_values(stored: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Physical samples of a stored array: real from a half spectrum, complex
    from a full one."""
    if _is_half(stored, grid):
        return scipy.fft.irfftn(stored, s=grid.shape, axes=_spatial_axes(grid), norm="forward")
    return scipy.fft.ifftn(stored, axes=_spatial_axes(grid), norm="forward")


def _fourier_coefficients(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Inverse of :func:`_physical_values`: real samples give the half spectrum,
    complex ones the full array."""
    if np.iscomplexobj(values):
        return scipy.fft.fftn(values, axes=_spatial_axes(grid), norm="forward")
    return scipy.fft.rfftn(values, axes=_spatial_axes(grid), norm="forward")


def _negate_leading(a: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """``a`` at the indices ``-k mod N`` of every spatial axis but the last."""
    for axis in range(-grid.dimension, -1):
        a = np.roll(np.flip(a, axis), 1, axis)
    return a


def _is_hermitian(full: np.ndarray, grid: TorusGrid) -> bool:
    """Whether ``full[..., -k] = conj(full[..., k])`` over the last ``n`` axes,
    up to ``_REALITY_TOL`` against ``max(1, max |c|)`` over the half
    spectrum (which holds the largest ``|c|`` of a conjugate-symmetric array).

    The array is read in blocks of whole spatial slices: one pass finds the
    global scale, a second compares block by block and stops at the first
    block that breaks symmetry.  The answer is the one a single comparison
    of the whole array gives.
    """
    N = grid.points_per_axis
    slices = full.reshape((-1,) + full.shape[full.ndim - grid.dimension :])
    step = max(1, _HERMITIAN_BLOCK // slices[0].size)
    blocks = [slices[i : i + step] for i in range(0, len(slices), step)]
    peaks = [np.max(np.abs(b[..., : N // 2 + 1])) for b in blocks]
    tol = _REALITY_TOL * max(1.0, float(np.max(peaks)))
    for block in blocks:
        # conj(block[..., -k]) for the half-spectrum columns k = 0 .. N/2
        last = np.concatenate([block[..., :1], block[..., N - 1 : N // 2 - 1 : -1]], axis=-1)
        mirror = _negate_leading(last, grid)  # a new array: conjugated in place
        np.conjugate(mirror, out=mirror)
        mirror -= block[..., : N // 2 + 1]
        if np.max(np.abs(mirror)) > tol:
            return False
    return True


def _stored(coefficients: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The array a container keeps for coefficients in either layout: a full
    array that is conjugate symmetric as its half spectrum (a copy), any
    other array as it is."""
    if not _is_half(coefficients, grid) and _is_hermitian(coefficients, grid):
        return coefficients[..., : grid.points_per_axis // 2 + 1].copy()
    return coefficients


def _full_spectrum(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The full array of a half spectrum: column ``N - j`` is the conjugate of
    column ``j`` at the negated indices of the other axes."""
    tail = np.conjugate(_negate_leading(half[..., grid.points_per_axis // 2 - 1 : 0 : -1], grid))
    return np.concatenate([half, tail], axis=-1)


def _require_real(stored: np.ndarray, grid: TorusGrid) -> None:
    if not _is_half(stored, grid):
        raise ValueError("field is not real: conjugate symmetry is broken")


def _on_layout(symbol: np.ndarray, u: _FieldOrStack) -> tuple[np.ndarray, np.ndarray]:
    """A symbol evaluated on the full grid, and ``u``'s Fourier array, in one layout.

    A real ``u`` stays in its half spectrum when the symbol maps real fields
    to real fields (``a(-xi) = conj(a(xi))``); otherwise both are full.
    """
    stored = u.spectrum
    if not _is_half(stored, u.grid):
        return symbol, stored
    if _is_hermitian(symbol, u.grid):
        return symbol[..., : stored.shape[-1]], stored
    return symbol, u.coefficients


def _xi_dot(xi: np.ndarray, stored: np.ndarray) -> np.ndarray:
    """``sum_j xi_j c_j`` over the component axis of ``(..., n) + layout shape``,
    for wavevectors ``xi`` of the stored array's layout."""
    space = list(range(1, xi.ndim))
    return np.einsum(xi, [0, *space], stored, [..., 0, *space], [..., *space])


def _with_component_axis(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """``values`` shaped ``(...,) + layout shape`` with a unit component axis."""
    return np.expand_dims(values, -(grid.dimension + 1))


class _CoefficientArithmetic:
    """Storage, linear structure and derived views of an immutable dataclass
    holding ``grid`` and the stored Fourier array ``spectrum``.

    Shared by :class:`SpectralField` and ``norms.Trajectory``, which adds a
    leading time axis.  The linear operations carry ``samples`` through
    when every operand already holds it and the operands and the result
    share a layout, so a sum, difference or real multiple of transformed
    states needs no transform of its own.
    ``dataclasses.replace`` builds an instance without it, which is why
    ``spectrum`` is never written in place.
    """

    def _store(self, coefficients: np.ndarray, lead: tuple[int, ...]) -> None:
        """Keep ``coefficients``, shaped ``lead + (m,) + grid shape`` in either
        layout (without the ``m`` axis for ``m = 1``), as ``spectrum``."""
        coeff = np.asarray(coefficients, dtype=np.complex128)
        grid, k = self.grid, len(lead)
        if coeff.ndim == k + grid.dimension:
            coeff = np.expand_dims(coeff, k)
        if coeff.shape[:k] != lead or coeff.shape[k + 1 :] not in (grid.shape, grid.half_shape):
            raise ValueError(
                f"coefficient shape {coeff.shape} incompatible with {lead} + grid shape {grid.shape}"
            )
        object.__setattr__(self, "spectrum", _stored(coeff, grid))

    @property
    def components(self) -> int:
        return self.spectrum.shape[-self.grid.dimension - 1]

    def is_mean_free(self) -> bool:
        """Whether the zero mode is negligible at every node."""
        n, stored = self.grid.dimension, self.spectrum
        peak = np.abs(stored).reshape(stored.shape[: -n - 1] + (-1,)).max(-1, keepdims=True)
        return bool(np.all(np.abs(stored[(...,) + (0,) * n]) <= 1e-12 * np.maximum(1.0, peak)))

    def _check_compatible(self, other) -> None:
        if self.grid != other.grid or self.components != other.components:
            raise ValueError("operands live on different grids or component counts")

    @property
    def coefficients(self) -> np.ndarray:
        """The full Fourier array ``(..., m) + grid.shape``, read-only.

        A real field rebuilds it from its half spectrum on every access.
        """
        stored = self.spectrum
        full = _full_spectrum(stored, self.grid) if _is_half(stored, self.grid) else stored.view()
        full.flags.writeable = False
        return full

    @property
    def samples(self) -> np.ndarray:
        """Physical samples, computed once.

        Real float64 samples that own their memory for a real field (half
        layout), complex ones otherwise.  Not a ``functools.cached_property``:
        before Python 3.12 its lock is shared by every instance, which would
        serialise the transforms of an ensemble's worker threads.
        """
        samples = vars(self).get("_samples")
        if samples is None:
            samples = _physical_values(self.spectrum, self.grid)
            vars(self)["_samples"] = samples
        return samples

    def _linear(self, op: Callable[..., np.ndarray], *others):
        """``op`` of the Fourier arrays, and of the samples when every operand
        holds them and the result keeps their layout; operands in different
        layouts are combined in full."""
        operands = (self, *others)
        if all(x.spectrum.shape == self.spectrum.shape for x in operands):
            out = replace(self, coefficients=op(*(x.spectrum for x in operands)))
            # full operands may give a real result, stored half: its samples are real
            same_layout = out.spectrum.shape == self.spectrum.shape
            if same_layout and all("_samples" in vars(x) for x in operands):
                vars(out)["_samples"] = op(*(x.samples for x in operands))
            return out
        return replace(self, coefficients=op(*(x.coefficients for x in operands)))

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

    ``coefficients`` may be given in either layout: the full array
    ``(m,) + grid.shape`` or the half spectrum ``(m,) + grid.half_shape``.
    A full array that is conjugate symmetric (up to ``_REALITY_TOL``) is
    stored as its half spectrum, so the check runs once, here; ``spectrum``
    is the stored array and ``coefficients`` the full one, read-only.
    """

    grid: TorusGrid
    # No default: the inherited read-only ``coefficients`` view is not one.
    coefficients: InitVar[np.ndarray] = dataclasses.field()
    spectrum: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self, coefficients: np.ndarray) -> None:
        self._store(coefficients, ())

    # -- transforms ----------------------------------------------------

    @classmethod
    def from_physical(cls, grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        """Build a field from physical samples on ``grid``; real samples give
        the half spectrum directly."""
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
        return cls(grid, np.zeros((components,) + grid.half_shape, dtype=np.complex128))

    def to_physical(self, *, require_real: bool = False) -> np.ndarray:
        """Physical samples, freshly transformed: real for a real field,
        complex otherwise.

        With ``require_real`` a field stored in the full layout (one that is
        not conjugate symmetric) raises a ``ValueError``.
        """
        if require_real:
            _require_real(self.spectrum, self.grid)
        return _physical_values(self.spectrum, self.grid)


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


def laplacian_multiplier() -> FourierMultiplier:
    """Symbol of ``A = -Laplacian``: ``|xi|**2``."""
    return FourierMultiplier(lambda xi: np.sum(xi**2, axis=0), "minus-laplacian")


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


def apply_multiplier(u: _FieldOrStack, op: FourierMultiplier) -> _FieldOrStack:
    """Apply a Fourier multiplier modewise to a field or to every state of a
    trajectory.

    Scalar symbols broadcast over components; matrix symbols contract the
    component index and must match the field's component count.  A symbol
    that does not map real fields to real fields gives a full-layout result.
    """
    grid = u.grid
    m = u.components
    sym = op.evaluate(grid)
    if sym.shape not in (grid.shape, (m, m) + grid.shape):
        raise ValueError(
            f"symbol shape {sym.shape} does not match grid shape {grid.shape} "
            f"or matrix form for {m} components"
        )
    sym, coeff = _on_layout(sym, u)
    if sym.ndim == grid.dimension:
        return replace(u, coefficients=coeff * sym)
    space = list(range(2, sym.ndim))
    out = np.einsum(sym, [0, 1, *space], coeff, [..., 1, *space], [..., 0, *space])
    return replace(u, coefficients=out)


def heat_semigroup_apply(u: _FieldOrStack, t: float) -> _FieldOrStack:
    """``exp(t*Laplacian)`` applied to ``u``; contraction for ``t >= 0``."""
    if t < 0:
        raise ValueError("heat semigroup time must be nonnegative")
    damp = np.exp(-t * u.grid.layout(u.spectrum).xi_sq)
    return replace(u, coefficients=u.spectrum * damp)


def fractional_laplacian_apply(u: _FieldOrStack, s: float) -> _FieldOrStack:
    """``(-Laplacian)**s`` through the symbol ``|xi|**(2s)``.

    The zero mode is annihilated for ``s > 0`` and requires a mean-free
    field (at every node) for ``s < 0`` (the inverse does not see constants).
    """
    if s < 0 and not u.is_mean_free():
        raise ValueError("negative fractional power requires a mean-free field")
    if s == 0:
        return replace(u, coefficients=u.spectrum.copy())
    with np.errstate(divide="ignore"):
        sym = u.grid.layout(u.spectrum).xi_sq ** s
    sym[(0,) * u.grid.dimension] = 0.0
    return replace(u, coefficients=u.spectrum * sym)


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
    coeff = _odd_input(field)
    layout = grid.layout(coeff)
    xi_dot_u = _xi_dot(layout.xi, coeff)
    out = coeff - layout.xi * _with_component_axis(xi_dot_u * layout.inv_xi_sq, grid)
    return replace(field, coefficients=out)


def gradient(field: _FieldOrStack) -> _FieldOrStack:
    """Gradient of a scalar field: ``i*xi_j*c`` per direction."""
    if field.components != 1:
        raise ValueError("gradient expects a scalar field")
    coeff = _odd_input(field)
    return replace(field, coefficients=1j * field.grid.layout(coeff).xi * coeff)


def divergence(field: _FieldOrStack) -> _FieldOrStack:
    """Divergence of a vector field: ``i * sum_j xi_j c_j``."""
    if field.components != field.grid.dimension:
        raise ValueError("divergence expects one component per dimension")
    coeff = _odd_input(field)
    out = 1j * _xi_dot(field.grid.layout(coeff).xi, coeff)
    return replace(field, coefficients=_with_component_axis(out, field.grid))


def dealias(field: _FieldOrStack) -> _FieldOrStack:
    """Zero all modes outside the 2/3-rule ball."""
    mask = field.grid.layout(field.spectrum).dealias_mask
    return replace(field, coefficients=field.spectrum * mask)


def _energy(block: np.ndarray, weights: np.ndarray, lead: int = 0) -> np.ndarray:
    """``sum |c|**2`` over the axes of ``block`` after its first ``lead``, each
    last-axis column counted ``weights`` times (as often as it occurs in the
    full spectrum).  One pass over the real and imaginary parts, without
    forming the moduli."""
    block = np.ascontiguousarray(block, dtype=np.complex128)
    parts = block.view(np.float64).reshape(block.shape[:lead] + (-1, 2 * block.shape[-1]))
    per_part = np.einsum("...ij,...ij->...j", parts, parts)
    return per_part.reshape(per_part.shape[:-1] + (-1, 2)).sum(axis=-1) @ weights


def _negligible(stored: np.ndarray, grid: TorusGrid, blocks: list[tuple[int, int | slice]]) -> bool:
    """Whether the modes in ``blocks`` carry at most ``_MASK_TOL`` of the
    ``l^2`` size of ``stored``.

    A block is an ``(axis, index)`` pair selecting an index or a slice along
    one spatial axis (a slice on the last axis).  A mode in several blocks
    is counted once per block, which only makes the test stricter; each
    stored column counts as often as it occurs in the full spectrum.
    """
    n = grid.dimension
    weights = grid.layout(stored).weights
    part = 0.0
    for axis, index in blocks:
        block = stored[(Ellipsis, index) + (slice(None),) * (n - 1 - axis)]
        part += float(_energy(block, weights[index] if axis == n - 1 else weights))
    return part == 0.0 or part <= _MASK_TOL**2 * float(_energy(stored, weights))


def _odd_input(u: _FieldOrStack) -> np.ndarray:
    """``u``'s Fourier array in the layout an odd-order derivative keeps.

    On a Nyquist row (``k_d = N/2`` along any axis, the last one's Nyquist
    column included) the wavenumber is ``-N/2`` at ``k`` and at ``-k``, so
    ``i xi`` is not conjugate symmetric there.  A half spectrum carrying
    more than ``_MASK_TOL`` of its ``l^2`` size on such a row is therefore
    differentiated in full, as a field that is not real; any other keeps
    its layout.
    """
    grid = u.grid
    N, n = grid.points_per_axis, grid.dimension
    # a slice on the last axis, so that ``_negligible`` keeps its weights an array
    rows = [(axis, N // 2) for axis in range(n - 1)] + [(n - 1, slice(N // 2, N // 2 + 1))]
    if not _is_half(u.spectrum, grid) or _negligible(u.spectrum, grid, rows):
        return u.spectrum
    return u.coefficients


def _dealiased_samples(u: _FieldOrStack) -> np.ndarray:
    """Physical samples of ``u`` with the modes outside the dealias mask dropped.

    A field already inside the mask, up to ``_MASK_TOL``, gives its cached
    ``samples``; any other is masked and transformed.  The dropped modes
    are the union over the axes of the slab where that axis runs through
    the dropped block.
    """
    grid = u.grid
    stored = u.spectrum
    layout = grid.layout(stored)
    n = grid.dimension
    slabs = [(axis, grid._dealias_dropped) for axis in range(n - 1)] + [(n - 1, layout.dealias_last)]
    if _negligible(stored, grid, slabs):
        return u.samples
    return _physical_values(stored * layout.dealias_mask, grid)


def _product_spectra(u: _FieldOrStack, v: _FieldOrStack) -> np.ndarray:
    """Fourier arrays of the dealiased products ``u_i v_j`` in
    :func:`_product_slots` order, shaped ``(..., slots) + layout shape``.

    The products are formed in physical space from dealiased samples and
    transformed in one stacked call.  When ``v`` is ``u`` itself it is not
    transformed again, and only the products with ``i <= j`` are formed; a
    ``u`` inside the dealias mask then gives its cached samples.
    """
    u._check_compatible(v)
    grid = u.grid
    n = grid.dimension
    if u.components != n:
        raise ValueError("tensor divergence expects one component per dimension")
    space = (slice(None),) * n
    if v is u:
        u_phys = v_phys = _dealiased_samples(u)
    else:
        u_phys, v_phys = (
            _physical_values(w.spectrum * grid.layout(w.spectrum).dealias_mask, grid) for w in (u, v)
        )
    rows, cols = _product_slots(n, symmetric=v is u)
    # one multiply per pair into a stacked array (a fancy-indexed product
    # would gather both operand stacks first)
    stack = u_phys.shape[: -(n + 1)] + (rows.size,) + grid.shape
    products = np.empty(stack, dtype=np.result_type(u_phys, v_phys))
    for k, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(
            u_phys[(Ellipsis, i) + space],
            v_phys[(Ellipsis, j) + space],
            out=products[(Ellipsis, k) + space],
        )
    return _fourier_coefficients(products, grid)


def _contract(kernel: np.ndarray, products: np.ndarray) -> np.ndarray:
    """``i sum_s R[k, s] m_s`` per mode for a layout kernel ``R`` and product
    spectra ``m`` shaped ``(..., slots) + layout shape``: one real pass over
    the float view of the spectra, then the factor ``i``."""
    n, slots = kernel.shape[:2]
    space = products.shape[2 - kernel.ndim :]
    lead = products.shape[: -len(space) - 1]
    parts = products.view(np.float64).reshape(lead + (slots, -1))
    out = np.einsum("ksq,...sq->...kq", kernel.reshape(n, slots, -1), parts)
    out = out.view(np.complex128).reshape(lead + (n,) + space)
    out *= 1j
    return out


def tensor_divergence(u: _FieldOrStack, v: _FieldOrStack) -> _FieldOrStack:
    """``div(u (x) v)``, the vector with components ``sum_i d_i (u_i v_j)``.

    The tensor product is formed in physical space with dealiasing before
    and after (:func:`_product_spectra`), then differentiated by one
    contraction with the layout's divergence kernel.  The result is zero
    outside the dealias mask.
    """
    products = _product_spectra(u, v)
    layout = u.grid.layout(products)
    kernel = layout.symmetric_divergence_kernel if v is u else layout.divergence_kernel
    return replace(u, coefficients=_contract(kernel, products))


def momentum_forcing(u: _FieldOrStack) -> _FieldOrStack:
    """The Navier–Stokes forcing ``-P div(u (x) u)``.

    Equal to ``-helmholtz_project(tensor_divergence(u, u))`` up to rounding,
    in one contraction of the symmetric product spectra with the layout's
    forcing kernel (dealias mask, ``i xi``, Leray projector and sign in one
    array).  The result is zero outside the dealias mask.
    """
    products = _product_spectra(u, u)
    return replace(u, coefficients=_contract(u.grid.layout(products).forcing_kernel, products))


def pointwise_power_nonlinearity(
    u: _FieldOrStack, nu: float, variant: str = "signed"
) -> _FieldOrStack:
    """Dealiased pointwise power of a real scalar field.

    ``signed`` produces ``|u|**(nu-1) * u`` and ``unsigned`` produces
    ``|u|**nu``.  A field stored in the full layout is not real and is
    rejected; one inside the dealias mask gives its cached samples.
    """
    if u.components != 1:
        raise ValueError("pointwise power expects a scalar field")
    if nu <= 1:
        raise ValueError("power exponent nu must exceed 1")
    if variant not in ("signed", "unsigned"):
        raise ValueError(f"unknown variant {variant!r}; use 'signed' or 'unsigned'")
    grid = u.grid
    _require_real(u.spectrum, grid)
    values = _dealiased_samples(u)
    if variant == "signed":
        w = np.abs(values) ** (nu - 1.0) * values
    else:
        w = np.abs(values) ** nu
    coeff = _fourier_coefficients(w, grid)
    return replace(u, coefficients=coeff * grid.layout(coeff).dealias_mask)
