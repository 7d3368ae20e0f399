"""Periodic pseudospectral building blocks.

Everything downstream (norms, linear solves, nonlinear fixed-point runs)
works on Fourier coefficients of functions on the torus ``[0, L)^n``.  The
coefficient ``c_k`` multiplies ``exp(i <2*pi*k/L, x>)``, so the coefficients
of a physical sample array ``u`` are its discrete Fourier transform divided
by ``N**n``.  With this normalisation a single mode has unit coefficient
and Parseval reads ``||u||_L2 = L**(n/2) * ||c||_2``.

Every field is real and stores its half spectrum, the ``rfftn`` layout
``(..., m, N, ..., N//2 + 1)``: its samples come from one ``irfftn``.  Each
operator is written once over the stored array and the per-mode arrays of
:attr:`TorusGrid.layout` (wavevectors, dealias mask, Parseval weights), and
every operator maps real fields to real fields: a symbol must be real and
even, a scalar real, and an odd derivative takes the Nyquist wavenumber
as 0 (the usual spectral convention; ``|xi|**2`` keeps ``(N/2)**2``).  A
constructor given a full FFT array, ``from_physical`` given complex
samples, and a multiple by a complex scalar raise ``ValueError``.

Products (tensor divergence, momentum forcing, pointwise powers) are
formed in physical space with two-thirds dealiasing applied before and
after; the product spectra are differentiated (and Leray-projected) by one
contraction with a per-mode kernel of the layout.  Every operator takes a
single field or a ``norms.Trajectory`` and acts on every time node; the
nonlinear maps form, transform and contract the products of a block of
``_NODE_BLOCK`` nodes at a time, into one output spectrum.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
from dataclasses import InitVar, dataclass, replace
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

import numpy as np
import scipy.fft

if TYPE_CHECKING:
    from .norms import Trajectory

__all__ = [
    "TorusGrid",
    "SpectralField",
    "FourierMultiplier",
    "laplacian_multiplier",
    "constant_multiplier",
    "resolvent_scalar_multiplier",
    "apply_multiplier",
    "heat_semigroup_apply",
    "helmholtz_project",
    "divergence",
    "tensor_divergence",
    "momentum_forcing",
    "pointwise_power_nonlinearity",
]

#: Relative ``l^2`` size of the coefficients outside the dealias mask up to
#: which a field counts as dealiased already (the rounding of a band-limited
#: field).
_MASK_TOL = 1e-14

#: Time nodes of a trajectory whose products a nonlinear map forms,
#: transforms and contracts at once (:func:`_node_blocks`).
_NODE_BLOCK = 8

#: A single field or a time-node stack; the operators that accept either
#: work over stored arrays shaped ``(..., m) + layout shape``.
_FieldOrStack = TypeVar("_FieldOrStack", "SpectralField", "Trajectory")


@cache
def _product_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Operand indices ``(i, j)``, ``i <= j``, of the products ``u_i u_j`` in
    stack order (``u_j u_i`` is ``u_i u_j``).  Built once per ``n`` and
    read-only, as every node block of a map reads them."""
    rows, cols = np.triu_indices(n)
    for index in (rows, cols):
        index.flags.writeable = False
    return rows, cols


@dataclass(frozen=True)
class _Layout:
    """Per-mode arrays of the half spectrum, shaped like its spatial axes.

    The contraction kernels are built on first use and kept with the layout,
    so each grid builds each one once.
    """

    #: wavevectors of the odd derivatives: 0 on a Nyquist row of their axis
    xi: np.ndarray
    #: ``|xi|**2`` of the Laplacian: ``(N/2)**2`` on a Nyquist row
    xi_sq: np.ndarray
    #: ``1/|xi|**2`` of the odd-derivative ``xi``, zero where it is zero
    inv_xi_sq: np.ndarray
    dealias_mask: np.ndarray
    #: block of the last axis the 2/3 rule drops
    dealias_last: slice
    #: how often each last-axis column occurs in the full spectrum
    weights: np.ndarray

    def _divergence_symbol(self) -> np.ndarray:
        """Real ``R`` with ``div(u (x) u)_k = i sum_s R[k, s] m_s`` for the
        dealiased product spectra ``m_s`` in :func:`_product_slots` order,
        shaped ``(n, slots) + layout shape``; zero outside the dealias mask."""
        n = self.xi.shape[0]
        dealiased_xi = self.xi * self.dealias_mask
        rows, cols = _product_slots(n)
        symbol = np.zeros((n, rows.size) + self.xi_sq.shape)
        for s, (i, j) in enumerate(zip(rows, cols)):
            symbol[j, s] += dealiased_xi[i]  # d_i (u_i u_j) in component j
            if i != j:
                symbol[i, s] += dealiased_xi[j]  # the slot stands for u_j u_i too
        return symbol

    # The kernels act on the float view of the product spectra, so each
    # mode's value appears twice along the last axis (real and imaginary
    # part); :func:`_contract` applies the common factor ``i``.

    @cached_property
    def divergence_kernel(self) -> np.ndarray:
        """``div(u (x) u)`` from the ``n(n+1)/2`` product spectra ``u_i u_j``, ``i <= j``."""
        return np.repeat(self._divergence_symbol(), 2, axis=-1)

    @cached_property
    def forcing_kernel(self) -> np.ndarray:
        """``-P div(u (x) u)`` from the ``n(n+1)/2 - 1`` product spectra of
        ``u (x) u - u_n**2 I``: the divergence kernel with the Leray
        projector ``P = I - xi xi^T / |xi|**2`` and the sign folded in, less
        its ``(n, n)`` slot.  ``P`` removes the gradient ``div(u_n**2 I)``,
        so the dropped slot's column sums to zero up to rounding."""
        symbol = self._divergence_symbol()
        xi_dot = np.einsum("a...,as...->s...", self.xi, symbol)
        projected = symbol - self.xi[:, np.newaxis] * (xi_dot * self.inv_xi_sq)
        return np.repeat(-projected[:, :-1], 2, axis=-1)


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

    @cached_property
    def layout(self) -> _Layout:
        """Per-mode arrays of the half spectrum, the first ``N//2 + 1``
        columns of the last axis.

        On a Nyquist row the wavenumbers ``N/2`` and ``-N/2`` meet, so ``i xi``
        would not map real fields to real fields there: the odd derivatives'
        ``xi`` takes it as 0, the usual spectral convention, while the
        Laplacian's ``xi_sq`` keeps ``(N/2)**2``.
        """
        N, count = self.points_per_axis, self.points_per_axis // 2 + 1
        cut = (Ellipsis, slice(0, count))
        odd = self.wavenumbers.copy()
        odd[N // 2] = 0.0
        xi = np.stack(np.meshgrid(*([odd] * (self.dimension - 1) + [odd[:count]]), indexing="ij"))
        odd_sq = np.sum(xi**2, axis=0)
        inv_xi_sq = np.zeros_like(odd_sq)
        np.divide(1.0, odd_sq, out=inv_xi_sq, where=odd_sq > 0)
        weights = np.full(count, 2.0)
        weights[[0, -1]] = 1.0  # k and -k; the k = 0 and Nyquist columns occur once
        dropped = self._dealias_dropped
        return _Layout(
            xi=xi,
            xi_sq=np.ascontiguousarray(self.xi_sq[cut]),
            inv_xi_sq=inv_xi_sq,
            dealias_mask=np.ascontiguousarray(self.dealias_mask[cut]),
            dealias_last=slice(dropped.start, min(dropped.stop, count)),
            weights=weights,
        )


def _spatial_axes(grid: TorusGrid) -> tuple[int, ...]:
    return tuple(range(-grid.dimension, 0))


def _physical_values(stored: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Real physical samples of a stored half spectrum."""
    return scipy.fft.irfftn(stored, s=grid.shape, axes=_spatial_axes(grid), norm="forward")


def _fourier_coefficients(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Inverse of :func:`_physical_values`: the half spectrum of real samples."""
    return scipy.fft.rfftn(values, axes=_spatial_axes(grid), norm="forward")


def _real_scalar(scalar: float) -> float:
    """``scalar``, which must be real: a complex multiple of a real field is not real."""
    if not isinstance(scalar, numbers.Real):
        raise ValueError(f"scalar {scalar!r} is not real: fields are real, so are their multiples")
    return scalar


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
    holding ``grid`` and the stored half spectrum ``spectrum``.

    Shared by :class:`SpectralField` and ``norms.Trajectory``, which adds a
    leading time axis.  The linear operations carry ``samples`` through
    when every operand already holds it, so a sum, difference or real
    multiple of transformed states needs no transform of its own.
    ``dataclasses.replace`` builds an instance without it.  Like numpy's,
    ``+=``, ``-=`` and ``*=`` write into the state they are given; each
    writes the spectrum and the cached samples and drops every other cached
    view the write would leave stale.  The package applies them only to a
    state it has just built, before it is handed out.
    """

    def _store(self, coefficients: np.ndarray, lead: tuple[int, ...]) -> None:
        """Keep ``coefficients``, the half spectrum shaped ``lead + (m,) +
        grid.half_shape`` (without the ``m`` axis for ``m = 1``), as ``spectrum``."""
        coeff = np.asarray(coefficients, dtype=np.complex128)
        grid, k = self.grid, len(lead)
        if coeff.ndim == k + grid.dimension:
            coeff = np.expand_dims(coeff, k)
        if coeff.shape[:k] != lead or coeff.shape[k + 1 :] != grid.half_shape:
            cause = ""
            if coeff.shape[k + 1 :] == grid.shape:
                cause = ": a full FFT array, but fields are real and store the half spectrum"
            raise ValueError(
                f"coefficient shape {coeff.shape} incompatible with {lead} + half shape"
                f" {grid.half_shape}{cause}"
            )
        object.__setattr__(self, "spectrum", coeff)

    @property
    def components(self) -> int:
        return self.spectrum.shape[-self.grid.dimension - 1]

    def is_mean_free(self) -> bool:
        """Whether the zero mode is negligible at every node."""
        n, stored = self.grid.dimension, self.spectrum
        peak = np.abs(stored).reshape(stored.shape[: -n - 1] + (-1,)).max(-1, keepdims=True)
        return bool(np.all(np.abs(stored[(...,) + (0,) * n]) <= 1e-12 * np.maximum(1.0, peak)))

    def _check_compatible(self, other) -> None:
        same_kind = type(other) is type(self)  # a field and a trajectory never mix
        if not same_kind or self.grid != other.grid or self.components != other.components:
            raise ValueError("operands live on different grids or component counts")

    @property
    def samples(self) -> np.ndarray:
        """Real float64 physical samples that own their memory, computed once.

        Not a ``functools.cached_property``: before Python 3.12 its lock is
        shared by every instance, which would serialise the transforms of an
        ensemble's worker threads.
        """
        samples = vars(self).get("_samples")
        if samples is None:
            samples = _physical_values(self.spectrum, self.grid)
            vars(self)["_samples"] = samples
        return samples

    @property
    def _node_energy(self) -> np.ndarray:
        """``sum |c|**2`` over the components and modes at each leading index
        (per node of a trajectory, 0-d for a field), computed once."""
        energy = vars(self).get("_energy")
        if energy is None:
            stored, grid = self.spectrum, self.grid
            energy = _energy(stored, grid.layout.weights, stored.ndim - grid.dimension - 1)
            vars(self)["_energy"] = energy
        return energy

    def _linear(self, op: Callable[..., np.ndarray], *others):
        """``op`` of the spectra, and of the samples when every operand holds them."""
        operands = (self, *others)
        out = replace(self, coefficients=op(*(x.spectrum for x in operands)))
        if all("_samples" in vars(x) for x in operands):
            vars(out)["_samples"] = op(*(x.samples for x in operands))
        return out

    def __add__(self, other):
        self._check_compatible(other)
        return self._linear(operator.add, other)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._linear(operator.sub, other)

    def _in_place(self, op: np.ufunc, other):
        """``op(self, other)``, for a compatible state or a real scalar
        ``other``, written into this state's arrays.

        Its samples are combined with ``other``'s (or the scalar) when both
        hold them and are dropped otherwise, as ``+``, ``-`` and ``*`` carry
        them; every other cached view (the node energy, a trajectory's
        ``max_divergence``) is dropped.
        """
        cached = vars(self)
        # both read before the drop: ``other`` may be this state
        samples = cached.get("_samples")
        if isinstance(other, numbers.Real):
            operand = other_samples = other
        else:
            self._check_compatible(other)
            operand, other_samples = other.spectrum, vars(other).get("_samples")
        for name in set(cached) - {f.name for f in dataclasses.fields(self)}:
            del cached[name]
        op(self.spectrum, operand, out=self.spectrum)
        if samples is not None and other_samples is not None:
            op(samples, other_samples, out=samples)
            cached["_samples"] = samples
        return self

    def __iadd__(self, other):
        return self._in_place(np.add, other)

    def __isub__(self, other):
        return self._in_place(np.subtract, other)

    def __imul__(self, scalar: float):
        return self._in_place(np.multiply, _real_scalar(scalar))

    def __mul__(self, scalar: float):
        scalar = _real_scalar(scalar)
        return self._linear(lambda c: c * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self._linear(operator.neg)


@dataclass(frozen=True, eq=False)
class SpectralField(_CoefficientArithmetic):
    """Fourier-side representation of a real ``m``-component field.

    ``coefficients`` is its half spectrum, shaped ``(m,) + grid.half_shape``
    (the ``rfftn`` layout), and is stored as ``spectrum``.
    """

    grid: TorusGrid
    coefficients: InitVar[np.ndarray]
    spectrum: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self, coefficients: np.ndarray) -> None:
        self._store(coefficients, ())

    # -- transforms ----------------------------------------------------

    @classmethod
    def from_physical(cls, grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        """Build a field from real physical samples on ``grid``."""
        values = np.asarray(values)
        if np.iscomplexobj(values):
            raise ValueError("complex samples: fields are real")
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

    def to_physical(self) -> np.ndarray:
        """Real physical samples, freshly transformed."""
        return _physical_values(self.spectrum, self.grid)


@dataclass(frozen=True)
class FourierMultiplier:
    """Operator acting modewise through a symbol ``xi -> a(xi)``.

    ``symbol`` receives the stacked wavevector array of shape
    ``(n,) + shape`` and returns a scalar symbol of shape ``shape``.
    """

    symbol: Callable[[np.ndarray], np.ndarray]
    descriptor: str = "multiplier"

    def evaluate(self, grid: TorusGrid) -> np.ndarray:
        """The symbol on ``grid``'s full wavevector array; any other shape
        than the grid's (a matrix symbol, say) is rejected."""
        sym = np.asarray(self.symbol(grid.xi))
        if sym.shape != grid.shape:
            raise ValueError(f"symbol shape {sym.shape} does not match grid shape {grid.shape}")
        return sym


# -- common symbols ----------------------------------------------------


def laplacian_multiplier() -> FourierMultiplier:
    """Symbol of ``A = -Laplacian``: ``|xi|**2``."""
    return FourierMultiplier(lambda xi: np.sum(xi**2, axis=0), "minus-laplacian")


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


def _half_symbol(op: FourierMultiplier, grid: TorusGrid) -> np.ndarray:
    """``op``'s symbol on the half spectrum's modes, as a real array.

    A symbol maps real fields to real fields only if it is real and even
    (``a(-xi) = a(xi)``); any other is rejected.
    """
    sym = op.evaluate(grid)
    if np.iscomplexobj(sym) and np.any(sym.imag):
        raise ValueError(f"symbol {op.descriptor} is not real, so it does not keep fields real")
    sym = np.asarray(sym.real, dtype=np.float64)
    mirrored = np.roll(np.flip(sym), 1, axis=tuple(range(grid.dimension)))  # a(-xi)
    if not np.array_equal(sym, mirrored, equal_nan=True):
        raise ValueError(f"symbol {op.descriptor} is not even, so it does not keep fields real")
    return sym[..., : grid.half_shape[-1]]


def apply_multiplier(u: _FieldOrStack, op: FourierMultiplier) -> _FieldOrStack:
    """Apply a Fourier multiplier modewise to a field or to every state of a
    trajectory.

    The scalar symbol broadcasts over components; it must be real and even
    (:func:`_half_symbol`).
    """
    return replace(u, coefficients=u.spectrum * _half_symbol(op, u.grid))


def heat_semigroup_apply(u: _FieldOrStack, t: float) -> _FieldOrStack:
    """``exp(t*Laplacian)`` applied to ``u``; contraction for ``t >= 0``."""
    if t < 0:
        raise ValueError("heat semigroup time must be nonnegative")
    damp = np.exp(-t * u.grid.layout.xi_sq)
    return replace(u, coefficients=u.spectrum * damp)


def helmholtz_project(field: _FieldOrStack) -> _FieldOrStack:
    """Leray projection onto divergence-free fields.

    Modewise ``P = I - xi xi^T / |xi|**2`` with the odd derivatives' ``xi``
    (:attr:`TorusGrid.layout`); where that ``xi`` is zero (the spatial mean,
    a mode whose only nonzero wavenumbers are Nyquist ones) ``u`` passes
    through unchanged.
    """
    grid = field.grid
    if field.components != grid.dimension:
        raise ValueError(
            f"projection needs {grid.dimension} components, field has {field.components}"
        )
    coeff, layout = field.spectrum, grid.layout
    xi_dot_u = _xi_dot(layout.xi, coeff)
    out = coeff - layout.xi * _with_component_axis(xi_dot_u * layout.inv_xi_sq, grid)
    return replace(field, coefficients=out)


def divergence(field: _FieldOrStack) -> _FieldOrStack:
    """Divergence of a vector field: ``i * sum_j xi_j c_j``, with the odd
    derivatives' ``xi`` (0 on a Nyquist row, :attr:`TorusGrid.layout`)."""
    if field.components != field.grid.dimension:
        raise ValueError("divergence expects one component per dimension")
    out = 1j * _xi_dot(field.grid.layout.xi, field.spectrum)
    return replace(field, coefficients=_with_component_axis(out, field.grid))


def _energy(block: np.ndarray, weights: np.ndarray, lead: int = 0) -> np.ndarray:
    """``sum |c|**2`` over the axes of ``block`` after its first ``lead``, each
    last-axis column counted ``weights`` times (as often as it occurs in the
    full spectrum).  One pass over the real and imaginary parts, without
    forming the moduli."""
    block = np.ascontiguousarray(block, dtype=np.complex128)
    parts = block.view(np.float64).reshape(block.shape[:lead] + (-1, 2 * block.shape[-1]))
    per_part = np.einsum("...ij,...ij->...j", parts, parts)
    return per_part.reshape(per_part.shape[:-1] + (-1, 2)).sum(axis=-1) @ weights


def _negligible(u: _FieldOrStack, blocks: list[tuple[int, int | slice]]) -> bool:
    """Whether the modes in ``blocks`` carry at most ``_MASK_TOL`` of the
    ``l^2`` size of ``u``'s stored array (its cached energy).

    A block is an ``(axis, index)`` pair selecting an index or a slice along
    one spatial axis (a slice on the last axis).  A mode in several blocks
    is counted once per block, which only makes the test stricter; each
    stored column counts as often as it occurs in the full spectrum.
    """
    grid, stored = u.grid, u.spectrum
    n = grid.dimension
    weights = grid.layout.weights
    part = 0.0
    for axis, index in blocks:
        block = stored[(Ellipsis, index) + (slice(None),) * (n - 1 - axis)]
        part += float(_energy(block, weights[index] if axis == n - 1 else weights))
    return part == 0.0 or part <= _MASK_TOL**2 * float(np.sum(u._node_energy))


def _node_blocks(stored: np.ndarray, grid: TorusGrid) -> list[tuple[slice, ...]]:
    """Indices of ``_NODE_BLOCK`` consecutive time nodes of a stored array,
    covering it; a single field, which has no node axis, is one block."""
    if stored.ndim == grid.dimension + 1:
        return [()]
    return [(slice(s, s + _NODE_BLOCK),) for s in range(0, len(stored), _NODE_BLOCK)]


def _dealiased_blocks(u: _FieldOrStack) -> Iterator[tuple[tuple[slice, ...], np.ndarray]]:
    """Each node block's index (:func:`_node_blocks`) and the physical samples
    of ``u`` there with the modes outside the dealias mask dropped.

    A field already inside the mask, up to ``_MASK_TOL``, gives blocks of
    its cached ``samples``; any other is masked and transformed one block
    at a time.  The dropped modes are the union over the axes of the slab
    where that axis runs through the dropped block.
    """
    grid, stored = u.grid, u.spectrum
    layout = grid.layout
    n = grid.dimension
    slabs = [(axis, grid._dealias_dropped) for axis in range(n - 1)] + [(n - 1, layout.dealias_last)]
    samples = u.samples if _negligible(u, slabs) else None
    for index in _node_blocks(stored, grid):
        if samples is not None:
            yield index, samples[index]
        else:
            yield index, _physical_values(stored[index] * layout.dealias_mask, grid)


def _product_spectra(u_phys: np.ndarray, grid: TorusGrid, shifted: bool) -> np.ndarray:
    """Fourier arrays of the products ``u_i u_j`` of dealiased samples in
    :func:`_product_slots` order, shaped ``(..., slots) + layout shape``,
    transformed in one stacked call.

    With ``shifted`` they are the products of ``u (x) u - u_n**2 I``: the
    last slot ``u_n u_n`` is dropped and each other diagonal slot holds
    ``u_k**2 - u_n**2``.
    """
    n = grid.dimension
    space = (slice(None),) * n
    rows, cols = _product_slots(n)
    if shifted:
        rows, cols = rows[:-1], cols[:-1]
    # one multiply per pair into a stacked array (a fancy-indexed product
    # would gather the operand stack twice first)
    stack = u_phys.shape[: -(n + 1)] + (rows.size,) + grid.shape
    products = np.empty(stack, dtype=u_phys.dtype)
    slots = [products[(Ellipsis, k) + space] for k in range(rows.size)]
    if shifted and slots:
        # u_n**2 in the last slot, (n-1, n): the loop writes it after every diagonal one
        last = u_phys[(Ellipsis, n - 1) + space]
        np.multiply(last, last, out=slots[-1])
    for out, i, j in zip(slots, rows, cols):
        np.multiply(u_phys[(Ellipsis, i) + space], u_phys[(Ellipsis, j) + space], out=out)
        if shifted and i == j:
            out -= slots[-1]
    return _fourier_coefficients(products, grid)


def _contract(kernel: np.ndarray, products: np.ndarray, out: np.ndarray) -> None:
    """``i sum_s R[k, s] m_s`` per mode for a layout kernel ``R`` and product
    spectra ``m`` shaped ``(..., slots) + layout shape``, written into the
    contiguous ``out`` shaped ``(..., n) + layout shape``: one real pass over
    the float view of the spectra, then the factor ``i``."""
    n, slots = kernel.shape[:2]
    space = products.shape[2 - kernel.ndim :]
    lead = products.shape[: -len(space) - 1]
    floats = 2 * math.prod(space)  # per slot, explicit: there may be no slots
    parts = products.view(np.float64).reshape(lead + (slots, floats))
    written = out.view(np.float64).reshape(lead + (n, floats))
    np.einsum("ksq,...sq->...kq", kernel.reshape(n, slots, floats), parts, out=written)
    out *= 1j


def _divergence_of_products(u: _FieldOrStack, shifted: bool = False) -> np.ndarray:
    """The contraction (:func:`_contract`) of the dealiased product spectra
    of ``u (x) u`` with the layout's divergence kernel, or, with ``shifted``,
    of ``u (x) u - u_n**2 I`` with its forcing kernel.

    The products are formed, transformed and contracted one node block at
    a time (:func:`_node_blocks`), each block into its rows of one output
    spectrum, so no product stack or product spectrum of a whole trajectory
    exists.  A ``u`` inside the dealias mask gives blocks of its cached
    samples.
    """
    if u.components != u.grid.dimension:
        raise ValueError("tensor divergence expects one component per dimension")
    out = np.empty(u.spectrum.shape, dtype=np.complex128)
    layout = u.grid.layout
    kernel = layout.forcing_kernel if shifted else layout.divergence_kernel
    for index, u_phys in _dealiased_blocks(u):
        _contract(kernel, _product_spectra(u_phys, u.grid, shifted), out[index])
    return out


def tensor_divergence(u: _FieldOrStack) -> _FieldOrStack:
    """``div(u (x) u)``, the vector with components ``sum_i d_i (u_i u_j)``.

    The tensor product is formed in physical space with dealiasing before
    and after (:func:`_product_spectra`; ``u_j u_i`` is ``u_i u_j``, so
    only the products with ``i <= j`` are formed), then differentiated by
    one contraction with the layout's divergence kernel, one node block at
    a time (:func:`_divergence_of_products`).  The result is zero outside
    the dealias mask.
    """
    return replace(u, coefficients=_divergence_of_products(u))


def momentum_forcing(u: _FieldOrStack) -> _FieldOrStack:
    """The Navier–Stokes forcing ``-P div(u (x) u)``.

    Equal to ``-helmholtz_project(tensor_divergence(u))`` up to rounding,
    in one contraction of the product spectra of ``u (x) u - u_n**2 I``
    (``P`` removes the gradient the shift adds, so one product fewer is
    transformed) with the layout's forcing kernel (dealias mask, ``i xi``,
    Leray projector and sign in one array).  The result is zero outside the
    dealias mask.
    """
    return replace(u, coefficients=_divergence_of_products(u, shifted=True))


def pointwise_power_nonlinearity(
    u: _FieldOrStack, nu: float, variant: str = "signed"
) -> _FieldOrStack:
    """Dealiased pointwise power of a real scalar field.

    ``signed`` produces ``|u|**(nu-1) * u`` and ``unsigned`` produces
    ``|u|**nu``.  A field inside the dealias mask gives its cached samples.  The
    powers are formed, transformed and masked one node block at a time
    (:func:`_dealiased_blocks`), each block into its rows of one output
    spectrum.
    """
    if u.components != 1:
        raise ValueError("pointwise power expects a scalar field")
    if nu <= 1:
        raise ValueError("power exponent nu must exceed 1")
    if variant not in ("signed", "unsigned"):
        raise ValueError(f"unknown variant {variant!r}; use 'signed' or 'unsigned'")
    grid = u.grid
    out = np.empty(u.spectrum.shape, dtype=np.complex128)
    mask = grid.layout.dealias_mask
    for index, values in _dealiased_blocks(u):
        if variant == "signed":
            w = np.abs(values) ** (nu - 1.0) * values
        else:
            w = np.abs(values) ** nu
        np.multiply(_fourier_coefficients(w, grid), mask, out=out[index])
    return replace(u, coefficients=out)
