"""Periodic spectral grids, discrete Fourier conventions, and Sobolev norms.

Fields live on a periodic box of side ``extent`` sampled at ``modes`` points
per dimension.  The transform pair is normalized like the continuous Fourier
transform on the box,

    f_hat(k) = (V / Npoints) * sum_x f(x) exp(-i k.x)
    f(x)     = (1 / V)       * sum_k f_hat(k) exp(+i k.x)

with V the box volume, so Plancherel reads
``integral(f * g) == (1 / V) * sum_k f_hat(k) * conj(g_hat(k))`` for real
fields and the weighted mode sums below are direct discretizations of the
Sobolev norms of weak solutions.

Quadratic products are evaluated on the grid and then truncated to the band
``|j| <= (modes - 1) // 3`` per axis (the two-thirds rule).  For inputs that
are band limited to that band the truncated product is exactly alias free.
This is the package's one product: ``grid_values`` and ``dealiased_modes``
transform over the trailing ``dim`` axes of a stack of mode tables, and
``dealiased_product`` composes them.  The node energies, the ``c_q``
estimate and complex-flagged solves use it.

A real field's modes at -k are the conjugates of those at k, so the solver
steps real fields on the half spectrum of ``rfftn``: the last axis keeps
j = 0..modes/2 (65 of 128 columns on a 128-mode line).  ``SpectrumLayout``
holds what a layout needs, chosen once from the real-field flag: the kept
columns, the square on them (``irfft``/``rfft`` with the transform scales
and the 2/3 mask as one multiplier), H^q norms that weigh each kept column
by how often it occurs in the full spectrum, and the fill that rebuilds
the other half of full tables by conjugation.  Its complex layout is the
full spectrum with ``dealiased_product`` and ``sobolev_norms``, unchanged.

A dealiased product of real fields is zero outside the kept band and
Hermitian, so it is fully described by the band's half: ``|j| <= K`` on the
leading axes and ``0 <= j <= K`` on the last, with K = ``dealias_bound``
(43 of 128 columns on a 128-mode line).  ``band_modes`` and ``band_values``
are the real transform pair on that layout: ``rfftn`` scaled and cut to the
band, and its inverse, which scatters into the half spectrum and applies
``irfftn``.  They take real point data only; the series keeps its tables in
this layout.  ``SpectralGrid.band_index`` picks the band out of a full or a
half spectrum alike, since both store the last axis' j = 0..K first.

``estimate_algebra_constant`` samples the H^q product constant C_q from a
fixed count of random pairs and a fixed seed, so C_q is a function of the
grid.  ``gaussian_envelopes`` builds the envelopes of those random fields
and the solver's Gaussian data alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property

import numpy as np


class SizeMismatch(ValueError):
    """Raised when an array does not have the grid's shape."""


class GridMismatch(ValueError):
    """Raised when two operands live on different grids."""


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic box discretization with Fourier mode bookkeeping.

    Parameters
    ----------
    dim:
        Spatial dimension n.
    extent:
        Period L of the box, per dimension.
    modes:
        Sample points per dimension; even and at least 8.
    mass:
        Mass m > 0 of the dispersion relation.
    sobolev_q:
        Regularity index q; must satisfy q > n/2 so that pointwise products
        of H^q fields stay in H^q.
    """

    dim: int = 1
    extent: float = 40.0
    modes: int = 128
    mass: float = 1.0
    sobolev_q: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if not self.extent > 0:
            raise ValueError(f"extent must be positive, got {self.extent}")
        if self.modes < 8 or self.modes % 2 != 0:
            raise ValueError(f"modes must be even and at least 8, got {self.modes}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        # omega squares the mass, volume raises the extent to the dim, and the
        # squares of volume-scaled mode values raise it to twice that
        powers = (("mass", self.mass, 2), ("extent", self.extent, self.dim), ("extent", self.extent, 2 * self.dim))
        for name, base, power in powers:
            try:
                base**power
            except OverflowError:
                raise ValueError(f"{name}**{power} overflows a float, got {name}={base}") from None
        if self.mass**2 == 0.0:
            raise ValueError(f"mass**2 underflows to 0, got mass={self.mass}")
        # omega**2 peaks at j = modes/2 on every axis, formed as k_squared forms it
        k_top = 2.0 * math.pi * (self.modes // 2) / self.extent
        if not math.isfinite(self.mass**2 + self.dim * (k_top * k_top)):
            raise ValueError(
                f"m**2 + |k|**2 overflows a float at the highest mode, got extent={self.extent} "
                f"with modes={self.modes}"
            )
        # q to 6 digits in the messages: a config's q may be an int of hundreds
        # of digits, past what a float holds
        if not self.sobolev_q > self.dim / 2:
            raise ValueError(
                f"sobolev_q must satisfy q > n/2, got q={Decimal(self.sobolev_q):.6g} with n={self.dim}"
            )
        # the Sobolev weight (1 + |k|**2)**q peaks at the same mode
        try:
            (1.0 + self.dim * (k_top * k_top)) ** self.sobolev_q
        except OverflowError:
            raise ValueError(f"(1 + |k|**2)**q overflows a float at the highest mode, got q={Decimal(self.sobolev_q):.6g}") from None
        # numpy addresses at most intp-max bytes, 16 to a complex entry
        if 16 * self.modes**self.dim > np.iinfo(np.intp).max:
            raise ValueError(f"modes**dim complex entries exceed what numpy can address, got {self.modes}**{self.dim}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.modes,) * self.dim

    @property
    def npoints(self) -> int:
        return self.modes**self.dim

    @property
    def volume(self) -> float:
        return float(self.extent**self.dim)

    @property
    def spacing(self) -> float:
        return self.extent / self.modes

    @cached_property
    def mode_index(self) -> np.ndarray:
        """Signed integer index j per axis position, in FFT storage order."""
        return np.fft.fftfreq(self.modes, 1.0 / self.modes).astype(int)

    @cached_property
    def axis_points(self) -> np.ndarray:
        return np.arange(self.modes) * self.spacing

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * self.mode_index / self.extent

    @cached_property
    def k_squared(self) -> np.ndarray:
        axes = np.meshgrid(*([self.axis_wavenumbers] * self.dim), indexing="ij")
        return sum(a**2 for a in axes)

    @cached_property
    def omega(self) -> np.ndarray:
        """Dispersion relation sqrt(m^2 + |k|^2) over the mode set."""
        return np.sqrt(self.mass**2 + self.k_squared)

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of an ``rfftn`` spectrum: the last axis keeps j = 0..modes/2."""
        return self.shape[:-1] + (self.modes // 2 + 1,)

    @property
    def dealias_bound(self) -> int:
        # Largest j with 3j <= modes - 1: products of fields supported on
        # |j| <= bound alias only into |j| > bound, which gets zeroed.
        return (self.modes - 1) // 3

    def band_mask(self, kmax: int) -> np.ndarray:
        """True on the modes with |j| <= kmax on every axis."""
        axis_keep = np.abs(self.mode_index) <= kmax
        mask = axis_keep
        for _ in range(self.dim - 1):
            mask = np.multiply.outer(mask, axis_keep)
        return mask

    @cached_property
    def keep_mask(self) -> np.ndarray:
        return self.band_mask(self.dealias_bound)

    @cached_property
    def band_index(self) -> tuple[np.ndarray, ...]:
        """Open-mesh index of the kept band's half in a full or a half spectrum.

        |j| <= dealias_bound on the leading axes, in FFT storage order, and
        j = 0..dealias_bound on the last axis.
        """
        kmax = self.dealias_bound
        rows = np.r_[0 : kmax + 1, self.modes - kmax : self.modes]
        return np.ix_(*([rows] * (self.dim - 1) + [np.arange(kmax + 1)]))

    @cached_property
    def band_omega(self) -> np.ndarray:
        """The dispersion relation on the band layout of :attr:`band_index`."""
        return self.omega[self.band_index]

    @cached_property
    def sobolev_weights(self) -> np.ndarray:
        """(1 + |k|^2)^q over the mode set, at the grid's q."""
        return (1.0 + self.k_squared) ** self.sobolev_q


@dataclass(eq=False)
class ModeArray:
    """Complex Fourier coefficients of one scalar field on a grid.

    ``real_field`` records that the array represents a real field, i.e. it
    is Hermitian symmetric (value at -k equals the conjugate of the value at
    k).  The flag is set by :func:`to_modes` and preserved by every
    real-field operation.  The tests measure how well an array actually
    satisfies the symmetry (``hermitian_defect`` in tests/oracles.py).
    """

    grid: SpectralGrid
    values: np.ndarray
    real_field: bool = True

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.shape:
            raise SizeMismatch(
                f"mode array shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = values

    def copy(self) -> "ModeArray":
        return ModeArray(self.grid, self.values.copy(), self.real_field)


@dataclass(eq=False)
class FieldSnapshot:
    """Cauchy data (phi_hat, pi_hat = d/dt phi_hat) at one instant."""

    time: float
    phi: ModeArray
    pi: ModeArray

    def __post_init__(self) -> None:
        if self.phi.grid != self.pi.grid:
            raise GridMismatch("phi and pi of a snapshot must share one grid")

    @property
    def grid(self) -> SpectralGrid:
        return self.phi.grid

    def copy(self) -> "FieldSnapshot":
        return FieldSnapshot(self.time, self.phi.copy(), self.pi.copy())


def to_modes(grid: SpectralGrid, samples: np.ndarray) -> ModeArray:
    """Forward transform of real grid samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.shape:
        raise SizeMismatch(
            f"sample array shape {samples.shape} does not match grid shape {grid.shape}"
        )
    values = np.fft.fftn(samples) * (grid.volume / grid.npoints)
    return ModeArray(grid, values, real_field=True)


def grid_values(grid: SpectralGrid, values: np.ndarray, real: bool) -> np.ndarray:
    """Inverse transform over the trailing grid.dim axes; real part only for real fields."""
    # Passing s along with axes keeps numpy on its fast path for one field.
    axes = tuple(range(-grid.dim, 0))
    out = np.fft.ifftn(values, s=grid.shape, axes=axes) * (grid.npoints / grid.volume)
    return out.real if real else out


def dealiased_modes(grid: SpectralGrid, samples: np.ndarray) -> np.ndarray:
    """Forward transform over the trailing grid.dim axes, then the 2/3 mask."""
    axes = tuple(range(-grid.dim, 0))
    values = np.fft.fftn(samples, s=grid.shape, axes=axes) * (grid.volume / grid.npoints)
    return np.where(grid.keep_mask, values, 0.0)


def band_modes(grid: SpectralGrid, samples: np.ndarray) -> np.ndarray:
    """Real forward transform over the trailing grid.dim axes, cut to the band layout.

    The band entries equal those of ``dealiased_modes`` up to rounding;
    ``samples`` must be real.
    """
    axes = tuple(range(-grid.dim, 0))
    band = np.fft.rfftn(samples, s=grid.shape, axes=axes)[(Ellipsis,) + grid.band_index]
    band *= grid.volume / grid.npoints
    return band


def band_values(grid: SpectralGrid, band: np.ndarray, half: np.ndarray | None = None) -> np.ndarray:
    """Real point values of band-layout tables: the inverse of :func:`band_modes`.

    ``half`` is a zero half-spectrum buffer of the tables' leading shape to
    scatter into; only its band entries are written, so it stays zero
    elsewhere and a caller can pass it to the next call too.
    """
    if half is None:
        half = np.zeros(band.shape[: band.ndim - grid.dim] + grid.half_shape, dtype=complex)
    half[(Ellipsis,) + grid.band_index] = band
    return half_spectrum_values(grid, half)


def half_spectrum_values(grid: SpectralGrid, half: np.ndarray) -> np.ndarray:
    """Real point values from ``rfftn``-layout mode tables over the trailing grid.dim axes."""
    axes = tuple(range(-grid.dim, 0))
    return np.fft.irfftn(half, s=grid.shape, axes=axes) * (grid.npoints / grid.volume)


def dealiased_product(grid: SpectralGrid, a: np.ndarray, b: np.ndarray, real: bool = True) -> np.ndarray:
    """Dealiased pointwise products of two stacks of mode tables, row by row.

    A square (``b is a``) transforms its one factor once.
    """
    x = grid_values(grid, a, real)
    y = x if b is a else grid_values(grid, b, real)
    return dealiased_modes(grid, x * y)


class SpectrumLayout:
    """The mode columns a stepper keeps of each field, with the square and the norms on them.

    Chosen once from a real-field flag.  Complex fields keep the full
    spectrum: ``square`` is :func:`dealiased_product` and ``norms`` is
    :func:`sobolev_norms`, to the bit.  Real fields keep the ``rfftn`` half
    spectrum, the last axis' j = 0..modes/2:

    - ``square`` goes through ``irfftn``/``rfftn`` (``irfft``/``rfft`` on a
      1-D grid, one call each) and takes both transform scales and the 2/3
      mask as one multiplier;
    - ``norms`` weigh each column by how often it occurs in the full
      spectrum: once for the last axis' j = 0 and modes/2, twice elsewhere;
    - ``fill`` completes full-spectrum tables from their half by
      conjugation, in place and by slices.

    ``cut`` views the kept columns of full-spectrum tables, and ``omega``
    gives the dispersion relation on them.
    """

    def __init__(self, grid: SpectralGrid, real: bool):
        self.grid = grid
        self.real = real
        self.columns = grid.half_shape[-1] if real else grid.modes
        self.shape = grid.shape[:-1] + (self.columns,)
        self.omega = self.cut(grid.omega)
        self._axes = tuple(range(-grid.dim, 0))
        if real:
            self._fold = self.cut(grid.keep_mask) * (grid.npoints / grid.volume)
            multiplicity = np.full(self.columns, 2.0)
            multiplicity[[0, -1]] = 1.0
            weights = self.cut(grid.sobolev_weights) * multiplicity
            # each weight twice, for a column's real and imaginary part, over the volume
            self._part_weights = np.repeat(weights, 2, axis=-1) / grid.volume

    def cut(self, values: np.ndarray) -> np.ndarray:
        """A view of the kept columns of full-spectrum tables."""
        return values[..., : self.columns]

    def square(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Dealiased squares of a stack of tables in this layout, taken as the layout's flag says.

        ``out``, when given, receives the squares and is returned.
        """
        if not self.real:
            sq = dealiased_product(self.grid, values, values, False)
            if out is None:
                return sq
            out[...] = sq
            return out
        grid = self.grid
        if grid.dim == 1:
            x = np.fft.irfft(values, grid.modes)
            return np.multiply(np.fft.rfft(x * x), self._fold, out=out)
        x = np.fft.irfftn(values, s=grid.shape, axes=self._axes)
        return np.multiply(np.fft.rfftn(x * x, axes=self._axes), self._fold, out=out)

    def norms(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """H^q norms, at the grid's q, of a stack of tables in this layout.

        The last axis must be contiguous: the half layout weighs the squares
        of the real and imaginary parts as one float array.  ``overwrite``
        lets it form them in place of ``values``, whose entries are then
        lost.
        """
        if not self.real:
            return sobolev_norms(self.grid, values)
        parts = values.view(float)
        weighted = np.multiply(parts, parts, out=parts if overwrite else None)
        weighted *= self._part_weights
        return np.sqrt(np.add.reduce(weighted, axis=self._axes))

    def fill(self, tables: np.ndarray) -> None:
        """Complete real fields' full-spectrum tables from the half this layout keeps.

        Column j > modes/2 of the last axis becomes the conjugate of column
        modes - j at the mirrored index -i mod modes of every leading axis.
        Writes over ``tables`` in place; complex layouts keep every column
        and leave it as it is.
        """
        if not self.real:
            return
        n = self.grid.modes
        # on a leading axis, index 0 is its own mirror and 1..n-1 reverse
        pieces = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
        for lead in itertools.product(pieces, repeat=self.grid.dim - 1):
            dst = (Ellipsis,) + tuple(d for d, _ in lead) + (slice(n // 2 + 1, None),)
            src = (Ellipsis,) + tuple(s for _, s in lead) + (slice(n // 2 - 1, 0, -1),)
            np.conjugate(tables[src], out=tables[dst])


def sobolev_norms(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """H^q norm ((1/V) sum_k (1+|k|^2)^q |f_hat|^2)^(1/2), at the grid's q, over the trailing grid.dim axes.

    ``values`` is one mode table or a stack of them.
    """
    axes = tuple(range(-grid.dim, 0))
    return np.sqrt(np.sum(grid.sobolev_weights * np.abs(values) ** 2, axis=axes) / grid.volume)


def sobolev_norm(f: ModeArray) -> float:
    """H^q norm of one field; see :func:`sobolev_norms`."""
    return float(sobolev_norms(f.grid, f.values))


def evaluate_at(f: ModeArray, x) -> float | complex:
    """Evaluate the band-limited field at an arbitrary point by mode summation.

    A scalar x stands for the diagonal point (x, ..., x).
    """
    grid = f.grid
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = np.full(grid.dim, x)
    if x.shape != (grid.dim,):
        raise SizeMismatch(f"point must have {grid.dim} coordinates, got shape {x.shape}")
    phase = np.zeros(grid.shape)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.modes
        phase = phase + grid.axis_wavenumbers.reshape(shape) * x[axis]
    value = np.sum(f.values * np.exp(1j * phase)) / grid.volume
    if f.real_field:
        return float(value.real)
    return complex(value)


def random_band_limited(
    grid: SpectralGrid, rng: np.random.Generator, kmax: int | None = None
) -> ModeArray:
    """Random real field supported on the axis band ``|j| <= kmax``.

    White noise on the grid is transformed and truncated, so the spectrum is
    flat across the band.  ``kmax`` defaults to the dealiasing bound, the
    largest band whose products are exactly alias free.
    """
    if kmax is None:
        kmax = grid.dealias_bound
    noise = rng.standard_normal(grid.shape)
    f = to_modes(grid, noise)
    f.values[~grid.band_mask(kmax)] = 0.0
    return f


def gaussian_envelopes(grid: SpectralGrid, centers: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """Periodized Gaussians exp(-|x - c|^2 / d), one row per center c and denominator d = 2 w^2.

    ``centers`` has shape (count, dim).  Distances are taken modulo the box,
    so an envelope can sit anywhere.
    """
    points, denominators = grid.axis_points, np.asarray(denominators, dtype=float)[:, None]
    samples = np.ones((len(centers),) + grid.shape)
    for axis in range(grid.dim):
        d = (points - centers[:, axis, None] + grid.extent / 2.0) % grid.extent - grid.extent / 2.0
        shape = (-1,) + (1,) * axis + (grid.modes,) + (1,) * (grid.dim - 1 - axis)
        # a denominator near the bottom of the floats sends d^2 / d to inf,
        # and exp(-inf) = 0 is the envelope's exact value there
        with np.errstate(over="ignore"):
            samples = samples * np.exp(-(d**2) / denominators).reshape(shape)
    return samples


def _localized_samples(grid: SpectralGrid, rng: np.random.Generator, count: int) -> np.ndarray:
    """Grid samples of ``count`` random Gaussian envelopes, each bare or modulating white noise.

    The draws run envelope by envelope (width, center, noise flag, then the
    noise if flagged), so one call gives the samples of ``count`` calls of
    one; the envelopes are then built in one broadcast.
    """
    # Below 16 modes two spacings exceed an eighth of the box; the width then
    # pins to two spacings, still with one draw.
    narrow = np.log(2.0 * grid.spacing)
    wide = max(narrow, np.log(grid.extent / 8.0))
    widths, centers, noisy, noise = [], [], [], []
    for i in range(count):
        widths.append(np.exp(rng.uniform(narrow, wide)))
        centers.append(rng.uniform(0.0, grid.extent, size=grid.dim))
        if rng.integers(0, 2):
            noisy.append(i)
            noise.append(rng.standard_normal(grid.shape))
    samples = gaussian_envelopes(grid, np.array(centers), 2.0 * np.array(widths) ** 2)
    if noisy:
        samples[noisy] *= np.array(noise)
    return samples


# The estimate's pairs and seed, and the bytes of mode tables, two complex
# tables a pair, it holds at once: a grid of up to 327 points (the desk's
# 128, 16^2) takes all its pairs in one chunk
ALGEBRA_TRIALS, ALGEBRA_SEED, ALGEBRA_CHUNK_BYTES = 200, 0, 2**21


def _largest_ratio(grid: SpectralGrid, rng: np.random.Generator, pairs: int) -> float:
    """The largest product norm ratio ||fg|| / (||f|| ||g||) of ``pairs`` pairs drawn next from ``rng``."""
    modes = dealiased_modes(grid, _localized_samples(grid, rng, 2 * pairs))
    f, g = modes[0::2], modes[1::2]
    nf, ng = sobolev_norms(grid, f), sobolev_norms(grid, g)
    keep = (nf != 0.0) & (ng != 0.0)
    ratios = sobolev_norms(grid, dealiased_product(grid, f[keep], g[keep])) / (nf[keep] * ng[keep])
    return float(ratios.max(initial=0.0))


def estimate_algebra_constant(grid: SpectralGrid) -> float:
    """Empirical product constant C_q with ||fg|| <= C_q ||f|| ||g|| in H^q.

    Draws ALGEBRA_TRIALS random localized band-limited pairs from
    ALGEBRA_SEED, takes the largest observed norm ratio, and multiplies by a
    1.5 safety factor: a function of the grid.  Every bound that uses the
    result is a self-consistency check under this sampled constant, not an
    analytic statement.

    Each field is a Gaussian envelope with log-uniform width (from two grid
    spacings up to an eighth of the box, or two spacings on grids under 16
    modes) and uniform center, either bare or modulating white noise, cut
    to the kept band.  The product norm ratio is driven by how much two
    fields overlap, so localized samples probe the large-ratio region that
    spread flat-spectrum noise never reaches.  The pairs are drawn one after
    another (f, then g, per trial) and then transformed, multiplied and
    measured as stacks, ALGEBRA_CHUNK_BYTES of mode tables at a time; a
    pair's ratio does not depend on its chunk.
    """
    rng = np.random.default_rng(ALGEBRA_SEED)
    chunk = max(1, ALGEBRA_CHUNK_BYTES // (32 * grid.npoints))
    sizes = [min(chunk, ALGEBRA_TRIALS - start) for start in range(0, ALGEBRA_TRIALS, chunk)]
    return 1.5 * max(_largest_ratio(grid, rng, pairs) for pairs in sizes)
