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

Every field is real: the paper's phi is a real scalar field, so its
spectrum is Hermitian and half of it holds the whole field.

Quadratic products are evaluated on the grid and then truncated to the band
``|j| <= (modes - 1) // 3`` per axis (the two-thirds rule).  For inputs that
are band limited to that band the truncated product is exactly alias free.

A real field's modes at -k are the conjugates of those at k, so every mode
table in the package holds the half spectrum of ``rfftn``: the last axis
keeps j = 0..modes/2 (65 of 128 columns on a 128-mode line).  The grid is
that layout: its tables (``k_squared``, ``omega``, ``sobolev_weights``,
``keep_mask``, ``band_mask``) have ``grid.half_shape``, as does a
``ModeArray``, and ``to_modes`` cuts the ``fftn`` of its samples to it.
The grid also holds what the solver's step needs on that layout: the
square (the inverse and forward transform steps with the transform scales
and the 2/3 mask as one multiplier), and H^q norms and box energies that
weigh each kept column by how often it occurs in the full spectrum.
``sobolev_norm`` weighs a field's columns the same way, and ``evaluate_at``
adds the conjugate of each interior column at its mirrored wavenumbers.

A dealiased product of real fields is zero outside the kept band and
Hermitian, so it is fully described by the band's half: ``|j| <= K`` on the
leading axes and ``0 <= j <= K`` on the last, with K = ``dealias_bound``
(43 of 128 columns on a 128-mode line).  ``band_modes`` and ``band_values``
are the real transform pair on that layout: ``rfftn`` scaled and cut to the
band, and its inverse, which scatters into the half spectrum and applies
``irfftn``.  They take real point data only; the series keeps its tables
in this layout, and the ``c_q`` estimate forms its pairs and their
products through them.  They, ``half_spectrum_values`` and the grid's
``square`` run one set of transform steps, ``_rfftn`` and ``_irfftn``,
unscaled and bit for bit numpy's own, into buffers the caller passes when
it reuses its tables from call to call.  The band has one index,
``SpectralGrid.band_boxes``: one box of basic slices on a 1-D grid and
2^(dim - 1) on dim >= 2, through which ``band_modes`` gathers,
``scatter_band`` scatters and ``band_omega`` is gathered.

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

    Every spectral table of the grid has ``half_shape``, and ``square``,
    ``norms`` and ``energies`` take stacks of tables of that shape.  The
    tables are built on first use and kept; equality and the hash see the
    five fields only.

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

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of an ``rfftn`` spectrum: the last axis keeps j = 0..modes/2."""
        return self.shape[:-1] + (self.modes // 2 + 1,)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 over the half spectrum."""
        k = self.axis_wavenumbers
        axes = np.meshgrid(*([k] * (self.dim - 1) + [k[: self.half_shape[-1]]]), indexing="ij")
        return sum(a**2 for a in axes)

    @cached_property
    def omega(self) -> np.ndarray:
        """Dispersion relation sqrt(m^2 + |k|^2) over the half spectrum."""
        return np.sqrt(self.mass**2 + self.k_squared)

    @property
    def dealias_bound(self) -> int:
        # Largest j with 3j <= modes - 1: products of fields supported on
        # |j| <= bound alias only into |j| > bound, which gets zeroed.
        return (self.modes - 1) // 3

    def band_mask(self, kmax: int) -> np.ndarray:
        """True on the half spectrum's modes with |j| <= kmax on every axis."""
        axis_keep = np.abs(self.mode_index) <= kmax
        mask = axis_keep[: self.half_shape[-1]]
        for _ in range(self.dim - 1):
            mask = np.multiply.outer(axis_keep, mask)
        return mask

    @cached_property
    def keep_mask(self) -> np.ndarray:
        return self.band_mask(self.dealias_bound)

    @cached_property
    def band_boxes(self) -> tuple[tuple[tuple, tuple], ...]:
        """The kept band's half as boxes of basic slices: pairs of indices into the band layout and into a half spectrum.

        The band layout holds |j| <= dealias_bound on the leading axes, in
        FFT storage order, and j = 0..dealias_bound on the last: one box on
        a 1-D grid and 2^(dim - 1) on dim >= 2, as each leading axis keeps
        two runs.  Each index leads with an Ellipsis for the leading axes.
        """
        kmax, modes = self.dealias_bound, self.modes
        low = (slice(0, kmax + 1), slice(0, kmax + 1))
        high = (slice(kmax + 1, 2 * kmax + 1), slice(modes - kmax, modes))
        return tuple(
            ((Ellipsis, *(band for band, _ in axes)), (Ellipsis, *(half for _, half in axes)))
            for axes in itertools.product(*([(low, high)] * (self.dim - 1) + [(low,)]))
        )

    @cached_property
    def band_omega(self) -> np.ndarray:
        """The dispersion relation on the band layout of :attr:`band_boxes`, gathered box by box."""
        kmax = self.dealias_bound
        band = np.empty((2 * kmax + 1,) * (self.dim - 1) + (kmax + 1,))
        for box, into in self.band_boxes:
            band[box] = self.omega[into]
        return band

    @cached_property
    def sobolev_weights(self) -> np.ndarray:
        """(1 + |k|^2)^q over the half spectrum, at the grid's q."""
        return (1.0 + self.k_squared) ** self.sobolev_q

    @cached_property
    def _axes(self) -> tuple[int, ...]:
        return tuple(range(-self.dim, 0))

    @cached_property
    def _fft_axes(self) -> tuple[int, ...]:
        return self._axes[-2::-1]

    @cached_property
    def _ifft_axes(self) -> tuple[int, ...]:
        return self._axes[:-1]

    @cached_property
    def _fold(self) -> np.ndarray:
        return self.keep_mask * (self.npoints / self.volume)

    @cached_property
    def _weights(self) -> tuple[np.ndarray, ...]:
        # each weight by multiplicity, twice (a column's real and imaginary part), over the
        # volume: the H^q norms', and the energy density's on phi^2, pi^2 and phi lambda phi^2
        multiplicity = np.full(self.half_shape[-1], 2.0)
        multiplicity[[0, -1]] = 1.0
        return tuple(
            np.repeat(weights * multiplicity, 2, axis=-1) / self.volume
            for weights in (self.sobolev_weights, self.omega**2 / 2.0, 0.5, 1.0 / 3.0)
        )

    def square(self, values: np.ndarray, out: np.ndarray | None = None, points: np.ndarray | None = None) -> np.ndarray:
        """Dealiased squares of a stack of half-spectrum tables.

        The module's inverse and forward transform steps, with both scales
        and the 2/3 mask as one multiplier.  ``out``, when given, receives
        the squares and is returned; on dim >= 2 the inverse steps run in it
        first, leaving ``values`` as it was.  ``points``, a float buffer of
        the stack's leading shape and ``grid.shape``, receives the point
        values and their squares.  Either is allocated when not given.
        """
        x = _irfftn(self, values, points, out)
        squares = _rfftn(self, np.multiply(x, x, out=x), out)
        squares *= self._fold
        return squares

    def norms(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """H^q norms, at the grid's q, of a stack of half-spectrum tables.

        Each column is weighed by how often it occurs in the full spectrum:
        once for the last axis' j = 0 and modes/2, twice elsewhere.  The
        last axis must be contiguous: the squares of the real and imaginary
        parts are weighed as one float array.  ``overwrite`` lets them be
        formed in place of ``values``, whose entries are then lost.
        """
        parts = values.view(float)
        weighted = np.multiply(parts, parts, out=parts if overwrite else None)
        weighted *= self._weights[0]
        return np.sqrt(np.add.reduce(weighted, axis=self._axes))

    def energies(self, phi: np.ndarray, pi: np.ndarray, forced: np.ndarray) -> np.ndarray:
        """Box integrals of 1/2 pi^2 + 1/2 |grad phi|^2 + 1/2 m^2 phi^2 + 1/3 phi forced, with forced = lambda phi^2.

        Of stacks of half-spectrum tables, weighed as ``norms`` weighs them, with its contiguous last axis.
        """
        _, on_phi, on_pi, on_forced = self._weights
        phi, pi, forced = phi.view(float), pi.view(float), forced.view(float)
        return np.add.reduce(phi * (on_phi * phi + on_forced * forced) + on_pi * pi * pi, axis=self._axes)


@dataclass(eq=False)
class ModeArray:
    """Complex Fourier coefficients of one real scalar field on a grid, as the ``rfftn`` half spectrum.

    The values have shape ``grid.half_shape``: the last axis keeps j =
    0..modes/2, and the value at -k, the conjugate of the value at k, is
    not stored.  A full-spectrum table raises SizeMismatch.
    """

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=complex)
        if values.shape != self.grid.half_shape:
            raise SizeMismatch(
                f"mode array shape {values.shape} does not match the grid's half_shape {self.grid.half_shape}"
            )
        self.values = values


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


def to_modes(grid: SpectralGrid, samples: np.ndarray) -> ModeArray:
    """Forward transform of real grid samples, cut to the half spectrum.

    ``fftn`` cut to the last axis' j = 0..modes/2, not ``rfftn``, whose last
    bits differ: the half is then bit for bit the kept half of the full
    transform.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.shape:
        raise SizeMismatch(
            f"sample array shape {samples.shape} does not match grid shape {grid.shape}"
        )
    values = np.fft.fftn(samples)[..., : grid.half_shape[-1]] * (grid.volume / grid.npoints)
    return ModeArray(grid, values)


def band_modes(
    grid: SpectralGrid, samples: np.ndarray, out: np.ndarray | None = None, spectrum: np.ndarray | None = None
) -> np.ndarray:
    """Real forward transform over the trailing grid.dim axes, cut to the band layout.

    The band entries are those of the dealiased ``fftn`` of the samples up
    to rounding; ``samples`` must be real.  ``out`` (the band layout),
    gathered box by box, receives the band and ``spectrum`` (the half
    spectrum) the whole transform; either is allocated when not given.
    """
    spectrum = _rfftn(grid, samples, spectrum)
    if out is None:
        out = np.empty(spectrum.shape[: -grid.dim] + grid.band_omega.shape, dtype=complex)
    for box, into in grid.band_boxes:
        out[box] = spectrum[into]
    out *= grid.volume / grid.npoints
    return out


def band_values(
    grid: SpectralGrid,
    band: np.ndarray,
    half: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Real point values of band-layout tables: the inverse of :func:`band_modes`.

    ``half`` is a zero half-spectrum buffer of the tables' leading shape to
    scatter into; only its band entries are written, so it stays zero
    elsewhere and a caller can pass it to the next call too.  ``out`` and
    ``scratch``, which must not be ``half``, are as
    :func:`half_spectrum_values` takes them.
    """
    return half_spectrum_values(grid, scatter_band(grid, band, half), out, scratch)


def scatter_band(grid: SpectralGrid, band: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Write band-layout tables into the band of the half spectra ``half``, box by box, and return ``half``.

    Entries of ``half`` outside the band are not touched.
    """
    for box, into in grid.band_boxes:
        half[into] = band[box]
    return half


def half_spectrum_values(
    grid: SpectralGrid, half: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Real point values from ``rfftn``-layout mode tables over the trailing grid.dim axes.

    ``out``, a float buffer of the tables' leading shape and
    ``grid.shape``, receives them when given.  On dim >= 2 the ``ifft``
    steps write into ``scratch`` when given, a buffer of ``half``'s shape
    that may be ``half`` itself when the caller no longer reads it, and
    allocate a table each when not.
    """
    values = _irfftn(grid, half, out, scratch)
    values *= grid.npoints / grid.volume
    return values


def _rfftn(grid: SpectralGrid, samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``rfftn`` over the trailing grid.dim axes, unscaled, as its steps: rfft into ``out``, then fft in place, last to first."""
    spectrum = np.fft.rfft(samples, out=out)
    for axis in grid._fft_axes:
        np.fft.fft(spectrum, axis=axis, out=spectrum)
    return spectrum


def _irfftn(grid: SpectralGrid, half: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """``irfftn`` over the trailing grid.dim axes, unscaled, as its steps: ifft into ``scratch``, then irfft into ``out``."""
    for axis in grid._ifft_axes:
        half = np.fft.ifft(half, axis=axis, out=scratch)
    return np.fft.irfft(half, grid.modes, out=out)


def sobolev_norm(f: ModeArray) -> float:
    """H^q norm of one field, its columns weighed as :meth:`SpectralGrid.norms` weighs them."""
    return float(f.grid.norms(f.values))


def evaluate_at(f: ModeArray, x) -> float:
    """Evaluate the band-limited field at an arbitrary point by mode summation.

    The sum of the full spectrum: every kept entry at its wavenumbers, and
    for each interior column j of the last axis the conjugate entry at the
    mirrored ones, -k_j on the last axis and the wavenumber of index -i mod
    modes on a leading axis, where index modes/2 is its own mirror.  A
    scalar x stands for the diagonal point (x, ..., x).
    """
    grid = f.grid
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = np.full(grid.dim, x)
    if x.shape != (grid.dim,):
        raise SizeMismatch(f"point must have {grid.dim} coordinates, got shape {x.shape}")
    k = grid.axis_wavenumbers
    columns = grid.half_shape[-1]

    def phase(lead: np.ndarray, last: np.ndarray) -> np.ndarray:
        total = last * x[-1]
        for axis in range(grid.dim - 1):
            shape = [1] * grid.dim
            shape[axis] = grid.modes
            total = total + lead.reshape(shape) * x[axis]
        return total

    kept = np.sum(f.values * np.exp(1j * phase(k, k[:columns])))
    mirrored = k[(-np.arange(grid.modes)) % grid.modes]
    interior = np.sum(np.conj(f.values[..., 1:-1]) * np.exp(1j * phase(mirrored, -k[1 : columns - 1])))
    return float(((kept + interior) / grid.volume).real)


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


# The estimate's pairs and seed, and the bytes it holds at once, counted as
# 32 a grid point per pair: the two fields' real samples, 8 bytes a point
# each, and their complex half spectra, 16 bytes on about half the points
# each.  A grid of up to 40 points takes all its pairs in one chunk, the
# desk's 128 points four.  With the point values and the products, the
# estimate's tracemalloc peak is then 0.8 MiB on the desk: one chunk of its
# 200 pairs took 2.3 MiB, which the C library handed back to the system
# after every estimate and faulted in again on the next
ALGEBRA_TRIALS, ALGEBRA_SEED, ALGEBRA_CHUNK_BYTES = 200, 0, 2**18


def _largest_ratio(grid: SpectralGrid, rng: np.random.Generator, pairs: int) -> float:
    """The largest product norm ratio ||fg|| / (||f|| ||g||) of ``pairs`` pairs drawn next from ``rng``."""
    half = np.zeros((2 * pairs,) + grid.half_shape, dtype=complex)
    x = band_values(grid, band_modes(grid, _localized_samples(grid, rng, 2 * pairs)), half)
    # only band entries are ever written to half, and the norms square them
    # in place: the rest stays zero for the products' scatter
    norms = grid.norms(half, overwrite=True)
    nf, ng = norms[0::2], norms[1::2]
    keep = (nf != 0.0) & (ng != 0.0)
    products = half[: np.count_nonzero(keep)]
    scatter_band(grid, band_modes(grid, x[0::2][keep] * x[1::2][keep]), products)
    ratios = grid.norms(products, overwrite=True) / (nf[keep] * ng[keep])
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
    measured as stacks, about ALGEBRA_CHUNK_BYTES at a time; a pair's ratio
    does not depend on its chunk.  The pairs and their products go through
    the band pair (``band_modes``, ``band_values``) and their norms through
    ``SpectralGrid.norms`` on the half spectrum, as the series and the
    solver run them.
    """
    rng = np.random.default_rng(ALGEBRA_SEED)
    chunk = max(1, ALGEBRA_CHUNK_BYTES // (32 * grid.npoints))
    sizes = [min(chunk, ALGEBRA_TRIALS - start) for start in range(0, ALGEBRA_TRIALS, chunk)]
    return 1.5 * max(_largest_ratio(grid, rng, pairs) for pairs in sizes)
