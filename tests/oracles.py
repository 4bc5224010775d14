"""Reference computations and helpers that only the tests use.

Two kinds of code live here, outside the package:

- Independent references, written with a different algorithm than the
  package uses: closed forms, explicit index folding, and brute-force
  enumeration instead of shared tables, transform tricks, and cherry-subset
  scans.  Agreement between the two paths is then evidence, not tautology.
- The slower evaluators and loops the package replaced, kept to check it
  by.  The oracle chain for the tree series runs from the closed form
  (cherry_amplitude) through the literal nested evaluator
  (direct_amplitude) and the per-tree tables memoized by Dyck word
  (tree_amplitude) to the full-spectrum, all-rows and whole-axis forms of
  the order recursion the package runs in blocks of nodes.  Two witnesses
  of the series' Taylor identity check every order past the per-tree
  tables' reach: the Cauchy integral of the reversed Strang flow over a
  circle of complex couplings (cauchy_order_fields, cauchy_order_sums)
  and the reversed flow stepped order by order as a jet
  (jet_order_fields).  Beside them sit the
  per-node solver and diagnostic loops, and the small field helpers
  (to_grid, zero_modes, pointwise_product, hermitian_defect, green_apply,
  the one-range trapezoid time_integral, the H^q norm at any q, the tree
  helpers decompose, prune_cherries and from_dyck, ...) that nothing in
  the package calls, and the open-mesh band index (band_index) and the
  square through numpy's irfftn and rfftn (rfftn_square) that the grid's
  band boxes and square are checked against.  The trapezoid over every
  trailing range at once, suffix_time_integral, is the whole-range reference for the
  package's one time quadrature, the suffix sums that series._suffix_sums
  carries from block to block of nodes; every oracle here sums through it
  (pair_suffix_sums), never through the package's carry.
- The full complex spectrum, which the package, holding every mode table
  as the half spectrum of a real field, does without.  full_spectrum is
  the one completion of a half table: column j > modes/2 of the last axis
  is the conjugate of column modes - j at the mirrored leading indices.
  Every reference here that sums, multiplies or flows over the whole
  spectrum (pair_modes, to_grid, pointwise_product, the full-spectrum
  free_flow, the leaf tables, the per-tree evaluators, the energies, the
  literal evaluate_at, the witnesses) completes the package's half tables
  through it, and hands its results back cut to the half.  They transform
  and multiply through grid_values, dealiased_modes and dealiased_product.
  The grid's own tables hold the half spectrum too, so these references
  take their full tables from full_k_squared, full_omega, full_band_mask
  and full_keep_mask, of which the grid's are the kept half.
  The package's c_q estimate ran on that path before it took the band
  pair, and full_spectrum_algebra_constant keeps that estimate as its
  reference.  Beside them sit
  the complex dealiased product (complex_product) and the layout
  FullSpectrum, on which the per-node solver loop runs: the reference the
  half-spectrum solve is checked against, and the one the Cauchy witness
  steps its complex couplings on.
- The paper's bound checks, which no command runs: the first-order bound
  (first_order_bound), the charge-balance defect (p_residual) and the
  sampled operator-norm bound (delta_norm_bound_check), with the dual
  sup norm of psi they share (test_function_sup_norm).  The defect and
  the sampled tree functional run on the stacked kernel pair's
  (kernel_pair) whole-range suffix sums, each beside the per-node loop that checks it.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from kgcharge.propagation import TimeGrid, apply_flow, flow_multipliers, free_evolve, retarded_multipliers
from kgcharge.series import _brackets as brackets
from kgcharge.series import _retarded_table, _t0_field, bracket_ds
from kgcharge.solver import BlowUp, TestFunction, Trajectory, evaluate_test_function
from kgcharge.spectral import (
    FieldSnapshot,
    GridMismatch,
    ModeArray,
    SpectralGrid,
    _localized_samples,
    band_modes,
    band_values,
    half_spectrum_values,
    random_band_limited,
    sobolev_norm,
)
from kgcharge.trees import (
    DegenerateTree,
    GrowSpec,
    Tree,
    _cherry_paths,
    _prune,
    enumerate_trees,
    graft,
    grow,
    internal_count,
    leaf,
    leaf_count,
    to_dyck,
)


class OrderTooHigh(ValueError):
    """Raised when a tree's order is past what an evaluator or a check supports."""


# Field helpers the package does not call.


def full_k_squared(grid: SpectralGrid) -> np.ndarray:
    """|k|^2 over the full spectrum, of which the grid's k_squared is the kept half."""
    axes = np.meshgrid(*([grid.axis_wavenumbers] * grid.dim), indexing="ij")
    return sum(a**2 for a in axes)


def full_omega(grid: SpectralGrid) -> np.ndarray:
    """The dispersion relation sqrt(m^2 + |k|^2) over the full spectrum."""
    return np.sqrt(grid.mass**2 + full_k_squared(grid))


def full_band_mask(grid: SpectralGrid, kmax: int) -> np.ndarray:
    """True on the full spectrum's modes with |j| <= kmax on every axis."""
    axis_keep = np.abs(grid.mode_index) <= kmax
    mask = axis_keep
    for _ in range(grid.dim - 1):
        mask = np.multiply.outer(mask, axis_keep)
    return mask


def full_keep_mask(grid: SpectralGrid) -> np.ndarray:
    """The full spectrum's 2/3 band, |j| <= dealias_bound on every axis."""
    return full_band_mask(grid, grid.dealias_bound)


def band_index(grid: SpectralGrid) -> tuple[np.ndarray, ...]:
    """Open-mesh index of the kept band's half in a half spectrum: the reference for the grid's band boxes.

    |j| <= dealias_bound on the leading axes, in FFT storage order, and
    j = 0..dealias_bound on the last axis.
    """
    kmax = grid.dealias_bound
    rows = np.r_[0 : kmax + 1, grid.modes - kmax : grid.modes]
    return np.ix_(*([rows] * (grid.dim - 1) + [np.arange(kmax + 1)]))


def rfftn_square(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Dealiased squares of half-spectrum tables through numpy's ``irfftn`` and ``rfftn``, the grid's square's reference."""
    axes = tuple(range(-grid.dim, 0))
    x = np.fft.irfftn(values, s=grid.shape, axes=axes)
    return np.fft.rfftn(x * x, axes=axes) * (grid.keep_mask * (grid.npoints / grid.volume))


def full_spectrum(grid: SpectralGrid, half: np.ndarray) -> np.ndarray:
    """Full-spectrum tables of real fields from their half spectrum, over the trailing grid.dim axes.

    Column j > modes/2 of the last axis becomes the conjugate of column
    modes - j at the mirrored index -i mod modes of every leading axis.
    """
    n = grid.modes
    tables = np.empty(half.shape[:-1] + (n,), dtype=complex)
    tables[..., : n // 2 + 1] = half
    # on a leading axis, index 0 is its own mirror and 1..n-1 reverse
    pieces = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for lead in itertools.product(pieces, repeat=grid.dim - 1):
        dst = (Ellipsis,) + tuple(d for d, _ in lead) + (slice(n // 2 + 1, None),)
        src = (Ellipsis,) + tuple(s for _, s in lead) + (slice(n // 2 - 1, 0, -1),)
        np.conjugate(tables[src], out=tables[dst])
    return tables


def grid_values(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Real point values of full-spectrum mode tables: the inverse transform over the trailing grid.dim axes."""
    # Passing s along with axes keeps numpy on its fast path for one field.
    axes = tuple(range(-grid.dim, 0))
    return (np.fft.ifftn(values, s=grid.shape, axes=axes) * (grid.npoints / grid.volume)).real


def dealiased_modes(grid: SpectralGrid, samples: np.ndarray) -> np.ndarray:
    """Forward transform over the trailing grid.dim axes, then the 2/3 mask."""
    axes = tuple(range(-grid.dim, 0))
    values = np.fft.fftn(samples, s=grid.shape, axes=axes) * (grid.volume / grid.npoints)
    return np.where(full_keep_mask(grid), values, 0.0)


def dealiased_product(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dealiased pointwise products of two stacks of full-spectrum mode tables, row by row.

    A square (``b is a``) transforms its one factor once.
    """
    x = grid_values(grid, a)
    y = x if b is a else grid_values(grid, b)
    return dealiased_modes(grid, x * y)


def kept_half(grid: SpectralGrid, tables: np.ndarray) -> np.ndarray:
    """The half spectrum the package keeps of full-spectrum tables: a view of the last axis' j = 0..modes/2."""
    return tables[..., : grid.half_shape[-1]]


def pair_modes(f: ModeArray, g: ModeArray) -> complex:
    """Plancherel pairing (1/V) sum_k f_hat(k) conj(g_hat(k)), over the full spectrum.

    For real fields this equals the box integral of the pointwise product.
    """
    if f.grid != g.grid:
        raise GridMismatch("pairing requires both arrays on one grid")
    return complex(np.vdot(full_spectrum(g.grid, g.values), full_spectrum(f.grid, f.values)) / f.grid.volume)


def real_part(value: complex) -> float:
    """Real part of a pairing that is real up to rounding, relative to its own size."""
    if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
        raise AssertionError(f"pairing has imaginary part {value.imag}")
    return float(value.real)


def zero_modes(grid: SpectralGrid) -> ModeArray:
    return ModeArray(grid, np.zeros(grid.half_shape, dtype=complex))


def to_grid(f: ModeArray) -> np.ndarray:
    """Inverse transform of the completed table to real point values."""
    return np.ascontiguousarray(grid_values(f.grid, full_spectrum(f.grid, f.values)))


def hermitian_defect(f: ModeArray) -> float:
    """Largest deviation of the completed table from the real-field symmetry value(-k) == conj(value(k)).

    The completion makes every column past modes/2 the mirror of a kept
    one, so the defect is that of the last axis' self-conjugate columns, j
    = 0 and modes/2.
    """
    full = full_spectrum(f.grid, f.values)
    idx = [(-np.arange(n)) % n for n in full.shape]
    mirrored = np.conj(full[np.ix_(*idx)])
    return float(np.max(np.abs(full - mirrored)))


def full_sum_evaluate_at(f: ModeArray, x) -> float:
    """The field at a point: the sum over every mode of the completed table at its own wavenumbers.

    The package's evaluate_at sums the half spectrum with each interior
    column's mirror; this is the sum it replaced.  A scalar x stands for
    the diagonal point (x, ..., x).
    """
    grid = f.grid
    x = np.broadcast_to(np.asarray(x, dtype=float), (grid.dim,))
    phase = np.zeros(grid.shape)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.modes
        phase = phase + grid.axis_wavenumbers.reshape(shape) * x[axis]
    return float((np.sum(full_spectrum(grid, f.values) * np.exp(1j * phase)) / grid.volume).real)


def pointwise_product(f: ModeArray, g: ModeArray) -> ModeArray:
    """Dealiased pointwise product of two fields, in mode space.

    Transforms both completed factors to the grid, multiplies, transforms
    back, and zeroes every mode outside the kept band (two-thirds rule).
    """
    if f.grid != g.grid:
        raise GridMismatch("product requires both arrays on one grid")
    grid = f.grid
    product = dealiased_product(grid, full_spectrum(grid, f.values), full_spectrum(grid, g.values))
    return ModeArray(grid, kept_half(grid, product))


def complex_product(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dealiased products of two stacks of complex fields' mode tables, row by row.

    The package's dealiased_product on point values that keep their
    imaginary part, where its grid_values keeps the real part only; a
    square (``b is a``) transforms its one factor once.
    """
    axes = tuple(range(-grid.dim, 0))
    scale = grid.npoints / grid.volume
    x = np.fft.ifftn(a, s=grid.shape, axes=axes) * scale
    y = x if b is a else np.fft.ifftn(b, s=grid.shape, axes=axes) * scale
    return dealiased_modes(grid, x * y)


def sobolev_norms_at(grid: SpectralGrid, values: np.ndarray, q: float) -> np.ndarray:
    """H^q norms at any q, with weights (1 + |k|^2)^q of their own; q = -grid.sobolev_q gives the dual norm.

    The package takes its norms at the grid's q only.
    """
    axes = tuple(range(-grid.dim, 0))
    return np.sqrt(np.sum((1.0 + full_k_squared(grid)) ** q * np.abs(values) ** 2, axis=axes) / grid.volume)


def free_flow(grid: SpectralGrid, phi: np.ndarray, pi: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form linear flow of full-spectrum mode data (phi_hat, pi_hat) by dt, one lag or a stack of them."""
    return apply_flow(flow_multipliers(full_omega(grid), dt), phi, pi)


def _test_function_rows(tf: TestFunction, tgrid: TimeGrid, derivative: int = 0) -> np.ndarray:
    """psi (or d/dt psi) at every node, stacked full-spectrum tables, from the closed-form flow."""
    grid = tf.grid
    return free_flow(grid, full_spectrum(grid, tf.psi0.values), full_spectrum(grid, tf.psi1.values), tgrid.nodes)[derivative]


def test_function_sup_norm(tf: TestFunction, tgrid: TimeGrid) -> float:
    """sup over nodes and derivative order of the H^{-q} norm of psi.

    This is the single sup-in-time dual norm all bound checks use for psi.
    """
    q = -tf.grid.sobolev_q
    return max(float(sobolev_norms_at(tf.grid, _test_function_rows(tf, tgrid, d), q).max()) for d in (0, 1))


def _localized_modes(grid: SpectralGrid, rng: np.random.Generator) -> np.ndarray:
    """The full-spectrum table of one field as ``estimate_algebra_constant`` draws it."""
    return dealiased_modes(grid, _localized_samples(grid, rng, 1)[0])


def random_localized_field(grid: SpectralGrid, rng: np.random.Generator) -> ModeArray:
    """One field as ``estimate_algebra_constant`` draws it: a random localized envelope."""
    return ModeArray(grid, kept_half(grid, _localized_modes(grid, rng)))


@dataclass(eq=False)
class TimeSampledField:
    """One mode array per time node, stored stacked for vector arithmetic."""

    grid: SpectralGrid
    tgrid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.tgrid.nnodes,) + self.grid.shape
        values = np.asarray(self.values, dtype=complex)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} does not match {expected}")
        self.values = values


def green_apply(kind: str, t: float, tau: float, f: ModeArray) -> ModeArray:
    """Apply the retarded kernel G0 or G1 evaluated at (t, tau) to f.

    Returns the zero array for t < tau; the Heaviside factor takes the
    value 1 at t == tau.
    """
    if kind not in ("G0", "G1"):
        raise ValueError(f"kind must be 'G0' or 'G1', got {kind!r}")
    grid = f.grid
    if t < tau:
        return zero_modes(grid)
    w = grid.omega
    if kind == "G0":
        mult = np.sin((t - tau) * w) / w
    else:
        mult = np.cos((t - tau) * w)
    return ModeArray(grid, mult * f.values)


# Tree helpers the package does not call: the root decomposition, cherry
# pruning, and the Dyck-word parser with its error.


def decompose(b: Tree) -> tuple[Tree, Tree]:
    """Return the unique (left, right) pair with ``graft(left, right) == b``."""
    if b.is_leaf:
        raise DegenerateTree("a leaf has no (left, right) decomposition")
    return b.left, b.right


def prune_cherries(b: Tree) -> tuple[Tree, GrowSpec]:
    """Collapse every cherry of ``b`` simultaneously.

    Returns ``(a, spec)`` with ``grow(spec, a) == b`` and ``spec`` maximal:
    every cherry of ``b`` is recorded as a cherry entry.  The collapse is a
    single pass, so the result may itself contain cherries (collapsing both
    cherries of the four-leaf balanced tree yields the two-leaf tree).  For
    the bare leaf the trivial pair ``(leaf, (leaf,))`` is returned.
    """
    a, entries = _prune(b, frozenset(_cherry_paths(b)))
    return a, GrowSpec(tuple(entries))


class ParseError(ValueError):
    """Raised on a malformed tree encoding; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def from_dyck(s: str) -> Tree:
    """Inverse of ``trees.to_dyck``; rejects malformed input with a position."""

    def parse(i: int) -> tuple[Tree, int]:
        if i >= len(s):
            raise ParseError("unexpected end of input", i)
        c = s[i]
        if c == "L":
            return leaf(), i + 1
        if c == "N":
            left, j = parse(i + 1)
            right, k = parse(j)
            return Tree(left, right), k
        raise ParseError(f"unexpected character {c!r}", i)

    tree, end = parse(0)
    if end != len(s):
        raise ParseError("trailing input after a complete tree", end)
    return tree


def catalan(n):
    """Closed-form Catalan number C_n."""
    return math.comb(2 * n, n) // (n + 1)


def brute_force_signed_grow_sum(b, min_growth=0):
    """Signed grow sum by scanning every candidate (tree, spec) pair.

    The package enumerates cherry subsets of b; this scans all smaller
    trees a and all specs over their leaves and keeps the pairs with
    grow(spec, a) == b.  Each cherry entry adds one leaf, so a spec with
    exactly leaf_count(b) - leaf_count(a) cherry entries is required.
    """
    cherry = graft(leaf(), leaf())
    target_leaves = leaf_count(b)
    total = 0
    for order in range(internal_count(b) + 1):
        for a in enumerate_trees(order):
            n = leaf_count(a)
            need = target_leaves - n
            if need < min_growth or need > n:
                continue
            for positions in itertools.combinations(range(n), need):
                chosen = set(positions)
                entries = tuple(cherry if i in chosen else leaf() for i in range(n))
                if grow(GrowSpec(entries), a) == b:
                    total += (-1) ** internal_count(a)
    return total


def signed_mode_index(n):
    """FFT storage order as signed integers: 0, 1, ..., n/2-1, -n/2, ..., -1."""
    return np.fft.fftfreq(n, 1.0 / n).astype(int)


def folded_convolution(a, b, volume):
    """Dealiased mode product by outer product and explicit index folding.

    h(j) = (1/V) sum over j1 + j2 = j (mod n) of a(j1) b(j2), then modes
    with |j| > (n - 1) // 3 zeroed.
    """
    n = a.shape[0]
    out = np.zeros(n, dtype=complex)
    targets = np.add.outer(np.arange(n), np.arange(n)) % n
    np.add.at(out, targets.ravel(), np.outer(a, b).ravel())
    out /= volume
    out[np.abs(signed_mode_index(n)) > (n - 1) // 3] = 0.0
    return out


def free_mode_evolution(phi, pi, omega, t):
    """Closed-form linear evolution of one Fourier mode pair over time t."""
    c, s = np.cos(omega * t), np.sin(omega * t)
    return c * phi + s / omega * pi, -omega * s * phi + c * pi


def cherry_amplitude(extent, mass, s, nodes, phi_hat, pi_hat, psi0_hat, psi1_hat):
    """Order-one amplitude from closed forms alone.

    Builds the backward-evolved leaf factor M(s, tau) = cos((s - tau) w)
    phi_hat - sin((s - tau) w) / w pi_hat at every quadrature node, squares
    it by folded convolution, pairs with the freely evolved test function,
    and applies the trapezoid rule restricted to the nodes up to s.  No
    package code is involved past the input arrays.
    """
    n = phi_hat.shape[0]
    volume = extent
    k = 2.0 * np.pi * signed_mode_index(n) / extent
    omega = np.sqrt(mass**2 + k**2)
    upper = int(round(s / (nodes[1] - nodes[0])))
    samples = np.zeros(upper + 1)
    for j in range(upper + 1):
        lag = (s - nodes[j]) * omega
        m_row = np.cos(lag) * phi_hat - np.sin(lag) / omega * pi_hat
        conv = folded_convolution(m_row, m_row, volume)
        phase = nodes[j] * omega
        psi_row = np.cos(phase) * psi0_hat + np.sin(phase) / omega * psi1_hat
        samples[j] = (np.conj(psi_row) * conv).sum().real / volume
    dt = nodes[1] - nodes[0]
    return float((samples.sum() - 0.5 * (samples[0] + samples[-1])) * dt)


def time_integral(samples, tgrid: TimeGrid, start: int = 0, stop: int | None = None):
    """Composite trapezoid of node samples over [tau_start, tau_stop], one range per call.

    The reference for suffix_time_integral, which forms every trailing
    range at once.  ``samples`` is indexed by node along its first axis
    and must reach node ``stop``; rows past it are not read, so tables cut
    at ``stop`` need no padding.  Scalars per node give a scalar
    result, stacked mode arrays integrate mode-wise.  The degenerate range
    start == stop integrates to zero.
    """
    if stop is None:
        stop = tgrid.nt
    if not 0 <= start <= stop <= tgrid.nt:
        raise ValueError(f"bad node range [{start}, {stop}] for nt={tgrid.nt}")
    samples = np.asarray(samples)
    if samples.shape[0] <= stop:
        raise ValueError(
            f"samples first axis has length {samples.shape[0]}, too short to reach node {stop}"
        )
    if start == stop:
        return samples[0] * 0.0
    window = samples[start : stop + 1]
    total = window.sum(axis=0) - 0.5 * (window[0] + window[-1])
    return total * tgrid.dt


def suffix_time_integral(samples: np.ndarray, tgrid: TimeGrid, upper: int, out: np.ndarray | None = None) -> np.ndarray:
    """All trailing trapezoids at once: out[j] integrates nodes j..upper.

    ``samples`` is indexed by node along its first axis and must reach node
    ``upper``; rows past it are not read.  Row j is the composite trapezoid
    over [tau_j, tau_upper], and all rows come from one reversed cumulative
    sum, into ``out``'s rows 0..upper; the trapezoid's end terms are then
    subtracted in place.  Without ``out`` the result is a new table of
    ``samples``' shape whose rows past ``upper`` are zero; an ``out`` of
    exactly upper + 1 rows spares that zero padding.  The whole-range
    reference for the package's one quadrature, series._suffix_sums, which
    walks the range in blocks of nodes with a carry and must give these
    rows bit for bit.
    """
    if not 0 <= upper <= tgrid.nt:
        raise ValueError(f"upper node {upper} outside grid with nt={tgrid.nt}")
    samples = np.asarray(samples)
    if out is None:
        out = np.zeros_like(samples, dtype=samples.dtype)
    head = samples[: upper + 1]
    rows = out[: upper + 1]
    np.cumsum(head[::-1], axis=0, out=rows[::-1])
    rows -= 0.5 * head
    rows -= 0.5 * head[-1]
    rows *= tgrid.dt
    return out


def kernel_pair(omega: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """sin(tau omega)/omega and cos(tau omega) at every node tau, stacked: shape ``(2, len(nodes), *omega.shape)``.

    The package's blocks hold the two tables apart, each block's own.
    """
    return np.stack(retarded_multipliers(omega, nodes)[::-1])


def pair_suffix_sums(weighted: np.ndarray, tgrid: TimeGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Every trailing trapezoid of both kernel-weighted tables of a kernel-pair stack, over the whole range.

    The node axis is axis 1 and its last row is the upper node; one
    suffix_time_integral call covers both tables.  series._suffix_sums
    walks the same range in blocks with a carry.  Without ``out`` the sums
    go to a new table.
    """
    if out is None:
        out = np.empty_like(weighted)
    head = weighted.swapaxes(0, 1)
    suffix_time_integral(head, tgrid, len(head) - 1, out=out.swapaxes(0, 1))
    return out


def retarded_integral(flow, tgrid: TimeGrid, prod: np.ndarray, upper: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows integral over t in [tau_j, tau_upper] of sin((t - tau_j) omega)/omega prod(t), and prod's datum.

    The two-pass form the package's kernel pair replaced: one suffix sum
    per kernel, each over a table of ``prod``'s shape whose rows past
    ``upper`` are zero.  The datum is the table's value and time derivative
    at t = 0, stacked.  ``flow`` is ``flow_multipliers(omega, tgrid.nodes)``
    on the layout of ``prod``'s mode axes.
    """
    cos, sin_over_w, _ = flow
    sin_sum = suffix_time_integral(sin_over_w * prod, tgrid, upper)
    cos_sum = suffix_time_integral(cos * prod, tgrid, upper)
    return cos * sin_sum - sin_over_w * cos_sum, np.stack([sin_sum[0], -cos_sum[0]])


def pairing_integral(
    grid: SpectralGrid, tgrid: TimeGrid, prod: np.ndarray, psi_rows: np.ndarray, upper: int
) -> float:
    """Integral over [0, tau_upper] of <psi(tau), prod(tau)>, psi paired node by node.

    The package pairs psi once, at t = 0, with prod's Duhamel datum.
    """
    axes = tuple(range(1, 1 + grid.dim))
    integrand = np.sum(np.conj(prod) * psi_rows, axis=axes) / grid.volume
    return real_part(complex(time_integral(integrand, tgrid, 0, upper)))


# The per-tree tables and the literal nested evaluator.  The package sums
# each order in one table recursion; these evaluate one tree at a time, the
# first with memoized subtree tables, the second with no table at all.


@dataclass(eq=False)
class AmplitudeCache:
    """Subtree tables keyed by Dyck word.

    Valid only for one (snapshot at s, time grid) pair; the caller owns that
    association.  Sharing one cache across test functions is safe because
    tables never depend on psi.
    """

    tables: dict[str, TimeSampledField] = field(default_factory=dict)


def leaf_table(snap: FieldSnapshot, tgrid: TimeGrid) -> TimeSampledField:
    """Backward free evolution of the slice data to every node.

    Row j holds cos((s-tau_j) omega) phi_hat(s) - sin((s-tau_j) omega)/omega
    pi_hat(s), the value at tau_j of the free solution matching the data at
    s.  Rows past s are filled too; consumers that need the step cutoff
    restrict their quadrature instead.
    """
    grid = snap.grid
    phi, pi = (full_spectrum(grid, f.values) for f in (snap.phi, snap.pi))
    rows, _ = free_flow(grid, phi, pi, tgrid.nodes - snap.time)
    return TimeSampledField(grid, tgrid, rows)


def subtree_table(b: Tree, cache: AmplitudeCache, snap: FieldSnapshot, tgrid: TimeGrid) -> TimeSampledField:
    """The recursion table w_b, memoized in the cache by Dyck word."""
    key = to_dyck(b)
    hit = cache.tables.get(key)
    if hit is not None:
        return hit
    if b.is_leaf:
        table = leaf_table(snap, tgrid)
    else:
        b1, b2 = decompose(b)
        w1 = subtree_table(b1, cache, snap, tgrid)
        w2 = subtree_table(b2, cache, snap, tgrid)
        grid = snap.grid
        upper = tgrid.node_index(snap.time)
        prod = dealiased_product(grid, w1.values, w2.values)
        rows, _ = retarded_integral(flow_multipliers(full_omega(grid), tgrid.nodes), tgrid, prod, upper)
        table = TimeSampledField(grid, tgrid, rows)
    cache.tables[key] = table
    return table


def tree_amplitude(
    b: Tree,
    psi: TestFunction,
    snap: FieldSnapshot,
    tgrid: TimeGrid,
    cache: AmplitudeCache | None = None,
) -> float:
    """Amplitude of one tree: the outer integral of <psi(tau), child product>.

    The leaf tree is the bare pairing at s.  Passing no cache evaluates from
    scratch; passing one reuses and extends its subtree tables.
    """
    if psi.grid != snap.grid:
        raise GridMismatch("test function and snapshot live on different grids")
    if b.is_leaf:
        return bracket_ds(psi, snap)
    if cache is None:
        cache = AmplitudeCache()
    b1, b2 = decompose(b)
    w1 = subtree_table(b1, cache, snap, tgrid)
    w2 = subtree_table(b2, cache, snap, tgrid)
    grid = snap.grid
    upper = tgrid.node_index(snap.time)
    prod = dealiased_product(grid, w1.values, w2.values)
    return pairing_integral(grid, tgrid, prod, _test_function_rows(psi, tgrid), upper)


def _mode_convolution(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference dealiased product: circular mode convolution, no transforms.

    h_hat(j) = (1/V) sum over j1 + j2 = j (mod modes) of a(j1) b(j2), then
    modes outside the kept band are zeroed.
    """
    n = grid.modes
    if grid.dim == 1:
        full = np.convolve(np.fft.fftshift(a), np.fft.fftshift(b))
        out = np.zeros(n, dtype=complex)
        # Entry p of the full convolution carries mode sum p - n; fold the
        # sums back into FFT storage order modulo n.
        np.add.at(out, (np.arange(2 * n - 1) - n) % n, full)
    else:
        out = np.zeros(grid.shape, dtype=complex)
        for j1 in np.ndindex(grid.shape):
            for j2 in np.ndindex(grid.shape):
                target = tuple((i1 + i2) % n for i1, i2 in zip(j1, j2))
                out[target] += a[j1] * b[j2]
    out /= grid.volume
    return np.where(full_keep_mask(grid), out, 0.0)


def _restricted_trapezoid(samples: np.ndarray, dt: float) -> complex:
    """Trapezoid over the given consecutive samples (half weights at ends)."""
    if samples.shape[0] < 2:
        return 0.0 * samples.sum()
    return (samples.sum(axis=0) - 0.5 * (samples[0] + samples[-1])) * dt


def _slot_rows(
    b: Tree,
    alphas,
    snap: FieldSnapshot,
    tgrid: TimeGrid,
    upper: int,
) -> np.ndarray:
    """Literal leg of one subtree into its parent vertex, node by node.

    For a leaf the leg is the retarded kernel at the contraction time s
    applied to phi(s) (derivative order 1) or pi(s) (order 0), built with
    one green_apply call per node.  For an internal vertex the leg nests an
    explicit per-node kernel integral over the convolved child legs.
    """
    grid = snap.grid
    rows = np.zeros((tgrid.nnodes,) + grid.shape, dtype=complex)
    if b.is_leaf:
        a = next(alphas)
        kind = "G1" if a == 1 else "G0"
        data = snap.phi if a == 1 else snap.pi
        for j in range(upper + 1):
            rows[j] = full_spectrum(grid, green_apply(kind, snap.time, float(tgrid.nodes[j]), data).values)
        return rows
    b1, b2 = decompose(b)
    left = _slot_rows(b1, alphas, snap, tgrid, upper)
    right = _slot_rows(b2, alphas, snap, tgrid, upper)
    conv = np.zeros_like(rows)
    for i in range(upper + 1):
        conv[i] = _mode_convolution(grid, left[i], right[i])
    omega = full_omega(grid)
    for j in range(upper + 1):
        lags = (tgrid.nodes[j : upper + 1] - tgrid.nodes[j]).reshape((-1,) + (1,) * grid.dim)
        kernel = np.sin(lags * omega) / omega
        rows[j] = _restricted_trapezoid(kernel * conv[j : upper + 1], tgrid.dt)
    return rows


def direct_amplitude(b: Tree, psi: TestFunction, snap: FieldSnapshot, tgrid: TimeGrid) -> float:
    """Literal nested evaluation of a tree amplitude, orders 0 to 2 only.

    Expands the boundary contraction over all per-leaf derivative choices
    with signs, builds every leg through green_apply, and convolves modes
    directly, with no shared tables and no transform tricks.  Cost grows as
    nt^(order+1); OrderTooHigh guards the cliff.
    """
    if internal_count(b) > 2:
        raise OrderTooHigh(f"direct evaluation supports order <= 2, got {internal_count(b)}")
    if b.is_leaf:
        return bracket_ds(psi, snap)
    if psi.grid != snap.grid:
        raise GridMismatch("test function and snapshot live on different grids")
    grid = snap.grid
    upper = tgrid.node_index(snap.time)
    b1, b2 = decompose(b)
    nleaves = leaf_count(b)
    total = 0.0
    for alpha in itertools.product((0, 1), repeat=nleaves):
        alphas = iter(alpha)
        left = _slot_rows(b1, alphas, snap, tgrid, upper)
        right = _slot_rows(b2, alphas, snap, tgrid, upper)
        samples = np.zeros(upper + 1, dtype=complex)
        for j in range(upper + 1):
            prod = _mode_convolution(grid, left[j], right[j])
            psi_j = evaluate_test_function(psi, float(tgrid.nodes[j])).phi
            samples[j] = np.vdot(full_spectrum(grid, psi_j.values), prod) / grid.volume
        sign = (-1.0) ** (nleaves - sum(alpha))
        total += sign * real_part(complex(_restricted_trapezoid(samples, tgrid.dt)))
    return total



# Literal per-node and per-call loops.  The package squares whole stacks of
# node fields at once and reuses one square per solver node; these are the
# loops it replaced, one dealiased product per call, kept to check it by.
# They step on a layout: by default the solver's, the half spectrum of real
# fields that the SpectralGrid itself holds, one node at a time; or the full
# complex spectrum (FullSpectrum), where a coupling may be complex and the
# initial data are completed (full_spectrum) before the first step.


class FullSpectrum:
    """The full complex spectrum as a stepper's layout, with the interface of SpectralGrid's half-spectrum steps.

    Every column is kept: ``omega`` is :func:`full_omega`, ``square`` is
    :func:`complex_product` and ``norms`` is :func:`sobolev_norms_at` at
    the grid's q.
    """

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        self.omega = full_omega(grid)

    def square(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        sq = complex_product(self.grid, values, values)
        if out is None:
            return sq
        out[...] = sq
        return out

    def norms(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        return sobolev_norms_at(self.grid, values, self.grid.sobolev_q)

    def energies(self, phi: np.ndarray, pi: np.ndarray, forced: np.ndarray) -> np.ndarray:
        grid = self.grid
        density = 0.5 * (np.abs(pi) ** 2 + self.omega**2 * np.abs(phi) ** 2) + (np.conj(phi) * forced).real / 3.0
        return np.sum(density, axis=tuple(range(-grid.dim, 0))) / grid.volume


def _layout_tables(layout, snap: FieldSnapshot) -> tuple[np.ndarray, np.ndarray]:
    """phi and pi of a snapshot as a stepper layout holds them: completed on FullSpectrum."""
    if isinstance(layout, FullSpectrum):
        return full_spectrum(snap.grid, snap.phi.values), full_spectrum(snap.grid, snap.pi.values)
    return snap.phi.values, snap.pi.values


@dataclass(eq=False)
class SteppedTrajectory:
    """phi and pi at every node as the per-node loops return them: stacked tables of the layout's mode shape.

    On the half spectrum the tables are those of a package Trajectory; on
    FullSpectrum they hold every column, and the coupling may be complex.
    """

    tgrid: TimeGrid
    grid: SpectralGrid
    phi: np.ndarray
    pi: np.ndarray
    coupling: complex
    meta: dict = field(default_factory=dict)


def strang_with_fresh_kicks(initial, coupling, tgrid, norm_ceiling=1e6, layout=None):
    """The Strang scheme with two freshly squared half kicks per step, as a SteppedTrajectory.

    ``layout`` is the solver's half spectrum unless given, FullSpectrum for
    complex couplings.
    """
    dt = tgrid.dt
    layout = layout or initial.grid
    flow = flow_multipliers(layout.omega, dt)

    def kick(phi, pi):
        return pi - dt / 2.0 * coupling * layout.square(phi) if coupling != 0.0 else pi

    phi, pi = _layout_tables(layout, initial)
    nodes = []
    for j, time in enumerate(tgrid.nodes):
        if j:
            phi, pi = apply_flow(flow, phi, kick(phi, pi))
            pi = kick(phi, pi)
        if max(layout.norms(f) for f in (phi, pi)) > norm_ceiling:
            raise BlowUp(f"norm ceiling {norm_ceiling} exceeded at t={float(time)}")
        nodes.append((phi, pi))
    phi, pi = (np.array(tables) for tables in zip(*nodes))
    return SteppedTrajectory(tgrid, initial.grid, phi, pi, coupling)


def per_node_solve_couplings(initial, couplings, tgrid, norm_ceiling=1e6, layout=None):
    """solve_couplings as a loop that diagnoses every node as it steps.

    The same step and the same arithmetic as the package's stacked loop, but
    the acceleration, the energies, the norms, the ceiling test and the
    running max run at each node, node 0 included, so stepping stops at the
    first node that crosses.  ``layout`` is the solver's half spectrum
    unless given; on FullSpectrum a coupling may be complex.  Returns
    SteppedTrajectory objects.
    """
    grid = initial.grid
    dt = tgrid.dt
    couplings = list(couplings)
    rows = len(couplings)
    layout = layout or grid
    lead = (-1,) + (1,) * grid.dim
    kicks = np.array([dt / 2.0 * c for c in couplings]).reshape(lead)
    forcing = np.array(couplings).reshape(lead)
    c, s_over_w, w_s = flow_multipliers(layout.omega, dt)
    along = np.stack([c, c])[:, None]
    across = np.stack([s_over_w, w_s])[:, None]

    def diagnose(node, phi_sq, time):
        """Fill in the acceleration; the H^q norms of phi, pi and it, shape (3, rows), under the ceiling, and the energies."""
        forced = forcing * phi_sq
        np.multiply(-(layout.omega**2), node[0], out=node[2])
        node[2] -= forced
        energies = layout.energies(node[0], node[1], forced)
        norms = layout.norms(node)
        if not norms[:2].max() <= norm_ceiling:
            first = np.flatnonzero(~(np.maximum(norms[0], norms[1]) <= norm_ceiling))[0]
            raise BlowUp(f"norm ceiling {norm_ceiling} exceeded at t={time}", couplings[first])
        return norms, energies

    phi, pi = _layout_tables(layout, initial)
    node = np.empty((3, rows) + phi.shape, dtype=complex)
    node[0], node[1] = phi, pi
    ahead = np.empty_like(node)
    tables = np.empty((2, rows, tgrid.nnodes) + phi.shape, dtype=complex)
    tables[:, :, 0] = node[:2]
    phi_sq = layout.square(node[0])
    diagnosed = [diagnose(node, phi_sq, float(tgrid.nodes[0]))]
    kick = kicks * phi_sq
    for j in range(tgrid.nt):
        node[1] -= kick
        np.multiply(along, node[:2], out=ahead[:2])
        ahead[:2] += across * node[1::-1]
        node, ahead = ahead, node
        phi_sq = layout.square(node[0])
        kick = kicks * phi_sq
        node[1] -= kick
        diagnosed.append(diagnose(node, phi_sq, float(tgrid.nodes[j + 1])))
        tables[:, :, j + 1] = node[:2]
    node_norms, energies = zip(*diagnosed)
    peak = np.max(node_norms, axis=(0, 1))
    energies = np.transpose(energies)
    drifts = np.max(np.abs(energies - energies[:, :1]), axis=1) / np.maximum(1.0, np.abs(energies[:, 0]))
    meta = {"scheme": "strang", "dt": dt, "norm_ceiling": norm_ceiling}
    return [
        SteppedTrajectory(
            tgrid,
            grid,
            tables[0, r],
            tables[1, r],
            couplings[r],
            {**meta, "phi_e_norm": float(peak[r]), "energy_drift": float(drifts[r])},
        )
        for r in range(rows)
    ]


def acceleration(snap, coupling):
    """Second time derivative of phi from the equation of motion.

    Mode-wise -(omega^2 phi_hat) - lambda (phi^2)_hat with the dealiased
    square, i.e. the right-hand side the discrete flow actually integrates,
    on the completed table.
    """
    grid = snap.grid
    phi = full_spectrum(grid, snap.phi.values)
    accel = -(full_omega(grid) ** 2) * phi - coupling * dealiased_product(grid, phi, phi)
    return ModeArray(grid, kept_half(grid, accel))


def node_acceleration(snap, coupling):
    """-(omega^2 phi_hat) - coupling (phi^2)_hat of one node, on the half spectrum."""
    grid, phi = snap.grid, snap.phi.values
    return ModeArray(grid, -(grid.omega**2) * phi - coupling * grid.square(phi))


def per_node_field_energy_norm(traj):
    """Max over nodes of the H^q norms of phi, pi and the acceleration, node by node."""
    grid = traj.grid
    best = 0.0
    for snap in (traj.node(j) for j in range(traj.tgrid.nnodes)):
        accel = node_acceleration(snap, traj.coupling)
        best = max(best, *(float(grid.norms(f.values)) for f in (snap.phi, snap.pi, accel)))
    return best


def field_energy_norm(traj, layout=None):
    """Max over nodes of max(||phi||, ||d/dt phi||, ||d2/dt2 phi||) in H^q, after the solve.

    The second pass over a stored trajectory that the solver's in-loop
    norms replaced: one stacked square of every node field, the
    acceleration from the equation of motion, and the three norms, all on
    the tables of ``layout``, the solver's unless given.
    """
    layout = layout or traj.grid
    accel = -(layout.omega**2) * traj.phi - traj.coupling * layout.square(traj.phi)
    return float(max(layout.norms(values).max() for values in (traj.phi, traj.pi, accel)))


def node_energies(traj: Trajectory) -> np.ndarray:
    """Box integral of 1/2 pi^2 + 1/2 |grad phi|^2 + 1/2 m^2 phi^2 + (lambda/3) phi^3 at every node.

    The second pass over a stored trajectory that the solver's in-loop
    energies replaced: the cubic term uses the dealiased square, matching
    the truncated dynamics, whose continuous-time flow conserves exactly
    this quantity, and one stacked square on the full spectrum covers
    every node field, each completed from its half (full_spectrum).
    """
    grid, coupling = traj.grid, traj.coupling
    phi, pi = full_spectrum(grid, traj.phi), full_spectrum(grid, traj.pi)
    n = len(phi)
    quad = 0.5 * (np.abs(pi) ** 2 + (grid.mass**2 + full_k_squared(grid)) * np.abs(phi) ** 2)
    total = np.sum(quad.reshape(n, -1), axis=1) / grid.volume
    if coupling != 0.0:
        phi_sq = dealiased_product(grid, phi, phi)
        # np.vdot(phi, phi^2) of every row, batched: BLAS sums it in the same order
        pairs = np.matmul(np.conj(phi).reshape(n, 1, -1), phi_sq.reshape(n, -1, 1))[:, 0, 0]
        total = total + coupling / 3.0 * (pairs / grid.volume).real
    return total


def node_energy(snap, coupling):
    """Energy of one node, completed, with its own square and an np.vdot pairing."""
    grid = snap.grid
    phi, pi = full_spectrum(grid, snap.phi.values), full_spectrum(grid, snap.pi.values)
    quad = 0.5 * (np.abs(pi) ** 2 + (grid.mass**2 + full_k_squared(grid)) * np.abs(phi) ** 2)
    total = float(np.sum(quad) / grid.volume)
    if coupling != 0.0:
        phi_sq = dealiased_product(grid, phi, phi)
        total += coupling / 3.0 * complex(np.vdot(phi, phi_sq) / grid.volume).real
    return total


def per_trial_algebra_constant(grid, trials=200, seed=0):
    """1.5 times the largest product norm ratio, one drawn pair at a time, through the band pair.

    Each field and each product is scattered into a zero half spectrum of
    its own and measured by SpectralGrid.norms, as the stacked estimate
    measures its chunks.
    """
    rng = np.random.default_rng(seed)

    def band_field(samples):
        """The samples' band in a zero half spectrum of its own, and its point values."""
        half = np.zeros(grid.half_shape, dtype=complex)
        return half, band_values(grid, band_modes(grid, samples), half)

    best = 0.0
    for _ in range(trials):
        f, x = band_field(_localized_samples(grid, rng, 1)[0])
        g, y = band_field(_localized_samples(grid, rng, 1)[0])
        nf, ng = float(grid.norms(f)), float(grid.norms(g))
        if nf == 0.0 or ng == 0.0:
            continue
        best = max(best, float(grid.norms(band_field(x * y)[0])) / (nf * ng))
    return 1.5 * best


def full_spectrum_algebra_constant(grid, trials=200, seed=0):
    """1.5 times the largest product norm ratio, one drawn pair at a time, on the full spectrum.

    The estimate the package ran before it formed its pairs through the
    band pair: the same draws, full-spectrum transforms and norms.
    """
    rng = np.random.default_rng(seed)
    q = grid.sobolev_q
    best = 0.0
    for _ in range(trials):
        f = _localized_modes(grid, rng)
        g = _localized_modes(grid, rng)
        nf, ng = float(sobolev_norms_at(grid, f, q)), float(sobolev_norms_at(grid, g, q))
        if nf == 0.0 or ng == 0.0:
            continue
        best = max(best, float(sobolev_norms_at(grid, dealiased_product(grid, f, g), q)) / (nf * ng))
    return 1.5 * best


def per_draw_localized_samples(grid, rng):
    """Grid samples of one random localized envelope, built axis by axis."""
    narrow = np.log(2.0 * grid.spacing)
    width = np.exp(rng.uniform(narrow, max(narrow, np.log(grid.extent / 8.0))))
    center = rng.uniform(0.0, grid.extent, size=grid.dim)
    samples = np.ones(grid.shape)
    for axis in range(grid.dim):
        d = grid.axis_points - center[axis]
        d = (d + grid.extent / 2.0) % grid.extent - grid.extent / 2.0
        shape = [1] * grid.dim
        shape[axis] = grid.modes
        samples = samples * np.exp(-(d**2) / (2.0 * width**2)).reshape(shape)
    if rng.integers(0, 2):
        samples = samples * rng.standard_normal(grid.shape)
    return samples


# The paper's bound checks, which only the acceptance gate and the tests
# run: the first-order bound, the charge-balance defect and the sampled
# operator-norm bound.  The defect and the sampled tree functional run on
# the stacked kernel pair's whole-range suffix sums (pair_suffix_sums),
# each beside the per-node loop that checks it; criterion 07 needs the
# stacked legs, since the per-node ones make O(nnodes^2) green_apply calls.


def first_order_bound(
    coupling: float, s: float, mass: float, c_q: float, phi_e_norm: float, psi_norm: float
) -> float:
    """Bound on the residual after the order-1 truncation of the series."""
    lam = abs(coupling)
    return (
        lam**2
        * (
            s**2 * c_q**2 / mass * phi_e_norm**3
            + lam * s**3 * c_q**3 / (3.0 * mass**2) * phi_e_norm**4
        )
        * psi_norm
    )


def p_residual(psi: TestFunction, trajectory: Trajectory, s: float) -> float:
    """Defect of the integrated charge balance along a computed trajectory.

    B(s) - B(0) + integral over [0, s] of <psi(tau), (box + m^2) phi(tau)>
    vanishes for linear psi; the equation supplies (box + m^2) phi as
    -lambda phi^2 (dealiased).  The integral is the bracket at t = 0 of psi
    with the Duhamel datum of phi^2, row 0 of its suffix sums.  The return
    value is the absolute defect, limited by solver and quadrature error
    only.
    """
    tgrid = trajectory.tgrid
    j_s = tgrid.node_index(s)
    grid = trajectory.grid
    b_s = bracket_ds(psi, trajectory.node(j_s))
    b_0 = bracket_ds(psi, trajectory.node(0))
    phi = full_spectrum(grid, trajectory.phi[: j_s + 1])
    phi_sq = dealiased_product(grid, phi, phi)
    sums = pair_suffix_sums(kernel_pair(full_omega(grid), tgrid.nodes[: j_s + 1]) * phi_sq, tgrid)
    integral = brackets(psi, 0.0, kept_half(grid, _t0_field(sums[:, 0]))[None])[0]
    return abs(b_s - b_0 - trajectory.coupling * integral)


def per_node_p_residual(psi, traj, s):
    """Charge-balance defect with one product and one free-flow call per node."""
    tgrid = traj.tgrid
    j_s = tgrid.node_index(s)

    def bracket(snap):
        at = free_evolve(FieldSnapshot(0.0, psi.psi0, psi.psi1), snap.time)
        return (pair_modes(at.pi, snap.phi) - pair_modes(at.phi, snap.pi)).real

    samples = np.zeros(tgrid.nnodes)
    for j in range(j_s + 1):
        snap = traj.node(j)
        phi_sq = pointwise_product(snap.phi, snap.phi)
        psi_j = free_evolve(FieldSnapshot(0.0, psi.psi0, psi.psi1), float(tgrid.nodes[j])).phi
        samples[j] = pair_modes(psi_j, phi_sq).real
    window = -traj.coupling * samples[: j_s + 1]
    integral = (window.sum() - 0.5 * (window[0] + window[-1])) * tgrid.dt
    return abs(bracket(traj.node(j_s)) - bracket(traj.node(0)) + integral)


@dataclass(frozen=True)
class DeltaNormCheck:
    """Result of a sampled operator-norm bound check; truthy iff it held."""

    ok: bool
    ratio: float
    bound: float

    def __bool__(self) -> bool:
        return self.ok


def delta_norm_bound_check(
    b: Tree,
    psi: TestFunction,
    tgrid: TimeGrid,
    c_q: float,
    samples: int = 12,
    seed: int = 0,
) -> DeltaNormCheck:
    """Sampled check of the operator-norm growth bound (C_q M T)^order.

    The tree functional built on psi is multilinear in one field per leaf;
    we feed it random unit-norm H^q fields at random node times and both
    kernel derivative orders, and compare the largest |value| / ||psi||
    ratio against the bound.  A value is the bracket of psi with the
    tree's t = 0 field.  Orders up to 3; the ratio can only grow with more
    samples.
    """
    order = internal_count(b)
    if order > 3:
        raise OrderTooHigh(f"bound check supports order <= 3, got {order}")
    grid = psi.grid
    rng = np.random.default_rng(seed)
    psi_norm = test_function_sup_norm(psi, tgrid)
    if psi_norm == 0.0:
        raise ValueError("test function is identically zero")
    pair = kernel_pair(full_omega(grid), tgrid.nodes)
    ratio = 0.0
    for _ in range(samples):
        drawn = []
        for _ in range(leaf_count(b)):
            f = random_band_limited(grid, rng)
            f.values /= sobolev_norm(f)
            drawn.append((int(rng.integers(0, tgrid.nt + 1)), int(rng.integers(0, 2)), f))
        _, at_zero, _ = _sampled_legs(b, iter(drawn), grid, tgrid, pair)
        ratio = max(ratio, abs(brackets(psi, 0.0, kept_half(grid, at_zero)[None])[0]) / psi_norm)
    m_factor = max(1.0 / grid.mass, 1.0)
    bound = (c_q * m_factor * tgrid.horizon) ** order
    return DeltaNormCheck(ratio <= bound, ratio, bound)


def _sampled_legs(
    b: Tree,
    legs,
    grid: SpectralGrid,
    tgrid: TimeGrid,
    pair: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Rows, t = 0 field (w(0), d/dt w(0)) and support cutoff of one subtree with sampled leaf legs.

    ``pair`` is the kernel pair (sin(tau omega)/omega and cos(tau omega)) of
    the full spectrum over every node.  A leaf's rows span every node; a
    subtree's stop at its cutoff, and its t = 0 field is row 0 of its
    suffix sums.  Every table is full-spectrum, the leaves' completed.
    """
    if b.is_leaf:
        t_index, order, f = next(legs)
        c, s_over_w, w_s = flow_multipliers(full_omega(grid), tgrid.nodes[t_index] - tgrid.nodes)
        # G0 rows sin((t - tau) omega)/omega f or G1 rows cos((t - tau) omega) f, and their tau derivatives
        kernel, slope = (s_over_w, -c) if order == 0 else (c, -w_s)
        values = full_spectrum(grid, f.values)
        rows = kernel * values
        rows[t_index + 1 :] = 0.0
        return rows, np.stack([rows[0], slope[0] * values]), t_index
    b1, b2 = decompose(b)
    left, _, u1 = _sampled_legs(b1, legs, grid, tgrid, pair)
    right, _, u2 = _sampled_legs(b2, legs, grid, tgrid, pair)
    upper = min(u1, u2)
    prod = dealiased_product(grid, left[: upper + 1], right[: upper + 1])
    kernels = pair[:, : upper + 1]
    weighted = kernels * prod
    sums = pair_suffix_sums(weighted, tgrid)
    return _retarded_table(kernels, sums, weighted), _t0_field(sums[:, 0]), upper


def _per_node_legs(b, legs, tgrid):
    """One subtree's leg at the nodes up to its cutoff, one ModeArray per node, and the cutoff.

    A leaf (t_index, order, f) is G0 (order 0) or G1 (order 1) from the
    leaf's node t to each node tau, by one green_apply call per node; a
    subtree integrates G0 of its children's pointwise products node by node.
    """
    if b.is_leaf:
        t_index, order, f = next(legs)
        t = float(tgrid.nodes[t_index])
        return [green_apply(("G0", "G1")[order], t, float(tau), f) for tau in tgrid.nodes[: t_index + 1]], t_index
    b1, b2 = decompose(b)
    left, u1 = _per_node_legs(b1, legs, tgrid)
    right, u2 = _per_node_legs(b2, legs, tgrid)
    upper = min(u1, u2)
    prods = [pointwise_product(left[i], right[i]) for i in range(upper + 1)]
    rows = []
    for j, tau in enumerate(tgrid.nodes[: upper + 1]):
        kernel_rows = [green_apply("G0", float(t), float(tau), p).values for t, p in zip(tgrid.nodes, prods)]
        rows.append(ModeArray(prods[0].grid, time_integral(np.stack(kernel_rows), tgrid, j, upper)))
    return rows, upper


def per_node_sampled_value(b, drawn, psi, tgrid):
    """The tree functional of delta_norm_bound_check on one draw of leaf legs, node by node.

    ``drawn`` lists (t_index, order, f) per leaf, in leaf order.  A leaf
    tree pairs psi (order 0) or d/dt psi (order 1) at its node with f; any
    other tree integrates <psi(tau), product of its children's legs> over
    [0, tau_cutoff] with one pairing per node.
    """
    legs = iter(drawn)
    if b.is_leaf:
        t_index, order, f = next(legs)
        at = evaluate_test_function(psi, float(tgrid.nodes[t_index]))
        return real_part(pair_modes((at.phi, at.pi)[order], f))
    b1, b2 = decompose(b)
    left, u1 = _per_node_legs(b1, legs, tgrid)
    right, u2 = _per_node_legs(b2, legs, tgrid)
    upper = min(u1, u2)
    psi_rows = (evaluate_test_function(psi, float(tau)).phi for tau in tgrid.nodes[: upper + 1])
    pairings = [real_part(pair_modes(row, pointwise_product(left[i], right[i]))) for i, row in enumerate(psi_rows)]
    return float(time_integral(np.array(pairings), tgrid, 0, upper))


# The order recursion on the full complex spectrum, as the package ran it
# before it moved to the band of the real half spectrum: every table keeps
# all N^dim complex columns, and the phase table is rebuilt for each
# retarded integral.


def _full_retarded_integral(grid, tgrid, prod, upper):
    omega = full_omega(grid)
    ph = tgrid.nodes.reshape((-1,) + (1,) * grid.dim) * omega
    sin_sum = suffix_time_integral(np.sin(ph) * prod, tgrid, upper)
    cos_sum = suffix_time_integral(np.cos(ph) * prod, tgrid, upper)
    return (np.cos(ph) * sin_sum - np.sin(ph) * cos_sum) / omega


def _full_order_products(snap, tgrid, max_order):
    grid = snap.grid
    upper = tgrid.node_index(snap.time)
    points = [grid_values(grid, leaf_table(snap, tgrid).values)]
    for order in range(1, max_order + 1):
        prod = dealiased_modes(grid, sum(points[i] * points[order - 1 - i] for i in range(order)))
        yield prod
        if order < max_order:
            points.append(grid_values(grid, _full_retarded_integral(grid, tgrid, prod, upper)))


def full_spectrum_order_amplitudes(psi, snap, tgrid, max_order):
    """Sum of tree amplitudes per order, order 0 first, on the full complex spectrum."""
    upper = tgrid.node_index(snap.time)
    psi_rows = _test_function_rows(psi, tgrid)
    return [bracket_ds(psi, snap)] + [
        pairing_integral(snap.grid, tgrid, prod, psi_rows, upper)
        for prod in _full_order_products(snap, tgrid, max_order)
    ]


# The band recursion with every table over all nodes of the time grid, as the
# package ran it before it cut its tables to the nodes up to s: rows past s
# are built and transformed, and the suffix sums then skip them.


def all_rows_order_amplitudes(psi, snap, tgrid, max_order):
    """Sum of tree amplitudes per order, order 0 first, from tables over every node.

    Each order is paired as the package pairs it: the bracket at t = 0 of
    psi with the order's t = 0 field.
    """
    grid = snap.grid
    upper = tgrid.node_index(snap.time)
    flow = flow_multipliers(grid.band_omega, tgrid.nodes)
    c, s_over_w, w_s = flow_multipliers(grid.omega, tgrid.nodes - snap.time)
    phi, pi = snap.phi.values, snap.pi.values
    fields = np.zeros((max_order + 1, 2) + grid.half_shape, dtype=complex)
    fields[0] = c[0] * phi + s_over_w[0] * pi, w_s[0] * phi + c[0] * pi
    half = np.zeros((len(tgrid.nodes),) + grid.half_shape, dtype=complex)
    points = [half_spectrum_values(grid, c * phi + s_over_w * pi)]
    for order in range(1, max_order + 1):
        prod = band_modes(grid, sum(points[i] * points[order - 1 - i] for i in range(order)))
        table, datum = retarded_integral(flow, tgrid, prod, upper)
        fields[order][(Ellipsis,) + band_index(grid)] = datum
        if order < max_order:
            points.append(band_values(grid, table, half))
    return brackets(psi, 0.0, fields)


def whole_axis_order_fields(slices, tgrid: TimeGrid, max_order: int) -> np.ndarray:
    """The order fields at t = 0 of every slice, with every table holding every node up to s.

    The recursion the package ran before it walked the nodes in blocks:
    one slice at a time, one suffix_time_integral call per order over the
    whole range (pair_suffix_sums), so it shares no summation code with the
    package's carried sums.  The blocked recursion, series._order_fields,
    must give these fields bit for bit.
    """
    grid, s = slices[0].grid, slices[0].time
    upper = tgrid.node_index(s)
    omega = grid.omega
    nodes = tgrid.nodes[: upper + 1]
    c, s_over_w = flow_multipliers(omega, nodes - s)[:2]
    to_zero = flow_multipliers(omega, -s)
    pair = kernel_pair(grid.band_omega, nodes)
    band = (Ellipsis,) + band_index(grid)
    fields = np.zeros((len(slices), max_order + 1, 2) + grid.half_shape, dtype=complex)
    weighted = np.empty(pair.shape, dtype=complex)
    sums = np.empty_like(weighted)
    half = np.zeros((upper + 1,) + grid.half_shape, dtype=complex)
    for snap, out in zip(slices, fields):
        phi, pi = snap.phi.values, snap.pi.values
        out[0] = apply_flow(to_zero, phi, pi)
        points = [half_spectrum_values(grid, c * phi + s_over_w * pi)]
        for order in range(1, max_order + 1):
            total = points[0] * points[order - 1]
            for i in range(1, order):
                total += points[i] * points[order - 1 - i]
            if order == max_order:
                points.clear()
            np.multiply(pair, band_modes(grid, total), out=weighted)
            del total
            out[order][band] = _t0_field(pair_suffix_sums(weighted, tgrid, sums)[:, 0])
            if order < max_order:
                points.append(band_values(grid, _retarded_table(pair, sums, weighted), half))
    return fields


# Two witnesses of the identity the series rests on: the order-n term of the
# tree series is (-1)^n times the coefficient of lambda^n in the Taylor
# series of the Strang flow run backward from the slice at s to t = 0.  The
# Cauchy witness samples that flow at complex couplings on a circle and takes
# the DFT in lambda; it steps as the package's solver does, on the full
# complex spectrum (FullSpectrum), and shares no code with the series.  The jet steps the Taylor coefficients themselves,
# one order per row, through a plain per-step loop.


def reversed_flow(snap, tgrid, couplings):
    """The data at t = 0 that the Strang flow reaches from the slice at s, one row per coupling.

    (phi(s), -pi(s)) is solved over [0, s] as one
    :func:`per_node_solve_couplings` stack on the full complex spectrum, so
    that a coupling may be complex; each row's data at s, reversed to
    (phi, -pi), is the backward flow's.  Shape ``(rows, 2, *grid.shape)``,
    full-spectrum mode tables.
    """
    grid = snap.grid
    upper = tgrid.node_index(snap.time)
    start = FieldSnapshot(0.0, snap.phi, ModeArray(grid, -snap.pi.values))
    solved = per_node_solve_couplings(start, couplings, TimeGrid(snap.time, upper), layout=FullSpectrum(grid))
    return np.array([[t.phi[-1], -t.pi[-1]] for t in solved])


def charges_at_zero(psi, fields):
    """<psi1, phi> - <psi0, pi> for each row (phi, pi) of stacked t = 0 data, complex.

    The pairing is bilinear in the field (psi's modes are conjugated, the
    field's are not), so it is analytic in a complex coupling; for a real
    field it is the bracket at t = 0.
    """
    psi0, psi1 = (full_spectrum(psi.grid, f.values) for f in (psi.psi0, psi.psi1))
    pairs = [np.vdot(psi1, phi) - np.vdot(psi0, pi) for phi, pi in fields]
    return np.array(pairs) / psi.grid.volume


def reversed_flow_charge(psi, snap, tgrid, couplings):
    """The charge at t = 0 of :func:`reversed_flow` per coupling, complex."""
    return charges_at_zero(psi, reversed_flow(snap, tgrid, couplings))


def _coupling_circle(radius, points):
    return radius * np.exp(2j * np.pi * np.arange(points) / points)


def _taylor_coefficients(samples, radius):
    """Coefficients n = 0..points-1 in lambda from samples on :func:`_coupling_circle`, by the DFT.

    Coefficient n carries the aliased c_{n + points} radius^points and
    rounding of the samples' size over radius^n.
    """
    points = len(samples)
    scale = radius ** np.arange(points).reshape((-1,) + (1,) * (np.ndim(samples) - 1))
    return np.fft.fft(samples, axis=0) / points / scale


def cauchy_order_fields(snap, tgrid, radius, points):
    """The Taylor coefficients in lambda of :func:`reversed_flow`, shape ``(points, 2, *grid.shape)``."""
    return _taylor_coefficients(reversed_flow(snap, tgrid, _coupling_circle(radius, points)), radius)


def cauchy_order_sums(psi, snap, tgrid, radius, points):
    """The Taylor coefficients in lambda of :func:`reversed_flow_charge`, complex."""
    return _taylor_coefficients(reversed_flow_charge(psi, snap, tgrid, _coupling_circle(radius, points)), radius)


def jet_order_fields(snap, tgrid, max_order):
    """The Taylor coefficients in lambda of the backward Strang flow, stepped directly.

    Orders 0..max_order of (phi, pi) start from (phi(s), -pi(s)) and zero,
    and take the solver's step from s to t = 0: a half kick, the free flow
    and a half kick, where order n kicks by -(dt/2) times the dealiased sum
    of phi_i phi_j over i + j = n - 1.  Returns (phi_n, -pi_n) at t = 0,
    shape ``(max_order + 1, 2, *grid.shape)``.
    """
    grid = snap.grid
    dt = tgrid.dt
    phi = np.zeros((max_order + 1,) + grid.shape, dtype=complex)
    pi = np.zeros_like(phi)
    phi[0], pi[0] = full_spectrum(grid, snap.phi.values), -full_spectrum(grid, snap.pi.values)

    def kick():
        points = grid_values(grid, phi)
        for n in range(1, max_order + 1):
            pi[n] -= dt / 2.0 * dealiased_modes(grid, sum(points[i] * points[n - 1 - i] for i in range(n)))

    for _ in range(tgrid.node_index(snap.time)):
        kick()
        phi, pi = free_flow(grid, phi, pi, dt)
        kick()
    return np.stack([phi, -pi], axis=1)
