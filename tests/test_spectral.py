"""Grid, transform, norm, and product layer."""

import numpy as np
import pytest

from kgcharge.spectral import (
    FieldSnapshot,
    GridMismatch,
    ModeArray,
    SizeMismatch,
    SpectralGrid,
    band_modes,
    band_values,
    estimate_algebra_constant,
    evaluate_at,
    random_band_limited,
    scatter_band,
    sobolev_norm,
    to_modes,
)
from kgcharge import spectral
from kgcharge.solver import gaussian_field
import oracles
from oracles import (
    _mode_convolution,
    band_index,
    complex_product,
    dealiased_modes,
    dealiased_product,
    folded_convolution,
    full_band_mask,
    full_k_squared,
    full_keep_mask,
    full_omega,
    full_spectrum,
    full_spectrum_algebra_constant,
    full_sum_evaluate_at,
    grid_values,
    hermitian_defect,
    kept_half,
    pair_modes,
    per_draw_localized_samples,
    per_trial_algebra_constant,
    pointwise_product,
    random_localized_field,
    rfftn_square,
    signed_mode_index,
    sobolev_norms_at,
    to_grid,
    zero_modes,
)


def full_draw(grid, rng):
    """The full-spectrum table of a random band-limited field."""
    return full_spectrum(grid, random_band_limited(grid, rng).values)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(dim=0)
    with pytest.raises(ValueError):
        SpectralGrid(extent=0.0)
    with pytest.raises(ValueError):
        SpectralGrid(modes=6)
    with pytest.raises(ValueError):
        SpectralGrid(modes=33)
    with pytest.raises(ValueError):
        SpectralGrid(mass=0.0)
    with pytest.raises(ValueError, match="q > n/2"):
        SpectralGrid(sobolev_q=0)
    # finite, but omega squares the mass and the volume is extent**dim
    with pytest.raises(ValueError, match=r"mass\*\*2 overflows"):
        SpectralGrid(mass=1e200)
    with pytest.raises(ValueError, match=r"extent\*\*2 overflows"):
        SpectralGrid(dim=2, extent=1e200, modes=8, sobolev_q=2)


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"mass": 1e-200, "modes": 16}, r"mass\*\*2 underflows to 0"),
        ({"extent": 1e-155, "modes": 16}, r"m\*\*2 \+ \|k\|\*\*2 overflows"),
        # each axis' |k|**2 is finite, their sum is not
        ({"dim": 2, "extent": 4e-153, "modes": 16, "sobolev_q": 2}, r"m\*\*2 \+ \|k\|\*\*2 overflows"),
    ],
    ids=["mass", "extent", "extent-in-two-dimensions"],
)
def test_grid_refuses_a_dispersion_relation_that_leaves_the_floats(grid, message):
    # a finite mass or extent whose square underflows or overflows inside omega
    with pytest.raises(ValueError, match=message):
        SpectralGrid(**grid)


def test_grid_accepts_the_extremes_whose_dispersion_relation_is_finite():
    assert SpectralGrid(mass=1e-150, modes=16).omega[0] > 0
    assert np.isfinite(SpectralGrid(extent=4e-153, modes=16).omega).all()


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"extent": 1e155}, r"extent\*\*2 overflows"),
        ({"dim": 2, "extent": 1e78, "modes": 8, "sobolev_q": 2}, r"extent\*\*4 overflows"),
        ({"sobolev_q": 154}, r"\(1 \+ \|k\|\*\*2\)\*\*q overflows"),
        ({"modes": 10**19}, "exceed what numpy can address"),
        ({"dim": 30, "sobolev_q": 16}, "exceed what numpy can address"),
    ],
    ids=["volume-squared", "volume-squared-in-two-dimensions", "sobolev-weight", "modes", "dim"],
)
def test_grid_refuses_squares_past_the_floats_and_arrays_past_numpy(grid, message):
    # the square of volume-scaled mode values, the Sobolev weight at the
    # highest mode, and modes**dim complex entries past numpy's byte limit
    with pytest.raises(ValueError, match=message):
        SpectralGrid(**grid)


def test_grid_accepts_the_extremes_whose_squares_and_arrays_fit():
    # one step inside each bound above
    assert SpectralGrid(extent=1e154).volume ** 2 > 1e307
    assert SpectralGrid(dim=2, extent=1e77, modes=8, sobolev_q=2).volume ** 2 > 1e307
    # (1 + |k|**2)**153 at the desk grid's highest mode is about 2e307
    assert np.isfinite(SpectralGrid(sobolev_q=153).sobolev_weights).all()
    assert SpectralGrid(modes=2**58).npoints * 16 <= np.iinfo(np.intp).max


def test_grid_bookkeeping(small_grid):
    g = small_grid
    assert g.shape == (32,)
    assert g.volume == pytest.approx(20.0)
    assert g.spacing == pytest.approx(0.625)
    assert g.dealias_bound == (32 - 1) // 3
    np.testing.assert_array_equal(g.mode_index, signed_mode_index(32))
    # the kept band is symmetric under k -> -k; a half mask has no mirrored
    # columns, so the check runs on the full one
    mask = full_keep_mask(g)
    np.testing.assert_array_equal(mask, mask[(-np.arange(32)) % 32])


# The desk grid and the 1-D 30, 2-D 16^2 and 3-D 8^3 grids of the output checks
TABLE_GRIDS = [
    SpectralGrid(),
    SpectralGrid(dim=1, extent=20.0, modes=30, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
    SpectralGrid(dim=3, extent=8.0, modes=8, mass=1.0, sobolev_q=2),
]


@pytest.mark.parametrize("grid", TABLE_GRIDS, ids=["desk", "1d-30", "2d-16", "3d-8"])
def test_the_grid_tables_are_the_kept_half_of_the_full_tables(grid):
    # the oracles build the full tables on their own; a band mask of 2 on a
    # leading axis and of the whole half on the last pins the order of the
    # N-D mask's outer product
    tables = [
        (grid.k_squared, full_k_squared(grid)),
        (grid.omega, full_omega(grid)),
        (grid.sobolev_weights, (1.0 + full_k_squared(grid)) ** grid.sobolev_q),
        (grid.keep_mask, full_keep_mask(grid)),
        (grid.band_mask(2), full_band_mask(grid, 2)),
        (grid.band_mask(grid.dealias_bound), full_band_mask(grid, grid.dealias_bound)),
    ]
    for half, full in tables:
        assert half.shape == grid.half_shape
        assert np.array_equal(half, kept_half(grid, full))
    bound = grid.dealias_bound
    assert grid.band_omega.shape == (2 * bound + 1,) * (grid.dim - 1) + (bound + 1,)
    assert np.array_equal(grid.band_omega, full_omega(grid)[band_index(grid)])


def test_a_grid_keeps_its_equality_and_hash_once_its_tables_are_built(rng):
    # transport matches a trajectory's grid to the config's with !=, and a
    # snapshot checks that phi and pi share one grid
    fields = {"dim": 2, "extent": 10.0, "modes": 16, "mass": 1.0, "sobolev_q": 2}
    grid, fresh = SpectralGrid(**fields), SpectralGrid(**fields)
    f = random_band_limited(grid, rng)
    assert "_weights" not in vars(grid)
    norm = sobolev_norm(f)
    weights = vars(grid)["_weights"]
    # the second norm reads the weight tables the first one built
    assert sobolev_norm(f) == norm
    assert vars(grid)["_weights"] is weights
    grid.energies(f.values, f.values, grid.square(f.values))
    tables = ("k_squared", "omega", "sobolev_weights", "keep_mask", "band_boxes", "band_omega", "_fold", "_weights")
    for name in tables:
        getattr(grid, name)
    assert set(tables) <= set(vars(grid))
    assert not set(tables) & set(vars(fresh))
    assert grid == fresh and hash(grid) == hash(fresh)
    assert grid != SpectralGrid(**{**fields, "sobolev_q": 3})
    FieldSnapshot(0.0, f, ModeArray(fresh, f.values))


def test_transform_roundtrip(small_grid, rng):
    samples = rng.standard_normal(small_grid.shape)
    back = to_grid(to_modes(small_grid, samples))
    np.testing.assert_allclose(back, samples, atol=1e-12)


def test_transform_scaling_on_a_single_mode(small_grid):
    # With the integral normalization, cos(k1 x) has coefficient V/2 at +-k1.
    x = small_grid.axis_points
    k1 = 2.0 * np.pi / small_grid.extent
    f = to_modes(small_grid, np.cos(k1 * x))
    # the half spectrum keeps +k1 alone
    expected = np.zeros(small_grid.half_shape, dtype=complex)
    expected[1] = small_grid.volume / 2.0
    np.testing.assert_allclose(f.values, expected, atol=1e-10)


def test_to_modes_rejects_wrong_shape(small_grid):
    with pytest.raises(SizeMismatch):
        to_modes(small_grid, np.zeros(33))
    with pytest.raises(SizeMismatch):
        ModeArray(small_grid, np.zeros(31, dtype=complex))
    # fftn output is a full spectrum, which would pair into wrong brackets
    square = SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2)
    for grid in (small_grid, square):
        full = np.fft.fftn(np.ones(grid.shape))
        with pytest.raises(SizeMismatch, match="half_shape"):
            ModeArray(grid, full)
        assert ModeArray(grid, full[..., : grid.modes // 2 + 1]).values.shape == grid.half_shape


def test_pair_modes_is_the_space_integral(small_grid, rng):
    f = random_band_limited(small_grid, rng)
    g = random_band_limited(small_grid, rng)
    # band-limited integrands make the Riemann sum on the grid exact
    direct = small_grid.spacing * (to_grid(f) * to_grid(g)).sum()
    assert complex(pair_modes(f, g)) == pytest.approx(direct, rel=1e-12)


def test_sobolev_norm_closed_form(small_grid):
    # the norm at the grid's q: small_grid's q = 1, and the same box at q = 2
    for grid in (small_grid, SpectralGrid(dim=1, extent=small_grid.extent, modes=small_grid.modes, sobolev_q=2)):
        x = grid.axis_points
        k1 = 4.0 * np.pi / grid.extent
        f = to_modes(grid, np.cos(k1 * x))
        # ||cos(k x)||_{H^q}^2 = (1 + k^2)^q V / 2
        expected = np.sqrt((1.0 + k1**2) ** grid.sobolev_q) * np.sqrt(grid.volume / 2.0)
        assert sobolev_norm(f) == pytest.approx(expected, rel=1e-12)


def test_dual_norm_is_weaker(small_grid, rng):
    f = random_band_limited(small_grid, rng)
    assert small_grid.sobolev_q == 1
    dual, plain = (float(sobolev_norms_at(small_grid, full_spectrum(small_grid, f.values), q)) for q in (-1, 0))
    assert dual <= plain <= sobolev_norm(f)


def test_pointwise_product_matches_folded_convolution(small_grid, rng):
    f = random_band_limited(small_grid, rng)
    g = random_band_limited(small_grid, rng)
    prod = pointwise_product(f, g)
    oracle = folded_convolution(*(full_spectrum(small_grid, h.values) for h in (f, g)), small_grid.volume)
    np.testing.assert_allclose(prod.values, kept_half(small_grid, oracle), atol=1e-12)


def test_stacked_product_matches_folded_convolution_row_by_row(small_grid, rng):
    a = np.stack([full_draw(small_grid, rng) for _ in range(5)])
    b = np.stack([full_draw(small_grid, rng) for _ in range(5)])
    prod = dealiased_product(small_grid, a, b)
    assert prod.shape == a.shape
    for row_a, row_b, row in zip(a, b, prod):
        np.testing.assert_allclose(row, folded_convolution(row_a, row_b, small_grid.volume), atol=1e-12)


@pytest.mark.parametrize("real", [True, False])
def test_two_dimensional_stacked_product_matches_mode_convolution(rng, real):
    # complex fields take the oracles' complex product, real ones the package's
    grid = SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2)
    if real:
        draw = lambda: full_draw(grid, rng)
    else:
        draw = lambda: rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    a = np.stack([draw() for _ in range(3)])
    b = np.stack([draw() for _ in range(3)])
    prod = (dealiased_product if real else complex_product)(grid, a, b)
    for row_a, row_b, row in zip(a, b, prod):
        np.testing.assert_allclose(row, _mode_convolution(grid, row_a, row_b), atol=1e-12)


def test_product_of_kept_cosines_is_alias_free(small_grid):
    # k1 + k2 stays inside the kept band, so the product must be exact:
    # cos a cos b = (cos(a+b) + cos(a-b)) / 2.
    x = small_grid.axis_points
    base = 2.0 * np.pi / small_grid.extent
    j1, j2 = 4, 6
    f = to_modes(small_grid, np.cos(j1 * base * x))
    g = to_modes(small_grid, np.cos(j2 * base * x))
    prod = to_grid(pointwise_product(f, g))
    expected = 0.5 * (np.cos((j1 + j2) * base * x) + np.cos((j1 - j2) * base * x))
    np.testing.assert_allclose(prod, expected, atol=1e-12)


def test_product_outside_the_band_is_dropped(small_grid):
    x = small_grid.axis_points
    base = 2.0 * np.pi / small_grid.extent
    j = small_grid.dealias_bound
    f = to_modes(small_grid, np.cos(j * base * x))
    prod = pointwise_product(f, f)
    # 2 j falls outside the kept band; only the zero mode survives.  -2 j
    # aliases to 32 - 2 j, which the half spectrum keeps
    assert abs(prod.values[32 - 2 * j]) < 1e-12
    assert prod.values[0].real == pytest.approx(small_grid.volume / 2.0, rel=1e-12)


def test_hermitian_defect(small_grid, rng):
    f = to_modes(small_grid, rng.standard_normal(small_grid.shape))
    assert hermitian_defect(f) < 1e-12
    broken = f.values.copy()
    # the half spectrum can break the symmetry only in a self-conjugate column
    broken[0] += 1.0j
    assert hermitian_defect(ModeArray(small_grid, broken)) > 0.1


def test_evaluate_at_grid_points_and_off_grid(small_grid, rng):
    f = random_band_limited(small_grid, rng)
    samples = to_grid(f)
    x3 = small_grid.axis_points[3]
    assert evaluate_at(f, x3) == pytest.approx(samples[3], rel=1e-10, abs=1e-12)
    k1 = 2.0 * np.pi / small_grid.extent
    g = to_modes(small_grid, np.cos(k1 * small_grid.axis_points))
    assert evaluate_at(g, 0.3) == pytest.approx(np.cos(k1 * 0.3), abs=1e-10)


@pytest.mark.parametrize(
    "grid",
    [
        SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
        SpectralGrid(dim=3, extent=8.0, modes=8, mass=1.0, sobolev_q=2),
    ],
    ids=["2d-16", "3d-8"],
)
def test_evaluate_at_matches_the_full_sum_off_the_grid(grid, rng):
    # a Gaussian of width 2 carries Nyquist content, where index modes/2 of
    # a leading axis is its own mirror and keeps the wavenumber -k_N
    f = gaussian_field(grid, 1.0, 2.0, 3.0)
    full = full_spectrum(grid, f.values)
    scale = np.abs(full).sum() / grid.volume
    assert np.abs(f.values[grid.modes // 2]).max() > 1e-12 * scale
    assert np.abs(f.values[..., -1]).max() > 1e-12 * scale
    for x in [np.full(grid.dim, 3.0)] + list(rng.uniform(0.0, grid.extent, (4, grid.dim))):
        assert abs(evaluate_at(f, x) - full_sum_evaluate_at(f, x)) <= 1e-12 * scale


def test_evaluate_at_reads_a_scalar_as_the_diagonal_point(rng):
    grid = SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2)
    f = random_band_limited(grid, rng)
    assert evaluate_at(f, 1.7) == evaluate_at(f, [1.7, 1.7])
    with pytest.raises(SizeMismatch):
        evaluate_at(f, [1.0, 2.0, 3.0])


def test_random_band_limited_is_band_limited_and_real(small_grid, rng):
    f = random_band_limited(small_grid, rng)
    assert np.all(f.values[~small_grid.keep_mask] == 0.0)
    assert hermitian_defect(f) < 1e-10
    assert not np.iscomplexobj(to_grid(f))


def test_random_localized_field_is_band_limited_and_real(small_grid):
    rng = np.random.default_rng(7)
    f = random_localized_field(small_grid, rng)
    assert np.all(f.values[~small_grid.keep_mask] == 0.0)
    assert hermitian_defect(f) < 1e-10
    g = random_localized_field(small_grid, np.random.default_rng(7))
    np.testing.assert_array_equal(f.values, g.values)


def test_estimate_algebra_constant_contract(small_grid):
    c1 = estimate_algebra_constant(small_grid)
    c2 = estimate_algebra_constant(small_grid)
    assert c1 == c2
    assert np.isfinite(c1) and c1 > 0
    one = to_modes(small_grid, np.ones(small_grid.shape))
    floor = sobolev_norm(pointwise_product(one, one)) / sobolev_norm(one) ** 2
    assert c1 >= floor


@pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
def test_a_square_transforms_its_factor_once(small_grid, rng, monkeypatch, two_d):
    grid = SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2) if two_d else small_grid
    stack = np.stack([full_draw(grid, rng) for _ in range(5)])
    expected = dealiased_product(grid, stack, stack.copy())
    calls = []
    real_grid_values = oracles.grid_values
    monkeypatch.setattr(oracles, "grid_values", lambda *args: calls.append(1) or real_grid_values(*args))
    np.testing.assert_array_equal(dealiased_product(grid, stack, stack), expected)
    assert len(calls) == 1


@pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
def test_band_transform_pair_is_the_dealiased_projection(small_grid, rng, two_d):
    grid = SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2) if two_d else small_grid
    kmax = grid.dealias_bound
    samples = rng.standard_normal((3,) + grid.shape)
    band = band_modes(grid, samples)
    assert band.shape == (3,) + (2 * kmax + 1,) * (grid.dim - 1) + (kmax + 1,)
    projected = grid_values(grid, dealiased_modes(grid, samples))
    half = np.zeros((3,) + grid.half_shape, dtype=complex)
    np.testing.assert_allclose(band_values(grid, band, half), projected, rtol=0, atol=1e-13)
    a = np.stack([full_draw(grid, rng) for _ in range(3)])
    b = np.stack([full_draw(grid, rng) for _ in range(3)])
    x, y = grid_values(grid, a), grid_values(grid, b)
    cut = dealiased_product(grid, a, b)[(Ellipsis,) + band_index(grid)]
    np.testing.assert_allclose(band_modes(grid, x * y), cut, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "grid",
    [
        SpectralGrid(),
        SpectralGrid(dim=1, extent=20.0, modes=30, mass=1.0, sobolev_q=1),
        SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
        SpectralGrid(dim=3, extent=8.0, modes=8, mass=1.0, sobolev_q=2),
    ],
    ids=["1d-128", "1d-30", "2d-16", "3d-8"],
)
def test_the_band_boxes_scatter_and_gather_as_the_band_index(grid, rng):
    band = (Ellipsis,) + band_index(grid)
    assert len(grid.band_boxes) == 2 ** (grid.dim - 1)
    shape = (2, 3)
    half = rng.standard_normal(shape + grid.half_shape) + 1j * rng.standard_normal(shape + grid.half_shape)
    gathered = np.empty(shape + grid.band_omega.shape, dtype=complex)
    for box, into in grid.band_boxes:
        gathered[box] = half[into]
    assert np.array_equal(gathered, half[band])
    want = np.zeros_like(half)
    want[band] = gathered
    got = scatter_band(grid, gathered, np.zeros_like(half))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # outside the band the scatter leaves its buffer as it was
    marked = np.full_like(half, 7.0)
    scatter_band(grid, gathered, marked)
    assert np.all(marked[..., ~grid.keep_mask] == 7.0)
    # band_modes gathers its transform as the band index does, bit for bit,
    # into a buffer it is given and into one of its own
    samples = rng.standard_normal((3,) + grid.shape)
    spectrum = np.fft.rfftn(samples, axes=tuple(range(-grid.dim, 0)))
    want = spectrum[band] * (grid.volume / grid.npoints)
    assert np.array_equal(band_modes(grid, samples), want)
    out = np.empty_like(want)
    assert band_modes(grid, samples, out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(grid.band_omega, grid.omega[band])


@pytest.mark.parametrize(
    "grid",
    [
        SpectralGrid(),
        SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
        SpectralGrid(dim=2, extent=40.0, modes=64, mass=1.0, sobolev_q=2),
        SpectralGrid(dim=3, extent=8.0, modes=8, mass=1.0, sobolev_q=2),
    ],
    ids=["1d-128", "2d-16", "2d-64", "3d-8"],
)
@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("given", [False, True], ids=["allocated", "given"])
def test_the_square_is_the_irfftn_rfftn_square_bit_for_bit(grid, rows, given, rng):
    values = np.stack([random_band_limited(grid, rng).values for _ in range(rows)])
    kept = values.copy()
    out = np.empty_like(values) if given else None
    points = np.empty((rows,) + grid.shape) if given else None
    squares = grid.square(values, out, points)
    assert squares is out if given else squares.shape == values.shape
    assert np.array_equal(squares, rfftn_square(grid, values))
    # the inverse steps run in out, not in the table they read
    assert np.array_equal(values.view(np.uint64), kept.view(np.uint64))


@pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
def test_stacked_algebra_constant_matches_the_per_trial_loop(small_grid, two_d):
    # localized draws need two spacings below an eighth of the box: 16 modes at least
    grid = SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2) if two_d else small_grid
    assert estimate_algebra_constant(grid) == per_trial_algebra_constant(grid, 200, 0)


@pytest.mark.parametrize(
    "grid",
    [
        SpectralGrid(),
        SpectralGrid(dim=1, extent=20.0, modes=30, mass=1.0, sobolev_q=1),
        SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
        SpectralGrid(dim=3, extent=8.0, modes=8, mass=1.0, sobolev_q=2),
    ],
    ids=["desk", "1d-30", "2d-16", "3d-8"],
)
def test_the_band_estimate_matches_the_full_spectrum_estimate(grid):
    # the same draws; only the transforms and the norms' summation order differ
    band, full = estimate_algebra_constant(grid), full_spectrum_algebra_constant(grid, 200, 0)
    assert abs(band - full) <= 1e-14 * full


def record_chunk_sizes(monkeypatch) -> list[int]:
    """The pair count of every chunk the estimate measures from now on, in order."""
    sizes = []
    measure = spectral._largest_ratio

    def recorded(grid, rng, pairs):
        sizes.append(pairs)
        return measure(grid, rng, pairs)

    monkeypatch.setattr(spectral, "_largest_ratio", recorded)
    return sizes


@pytest.mark.parametrize(
    "grid",
    [
        SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1),
        SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
        SpectralGrid(dim=3, extent=10.0, modes=8, mass=1.0, sobolev_q=2),
    ],
    ids=["1d-32", "2d-16", "3d-8"],
)
def test_the_estimate_in_chunks_is_the_estimate_in_one(grid, monkeypatch):
    whole = estimate_algebra_constant(grid)
    sizes = record_chunk_sizes(monkeypatch)
    # 7 pairs a chunk (two complex tables a pair): 28 chunks of 7 and one of 4
    monkeypatch.setattr(spectral, "ALGEBRA_CHUNK_BYTES", 7 * 32 * grid.npoints)
    assert estimate_algebra_constant(grid) == whole == per_trial_algebra_constant(grid, 200, 0)
    assert sizes == [7] * 28 + [4]


@pytest.mark.parametrize(
    "grid, expected",
    [
        (SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1), [200]),
        (SpectralGrid(), [64, 64, 64, 8]),
        (SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2), [32] * 6 + [8]),
    ],
    ids=["1d-32", "desk", "2d-16"],
)
def test_the_estimate_takes_its_pairs_in_chunks_of_256_kib(grid, expected, monkeypatch):
    # 2**18 bytes of mode tables, two complex tables a pair: one chunk on
    # grids of up to 40 points
    sizes = record_chunk_sizes(monkeypatch)
    estimate_algebra_constant(grid)
    assert sizes == expected


@pytest.mark.parametrize(
    "grid",
    [
        SpectralGrid(dim=1, extent=20.0, modes=16, mass=1.0, sobolev_q=1),
        SpectralGrid(dim=1, extent=37.0, modes=30, mass=1.0, sobolev_q=1),
        SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1),
        SpectralGrid(dim=1, extent=40.0, modes=128, mass=1.0, sobolev_q=1),
        SpectralGrid(dim=2, extent=20.0, modes=16, mass=1.0, sobolev_q=2),
        SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2),
    ],
    ids=["1d-16", "1d-30", "1d-32", "1d-128", "2d-16", "2d-8"],
)
def test_localized_draws_match_the_per_draw_loop_bit_for_bit(grid):
    batched, looped = np.random.default_rng(4), np.random.default_rng(4)
    samples = spectral._localized_samples(grid, batched, 60)
    want = np.stack([per_draw_localized_samples(grid, looped) for _ in range(60)])
    assert samples.tobytes() == want.tobytes()
    # both left the generator at the same state
    assert batched.uniform() == looped.uniform()


def test_single_mode_pair_is_dominated(small_grid):
    c_q = estimate_algebra_constant(small_grid)
    x = small_grid.axis_points
    base = 2.0 * np.pi / small_grid.extent
    f = to_modes(small_grid, np.cos(3 * base * x))
    g = to_modes(small_grid, np.cos(5 * base * x))
    ratio = sobolev_norm(pointwise_product(f, g)) / (sobolev_norm(f) * sobolev_norm(g))
    assert ratio <= c_q


def test_algebra_constant_dominates_random_pairs(small_grid):
    # the advertised product inequality, on 10^3 fresh pairs
    c_q = estimate_algebra_constant(small_grid)
    rng = np.random.default_rng(915)
    for trial in range(1000):
        draw = random_localized_field if trial % 2 else random_band_limited
        f = draw(small_grid, rng)
        g = draw(small_grid, rng)
        bound = c_q * sobolev_norm(f) * sobolev_norm(g)
        assert sobolev_norm(pointwise_product(f, g)) <= bound


def test_zero_modes(small_grid):
    z = zero_modes(small_grid)
    assert sobolev_norm(z) == 0.0


def test_snapshot_grid_mismatch(small_grid, rng):
    other = SpectralGrid(dim=1, extent=20.0, modes=64, mass=1.0, sobolev_q=1)
    f = random_band_limited(small_grid, rng)
    g = random_band_limited(other, rng)
    with pytest.raises(GridMismatch):
        FieldSnapshot(0.0, f, g)
    with pytest.raises(GridMismatch):
        pair_modes(f, g)
    with pytest.raises(GridMismatch):
        pointwise_product(f, g)
