"""Symbol atoms and combinators: evaluation semantics and grid sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from fockqha.symbols import (
    Constant,
    Gaussian,
    GridSymbol,
    Horizontal,
    Parity,
    PlaneWave,
    Polynomial,
    Radial,
    Scale,
    Symbol,
    SymbolProduct,
    Translate,
    as_points,
    heat_gaussian,
)


def test_as_points_shapes():
    assert as_points(1.0, 1).shape == (1, 1)
    assert as_points([1.0, 2.0], 1).shape == (2, 1)
    assert as_points([1.0, 2.0], 2).shape == (1, 2)
    with pytest.raises(ValueError):
        as_points(np.ones((3, 2)), 1)


def test_constant_and_gaussian():
    assert Constant(2.5)(0.3)[0] == 2.5
    g = Gaussian(center=1.0, width=2.0, amplitude=3.0)
    assert g(1.0)[0] == pytest.approx(3.0)
    assert g(0.0)[0] == pytest.approx(3.0 * np.exp(-0.5))


def test_heat_gaussian_mass_normalization():
    f = heat_gaussian(0.5)
    assert f(0.0)[0] == pytest.approx(1.0 / (np.pi * 0.5))


def test_plane_wave_values():
    pw = PlaneWave(zeta=1.0)
    # Im(w * conj(1)) = Im(w)
    assert pw(1j)[0] == pytest.approx(np.exp(1j))
    assert abs(pw(0.7)[0] - 1.0) < 1e-14
    assert np.allclose(np.abs(pw(np.array([0.3 + 2j, -1.0]))), 1.0)


def test_polynomial_values():
    # w^2 + 2 conj(w)
    f = Polynomial(terms=[((2,), (0,), 1.0), ((0,), (1,), 2.0)])
    z = 1.0 + 1.0j
    assert f(z)[0] == pytest.approx(z**2 + 2 * np.conj(z))


def test_radial_profile_interpolation():
    r = np.array([0.0, 1.0, 2.0])
    f = Radial(radii=r, values=np.array([1.0, 0.5, 0.0]))
    assert f(0.0)[0] == pytest.approx(1.0)
    assert f(1.0j)[0] == pytest.approx(0.5)  # depends only on |w|
    assert f(5.0)[0] == pytest.approx(0.0)  # beyond the table


@pytest.mark.parametrize(
    "radii, values",
    [
        ([0.0, 2.0, 1.0], [1.0, 0.5, 0.0]),
        ([0.0, 1.0, 1.0], [1.0, 0.5, 0.0]),
        ([0.0, 1.0], [1.0, 0.5, 0.0]),
        ([[0.0, 1.0]], [[1.0, 0.5]]),
        ([], []),
    ],
    ids=["descending", "repeated", "length", "2-d", "empty"],
)
def test_radial_rejects_a_table_interp_would_misread(radii, values):
    # np.interp reads radii [0, 2, 1] as 0.875 / 0 / 0 at 0.5 / 1.5 / 1.9,
    # where the sorted table reads 0.6 / 0.35 / 0.47
    with pytest.raises(ValueError, match="Radial"):
        Radial(radii=np.array(radii), values=np.array(values))


def test_horizontal_imaginary_invariance():
    f = Horizontal(width=1.5)
    z = 0.7 + 0.2j
    for shift in [1j, -2.5j, 0.3j]:
        assert f(z + shift)[0] == pytest.approx(f(z)[0])


def test_translate_and_parity_semantics():
    g = Gaussian(center=0.0, width=1.0)
    assert Translate(g, 1.0)(1.0)[0] == pytest.approx(g(0.0)[0])
    f = Polynomial(terms=[((1,), (0,), 1.0)])
    assert Parity(f)(2.0)[0] == pytest.approx(-2.0)
    assert f.flipped()(2.0)[0] == pytest.approx(-2.0)


def test_gaussian_translate_and_flip_stay_gaussian():
    pts = np.array([[0.0, 0.3j], [1.0 - 0.5j, -0.2], [0.4j, 0.7 + 0.1j]])
    g = Gaussian(center=[0.2, -0.1j], width=1.5, amplitude=2.0, n=2)
    for got, want in [
        (g.translated([0.5, 0.25j]), Translate(g, [0.5, 0.25j])),
        (g.flipped(), Parity(g)),
    ]:
        assert isinstance(got, Gaussian) and got.width == g.width and got.amplitude == g.amplitude
        assert np.max(np.abs(got(pts) - want(pts))) < 1e-15
    assert Gaussian(center=0.3).flipped().translated(0.1)(0.0)[0] == pytest.approx(np.exp(-0.04))


@pytest.mark.parametrize("width", [0.0, -1.0, np.inf, np.nan])
def test_gaussian_rejects_a_width_that_is_not_positive_and_finite(width):
    with pytest.raises(ValueError, match="width"):
        Gaussian(width=width)
    with pytest.raises(ValueError, match="width"):
        heat_gaussian(width)


@pytest.mark.parametrize("center, n", [([0.1, 0.2], 1), ([0.1], 2), (np.zeros((1, 2)), 2)])
def test_gaussian_rejects_a_centre_of_another_length(center, n):
    # [0.1, 0.2] at n = 1 summed both distances: 0.951 at 0, not e^{-0.01}
    with pytest.raises(ValueError, match="centre"):
        Gaussian(center=center, n=n)


def test_gaussian_scalar_centre_repeats_on_every_axis():
    pts = np.array([[0.0, 0.3j], [1.0 - 0.5j, -0.2]])
    want = Gaussian(center=[0.3, 0.3], width=1.5, n=2)(pts)
    assert np.array_equal(Gaussian(center=0.3, width=1.5, n=2)(pts), want)
    assert Gaussian(center=[0.1])(0.0)[0] == pytest.approx(np.exp(-0.01))


@pytest.mark.parametrize(
    "kwargs",
    [{"amplitude": np.inf}, {"amplitude": np.nan}, {"center": np.nan}, {"center": np.inf}],
    ids=["inf-amplitude", "nan-amplitude", "nan-centre", "inf-centre"],
)
def test_gaussian_rejects_a_nonfinite_amplitude_or_centre(kwargs):
    # raised where it is built, so no later evaluation reads it as 0 or NaN
    with pytest.raises(ValueError, match="non-finite"):
        Gaussian(**kwargs)
    with pytest.raises(ValueError, match="non-finite"):
        Gaussian(n=2, **kwargs)


def test_gaussian_stores_one_centre_per_plane():
    assert Gaussian(center=0.3, n=2).center == (0.3, 0.3)
    assert Gaussian(center=[0.2, -0.1j], n=2).translated(0.5).center == (0.7, 0.5 - 0.1j)


def test_gaussians_compare_equal_on_several_planes():
    assert Gaussian(center=np.zeros(2), n=2) == Gaussian(center=np.zeros(2), n=2)
    assert Gaussian(center=0.0, n=2) == Gaussian(center=[0.0, 0.0], n=2)
    assert Gaussian(center=0.1, n=2) != Gaussian(center=[0.1, 0.2], n=2)


_coord = st.floats(-2.0, 2.0)
_complex = st.builds(complex, _coord, _coord)


@st.composite
def _gaussian_pairs(draw):
    n = draw(st.sampled_from([1, 2]))

    def gaussian():
        center = draw(st.lists(_complex, min_size=n, max_size=n))
        return Gaussian(
            center=center[0] if n == 1 else np.array(center),
            width=draw(st.floats(0.25, 8.0)),
            # away from zero, so that products stay clear of subnormal numbers
            amplitude=draw(st.floats(0.1, 2.0)) * np.exp(1j * draw(st.floats(0.0, 6.3))),
            n=n,
        )

    return gaussian(), gaussian()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_gaussian_pairs(), st.integers(0, 2**32 - 1))
def test_gaussian_product_is_the_pointwise_product(pair, seed):
    f, g = pair
    fg = f * g
    assert isinstance(fg, Gaussian) and fg.n == f.n
    rng = np.random.default_rng(seed)
    pts = 3.0 * (rng.uniform(-1, 1, (16, f.n)) + 1j * rng.uniform(-1, 1, (16, f.n)))
    want = f(pts) * g(pts)
    # rounding in the exponent E = sum |z - c|^2/W makes a relative error of
    # about eps * E; the worst of 20,000 random pairs was 5.1 eps (1 + E)
    E = sum(np.sum(np.abs(pts - h.center) ** 2, axis=1) / h.width for h in (f, g))
    bound = 16 * np.finfo(float).eps * (1 + E) * np.abs(want)
    assert np.all(np.abs(fg(pts) - want) <= bound)


def test_gaussian_times_anything_else_is_a_symbol_product():
    g = Gaussian(center=0.3, width=2.0)
    p = Polynomial(terms=[((1,), (1,), 1.0)])
    pts = np.array([0.0, 0.5 - 1.0j])[:, None]
    for product in (g * p, p * g):
        assert isinstance(product, SymbolProduct)
    # a product with a Gaussian on C^2 would read a point of C^1 as (z, z)
    with pytest.raises(ValueError, match="C\\^n"):
        g * Gaussian(center=np.zeros(2), n=2)
    assert np.max(np.abs((g * p)(pts) - g(pts) * p(pts))) == 0.0
    assert isinstance(2.0 * g, Scale) and isinstance(g * 2.0, Scale)


@pytest.mark.parametrize(
    "build, match",
    [
        # an inf shift made every value 0, so T of it was the zero matrix
        (lambda: Translate(Gaussian(), np.inf), "non-finite"),
        # both shifts were subtracted: 0.951 at 0, where either alone reads 0.990 or 0.961
        (lambda: Translate(Gaussian(), [0.1, 0.2]), "shape"),
        (lambda: Translate(Gaussian(n=2), [0.1, 0.2, 0.3]), "shape"),
        (lambda: PlaneWave(zeta=np.nan), "non-finite"),
        (lambda: PlaneWave(zeta=[0.1, 0.2]), "shape"),
    ],
    ids=[
        "translate-inf",
        "translate-two-shifts",
        "translate-three-shifts-n2",
        "wave-nan",
        "wave-two-zetas",
    ],
)
def test_shifts_and_frequencies_are_one_finite_number_per_plane(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_shifts_and_frequencies_repeat_a_scalar_on_every_plane():
    pts = np.array([[0.0, 0.3j], [1.0 - 0.5j, -0.2]])
    wave = PlaneWave(zeta=[0.5 + 0.1j, 0.5 + 0.1j], n=2)
    assert np.array_equal(PlaneWave(zeta=0.5 + 0.1j, n=2)(pts), wave(pts))
    assert PlaneWave(zeta=0.5 + 0.1j, n=2).zeta == wave.zeta
    g = Gaussian(width=1.5, n=2)
    assert np.array_equal(Translate(g, 0.3)(pts), Translate(g, [0.3, 0.3])(pts))


@pytest.mark.parametrize("width", [0.0, -1.0, np.inf, np.nan])
def test_horizontal_rejects_a_width_that_is_not_positive_and_finite(width):
    # width -1 gave max |T| = 1087 at D = 6, and width 0 the zero matrix
    with pytest.raises(ValueError, match="width must be positive and finite"):
        Horizontal(width=width)


@pytest.mark.parametrize(
    "combine",
    [lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g],
    ids=["sum", "difference", "product"],
)
def test_sums_and_products_reject_parts_on_different_dimensions(combine):
    # the sum read a point of C^1 as one of C^2: 1.970 at 0.1, where its
    # n = 1 part reads 0.990
    f, g = Gaussian(center=0.2), Gaussian(n=2)
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="C\\^n"):
            combine(a, b)


def test_algebraic_combinators():
    a, b = Constant(2.0), Constant(3.0)
    assert (a + b)(0.0)[0] == 5.0
    assert (a * b)(0.0)[0] == 6.0
    assert (a - b)(0.0)[0] == -1.0
    assert Scale(a, 1j)(0.0)[0] == 2j
    assert (4.0 * a)(0.0)[0] == 8.0


def test_grid_symbol_sampling_and_interpolation():
    g = Gaussian(center=0.0, width=2.0)
    gs = GridSymbol.sample(g, window=3.0, m=61)
    pts = np.array([0.0, 0.5 + 0.25j, -1.0j])
    assert np.max(np.abs(gs(pts) - g(pts))) < 5e-3
    # zero fill outside the window
    assert gs(10.0)[0] == 0.0


@pytest.mark.parametrize("n, m", [(1, 7), (1, 61), (2, 9)])
def test_grid_symbol_interpolates_like_scipy(n, m):
    f = Gaussian(center=np.full(n, 0.3 - 0.2j), width=1.5, amplitude=1.0 + 2.0j, n=n)
    gs = GridSymbol.sample(f, window=3.0, m=m, n=n)
    rgi = RegularGridInterpolator(gs.axes, gs.values, bounds_error=False, fill_value=0.0)

    def oracle(z):
        coords = np.empty((z.shape[0], 2 * n))
        coords[:, 0::2], coords[:, 1::2] = z.real, z.imag
        return rgi(coords)

    # grid nodes, the window's corners and edges included, are reproduced exactly
    mesh = np.meshgrid(*gs.axes, indexing="ij")
    nodes = mesh[0].ravel() + 1j * mesh[1].ravel()
    if n == 2:
        nodes = np.stack([nodes, mesh[2].ravel() + 1j * mesh[3].ravel()], axis=1)
    assert np.array_equal(gs(nodes), gs.values.ravel())
    # off the grid, inside and outside the window, and on its edges
    rng = np.random.default_rng(16)
    z = rng.uniform(-3.5, 3.5, (4000, n)) + 1j * rng.uniform(-3.5, 3.5, (4000, n))
    edge = rng.uniform(-3.0, 3.0, (400, n)) + 3.0j * rng.choice([-1.0, 1.0], (400, n))
    edge[:200] = edge[:200].imag + 1j * edge[:200].real
    for pts in (z, edge):
        # measured: 1.1 eps max|values| at n = 1, 0 at n = 2
        got, want = gs(pts), oracle(pts)
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(gs.values))
        assert np.array_equal(got == 0, want == 0)
    inside = np.all(np.abs(z.real) <= 3.0, axis=1) & np.all(np.abs(z.imag) <= 3.0, axis=1)
    assert np.all(gs(z)[~inside] == 0) and np.all(gs(z)[inside] != 0)
    # one ulp past the window on one coordinate, or infinitely far
    past = np.nextafter(3.0, 4.0)
    far = np.full((3, n), 3.0 + 3.0j)
    far[0, 0], far[1, -1], far[2, 0] = past + 3.0j, 3.0 - 1j * past, np.inf
    assert np.all(gs(far) == 0)


def test_grid_symbol_checks_its_axes_and_values():
    ax = np.linspace(-1.0, 1.0, 5)
    GridSymbol([ax, ax], np.zeros((5, 5)))
    for bad in ([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 0.5], ax[::-1], [0.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="strictly ascending"):
            GridSymbol([np.asarray(bad), ax], np.zeros((np.size(bad), 5)))
    for shape in [(5, 4), (5, 5, 1), (25,)]:
        with pytest.raises(ValueError, match="shape"):
            GridSymbol([ax, ax], np.zeros(shape))
    with pytest.raises(ValueError, match="one axis per real coordinate"):
        GridSymbol([ax], np.zeros(5))


def test_grid_symbol_csv(tmp_path):
    gs = GridSymbol.sample(Constant(1.0), window=1.0, m=3)
    path = tmp_path / "sym.csv"
    gs.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,re_value,im_value"
    assert len(lines) == 1 + 9


@pytest.mark.parametrize("m", [1, 0, -3])
def test_grid_symbol_needs_two_points_per_axis(m):
    with pytest.raises(ValueError, match="at least 2"):
        GridSymbol.sample(Constant(1.0), window=1.0, m=m)


def test_symbol_base_is_abstract():
    with pytest.raises(NotImplementedError):
        Symbol().eval(np.zeros((1, 1), dtype=complex))
