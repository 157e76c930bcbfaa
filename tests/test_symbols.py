"""Symbol atoms and combinators: evaluation semantics and grid sampling."""

import numpy as np
import pytest

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
