"""Symbols: functions on C^n used as Toeplitz symbols and convolution kernels.

A Symbol is evaluable at arbitrary points, vectorized over an array of
shape (P, n).  Closed-form atoms (Gaussians, plane waves, polynomials,
radial profiles) are combined through translation, parity, scaling,
sums and products; sampled functions live on regular grids with
interpolation.  Evaluation is deterministic everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from ._output import write_csv


def as_points(z, n: int) -> np.ndarray:
    """Coerce scalars / 1-d arrays to the canonical (P, n) complex layout."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        z = z.reshape(1, 1)
    elif z.ndim == 1:
        z = z[:, None] if n == 1 else z[None, :]
    if z.shape[1] != n:
        raise ValueError(f"points must have {n} complex coordinates")
    return z


class Symbol:
    """Base class; subclasses implement eval(points) for (P, n) input."""

    n = 1

    def eval(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, z) -> np.ndarray:
        return self.eval(as_points(z, self.n))

    # combinators -----------------------------------------------------
    def translated(self, z0) -> "Symbol":
        return Translate(self, z0)

    def flipped(self) -> "Symbol":
        return Parity(self)

    def __add__(self, other):
        return SymbolSum([self, other])

    def __mul__(self, other):
        if isinstance(other, Symbol):
            return SymbolProduct([self, other])
        return Scale(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return SymbolSum([self, Scale(other, -1.0)])


@dataclass
class Constant(Symbol):
    value: complex = 1.0
    n: int = 1

    def eval(self, points):
        return np.full(points.shape[0], complex(self.value))


@dataclass
class Gaussian(Symbol):
    """amplitude * exp(-|w - center|^2 / width)."""

    center: complex | Sequence[complex] = 0.0
    width: float = 1.0
    amplitude: complex = 1.0
    n: int = 1

    def __post_init__(self):
        if not 0 < self.width < np.inf:
            raise ValueError(f"Gaussian width must be positive and finite, got {self.width}")

    def eval(self, points):
        c = np.atleast_1d(np.asarray(self.center, dtype=complex))
        d = points - c[None, :]
        return self.amplitude * np.exp(-np.sum(np.abs(d) ** 2, axis=1) / self.width)

    # a Gaussian stays a Gaussian, so convolutions keep their exact rule
    def translated(self, z0) -> "Gaussian":
        return replace(self, center=np.asarray(self.center, dtype=complex) + np.asarray(z0))

    def flipped(self) -> "Gaussian":
        return replace(self, center=-np.asarray(self.center, dtype=complex))


def heat_gaussian(s: float, n: int = 1) -> Gaussian:
    """f_s(z) = (pi s)^{-n} exp(-|z|^2 / s); an approximate identity as s -> 0."""
    center = 0.0 if n == 1 else np.zeros(n, dtype=complex)
    return Gaussian(center=center, width=s, amplitude=(np.pi * s) ** (-n), n=n)


@dataclass
class PlaneWave(Symbol):
    """w -> exp(i Im(w . conj(zeta)))."""

    zeta: complex | Sequence[complex] = 1.0
    n: int = 1

    def eval(self, points):
        zeta = np.atleast_1d(np.asarray(self.zeta, dtype=complex))
        phase = np.imag(points @ np.conj(zeta))
        return np.exp(1j * phase)


@dataclass
class Polynomial(Symbol):
    """Sum of terms coeff * w^a * conj(w)^b with multi-index powers a, b.

    terms: list of (a, b, coeff) with a, b tuples of length n.
    """

    terms: list
    n: int = 1

    def eval(self, points):
        out = np.zeros(points.shape[0], dtype=complex)
        for a, b, coeff in self.terms:
            term = np.full(points.shape[0], complex(coeff))
            for axis in range(self.n):
                if a[axis]:
                    term = term * points[:, axis] ** a[axis]
                if b[axis]:
                    term = term * np.conj(points[:, axis]) ** b[axis]
            out += term
        return out


@dataclass
class Radial(Symbol):
    """Radial profile |w| -> value, linearly interpolated from a table."""

    radii: np.ndarray
    values: np.ndarray
    n: int = 1

    def eval(self, points):
        r = np.sqrt(np.sum(np.abs(points) ** 2, axis=1))
        return np.interp(r, self.radii, self.values, left=self.values[0], right=0.0)


@dataclass
class Horizontal(Symbol):
    """Symbol depending only on the real parts: exp(-sum Re(w_a)^2 / width).

    Invariant under all purely imaginary translations by construction.
    """

    width: float = 1.0
    n: int = 1

    def eval(self, points):
        x = np.real(points)
        return np.exp(-np.sum(x**2, axis=1) / self.width)


@dataclass
class Translate(Symbol):
    """translate(f, z0)(w) = f(w - z0); realizes the shift action on symbols."""

    inner: Symbol
    z0: complex | Sequence[complex]

    def __post_init__(self):
        self.n = self.inner.n

    def eval(self, points):
        z0 = np.atleast_1d(np.asarray(self.z0, dtype=complex))
        return self.inner.eval(points - z0[None, :])


@dataclass
class Parity(Symbol):
    """parity(f)(w) = f(-w); realizes the operator U on symbols."""

    inner: Symbol

    def __post_init__(self):
        self.n = self.inner.n

    def eval(self, points):
        return self.inner.eval(-points)


@dataclass
class Scale(Symbol):
    inner: Symbol
    factor: complex

    def __post_init__(self):
        self.n = self.inner.n

    def eval(self, points):
        return self.factor * self.inner.eval(points)


@dataclass
class SymbolSum(Symbol):
    parts: list

    def __post_init__(self):
        self.n = self.parts[0].n

    def eval(self, points):
        out = np.zeros(points.shape[0], dtype=complex)
        for p in self.parts:
            out += p.eval(points)
        return out


@dataclass
class SymbolProduct(Symbol):
    parts: list

    def __post_init__(self):
        self.n = self.parts[0].n

    def eval(self, points):
        out = np.ones(points.shape[0], dtype=complex)
        for p in self.parts:
            out = out * p.eval(points)
        return out


class GridSymbol(Symbol):
    """Function sampled on a regular grid over [-W, W]^{2n}, interpolated.

    values is a 2n-dimensional complex array over the tensor grid of
    `axes` (one 1-d real array per real coordinate, alternating
    Re z_0, Im z_0, Re z_1, ...).  Outside the window the symbol
    evaluates to 0.
    """

    def __init__(self, axes, values, n: int = 1):
        self.n = n
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.asarray(values, dtype=complex)
        if len(self.axes) != 2 * n:
            raise ValueError("need one axis per real coordinate")
        self._interp = RegularGridInterpolator(
            self.axes, self.values, bounds_error=False, fill_value=0.0
        )

    def eval(self, points):
        coords = np.empty((points.shape[0], 2 * self.n))
        coords[:, 0::2] = np.real(points)
        coords[:, 1::2] = np.imag(points)
        return self._interp(coords)

    @classmethod
    def sample(cls, func, window: float, m: int, n: int = 1) -> "GridSymbol":
        """Sample an evaluable function on an m-per-axis grid, m >= 2."""
        if m < 2:
            raise ValueError(f"a sampling grid needs at least 2 points per axis, got {m}")
        ax = np.linspace(-window, window, m)
        axes = [ax] * (2 * n)
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.ravel() for g in mesh], axis=-1)
        pts = coords[:, 0::2] + 1j * coords[:, 1::2]
        vals = np.asarray(func(pts)).reshape([m] * (2 * n))
        return cls(axes, vals, n=n)

    def to_csv(self, path) -> None:
        """Serialize as (Re z, Im z, Re value, Im value) rows (n = 1)."""
        if self.n != 1:
            raise ValueError("CSV export of grid symbols is defined for n = 1")
        X, Y = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        cols = np.stack([X, Y, self.values.real, self.values.imag], axis=-1)
        rows = cols.reshape(-1, 4).tolist()
        write_csv(path, ["re_z", "im_z", "re_value", "im_value"], rows)
