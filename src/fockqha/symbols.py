"""Symbols: functions on C^n used as Toeplitz symbols and convolution kernels.

A Symbol is evaluable at arbitrary points, vectorized over an array of
shape (P, n).  Closed-form atoms (Gaussians, plane waves, polynomials,
radial profiles) are combined through translation, parity, scaling,
sums and products; sampled functions live on regular grids with
interpolation.  Evaluation is deterministic everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

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


def _plane_tuple(name: str, value, n: int) -> tuple:
    """value as n complex numbers, one per plane; a scalar is repeated on every plane.

    Any other shape, or an inf or NaN entry, raises ValueError: a vector
    of another length would be broadcast or summed over the wrong axes.
    """
    if np.ndim(value) != 0 and np.shape(value) != (n,):
        raise ValueError(
            f"{name} must be a scalar or have shape ({n},), got shape {np.shape(value)}"
        )
    if not np.all(np.isfinite(value)):
        raise ValueError(f"non-finite {name}: {value}")
    return tuple(complex(c) for c in np.broadcast_to(value, (n,)))


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
    """amplitude * exp(-|w - center|^2 / width).

    The centre is stored as a tuple of n complex numbers, one per plane; a
    scalar centre is broadcast to every plane.  A width that is not
    positive and finite, a centre of another length, or a non-finite
    amplitude or centre raises ValueError at construction.
    """

    center: complex | Sequence[complex] = 0.0
    width: float = 1.0
    amplitude: complex = 1.0
    n: int = 1

    def __post_init__(self):
        if not 0 < self.width < np.inf:
            raise ValueError(f"Gaussian width must be positive and finite, got {self.width}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"non-finite Gaussian amplitude: {self.amplitude}")
        self.center = _plane_tuple("Gaussian centre", self.center, self.n)

    def eval(self, points):
        d = points - self.center
        return self.amplitude * np.exp(-np.sum(np.abs(d) ** 2, axis=1) / self.width)

    # a Gaussian stays a Gaussian, so convolutions keep their exact rule
    def translated(self, z0) -> "Gaussian":
        return replace(self, center=np.add(self.center, z0))

    def flipped(self) -> "Gaussian":
        return replace(self, center=np.negative(self.center))

    def __mul__(self, other):
        """A Gaussian again when other is a Gaussian on the same C^n (completed square).

        |w - c1|^2/W1 + |w - c2|^2/W2 = |w - c|^2/W + |c1 - c2|^2/(W1 + W2)
        with W = W1 W2/(W1 + W2) and c = (W2 c1 + W1 c2)/(W1 + W2).
        """
        if not (isinstance(other, Gaussian) and other.n == self.n):
            return Symbol.__mul__(self, other)
        W1, W2 = self.width, other.width
        c1, c2 = np.array(self.center), np.array(other.center)
        gap = np.sum(np.abs(c1 - c2) ** 2)
        return Gaussian(
            center=(W2 * c1 + W1 * c2) / (W1 + W2),
            width=W1 * W2 / (W1 + W2),
            amplitude=self.amplitude * other.amplitude * np.exp(-gap / (W1 + W2)),
            n=self.n,
        )


def heat_gaussian(s: float, n: int = 1) -> Gaussian:
    """f_s(z) = (pi s)^{-n} exp(-|z|^2 / s); an approximate identity as s -> 0."""
    # checked before the amplitude, which divides by s
    if not 0 < s < np.inf:
        raise ValueError(f"heat kernel width must be positive and finite, got {s}")
    return Gaussian(width=s, amplitude=(np.pi * s) ** (-n), n=n)


@dataclass
class PlaneWave(Symbol):
    """w -> exp(i Im(w . conj(zeta))).

    zeta is stored as n complex numbers, one per plane, as a Gaussian's
    centre is: a scalar is repeated, and another length or an inf or NaN
    entry raises ValueError.
    """

    zeta: complex | Sequence[complex] = 1.0
    n: int = 1

    def __post_init__(self):
        self.zeta = _plane_tuple("PlaneWave zeta", self.zeta, self.n)

    def eval(self, points):
        return np.exp(1j * np.imag(points @ np.conj(self.zeta)))


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
    """Radial profile |w| -> value, linearly interpolated from a table.

    The radii must be strictly ascending, one value each; any other table
    raises ValueError.
    """

    radii: np.ndarray
    values: np.ndarray
    n: int = 1

    def __post_init__(self):
        # np.interp reads any other table without complaint, and wrongly
        shape = np.shape(self.radii)
        if len(shape) != 1 or shape[0] == 0 or np.shape(self.values) != shape:
            raise ValueError(
                f"Radial needs one value per radius, got radii of shape {shape} "
                f"and values of shape {np.shape(self.values)}"
            )
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError(f"Radial radii must be strictly ascending, got {self.radii}")

    def eval(self, points):
        r = np.sqrt(np.sum(np.abs(points) ** 2, axis=1))
        return np.interp(r, self.radii, self.values, left=self.values[0], right=0.0)


@dataclass
class Horizontal(Symbol):
    """Symbol depending only on the real parts: exp(-sum Re(w_a)^2 / width).

    Invariant under all purely imaginary translations by construction.
    A width that is not positive and finite raises ValueError.
    """

    width: float = 1.0
    n: int = 1

    def __post_init__(self):
        if not 0 < self.width < np.inf:
            raise ValueError(f"Horizontal width must be positive and finite, got {self.width}")

    def eval(self, points):
        x = np.real(points)
        return np.exp(-np.sum(x**2, axis=1) / self.width)


@dataclass
class Translate(Symbol):
    """translate(f, z0)(w) = f(w - z0); realizes the shift action on symbols.

    z0 is stored as n complex numbers, one per plane, as a Gaussian's
    centre is: a scalar is repeated, and another length or an inf or NaN
    entry raises ValueError.
    """

    inner: Symbol
    z0: complex | Sequence[complex]

    def __post_init__(self):
        self.n = self.inner.n
        self.z0 = _plane_tuple("Translate shift", self.z0, self.n)

    def eval(self, points):
        return self.inner.eval(points - np.array(self.z0))


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
        if any(p.n != self.n for p in self.parts):
            raise ValueError(f"parts on different C^n: n = {[p.n for p in self.parts]}")

    def eval(self, points):
        out = np.zeros(points.shape[0], dtype=complex)
        for p in self.parts:
            out += p.eval(points)
        return out


@dataclass
class SymbolProduct(Symbol):
    parts: list

    __post_init__ = SymbolSum.__post_init__  # all parts on one C^n

    def eval(self, points):
        out = np.ones(points.shape[0], dtype=complex)
        for p in self.parts:
            out = out * p.eval(points)
        return out


class GridSymbol(Symbol):
    """Function sampled on a rectilinear grid over [-W, W]^{2n}, interpolated.

    values is a 2n-dimensional complex array over the tensor grid of
    `axes` (one strictly ascending 1-d real array per real coordinate,
    alternating Re z_0, Im z_0, Re z_1, ...).  Inside the window the
    symbol is the multilinear interpolant: the 2^{2n} corners of the
    point's grid cell weighted by products of per-axis fractions, so grid
    nodes are reproduced exactly.  Outside the window it evaluates to 0.
    """

    def __init__(self, axes, values, n: int = 1):
        self.n = n
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.asarray(values, dtype=complex)
        if len(self.axes) != 2 * n:
            raise ValueError("need one axis per real coordinate")
        for ax in self.axes:
            if ax.ndim != 1 or ax.size < 2 or not np.all(np.diff(ax) > 0):
                raise ValueError("each axis must be 1-d with at least 2 strictly ascending points")
        shape = tuple(ax.size for ax in self.axes)
        if self.values.shape != shape:
            raise ValueError(f"values have shape {self.values.shape}, the axes {shape}")

    def eval(self, points):
        coords = np.empty((points.shape[0], 2 * self.n))
        coords[:, 0::2] = np.real(points)
        coords[:, 1::2] = np.imag(points)
        outside = np.zeros(points.shape[0], dtype=bool)
        for x, ax in zip(coords.T, self.axes):
            outside |= (x < ax[0]) | (x > ax[-1])
        inside = np.flatnonzero(~outside)
        cells, fracs = [], []
        for x, ax in zip(coords[inside].T, self.axes):
            i = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, ax.size - 2)
            y = (x - ax[i]) / (ax[i + 1] - ax[i])
            cells.append(i)
            fracs.append((1.0 - y, y))
        acc = np.zeros(inside.size, dtype=complex)
        for corner in product((0, 1), repeat=2 * self.n):
            weight = np.ones(inside.size)
            for up, pair in zip(corner, fracs):
                weight = weight * pair[up]
            acc += weight * self.values[tuple(i + up for i, up in zip(cells, corner))]
        out = np.zeros(points.shape[0], dtype=complex)
        out[inside] = acc
        return out

    @classmethod
    def sample(cls, func, window: float, m: int, n: int = 1) -> "GridSymbol":
        """Sample an evaluable function on an m-per-axis grid, m >= 2.

        func sees one slice of the leading real axis (Re z_0) at a time, so
        the points in memory at once number m^{2n-1}, not m^{2n}.
        """
        if m < 2:
            raise ValueError(f"a sampling grid needs at least 2 points per axis, got {m}")
        ax = np.linspace(-window, window, m)
        axes = [ax] * (2 * n)
        rest = [g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")]
        coords = [np.zeros(rest[0].size)] + rest
        base = np.stack(coords[0::2], axis=-1) + 1j * np.stack(coords[1::2], axis=-1)
        shift = np.eye(1, n)  # moves Re z_0 only
        vals = np.empty((m, base.shape[0]), dtype=complex)
        for i, x in enumerate(ax):
            vals[i] = func(base + x * shift)
        return cls(axes, vals.reshape([m] * (2 * n)), n=n)

    def to_csv(self, path) -> None:
        """Serialize as (Re z, Im z, Re value, Im value) rows (n = 1)."""
        if self.n != 1:
            raise ValueError("CSV export of grid symbols is defined for n = 1")
        X, Y = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        cols = np.stack([X, Y, self.values.real, self.values.imag], axis=-1)
        rows = cols.reshape(-1, 4).tolist()
        write_csv(path, ["re_z", "im_z", "re_value", "im_value"], rows)
