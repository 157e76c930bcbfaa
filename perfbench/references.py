"""Independent references for the benchmark's correctness checks.

Every value here comes from a closed form derived on paper, never from a
stored copy of the program's output and never from the program's own code.
`test_perfbench.py` checks each closed form against direct `mpmath`
quadrature of its defining integral.

Conventions match the package: weight mu_t = (pi t)^{-n} e^{-|z|^2/t} dV,
basis e_alpha = z^alpha / sqrt(alpha! t^|alpha|), Weyl operator
W_z f(w) = exp(w conj(z)/t - |z|^2/(2t)) f(w - z), heat kernel
f_s(z) = (pi s)^{-n} e^{-|z|^2/s}.
"""

from __future__ import annotations

import numpy as np


def gaussian_smoothed(z2, a: float, s: float, n: int):
    """(f_s * e^{-|.|^2/a})(z) = (a/(a+s))^n e^{-|z|^2/(a+s)}, given z2 = |z|^2.

    With s = t this is also the heat transform of the Gaussian at weight t and
    the Berezin transform of its Toeplitz operator.
    """
    return (a / (a + s)) ** n * np.exp(-np.asarray(z2) / (a + s))


def toeplitz_gaussian_diagonal(degrees, w: float, t: float, n: int):
    """Diagonal of T_f for f = e^{-|z|^2/w}: entries (w/(w+t))^{|alpha|+n}.

    T_f is diagonal because f is radial in every coordinate.
    """
    return (w / (w + t)) ** (np.asarray(degrees) + n)


def quantization_error(w1: float, w2: float, t: float, D: int) -> float:
    """||T_f T_g - T_fg||_op for centred Gaussians of widths w1, w2 (n = 1).

    All three operators are diagonal; fg is the Gaussian of width
    w1 w2 / (w1 + w2).
    """
    k = np.arange(D + 1)
    w12 = w1 * w2 / (w1 + w2)
    d = (
        toeplitz_gaussian_diagonal(k, w1, t, 1) * toeplitz_gaussian_diagonal(k, w2, t, 1)
        - toeplitz_gaussian_diagonal(k, w12, t, 1)
    )
    return float(np.max(np.abs(d)))


def heat_sup_error(a: float, t: float, z2) -> float:
    """max over the points of |f - heat_t(f)| for f = e^{-|z|^2/a} (n = 1)."""
    z2 = np.asarray(z2)
    return float(np.max(np.abs(np.exp(-z2 / a) - gaussian_smoothed(z2, a, t, 1))))


def weyl_smoothing_factor(z0: complex, s: float, t: float) -> float:
    """f_s * W_z0 = e^{-s|z0|^2/t^2} W_z0, because alpha_z(W_z0) = e^{-2i Im(z conj z0)/t} W_z0."""
    return float(np.exp(-s * abs(z0) ** 2 / t**2))


def baseline_toeplitz_gaussian(w: float, s: float, t: float, D: int) -> float:
    """||P(T_f - f_s * T_f)P|| for f = e^{-|z|^2/w}, P onto degrees <= D/2.

    f_s * T_f = T_{f_s * f} and f_s * f = (w/(w+s)) e^{-|z|^2/(w+s)}.
    """
    k = np.arange(D // 2 + 1)
    smoothed = (w / (w + s)) * toeplitz_gaussian_diagonal(k, w + s, t, 1)
    return float(np.max(np.abs(toeplitz_gaussian_diagonal(k, w, t, 1) - smoothed)))


def baseline_vacuum(s: float, t: float, D: int) -> float:
    """||P(P_C - f_s * P_C)P|| with P_C the projection onto constants.

    f_s * P_C = T_{pi t f_s}, a Toeplitz operator with a centred Gaussian symbol.
    """
    k = np.arange(D // 2 + 1)
    smoothed = (t / s) * toeplitz_gaussian_diagonal(k, s, t, 1)
    return float(np.max(np.abs((k == 0) - smoothed)))


def baseline_weyl(z0: complex, s: float, t: float, D: int) -> float:
    """||P(W_z0 - f_s * W_z0)P|| = (1 - e^{-s|z0|^2/t^2}) ||P W_z0 P||."""
    block = np.array(weyl_laguerre(z0, t, D // 2), dtype=complex)
    return (1.0 - weyl_smoothing_factor(z0, s, t)) * float(np.linalg.norm(block, 2))


def weyl_laguerre(z: complex, t: float, D: int):
    """Matrix <W_z e_b, e_a>, 0 <= a, b <= D, from the Laguerre form (n = 1).

    W_z is the displacement D(alpha) with alpha = conj(z)/sqrt(t) (Cahill and
    Glauber 1969): for a >= b the element is
    sqrt(b!/a!) alpha^(a-b) e^{-|alpha|^2/2} L_b^(a-b)(|alpha|^2), and for
    a < b it is sqrt(a!/b!) (-conj alpha)^(b-a) e^{-|alpha|^2/2} L_a^(b-a)(|alpha|^2).
    L is summed term by term at a precision above its largest term,
    2^(2D) e^x, so the cancellation at large |z| costs no digits.
    Returns a nested list of mpmath numbers.
    """
    import mpmath as mp

    x_float = abs(z) ** 2 / t
    with mp.workdps(30 + int(0.302 * 2 * D + 0.435 * x_float) + 1):
        alpha = mp.conj(mp.mpc(z)) / mp.sqrt(t)
        x = abs(alpha) ** 2
        damp = mp.exp(-x / 2)

        def laguerre(n, k):
            return mp.fsum(
                (-1) ** j * mp.binomial(n + k, n - j) * x**j / mp.factorial(j)
                for j in range(n + 1)
            )

        out = [[mp.mpc(0)] * (D + 1) for _ in range(D + 1)]
        for a in range(D + 1):
            for b in range(D + 1):
                lo, hi = min(a, b), max(a, b)
                root = mp.sqrt(mp.factorial(lo) / mp.factorial(hi))
                power = alpha ** (a - b) if a >= b else (-mp.conj(alpha)) ** (b - a)
                out[a][b] = +(root * power * damp * laguerre(lo, hi - lo))
        return out


def weyl_reference(z, t: float, indices) -> np.ndarray:
    """Weyl matrix on a multi-index basis: the tensor product of per-axis blocks.

    indices lists the basis multi-indices in the package's order; the
    truncated matrix entries are the exact entries of the infinite matrix.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    D = max(sum(alpha) for alpha in indices)
    axes = [np.array(weyl_laguerre(complex(za), t, D), dtype=complex) for za in z]
    idx = np.array(indices)
    out = np.ones((len(indices), len(indices)), dtype=complex)
    for ax, block in enumerate(axes):
        out *= block[np.ix_(idx[:, ax], idx[:, ax])]
    return out
