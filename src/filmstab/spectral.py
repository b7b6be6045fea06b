"""Shared spectral building blocks: Fourier differentiation and cosine series on
uniform periodic grids, and Chebyshev-Lobatto collocation on [0, 1].

Everything in the package that differentiates or integrates numerically goes
through these helpers, so their conventions are fixed here once:

* periodic directions use n equispaced nodes x_j = j*L/n (no duplicated
  endpoint) and one trigonometric derivative, the dense matrix of
  :func:`fourier_diff_matrix`, which each
  :class:`~filmstab.geometry.Profile` builds once and applies to its
  nodal samples,
* the wall-normal direction uses ny Chebyshev-Lobatto nodes mapped to [0, 1]
  in ascending order (s_0 = 0 at the substrate, s_{ny-1} = 1 at the free
  surface) with Clenshaw-Curtis quadrature weights.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fourier_nodes",
    "fourier_diff_matrix",
    "cheb_lobatto_nodes",
    "cheb_diff_matrix",
    "clenshaw_curtis_weights",
    "lateral_grids",
    "cosine_series",
]


def fourier_nodes(n: int, width: float = 1.0) -> np.ndarray:
    """Equispaced periodic nodes j*width/n, j = 0..n-1."""
    if n < 4:
        raise ValueError(f"periodic grid needs n >= 4, got n={n}")
    return (width / n) * np.arange(n)


def lateral_grids(n: int, width: float, dim: int) -> tuple:
    """Node coordinates of a film's periodic cell, one ``xshape`` array per lateral axis."""
    x = fourier_nodes(n, width)
    return (x,) if dim == 2 else tuple(np.meshgrid(x, x, indexing="ij"))


def cosine_series(n: int, width: float, dim: int, terms, start: float = 0.0) -> np.ndarray:
    """Samples of ``start + sum a * cos(2*pi*(m . x)/width + p)`` on the periodic cell.

    Each term is a ``{"mode": m, "amplitude": a, "phase": p}`` mapping (phase
    optional, ``m`` an integer in 2D and a pair in 3D); terms are added in
    order onto the constant ``start``.
    """
    grids = lateral_grids(n, width, dim)
    out = np.full(grids[0].shape, float(start))
    for term in terms:
        m = np.atleast_1d(np.asarray(term["mode"], dtype=float))
        if m.size != dim - 1:
            raise ValueError(f"mode {term['mode']} has wrong dimension for dim={dim}")
        arg = sum(2.0 * np.pi * m[a] * grids[a] / width for a in range(dim - 1))
        out = out + float(term["amplitude"]) * np.cos(arg + float(term.get("phase", 0.0)))
    return out


def fourier_diff_matrix(n: int, width: float = 1.0) -> np.ndarray:
    """Dense first-derivative matrix acting on periodic nodal samples.

    The FFT derivative of the identity: column ``j`` is the derivative of
    the trigonometric interpolant of the ``j``-th unit sample, with the
    Nyquist mode dropped for even ``n``, the usual convention for odd-order
    derivatives of real samples.  It is the package's only lateral
    derivative operator, held by each profile as
    :attr:`~filmstab.geometry.Profile.diff_matrix`.
    """
    m = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        m[n // 2] = 0.0
    k = 2.0 * np.pi * m / width
    return np.real(np.fft.ifft(np.fft.fft(np.eye(n), axis=0) * (1j * k)[:, None], axis=0))


def cheb_lobatto_nodes(ny: int) -> np.ndarray:
    """Chebyshev-Lobatto points on [0, 1], ascending, endpoints included."""
    if ny < 4:
        raise ValueError(f"wall-normal grid needs ny >= 4, got ny={ny}")
    m = ny - 1
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(ny) / m))


def _lobatto_barycentric_weights(ny: int) -> np.ndarray:
    w = np.ones(ny)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def cheb_diff_matrix(ny: int) -> np.ndarray:
    """First-derivative collocation matrix on the ascending [0, 1] nodes.

    Uses the barycentric form with the negative-sum trick for the diagonal,
    which keeps the matrix accurate up to large ny.
    """
    s = cheb_lobatto_nodes(ny)
    w = _lobatto_barycentric_weights(ny)
    ds = s[:, None] - s[None, :]
    np.fill_diagonal(ds, 1.0)
    d = (w[None, :] / w[:, None]) / ds
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def clenshaw_curtis_weights(ny: int) -> np.ndarray:
    """Quadrature weights on [0, 1] for the Chebyshev-Lobatto nodes.

    The weights integrate every polynomial of degree <= ny-1 exactly; they are
    obtained by matching the Chebyshev moments, which for this size is a small
    well-conditioned cosine system.
    """
    m = ny - 1
    j = np.arange(ny)
    # T_row[p, k] = T_p(x_k) with x_k = cos(pi k / m), descending in x.
    T = np.cos(np.pi * np.outer(j, j) / m)
    moments = np.zeros(ny)
    p = np.arange(0, ny, 2)
    moments[p] = 2.0 / (1.0 - p.astype(float) ** 2)
    moments[0] = 2.0
    w = np.linalg.solve(T, moments)
    # map [-1, 1] -> [0, 1] and flip to ascending s
    return 0.5 * w[::-1]

