"""Two independent recomputations of the scattering coefficients.

The tail-fit extraction in module scattering is cross-checked here by
two routes that fail differently, and this module imports nothing from
scattering or transition.  Each route's grid form returns the arrays
(T, R, L) over a grid, and its point form the [z] entries of those
arrays as a tuple of Python complex numbers.

Transfer route: the one-step update of the state (f(n), f(n-1)) is a
2x2 matrix in the coefficients alone.  Multiplying the steps across the
perturbed region and changing basis to plane-wave amplitudes on both
ends yields the map A from left tail amplitudes to right tail
amplitudes, and

    1/T = A[1, 1],   R/T = A[0, 1],   L/T = -A[1, 0].

This route never builds a normalized solution, so apart from one
coefficient_arrays table over its sites it shares nothing with the
recursion used by the extraction.

Wronskian route: with the pairing [f; g](n) = a(n+1) (f(n) g(n+1)
- f(n+1) g(n)), constant in n, substituting the exact tail expansions
of the four normalized solutions gives

    T   =  a_inf (1/z - z) / [f_l; f_r]
    L/T = -[f_l; g_r] / (a_inf (1/z - z))
    R/T =  [f_r; g_l] / (a_inf (1/z - z)).

The constants were fixed by the substitution and validated against the
single-site closed form before this module was allowed to arbitrate.
"""

from __future__ import annotations

import numpy as np

from .jost import _pairing, _recurse, _rows_at, solution_range
from .lattice import CoefficientSequence, coefficient_arrays
from .spectral import _fault_where, _power_table, require_admissible, wave_pair_det


def _step_entries(base, w_inf, a_n, b_n, w_n, a_next):
    """The top row of the one-site update at a site with coefficients a_n,
    b_n and w_n and coupling a_next above it; base is a_inf (z + 1/z) + b_inf."""
    drive = (w_n / w_inf) * base
    return (drive - b_n) / a_next, -a_n / a_next


def step_matrix(seq: CoefficientSequence, z: complex, site: int) -> np.ndarray:
    """The one-site update, a read-only complex 2x2 array.

    It takes the state (f(site), f(site - 1)) of a solution at z to
    (f(site + 1), f(site)); its determinant is a(site)/a(site + 1).
    """
    require_admissible(z)
    z = complex(z)
    lim = seq.limits
    a, b, w = (values.tolist() for values in coefficient_arrays(seq, site, site + 1))
    base = lim.a_inf * (z + 1.0 / z) + lim.b_inf
    top_left, top_right = _step_entries(base, lim.w_inf, a[0], b[0], w[0], a[1])
    step = np.array([[top_left, top_right], [1.0, 0.0]], dtype=complex)
    step.setflags(write=False)
    return step


def transfer_amplitude_map(seq: CoefficientSequence, zs: np.ndarray) -> np.ndarray:
    """Left-to-right plane-wave amplitude map, one 2x2 block per z.

    Steps are multiplied over every site whose equation can deviate from
    the free one, n_min - 1 through n_max + 1, and the ends are rotated
    into the (z^n, z^{-n}) amplitude basis.  The determinant is exactly 1
    because the coupling at both ends of that span sits at its limit.
    """
    zs = require_admissible(zs)
    lim = seq.limits
    n_min, n_max = seq.window.n_min, seq.window.n_max
    # sites n_min - 1 through n_max + 2: each step reads its site and the next
    a, b, w = (values.tolist() for values in coefficient_arrays(seq, n_min - 1, n_max + 2))
    base = lim.a_inf * (zs + 1.0 / zs) + lim.b_inf
    p00 = np.ones_like(zs)
    p01 = np.zeros_like(zs)
    p10 = np.zeros_like(zs)
    p11 = np.ones_like(zs)
    for a_n, b_n, w_n, a_next in zip(a, b, w, a[1:]):
        m00, m01 = _step_entries(base, lim.w_inf, a_n, b_n, w_n, a_next)
        q00 = m00 * p00 + m01 * p10
        q01 = m00 * p01 + m01 * p11
        p00, p01, p10, p11 = q00, q01, p00, p01
    det = -wave_pair_det(zs)

    def basis(m):
        return zs**m, zs ** (-m), zs ** (m - 1), zs ** (-(m - 1))

    z00, z01, z10, z11 = basis(n_min - 1)
    t00 = p00 * z00 + p01 * z10
    t01 = p00 * z01 + p01 * z11
    t10 = p10 * z00 + p11 * z10
    t11 = p10 * z01 + p11 * z11
    y00, y01, y10, y11 = basis(n_max + 2)
    out = np.empty(zs.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = (y11 * t00 - y01 * t10) / det
    out[..., 0, 1] = (y11 * t01 - y01 * t11) / det
    out[..., 1, 0] = (y00 * t10 - y10 * t00) / det
    out[..., 1, 1] = (y00 * t11 - y10 * t01) / det
    return out


def transfer_matrix_values(
    seq: CoefficientSequence, zs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, R, L) arrays via the transfer route."""
    amp = transfer_amplitude_map(seq, zs)
    inv_t = amp[..., 1, 1]
    t = 1.0 / inv_t
    return t, amp[..., 0, 1] * t, -amp[..., 1, 0] * t


def transfer_matrix_scattering(
    seq: CoefficientSequence, z: complex
) -> tuple[complex, complex, complex]:
    """(T, R, L) at one point via the transfer route."""
    t, r, l = transfer_matrix_values(seq, np.asarray([z], dtype=complex))
    return complex(t[0]), complex(r[0]), complex(l[0])


def wronskian_values(
    seq: CoefficientSequence, zs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, R, L) arrays via constant pairings of normalized solutions.

    The pairings are taken at the lower tail, on the sites lo = n_min - 2
    and lo + 1 below the window.  There the right solution and its
    companion are their own seeded plane waves, z^-n and z^n, so only the
    left pair is recursed, in one run that keeps its rows on those sites.
    """
    zs = require_admissible(zs)
    lo, hi = solution_range(seq)
    sites = np.array([lo, lo + 1])
    # the plain solution's columns, then its companion's
    run = _recurse(seq, lo, hi, ((zs, False), (zs, True)), "left")
    fl, gl = np.hsplit(_rows_at(run, (lo, lo + 1)), 2)
    fr, gr = _power_table(zs, -sites), _power_table(zs, sites)
    a_lo = seq.limits.a_inf  # site lo + 1 is below the window, so at the limit
    base = seq.limits.a_inf * wave_pair_det(zs)
    (w_lr,) = _pairing(a_lo, fl, fr)
    _fault_where(np.abs(w_lr) < 1e-300, zs, "vanishing solution pairing")
    t = base / w_lr
    l_over_t = -_pairing(a_lo, fl, gr)[0] / base
    r_over_t = _pairing(a_lo, fr, gl)[0] / base
    # the vanishing test above is False for nan, so overflow needs its own
    # guard; w_lr is a multiple of 1/T, finite exactly where T is usable
    finite = np.isfinite(w_lr) & np.isfinite(r_over_t) & np.isfinite(l_over_t)
    _fault_where(~finite, zs, "Wronskian route is not finite")
    return t, r_over_t * t, l_over_t * t


def wronskian_scattering(seq: CoefficientSequence, z: complex) -> tuple[complex, complex, complex]:
    """(T, R, L) at one point via the pairing route."""
    t, r, l = wronskian_values(seq, np.asarray([z], dtype=complex))
    return complex(t[0]), complex(r[0]), complex(l[0])
