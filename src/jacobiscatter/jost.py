"""Normalized solutions of the lattice equation by exact tail seeding.

The weighted difference equation

    a(n+1) f(n+1) + b(n) f(n) + a(n) f(n-1)
        = (w(n) / w_inf) (a_inf (z + 1/z) + b_inf) f(n)

reduces to the free two-sided recursion wherever all four coefficients
sit at their limits, and there its solutions are combinations of z^n and
z^{-n}.  With a finite window the solution pinned to z^n at +infinity
therefore equals z^n exactly on every site at or above n_max, and the one
pinned to z^{-n} at -infinity equals z^{-n} at or below n_min - 1.  Both
are seeded with those exact plane-wave values on the outer sites and
propagated through the window by the recursion itself, which on the unit
circle has no decaying companion solution to lose accuracy to.

jost_values produces solutions on an index range two sites wider than
the window on each side, so that downstream tail fits read only sites
where the tail form is exact; a caller can widen the range further, at
one recursion step per extra site and grid point.  The tail fits
themselves need neither the window nor the stored values: sites outside
the effective support carry the limits just as well, so they recurse
over that support plus two sites on each side and keep only the last
two rows of state.  Both run on one kernel, which stores solutions
site-major, one contiguous row of grid points per site, and updates
each row in place, with no temporaries per step.  A solution and its
companion at 1/z share coefficients and drive, so callers that need
both stack them as column blocks of one recursion; every block equals
its own single run to the bit.

Each recursion step makes one complex product, the drive times the
current row.  Every other operation scales a row by a real coefficient
or subtracts two rows; it runs on the float64 view of the same rows,
twice as wide, and gives the same bits.  numpy multiplies a complex by a
real scalar as (re c - im 0, im c + re 0), and its complex division by a
real a, whose imaginary part is zero, scales both parts by 1/a, so
multiplying each part by the real, or by 1.0 / a, rounds the same way.
The two routes differ only in the sign of a zero and in a part of an
entry that is already inf or NaN: finite entries are identical and the
same entries are non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import CoefficientSequence, IndexWindow, coefficient_arrays, coefficient_at
from .spectral import _GridContext, require_admissible


class SolutionKind(Enum):
    """Which normalization a solution carries."""

    LEFT_JOST = "left-jost"
    RIGHT_JOST = "right-jost"
    LEFT_CONJUGATE = "left-conjugate"
    RIGHT_CONJUGATE = "right-conjugate"


@dataclass(frozen=True, eq=False)
class LatticeSolution:
    """Solution values on the contiguous index range [lo, lo + len - 1]."""

    values: np.ndarray
    lo: int
    kind: SolutionKind
    z: complex

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "z", complex(self.z))

    @property
    def hi(self) -> int:
        return self.lo + self.values.size - 1

    def at(self, n: int) -> complex:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"site {n} outside solution range [{self.lo}, {self.hi}]")
        return complex(self.values[n - self.lo])


def solution_range(seq: CoefficientSequence, cover: IndexWindow | None = None) -> tuple[int, int]:
    """Index range a solution will span, two sites past the window plus cover."""
    lo = seq.window.n_min - 2
    hi = seq.window.n_max + 2
    if cover is not None:
        lo = min(lo, cover.n_min)
        hi = max(hi, cover.n_max)
    return lo, hi


def jost_values(
    seq: CoefficientSequence,
    zs: np.ndarray,
    side: str,
    cover: IndexWindow | None = None,
    at_inverse: bool = False,
) -> tuple[np.ndarray, int]:
    """Vectorized solve: values[i, k] is the solution at zs[i], site lo + k.

    side selects the normalization, "left" for z^n at +infinity and
    "right" for z^{-n} at -infinity.  Returns (values, lo).

    at_inverse evaluates the same construction at 1/z while still
    parametrized by z: the seed exponents flip sign and the recursion
    drive is reused unchanged, z + 1/z being inversion symmetric.  No
    floating-point number is exactly the inverse of z, so evaluating at
    a rounded reciprocal instead would move the result by a point-level
    error; relations that pair values at z and 1/z amplify exactly that
    error near z = +1, -1, and this mode is what keeps them clean.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    require_admissible(zs)
    lo, hi = solution_range(seq, cover)
    ctx = _GridContext(zs)
    return _recurse(seq, seq.window, lo, hi, ctx, side, (at_inverse,), store=True).T, lo


def _recurse(
    seq: CoefficientSequence,
    window: IndexWindow,
    lo: int,
    hi: int,
    ctx: _GridContext,
    side: str,
    modes: tuple[bool, ...],
    store: bool,
) -> np.ndarray:
    """Propagate normalized solutions over [lo, hi]; row k is site lo + k.

    Every coefficient of seq outside window must sit at its limit.  The
    exact plane-wave tail is seeded past window and the recursion runs
    across it.  ctx holds the grid zs and what recursions over it share:
    the drive for seq's limits and the seed powers.  modes holds one
    at_inverse flag per block of zs.size columns, each block seeded with
    its own sign, so solutions sharing coefficients and drive, such as a
    solution and its companion at 1/z, advance together in one pass.
    Every block equals its one-mode run to the bit.

    With store the whole (sites, columns) buffer is returned.  Otherwise
    three rows rotate and only the two reached last come back, in site
    order: (lo, lo + 1) for the left side, (hi - 1, hi) for the right;
    that mode seeds only two sites, so lo must be window.n_min - 2, and
    takes their powers from ctx, where the tail fits of the same run
    find them again.  The stored mode takes its seeds, as many as the
    range reaches past the window, as one power table from ctx.  Either
    way, seeds with |power| below spectral.FAST_POWER_LIMIT are numpy's
    own zs ** k, and larger ones exp(power * log zs) over the log that
    ctx shares, which is how numpy's cpow computes them, to the bit.
    Each step writes in place into its destination row, through one
    scratch row, with the operations and order of the plain expression
    ((w[k] / w_inf) * s * v - a[k + 1] * next - b[k] * v) / a[k] on the
    left side (b[k] * v before a[k] * prev, over a[k + 1], on the right),
    so it rounds exactly as that expression does.  Only the product with
    v is complex; the real scalings, the subtractions and the division,
    taken as a multiply by 1.0 / a[k], run on the rows' float64 view,
    which gives the same bits for every finite entry (see the module
    docstring) in less time per step.
    """
    zs = ctx.zs
    m = zs.size
    a, b, w = (values.tolist() for values in coefficient_arrays(seq, lo, hi + 1))
    lim = seq.limits
    w_inf = lim.w_inf
    n_min, n_max = window.n_min, window.n_max
    count = hi - lo + 1 if store else 3
    rows = np.empty((count, len(modes) * m), dtype=complex)
    if side == "left":
        tail = np.arange(n_max, hi + 1 if store else n_max + 2)
        powers = tail
    else:
        tail = np.arange(lo, n_min)
        powers = -tail
    for j, inverse in enumerate(modes):
        sign = -1 if inverse else 1
        block = slice(j * m, (j + 1) * m)
        if store:
            rows[(tail - lo) % count, block] = ctx.power_table(sign * powers).T
        else:
            for site, power in zip(tail.tolist(), powers.tolist()):
                rows[(site - lo) % count, block] = ctx.seed_power(sign * power)
    # each row twice: complex for the one complex product per step, and
    # as float64 pairs for every step that only scales by a real
    row = list(rows)
    real = list(rows.view(float))
    drive = ctx.drive(lim, len(modes)).view(float)
    scratch = np.empty_like(drive)
    # an overflowing window is reported by the tail fit's finite guard,
    # not by numpy warnings from inside the loop.  The loop only multiplies
    # and subtracts, so "all" silences just overflow and invalid values; it
    # also lets numpy skip its status check, where naming those two would
    # make every call about 2% slower.
    with np.errstate(all="ignore"):
        if side == "left":
            for k in range(n_max - lo, 0, -1):
                dst, src = (k - 1) % count, k % count
                out = real[dst]
                np.multiply(drive, w[k] / w_inf, out=out)
                np.multiply(row[dst], row[src], out=row[dst])
                np.multiply(real[(k + 1) % count], a[k + 1], out=scratch)
                np.subtract(out, scratch, out=out)
                np.multiply(real[src], b[k], out=scratch)
                np.subtract(out, scratch, out=out)
                np.multiply(out, 1.0 / a[k], out=out)
            last = 0
        else:
            for k in range(n_min - 1 - lo, hi - lo):
                dst, src = (k + 1) % count, k % count
                out = real[dst]
                np.multiply(drive, w[k] / w_inf, out=out)
                np.multiply(row[dst], row[src], out=row[dst])
                np.multiply(real[src], b[k], out=scratch)
                np.subtract(out, scratch, out=out)
                np.multiply(real[(k - 1) % count], a[k], out=scratch)
                np.subtract(out, scratch, out=out)
                np.multiply(out, 1.0 / a[k + 1], out=out)
            last = hi - lo - 1
    if store:
        return rows
    return rows[[last % count, (last + 1) % count]]


def jost_left(
    seq: CoefficientSequence, z: complex, cover: IndexWindow | None = None
) -> LatticeSolution:
    """Solution normalized to z^n at +infinity."""
    vals, lo = jost_values(seq, z, "left", cover)
    return LatticeSolution(vals[0], lo, SolutionKind.LEFT_JOST, z)


def jost_right(
    seq: CoefficientSequence, z: complex, cover: IndexWindow | None = None
) -> LatticeSolution:
    """Solution normalized to z^{-n} at -infinity."""
    vals, lo = jost_values(seq, z, "right", cover)
    return LatticeSolution(vals[0], lo, SolutionKind.RIGHT_JOST, z)


def conjugate_solution(
    seq: CoefficientSequence, z: complex, side: str, cover: IndexWindow | None = None
) -> LatticeSolution:
    """Companion solution, the same normalization taken at the inverse point.

    Computed through the at_inverse mode of jost_values, so solution and
    companion share one floating-point base point; the junction fits and
    Wronskian pairings downstream need exactly that.  On the circle the
    companion coincides with the entrywise complex conjugate of the plain
    solution.  That coincidence stays a checkable statement because the
    conjugation checks evaluate at an independently rounded reciprocal
    rather than through this function.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    vals, lo = jost_values(seq, complex(z), side, cover, at_inverse=True)
    kind = SolutionKind.LEFT_CONJUGATE if side == "left" else SolutionKind.RIGHT_CONJUGATE
    return LatticeSolution(vals[0], lo, kind, z)


def wronskian(
    seq: CoefficientSequence, phi: LatticeSolution, zeta: LatticeSolution, n: int
) -> complex:
    """a(n+1) (phi(n) zeta(n+1) - phi(n+1) zeta(n)), constant across n."""
    a_next = coefficient_at(seq, n + 1)[0]
    return a_next * (phi.at(n) * zeta.at(n + 1) - phi.at(n + 1) * zeta.at(n))


def wronskian_constancy_check(
    seq: CoefficientSequence, phi: LatticeSolution, zeta: LatticeSolution
) -> float:
    """Max drift of the pairing across the shared range, relatively scaled.

    Returns max_n |W(n) - W(n0)| / max(1, |W(n0)|) over every site pair in
    the overlap of the two ranges, with n0 the lowest usable site.
    """
    lo = max(phi.lo, zeta.lo)
    hi = min(phi.hi, zeta.hi)
    if hi - lo < 2:
        raise ValueError("solution ranges overlap on fewer than three sites")
    p = phi.values[lo - phi.lo : hi - phi.lo + 1]
    q = zeta.values[lo - zeta.lo : hi - zeta.lo + 1]
    a, _, _ = coefficient_arrays(seq, lo + 1, hi)
    w_all = a * (p[:-1] * q[1:] - p[1:] * q[:-1])
    ref = w_all[0]
    return float(np.max(np.abs(w_all - ref)) / max(1.0, abs(ref)))


def equation_residual(seq: CoefficientSequence, sol: LatticeSolution) -> float:
    """Worst relative defect of the difference equation at interior sites.

    Each site residual is scaled by the largest participating term so the
    figure stays meaningful when the solution grows through the window.
    """
    lo, hi = sol.lo, sol.hi
    if hi - lo < 2:
        raise ValueError("solution range too short to test the equation")
    # coefficient arrays span [lo, hi + 1], one site longer than the values
    a, b, w = coefficient_arrays(seq, lo, hi + 1)
    s = seq.limits.a_inf * (sol.z + 1.0 / sol.z) + seq.limits.b_inf
    v = sol.values
    up = a[2:-1] * v[2:]
    mid = b[1:-2] * v[1:-1]
    down = a[1:-2] * v[:-2]
    drive = (w[1:-2] / seq.limits.w_inf) * s * v[1:-1]
    defect = np.abs(up + mid + down - drive)
    scale = np.maximum.reduce(
        [np.ones_like(defect), np.abs(up), np.abs(mid), np.abs(down), np.abs(drive)]
    )
    return float(np.max(defect / scale))
