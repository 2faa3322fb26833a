"""Finite-support coefficient sequences on the integer lattice.

A sequence stores three real coefficient families on a finite index
window and extends them by their constant limiting values everywhere
else: an off-diagonal coupling a(n), a diagonal term b(n), and a
positive weight w(n).  Sites outside the window always carry the
limits, which is what makes tail computations downstream exact.

The module also knows how to split a sequence into fragments along
breakpoints.  Fragment j keeps the original values on the half-open
slab (n_{j-1}, n_j] and is padded with the limits elsewhere, so the
fragments partition the perturbed sites site by site.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CoefficientError

MAX_WINDOW_SITES = 10_000
MAX_SITE_INDEX = 2**62  # a window's largest |n|, so the checks' sites stay int64

_FIELDS = ("a_inf", "b_inf", "w_inf", "n_min", "n_max", "a", "b", "w")

# float() and int() take these, but a coefficient file that holds one
# where a number belongs is mistyped
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


class CouplingSignWarning(UserWarning):
    """Some coupling value a(n) is negative.

    Negative couplings are admitted (only a(n) = 0 is rejected), but the
    junction checks in the test suite are exercised with positive ones.
    """


@dataclass(frozen=True)
class Limits:
    """Limiting coefficient values shared by both lattice tails."""

    a_inf: float
    b_inf: float
    w_inf: float

    def __post_init__(self):
        for name in ("a_inf", "b_inf", "w_inf"):
            raw = getattr(self, name)
            try:
                if isinstance(raw, _NOT_NUMBERS):
                    raise TypeError
                value = float(raw)
            except (TypeError, OverflowError):
                raise CoefficientError(f"{name} must be a real number, got {raw!r:.40}") from None
            if not math.isfinite(value):
                raise CoefficientError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.a_inf == 0.0:
            raise CoefficientError("a_inf must be nonzero")
        if self.w_inf <= 0.0:
            raise CoefficientError(f"w_inf must be positive, got {self.w_inf}")


def _integer(value, name: str) -> int:
    """value as an int, if it is an integral number and not a str or a bool."""
    try:
        integral = not isinstance(value, _NOT_NUMBERS) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise CoefficientError(f"{name} must be an integer, got {value!r:.40}")
    return int(value)


@dataclass(frozen=True)
class IndexWindow:
    """Closed integer index range [n_min, n_max]."""

    n_min: int
    n_max: int

    def __post_init__(self):
        for name in ("n_min", "n_max"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n_min > self.n_max:
            raise CoefficientError(
                f"empty window: n_min={self.n_min} exceeds n_max={self.n_max}"
            )

    @property
    def length(self) -> int:
        return self.n_max - self.n_min + 1

    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def contains(self, n: int) -> bool:
        return self.n_min <= n <= self.n_max


def _holds_non_number(values) -> bool:
    """Whether values, an array or a list of entries, holds a str or a bool."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "O":
            return values.dtype.kind in "bSU"
        values = values.ravel().tolist()
    elif not isinstance(values, (list, tuple)):
        return isinstance(values, _NOT_NUMBERS)
    return any(issubclass(kind, _NOT_NUMBERS) for kind in set(map(type, values)))


def _stored_array(values, name: str, length: int) -> np.ndarray:
    try:
        if _holds_non_number(values):
            raise TypeError
        arr = np.asarray(values, dtype=float)
    except (TypeError, OverflowError):
        raise CoefficientError(f"{name} must be an array of numbers, got {values!r:.40}") from None
    if arr.ndim != 1 or arr.size != length:
        raise CoefficientError(
            f"{name} must be a flat array of length {length}, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise CoefficientError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Whole-line coefficients: stored window values plus constant tails."""

    limits: Limits
    window: IndexWindow
    a_values: np.ndarray
    b_values: np.ndarray
    w_values: np.ndarray

    def __post_init__(self):
        if self.window.length > MAX_WINDOW_SITES:
            raise CoefficientError(
                f"window spans {self.window.length} sites, cap is {MAX_WINDOW_SITES}"
            )
        lo, hi = self.window.n_min, self.window.n_max
        if max(-lo, hi) > MAX_SITE_INDEX:
            raise CoefficientError(f"window [{lo}, {hi}] reaches past |n| = {MAX_SITE_INDEX}")
        length = self.window.length
        object.__setattr__(self, "a_values", _stored_array(self.a_values, "a", length))
        object.__setattr__(self, "b_values", _stored_array(self.b_values, "b", length))
        object.__setattr__(self, "w_values", _stored_array(self.w_values, "w", length))
        if (self.a_values == 0.0).any():
            site = self.window.n_min + int(np.argmax(self.a_values == 0.0))
            raise CoefficientError(f"a({site}) is zero; couplings must be nonzero")
        if (self.w_values <= 0.0).any():
            site = self.window.n_min + int(np.argmax(self.w_values <= 0.0))
            raise CoefficientError(f"w({site}) is not positive")
        if self.limits.a_inf < 0.0 or (self.a_values < 0.0).any():
            warnings.warn(
                "negative coupling a(n) present; admitted, but junction checks "
                "are only routinely exercised with positive couplings",
                CouplingSignWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class Fragmentation:
    """Strictly increasing breakpoints splitting the line into slabs."""

    breakpoints: tuple[int, ...]

    def __post_init__(self):
        pts = tuple(_integer(p, "breakpoint") for p in self.breakpoints)
        if len(pts) == 0:
            raise CoefficientError("at least one breakpoint is required")
        if any(q <= p for p, q in zip(pts, pts[1:])):
            raise CoefficientError(
                f"breakpoints must be strictly increasing, got {pts}"
            )
        object.__setattr__(self, "breakpoints", pts)

    @property
    def fragment_count(self) -> int:
        return len(self.breakpoints) + 1


@dataclass(frozen=True)
class Support:
    """Tight window of sites actually deviating from the limits."""

    window: IndexWindow
    free: bool


def validate_sequence(spec: Mapping) -> CoefficientSequence:
    """Build a validated sequence from a raw coefficient description.

    Args:
        spec: mapping with scalar fields a_inf, b_inf, w_inf, n_min, n_max
            and arrays a, b, w of length n_max - n_min + 1 (entry k holds
            the value at site n_min + k).

    Returns:
        The validated CoefficientSequence.

    Raises:
        CoefficientError: on missing fields, strings or booleans where
            numbers belong, length mismatches, zero couplings,
            nonpositive weights, or non-finite entries.
    """
    missing = [key for key in _FIELDS if key not in spec]
    if missing:
        raise CoefficientError(f"coefficient description missing fields {missing}")
    limits = Limits(spec["a_inf"], spec["b_inf"], spec["w_inf"])
    window = IndexWindow(spec["n_min"], spec["n_max"])
    return CoefficientSequence(limits, window, spec["a"], spec["b"], spec["w"])


def coefficient_at(seq: CoefficientSequence, n: int) -> tuple[float, float, float]:
    """Return (a(n), b(n), w(n)), falling back to the limits off-window."""
    if seq.window.contains(n):
        k = n - seq.window.n_min
        return (
            float(seq.a_values[k]),
            float(seq.b_values[k]),
            float(seq.w_values[k]),
        )
    lim = seq.limits
    return (lim.a_inf, lim.b_inf, lim.w_inf)


def coefficient_arrays(
    seq: CoefficientSequence, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (a, b, w) arrays over the index range [lo, hi]."""
    if lo > hi:
        raise CoefficientError(f"empty coefficient range [{lo}, {hi}]")
    idx = np.arange(lo, hi + 1)
    a = np.full(idx.size, seq.limits.a_inf)
    b = np.full(idx.size, seq.limits.b_inf)
    w = np.full(idx.size, seq.limits.w_inf)
    inside = (idx >= seq.window.n_min) & (idx <= seq.window.n_max)
    stored = idx[inside] - seq.window.n_min
    a[inside] = seq.a_values[stored]
    b[inside] = seq.b_values[stored]
    w[inside] = seq.w_values[stored]
    return a, b, w


def fragment(seq: CoefficientSequence, frag: Fragmentation) -> list[CoefficientSequence]:
    """Split a sequence into limit-padded fragments along breakpoints.

    Fragment j (1-based) keeps the original values on sites n with
    n_{j-1} < n <= n_j, where n_0 = -inf and n_N = +inf, and carries the
    limits everywhere else.  All fragments share the window and limits of
    the input, so summing the deviations of the fragments reproduces the
    deviations of the input site by site.  The shared window costs
    nothing downstream: scattering data and transition matrices are
    evaluated on each fragment's effective support, its own slab.
    """
    idx = seq.window.indices()
    lowers = (-math.inf,) + frag.breakpoints
    uppers = frag.breakpoints + (math.inf,)
    lim = seq.limits
    parts = []
    for low, high in zip(lowers, uppers):
        keep = (idx > low) & (idx <= high)
        parts.append(
            CoefficientSequence(
                lim,
                seq.window,
                np.where(keep, seq.a_values, lim.a_inf),
                np.where(keep, seq.b_values, lim.b_inf),
                np.where(keep, seq.w_values, lim.w_inf),
            )
        )
    return parts


def effective_support(seq: CoefficientSequence) -> Support:
    """Tightest window holding every deviation from the limits.

    Values stored in the window that happen to equal the limits are
    trimmed away.  A sequence with no deviation at all reports the
    degenerate window [0, 0] flagged as free.
    """
    lim = seq.limits
    deviates = (
        (seq.a_values != lim.a_inf)
        | (seq.b_values != lim.b_inf)
        | (seq.w_values != lim.w_inf)
    )
    if not bool(np.any(deviates)):
        return Support(IndexWindow(0, 0), free=True)
    positions = np.nonzero(deviates)[0]
    first = seq.window.n_min + int(positions[0])
    last = seq.window.n_min + int(positions[-1])
    return Support(IndexWindow(first, last), free=False)
