"""Shared fixtures: the hand-checkable sequences plus a seeded random family.

The random family is conditioned deliberately.  Fundamental solutions grow
exponentially through the support, so a 40-site window with order-one
deviations drives 1/|T| past 1e8 and absolute residual bounds stop meaning
anything; scaling the deviation amplitudes like 1/length keeps 1/|T| below
about 1e2 across the family, which leaves two orders of magnitude of margin
under every acceptance bound.
"""

import numpy as np
import pytest

from jacobiscatter import (
    CoefficientSequence,
    Fragmentation,
    IndexWindow,
    Limits,
    sample_circle,
)

RANDOM_SEED = 20260822
RANDOM_FIXTURE_COUNT = 50

UNIT_LIMITS = Limits(1.0, 0.0, 1.0)
# limits whose band images carry rounding far above an absolute 1e-12
LARGE_LIMITS = (Limits(1e4, 0.0, 1.0), Limits(1e3, 0.0, 1e-3))


def make_sequence(n_min, a, b, w, limits=UNIT_LIMITS):
    window = IndexWindow(n_min, n_min + len(b) - 1)
    return CoefficientSequence(limits, window, a, b, w)


def free_sequence():
    """Window values equal to the limits; nothing scatters."""
    return make_sequence(0, [1.0], [0.0], [1.0])


def single_site_sequence():
    """One site with b(0) = 0.5; every closed form in the suite uses it."""
    return make_sequence(0, [1.0], [0.5], [1.0])


def two_impurity_sequence():
    """b deviates at -1 and +1 only, so a breakpoint at 0 separates them."""
    return make_sequence(-1, [1.0, 1.0, 1.0], [0.3, 0.0, -0.4], [1.0, 1.0, 1.0])


def mixed_sequence():
    """All three coefficient kinds deviate somewhere in the window."""
    return make_sequence(
        -1,
        [1.0, 1.3, 1.0, 0.8],
        [0.2, -0.4, 0.1, 0.0],
        [1.0, 1.5, 0.9, 1.0],
    )


def coupling_step_sequence():
    """a(1) = 2 against a_inf = 1, exercising the junction coupling ratio."""
    return make_sequence(1, [2.0], [0.0], [1.0])


def overflowing_sequence():
    """An undamped 10,000-site window whose solutions overflow."""
    rng = np.random.default_rng(0)
    n = 10_000
    b = 0.5 * rng.standard_normal(n)
    a = 1.0 + 0.1 * rng.uniform(size=n)
    w = 1.0 + 0.1 * rng.uniform(size=n)
    return make_sequence(0, a, b, w)


def hand_fixtures():
    """The hand-checkable sequences that scatter."""
    return [
        single_site_sequence(),
        two_impurity_sequence(),
        mixed_sequence(),
        coupling_step_sequence(),
    ]


@pytest.fixture
def free_seq():
    return free_sequence()


@pytest.fixture
def single_site_seq():
    return single_site_sequence()


@pytest.fixture
def two_impurity_seq():
    return two_impurity_sequence()


@pytest.fixture
def mixed_seq():
    return mixed_sequence()


@pytest.fixture
def coupling_step_seq():
    return coupling_step_sequence()


def random_sequence(rng):
    length = int(rng.integers(1, 41))
    n_min = int(rng.integers(-12, 13))
    window = IndexWindow(n_min, n_min + length - 1)
    a_inf = rng.uniform(0.7, 1.4)
    b_inf = rng.uniform(-0.5, 0.5)
    w_inf = rng.uniform(0.7, 1.4)
    amp_a = min(0.6, 1.0 / length) * a_inf
    amp_b = min(1.9, 1.4 / length)
    amp_w = min(0.6, 1.0 / length) * w_inf
    a = a_inf + amp_a * rng.uniform(-1.0, 1.0, size=length)
    b = b_inf + amp_b * rng.uniform(-1.0, 1.0, size=length)
    w = w_inf + amp_w * rng.uniform(-1.0, 1.0, size=length)
    return CoefficientSequence(Limits(a_inf, b_inf, w_inf), window, a, b, w)


def random_breakpoints(rng, seq, max_count=4):
    """Breakpoints drawn around the window, possibly outside it."""
    lo = seq.window.n_min - 1
    hi = seq.window.n_max + 2
    count = int(rng.integers(1, max_count + 1))
    pts = sorted(set(int(p) for p in rng.integers(lo, hi, size=count)))
    return Fragmentation(tuple(pts))


@pytest.fixture(scope="session")
def random_fixtures():
    rng = np.random.default_rng(RANDOM_SEED)
    return [random_sequence(rng) for _ in range(RANDOM_FIXTURE_COUNT)]


def default_grid(seq, count=256, delta=0.05):
    return sample_circle(seq.limits, count, delta)


def bits(*arrays):
    """The raw bytes of each array, contiguous, for bit-for-bit comparisons."""
    return [np.ascontiguousarray(x).tobytes() for x in arrays]
