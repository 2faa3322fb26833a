"""Grid powers from one shared log: the same bits as numpy's own zs ** k.

numpy multiplies out integer powers of a complex array below
FAST_POWER_LIMIT and hands larger ones to the C library's cpow, which
computes exp(k log z).  The grid context keeps numpy's route for small
exponents and evaluates large ones as np.exp(k * log zs) over one shared
log.  These tests hold every power the context hands out to the bit
against numpy's expression, with scalar and array exponents, across the
switch at |k| = 100 and up to |k| = 20,004, on unit-circle grids, their
rounded reciprocals and conjugates.
"""

import numpy as np
import pytest

from jacobiscatter import Limits, sample_circle
from jacobiscatter.spectral import _GridContext


def grids():
    base = sample_circle(Limits(1.0, 0.0, 1.0), 512, 1e-3).zs
    other = sample_circle(Limits(-1.5, 0.3, 2.0), 97, 0.05).zs
    large = sample_circle(Limits(1e3, 0.0, 1e-3), 64, 0.01).zs
    rng = np.random.default_rng(7)
    scattered = np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    return {
        "unit-512": base,
        "reciprocal-512": 1.0 / base,
        "conjugate-512": np.conj(base),
        "limits-97": other,
        "reciprocal-97": 1.0 / other,
        "large-limits-64": large,
        "scattered-300": scattered,
    }


GRIDS = grids()

EXPONENTS = [
    k
    for magnitude in (1, 2, 3, 98, 99, 100, 101, 102, 150, 997, 4096, 10_007, 19_999, 20_004)
    for k in (magnitude, -magnitude)
]


def bits(x):
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_power_equals_scalar_exponent_power(name):
    zs = GRIDS[name]
    ctx = _GridContext(zs)
    for k in EXPONENTS:
        assert bits(ctx.power(k)) == bits(zs**k), k
        # memoized values stay the same
        assert bits(ctx.power(k)) == bits(zs**k), k


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_seed_power_equals_array_exponent_power(name):
    zs = GRIDS[name]
    ctx = _GridContext(zs)
    for k in EXPONENTS:
        want = zs ** np.full(zs.size, k)
        assert bits(ctx.power_table(np.array([k]))[0]) == bits(want), k


TABLES = {
    "across-positive-switch": np.arange(90, 111),
    "across-negative-switch": -np.arange(90, 111),
    "across-both": np.arange(-130, 131),
    "far-positive": np.arange(19_950, 20_005),
    "far-negative": -np.arange(19_950, 20_005),
    "unordered": np.array([5, 200, -3, -100, 99, 20_004, -99, -20_004, 101, 0]),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("table", sorted(TABLES))
def test_power_table_equals_broadcast_power(name, table):
    zs, ks = GRIDS[name], TABLES[table]
    assert bits(_GridContext(zs).power_table(ks)) == bits(zs[None, :] ** ks[:, None])


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_small_exponent_table_is_numpy_broadcast_without_a_log(name):
    zs = GRIDS[name]
    ks = np.arange(-99, 100)
    ctx = _GridContext(zs)
    assert bits(ctx.power_table(ks)) == bits(zs[None, :] ** ks[:, None])
    assert ctx.power_table(ks[:0]).shape == (0, zs.size)
    # the log is paid for only when some exponent needs it
    assert ctx._log is None
    ctx.power_table(np.array([100]))
    assert ctx._log is not None
