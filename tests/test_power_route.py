"""Grid power tables from one log each: the bits of numpy's own array power.

numpy multiplies out integer powers of a complex array below
FAST_POWER_LIMIT and hands larger ones to the C library's cpow, which
computes exp(k log z).  spectral._power_table keeps numpy's route for
small exponents and evaluates large ones as np.exp(k * log zs) over one
log per table.  These tests hold every power table row it hands out to
the bit against numpy's expression with array exponents, across
the switch at |k| = 100 and up to |k| = 20,004, on unit-circle grids,
their rounded reciprocals and conjugates.
"""

import numpy as np
import pytest

from jacobiscatter import Limits, sample_circle
from jacobiscatter.spectral import _power_table


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
def test_seed_power_equals_array_exponent_power(name):
    zs = GRIDS[name]
    for k in EXPONENTS:
        want = zs ** np.full(zs.size, k)
        assert bits(_power_table(zs, np.array([k]))[0]) == bits(want), k


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
    assert bits(_power_table(zs, ks)) == bits(zs[None, :] ** ks[:, None])


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_small_exponent_table_is_numpy_broadcast_without_a_log(name, monkeypatch):
    zs = GRIDS[name]
    ks = np.arange(-99, 100)
    logs = []
    log = np.log

    def counting_log(x, *args, **kwargs):
        logs.append(np.shape(x))
        return log(x, *args, **kwargs)

    monkeypatch.setattr(np, "log", counting_log)
    assert bits(_power_table(zs, ks)) == bits(zs[None, :] ** ks[:, None])
    assert _power_table(zs, ks[:0]).shape == (0, zs.size)
    # the log is paid for only when some exponent needs it, once a table
    assert logs == []
    _power_table(zs, np.array([100, -100, 5]))
    assert logs == [zs.shape]


@pytest.mark.parametrize("table", sorted(TABLES))
def test_signed_columns_equal_their_own_tables(table):
    """One table over column blocks of several grids, each block with its
    own exponent sign, as _recurse seeds a solution and its companion at
    1/z, is the blocks' own one-sign tables side by side, to the bit:
    below FAST_POWER_LIMIT, past it, and in tables that hold both."""
    ks = TABLES[table]
    blocks = [
        (GRIDS["unit-512"], 1), (GRIDS["reciprocal-512"], 1), (GRIDS["unit-512"], -1),
        (GRIDS["limits-97"], -1), (GRIDS["scattered-300"], 1),
    ]
    zs = np.concatenate([grid for grid, _ in blocks])
    signs = np.repeat([sign for _, sign in blocks], [grid.size for grid, _ in blocks])
    want = np.hstack([_power_table(grid, sign * ks) for grid, sign in blocks])
    assert bits(_power_table(zs, ks, signs)) == bits(want)
    assert bits(_power_table(zs, ks, -1)) == bits(_power_table(zs, -ks))
