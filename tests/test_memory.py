"""The identities report's memory does not grow with the window or the reach.

Its recursions hand out their rows in blocks of a few sites, which the
identity and junction sweeps reduce as they come, so the report holds a
few blocks and one array of (sites, points) values, the left solution
the Wronskian pairing reads.  tracemalloc counts numpy's arrays.
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np

from jacobiscatter import (
    Fragmentation, cli, junction_residual_sweep, sample_circle, wronskian_values,
)
from jacobiscatter.transition import _identities_report
from test_kernel_reference import damped_window

POINTS = 64
# the README's example input
README_INPUT = {
    "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
    "n_min": -1, "n_max": 1, "a": [1.0, 1.0, 1.0],
    "b": [0.3, 0.0, -0.4], "w": [1.0, 1.0, 1.0],
}


def traced_peak(call):
    """Bytes allocated at call's peak, beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_report_on_a_long_window_holds_one_array_of_its_sites():
    """2,000 sites with 3 breakpoints: at most twice one complex array of
    the solution range's 2,004 sites by 64 points, 2.05 MB, where the
    report held every solution over the whole range, 6.8 of them."""
    seq = damped_window(0, 2000, seed=7)
    zs = sample_circle(seq.limits, POINTS, 1e-3).zs
    frag = Fragmentation((500, 1000, 1500))
    sites = seq.window.n_max - seq.window.n_min + 5
    one_array = np.empty((sites, POINTS), dtype=complex).nbytes
    assert traced_peak(lambda: _identities_report(seq, frag, zs)) <= 2 * one_array


def test_pairing_route_holds_no_solution_array():
    """The Wronskian route on 2,000 sites recurses one solution pair and
    keeps two of its sites: it peaks below one complex array of the
    solution range by 64 points, 2.05 MB, where four whole solutions took
    4.5 of them."""
    seq = damped_window(0, 2000, seed=7)
    zs = sample_circle(seq.limits, POINTS, 1e-3).zs
    sites = seq.window.n_max - seq.window.n_min + 5
    one_array = np.empty((sites, POINTS), dtype=complex).nbytes
    assert traced_peak(lambda: wronskian_values(seq, zs)) < one_array


def test_junction_sweep_holds_no_solution_array():
    """The public junction sweep on 2,000 sites with 3 breakpoints keeps
    the whole's rows only at the junction sites: it peaks below one
    complex array of the solution range by 64 points, 2.05 MB, at about a
    third of that, warm or cold; reading the whole's rows from one
    identity sweep over every site took 1.3 of them."""
    seq = damped_window(0, 2000, seed=7)
    zs = sample_circle(seq.limits, POINTS, 1e-3).zs
    frag = Fragmentation((500, 1000, 1500))
    sites = seq.window.n_max - seq.window.n_min + 5
    one_array = np.empty((sites, POINTS), dtype=complex).nbytes
    assert traced_peak(lambda: junction_residual_sweep(seq, frag, zs)) < one_array


def test_far_breakpoints_cost_no_memory_per_site(tmp_path):
    """A breakpoint 2,000 sites past either edge of the 3-site README
    window is checked at the window's edge, so no solution spans those
    sites: the report peaks under 2 MB."""
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(README_INPUT))
    argv = ["identities", "--input", str(path), "--grid", str(POINTS)]
    for point in (2000, -2000):
        with contextlib.redirect_stdout(io.StringIO()):
            peak = traced_peak(lambda: cli.main(argv + [f"--breakpoints={point}"]))
        assert peak < 2_000_000, point
