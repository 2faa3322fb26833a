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

from jacobiscatter import Fragmentation, cli
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
    zs = cli._grid_for(seq, cli.RunConfig("", grid_count=POINTS)).zs
    frag = Fragmentation((500, 1000, 1500))
    sites = seq.window.n_max - seq.window.n_min + 5
    one_array = np.empty((sites, POINTS), dtype=complex).nbytes
    assert traced_peak(lambda: _identities_report(seq, frag, zs)) <= 2 * one_array


def test_far_breakpoints_cost_no_memory_per_site(tmp_path):
    """A breakpoint 2,000 sites past either edge of the 3-site README
    window: the junction's solutions span those sites, and the report
    peaks under 2 MB, where it held 14.6 to 14.8 MB of them."""
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(README_INPUT))
    argv = ["identities", "--input", str(path), "--grid", str(POINTS)]
    for point in (2000, -2000):
        with contextlib.redirect_stdout(io.StringIO()):
            peak = traced_peak(lambda: cli.main(argv + [f"--breakpoints={point}"]))
        assert peak < 2_000_000, point
