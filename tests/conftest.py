"""Test-session settings and the oracle tolerance shared by every test module."""

import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from compare_outputs import rel_diff  # noqa: E402

from convbeam.wavio import write_wav  # noqa: E402

# Every run draws the same Hypothesis cases, so a tier-1 verdict does not
# depend on the draw; a hard case found by a wider search belongs in an
# ``@example``.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


# perfbench's ``checks.REL_TOL``: the bound admits a different summation
# order, not a different algorithm
REL_TOL = 1e-12


def assert_close(got, want, scale=None, tol=REL_TOL) -> None:
    """max|got - want| / max|scale| <= tol, by ``compare_outputs.rel_diff``,
    the rule of perfbench's ``checks.rel_err``.

    ``scale`` defaults to ``want``; a zero scale bounds max|got - want|
    itself.  The compiled kernel sums its dot products in another order
    than the scalar oracle, so the two agree to rounding, not bit for bit.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"shape {got.shape}, expected {want.shape}"
    rel = rel_diff(want, got, want if scale is None else scale)
    assert rel <= tol, f"max|delta| / max|ref| = {rel:.3g}, above {tol:g}"


def write_non_finite_wav(path, buf, channel: int, index: int, value: float) -> None:
    """``write_wav``'s float32 file of ``buf`` with ``value`` at ``channel``, ``index``: the
    file a reader must refuse, which ``write_wav`` itself refuses to write."""
    write_wav(path, buf)
    with open(path, "r+b") as fh:
        fh.seek(44 + 4 * (index * buf.num_channels + channel))  # after the 44-byte header
        fh.write(np.float32(value).tobytes())
