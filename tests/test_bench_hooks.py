"""The benchmark's tracer still finds every package name it patches.

``perfbench/`` lies outside the test paths, so a rename in ``bnb``,
``relax``, ``separation``, ``cli`` or ``qcqp`` that breaks traced bench
runs would otherwise pass here.  The tracer looks each name up in its
owner's ``__dict__``, so ``install`` raises KeyError on a missing one.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402

from quadrelax import bnb, relax  # noqa: E402


def test_install_then_restore_puts_every_name_back():
    tracer = Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in patches)
    finally:
        tracer.restore()
    assert {(bnb, "solve_smooth"), (relax, "solve_smooth"),
            (relax, "solve_nonsmooth"), (relax, "assemble_qcp")} \
        <= {(owner, attr) for owner, attr, _ in patches}
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in patches)
