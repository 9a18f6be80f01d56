"""Node emptiness against a verbatim copy of the former HiGHS check.

``reference_check_box_consistency`` is ``ReducedProblem._check_box_consistency``
as it was when a ``scipy.optimize.linprog(method="highs")`` feasibility LP
decided the boxes the cheap pre-checks leave open.  On seeded eq_integer
searches every node box must get the same empty/non-empty decision from
both, and ``bnb.solve`` must return the same search under either.
"""

import numpy as np
import pytest
import scipy.optimize

from quadrelax import bnb
from quadrelax.cli import generate_instance
from quadrelax.linalg import box_rows_disjoint
from quadrelax.relax import InfeasibleRelaxation, ReducedProblem

CONFIG = bnb.BnbConfig(node_limit=150, max_nc=3)


def reference_check_box_consistency(self, lp_log=None):
    """Cheap emptiness checks of {Ar x = br} intersect the box."""
    if not self.n_free:
        return
    # coordinates the equalities determine completely must sit in the box
    if self.basis.dim:
        znorm = np.abs(self.basis.Z).max(axis=1)
    else:
        znorm = np.zeros(self.n_free)
    pinned = znorm <= 1e-12
    bad = pinned & ((self.x_hat < self.lower - 1e-8)
                    | (self.x_hat > self.upper + 1e-8))
    if np.any(bad):
        raise InfeasibleRelaxation("equality-pinned variable outside box")
    if not self.Ar.shape[0]:
        return
    # row-wise interval bound: b_r outside the range of a_r^T x over the
    # box proves emptiness without an LP (sound, not complete)
    pos = np.clip(self.Ar, 0.0, None)
    neg = self.Ar - pos
    row_lo = pos @ self.lower + neg @ self.upper
    row_hi = pos @ self.upper + neg @ self.lower
    tol = 1e-9 * np.maximum(1.0, np.abs(self.br))
    if np.any(self.br < row_lo - tol) or np.any(self.br > row_hi + tol):
        raise InfeasibleRelaxation("equality row unreachable inside box")
    # witness shortcut: projected midpoint often certifies feasibility
    mid = 0.5 * (self.lower + self.upper)
    w = self.x_hat + self.basis.Z @ (self.basis.Z.T @ (mid - self.x_hat))
    if np.all(w >= self.lower - 1e-9) and np.all(w <= self.upper + 1e-9):
        return
    res = scipy.optimize.linprog(
        c=np.zeros(self.n_free), A_eq=self.Ar, b_eq=self.br,
        bounds=list(zip(self.lower, self.upper)), method="highs")
    if lp_log is not None:
        lp_log.append((self, res.status))
    if res.status == 2:
        raise InfeasibleRelaxation("box and equality rows are disjoint")


def is_empty(inst, lower, upper):
    try:
        ReducedProblem.build(inst, lower, upper)
    except InfeasibleRelaxation:
        return True
    return False


def reference_search(inst, monkeypatch):
    """bnb.solve under the HiGHS check, with every node box it built."""
    boxes = []
    build = ReducedProblem.build

    def recording_build(instance, lower, upper, **kwargs):
        boxes.append((np.array(lower, dtype=float), np.array(upper, dtype=float)))
        return build(instance, lower, upper, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(ReducedProblem, "build", staticmethod(recording_build))
        mp.setattr(ReducedProblem, "_check_box_consistency",
                   reference_check_box_consistency)
        report = bnb.solve(inst, CONFIG)
    return report, boxes


# n=5 has one equality row, where the interval test is exact: every LP
# its pre-checks leave open is feasible
@pytest.mark.parametrize("n,seed,lp_statuses", [
    (5, 8101001, {0}),
    (8, 8101102, {0, 2}),
    (10, 8101203, {0, 2}),
])
def test_node_emptiness_matches_highs(n, seed, lp_statuses, monkeypatch):
    inst = generate_instance("eq_integer", n, 0.8, seed)
    ref, boxes = reference_search(inst, monkeypatch)
    rep = bnb.solve(inst, CONFIG)
    for key in ("status", "node_count", "max_stored", "lower_bound",
                "upper_bound", "root_bound"):
        assert getattr(rep, key) == getattr(ref, key), key

    lps = []
    with monkeypatch.context() as mp:
        mp.setattr(ReducedProblem, "_check_box_consistency",
                   lambda red: reference_check_box_consistency(red, lps))
        expected = [is_empty(inst, lo, up) for lo, up in boxes]
    assert [is_empty(inst, lo, up) for lo, up in boxes] == expected
    # the boxes the pre-checks leave open, decided by each method alone
    for red, status in lps:
        assert box_rows_disjoint(red.Ar, red.br, red.lower, red.upper) \
            == (status == 2)
    assert {status for _, status in lps} == lp_statuses
