"""Problem representation for linearly constrained mixed-integer QPs.

A problem instance is the data of

    min  x^T Q x + q^T x
    s.t. A x = b,  x_i in S_i,

where Q is symmetric (possibly indefinite), A has full row rank, and every
S_i is a bounded set described by a :class:`VariableDomain`.  All
relaxations in this package are built, per variable, from the secant
overestimator ``u_i`` and the convex underestimator ``l_i`` of ``x**2`` on
S_i (:func:`hull_upper`, :func:`hull_lower`).  Neither is stored on the
instance: both follow from the domain, which is also what every node
slices to its box.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import independent_rows

__all__ = [
    "VariableDomain",
    "MiqpInstance",
    "InstanceError",
    "load_instance",
    "save_instance",
    "hull_upper",
    "hull_lower",
    "evaluate_objective",
    "is_feasible",
]

DOMAIN_KINDS = ("interval", "binary", "two_point", "integer_range")

# Slack for admissible values at the edge of a node box.
_EDGE_TOL = 1e-9


class InstanceError(ValueError):
    """Raised when instance data violates the format or an invariant."""


@dataclass(frozen=True)
class VariableDomain:
    """Admissible set of a single variable.

    kind="interval"       S = [L, U]
    kind="binary"         S = {0, 1}
    kind="two_point"      S = {L, U} with L < U
    kind="integer_range"  S = {L, L+1, ..., U} with L, U integral

    This class is the one place that knows the kinds.  Everything else
    asks it: ``is_discrete`` and ``two_point`` (S is exactly {L, U}, so
    l_i is the secant), ``admissible`` (the values inside a node box),
    ``slice`` (S tightened to a node box), ``split`` (the child boxes of a
    branching) and ``nearest_point`` (rounding).
    """

    kind: str
    L: float
    U: float

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise InstanceError(f"unknown domain kind {self.kind!r}")
        L, U = float(self.L), float(self.U)
        if not (np.isfinite(L) and np.isfinite(U)):
            raise InstanceError(f"domain endpoints must be finite, got [{L}, {U}]")
        if L > U:
            raise InstanceError(f"domain has L > U: [{L}, {U}]")
        if self.kind == "binary" and (L, U) != (0.0, 1.0):
            raise InstanceError("binary domain must have L=0, U=1")
        if self.kind == "two_point" and not L < U:
            raise InstanceError("two_point domain needs two distinct points L < U")
        if self.kind == "integer_range":
            if abs(L - round(L)) > 1e-9 or abs(U - round(U)) > 1e-9:
                raise InstanceError(f"integer_range endpoints must be integral: [{L}, {U}]")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "U", U)

    @property
    def is_discrete(self) -> bool:
        return self.kind != "interval"

    @property
    def two_point(self) -> bool:
        """S is exactly {L, U} (binary and two_point kinds)."""
        return self.kind in ("binary", "two_point")

    def admissible(self, lo, hi):
        """Admissible values inside [lo, hi], with 1e-9 slack at both ends.

        A sequence in increasing order, empty when none is left; None for
        an interval, whose values cannot be listed.
        """
        if self.two_point:
            return [p for p in (self.L, self.U)
                    if lo - _EDGE_TOL <= p <= hi + _EDGE_TOL]
        if self.kind == "integer_range":
            return np.arange(np.ceil(max(lo, self.L) - _EDGE_TOL),
                             np.floor(min(hi, self.U) + _EDGE_TOL) + 0.5)
        return None

    def slice(self, lo, hi):
        """(L, U) of S inside the node box [lo, hi]; None when empty.

        L == U means one value is left.  A two-point slice that keeps both
        points keeps the original (L, U).  An interval slice narrower than
        1e-12 is fixed at its midpoint.
        """
        if self.two_point:
            pts = self.admissible(lo, hi)
            if not pts:
                return None
            return (pts[0], pts[0]) if len(pts) == 1 else (self.L, self.U)
        L, U = max(lo, self.L), min(hi, self.U)
        if self.kind == "integer_range":
            L, U = float(np.ceil(L - _EDGE_TOL)), float(np.floor(U + _EDGE_TOL))
            return (L, U) if L <= U else None
        if L > U + _EDGE_TOL:
            return None
        if U - L <= 1e-12:
            mid = 0.5 * (L + U)
            return (mid, mid)
        return (L, U)

    def split(self, lo, hi, x):
        """Child boxes [(lo_c, hi_c), ...] when branching on [lo, hi] at x.

        Two-point slices fix each admissible point.  Integer ranges split
        into [lo, t] and [t+1, hi] with t = floor(x) kept inside the range.
        Intervals bisect at x, clamped so neither side is thinner than 10%
        of the width.
        """
        if self.two_point:
            return [(p, p) for p in self.admissible(lo, hi)]
        if self.kind == "integer_range":
            t = np.floor(min(max(x, lo), hi))
            t = min(max(t, np.ceil(lo)), np.floor(hi) - 1.0)
            return [(lo, t), (t + 1.0, hi)]
        w = hi - lo
        t = min(max(x, lo + 0.1 * w), hi - 0.1 * w)
        return [(lo, t), (t, hi)]

    def nearest_point(self, x: float) -> float:
        """Closest admissible value to x (for feasibility checks and rounding)."""
        if self.kind == "interval":
            return min(max(x, self.L), self.U)
        if self.two_point:
            return self.L if abs(x - self.L) <= abs(x - self.U) else self.U
        # integer_range
        return min(max(round(x), self.L), self.U)


def _prune_dependent_rows(A: np.ndarray, b: np.ndarray):
    """Reduce A to a full-row-rank subset of its rows.

    Dependent rows are dropped after checking that they are consistent with
    the retained ones (the full system must admit a least-squares solution
    with zero residual); inconsistency means the instance is infeasible.
    Returns (A_kept, b_kept, dropped_row_indices).
    """
    if A.shape[0] == 0:
        return A, b, []
    scale = max(1.0, float(np.abs(A).max()))
    keep, dropped = independent_rows(A, 1e-10 * scale)
    if not dropped:
        return A, b, []
    x_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.abs(A @ x_ls - b)
    if resid.max(initial=0.0) > 1e-8 * max(1.0, float(np.abs(b).max(initial=0.0)), scale):
        raise InstanceError(
            "equality system A x = b is rank deficient and inconsistent: "
            f"residual {resid.max():.3e} on dependent rows {dropped}"
        )
    return A[keep], b[keep], dropped


@dataclass(frozen=True)
class MiqpInstance:
    """Validated, immutable problem instance.

    Q is exactly symmetric, A has full row rank (dependent-but-consistent
    rows are pruned at construction with a warning), and every domain is
    bounded.
    """

    n: int
    m: int
    Q: np.ndarray
    q: np.ndarray
    A: np.ndarray
    b: np.ndarray
    domains: tuple[VariableDomain, ...]

    @staticmethod
    def from_arrays(Q, q, A, b, domains) -> "MiqpInstance":
        """Validate raw arrays and build an instance.

        Q may be given asymmetric; it is symmetrized as (Q + Q^T)/2, with a
        warning if the asymmetry exceeds 1e-9 relative.
        """
        Q = np.array(Q, dtype=float)
        q = np.array(q, dtype=float).reshape(-1)
        n = q.shape[0]
        if Q.shape != (n, n):
            raise InstanceError(f"Q must be {n}x{n}, got {Q.shape}")
        if not np.all(np.isfinite(Q)) or not np.all(np.isfinite(q)):
            raise InstanceError("Q and q must be finite")
        asym = np.abs(Q - Q.T).max(initial=0.0)
        if asym > 1e-9 * max(1.0, np.abs(Q).max(initial=0.0)):
            warnings.warn(f"Q asymmetry {asym:.3e} exceeds tolerance; symmetrizing")
        Q = 0.5 * (Q + Q.T)

        if A is None or np.size(A) == 0:
            A = np.zeros((0, n))
            b = np.zeros(0)
        A = np.atleast_2d(np.array(A, dtype=float))
        b = np.array(b, dtype=float).reshape(-1)
        if A.shape[1] != n or A.shape[0] != b.shape[0]:
            raise InstanceError(f"A must be m x {n} with matching b, got {A.shape} / {b.shape}")
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
            raise InstanceError("A and b must be finite")
        A, b, dropped = _prune_dependent_rows(A, b)
        if dropped:
            warnings.warn(f"A is rank deficient; dropped dependent rows {dropped}")

        domains = tuple(domains)
        if len(domains) != n:
            raise InstanceError(f"need {n} domains, got {len(domains)}")
        return MiqpInstance(n=n, m=A.shape[0], Q=Q, q=q, A=A, b=b,
                            domains=domains)

    @property
    def lower(self) -> np.ndarray:
        return np.array([d.L for d in self.domains])

    @property
    def upper(self) -> np.ndarray:
        return np.array([d.U for d in self.domains])


def _triplets_to_matrix(entries, n, m, name):
    M = np.zeros((m, n))
    for k, ent in enumerate(entries):
        try:
            i, j, val = ent
        except (TypeError, ValueError):
            raise InstanceError(f"{name}[{k}]: expected [i, j, value], got {ent!r}")
        i, j = int(i), int(j)
        if not (0 <= i < m and 0 <= j < n):
            raise InstanceError(f"{name}[{k}]: index ({i},{j}) out of range")
        M[i, j] = float(val)
    return M


def _q_from_triplets(entries, n):
    Q = np.zeros((n, n))
    seen = set()
    for k, ent in enumerate(entries):
        try:
            i, j, val = ent
        except (TypeError, ValueError):
            raise InstanceError(f"Q[{k}]: expected [i, j, value], got {ent!r}")
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise InstanceError(f"Q[{k}]: index ({i},{j}) out of range for n={n}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InstanceError(f"Q[{k}]: duplicate entry for pair {key}")
        seen.add(key)
        # A triplet names the symmetric pair; i > j is tolerated on read.
        Q[key[0], key[1]] = float(val)
        Q[key[1], key[0]] = float(val)
    return Q


def load_instance(path) -> MiqpInstance:
    """Read and validate an instance file (JSON, sparse triplet matrices).

    Format::

        {"n": int, "m": int,
         "Q": [[i, j, val], ...],   # upper triangle, each pair at most once
         "q": [...],
         "A": [[i, j, val], ...],
         "b": [...],
         "domains": [{"kind": ..., "L": ..., "U": ...}, ...]}

    Indices are 0-based.  Q triplets denote symmetric pairs, so the loaded Q
    is symmetric by construction.  Raises :class:`InstanceError` with field
    context on malformed input.
    """
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise InstanceError(f"{path}: not valid JSON: {e}") from e

    for key in ("n", "q", "domains"):
        if key not in data:
            raise InstanceError(f"{path}: missing field {key!r}")
    n = int(data["n"])
    m = int(data.get("m", 0))
    if n < 1:
        raise InstanceError(f"{path}: n must be >= 1, got {n}")

    q = np.array(data["q"], dtype=float)
    if q.shape != (n,):
        raise InstanceError(f"{path}: q must have length {n}")
    Q = _q_from_triplets(data.get("Q", []), n)
    A = _triplets_to_matrix(data.get("A", []), n, m, "A")
    b = np.array(data.get("b", []), dtype=float)
    if b.shape != (m,):
        raise InstanceError(f"{path}: b must have length m={m}")

    domains = []
    for k, dd in enumerate(data["domains"]):
        try:
            domains.append(VariableDomain(kind=dd["kind"], L=dd["L"], U=dd["U"]))
        except (KeyError, TypeError) as e:
            raise InstanceError(f"{path}: domains[{k}] malformed: {e}") from e
        except InstanceError as e:
            raise InstanceError(f"{path}: domains[{k}]: {e}") from e
    if len(domains) != n:
        raise InstanceError(f"{path}: need {n} domains, got {len(domains)}")

    return MiqpInstance.from_arrays(Q, q, A, b, domains)


def instance_to_dict(inst: MiqpInstance) -> dict:
    """Canonical JSON-ready representation (sorted upper-triangle triplets)."""
    q_trip = []
    for i in range(inst.n):
        for j in range(i, inst.n):
            if inst.Q[i, j] != 0.0:
                q_trip.append([i, j, inst.Q[i, j]])
    a_trip = []
    for i in range(inst.m):
        for j in range(inst.n):
            if inst.A[i, j] != 0.0:
                a_trip.append([i, j, inst.A[i, j]])
    return {
        "n": inst.n,
        "m": inst.m,
        "Q": q_trip,
        "q": list(map(float, inst.q)),
        "A": a_trip,
        "b": list(map(float, inst.b)),
        "domains": [{"kind": d.kind, "L": d.L, "U": d.U} for d in inst.domains],
    }


def save_instance(inst: MiqpInstance, path) -> None:
    """Write the canonical JSON form of an instance (load/save round-trips)."""
    with open(path, "w") as f:
        json.dump(instance_to_dict(inst), f, indent=1)
        f.write("\n")


def _domain_at(inst: MiqpInstance, i: int, x) -> VariableDomain:
    dom = inst.domains[i]
    if np.any(x < dom.L - 1e-12) or np.any(x > dom.U + 1e-12):
        raise InstanceError(f"x={x} outside domain [{dom.L}, {dom.U}] of variable {i}")
    return dom


def hull_upper(inst: MiqpInstance, i: int, x) -> float:
    """Secant overestimator u_i(x) = (L+U) x - L*U of x**2 on domain i.

    x must lie in [L_i, U_i].
    """
    dom = _domain_at(inst, i, x)
    return (dom.L + dom.U) * x - dom.L * dom.U


def hull_lower(inst: MiqpInstance, i: int, x) -> float:
    """Underestimator l_i(x) of x**2 on domain i.

    The secant for two-point domains (the admissible set has only the two
    endpoints, so the secant is exact on it), x**2 otherwise.  x must lie
    in [L_i, U_i].
    """
    if _domain_at(inst, i, x).two_point:
        return hull_upper(inst, i, x)
    return np.square(x)


def evaluate_objective(inst: MiqpInstance, x) -> float:
    """Objective x^T Q x + q^T x at the point x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != inst.n:
        raise InstanceError(f"x must have length {inst.n}")
    return float(x @ inst.Q @ x + inst.q @ x)


def is_feasible(inst: MiqpInstance, x, tol: float = 1e-8) -> bool:
    """Whether x satisfies Ax=b, the bounds, and the discrete sets, within tol."""
    if tol <= 0:
        raise InstanceError("tol must be positive")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != inst.n:
        return False
    if inst.m and np.abs(inst.A @ x - inst.b).max() > tol:
        return False
    for xi, dom in zip(x, inst.domains):
        if xi < dom.L - tol or xi > dom.U + tol:
            return False
        if dom.is_discrete and abs(xi - dom.nearest_point(xi)) > tol:
            return False
    return True
