"""Instance representation: domains, hulls, objective, feasibility, file round-trip."""

import ast
import json
import pathlib

import numpy as np
import pytest

from quadrelax.model import (
    InstanceError,
    MiqpInstance,
    VariableDomain,
    evaluate_objective,
    hull_lower,
    hull_upper,
    instance_to_dict,
    is_feasible,
    load_instance,
    save_instance,
)


def make_instance(Q, q, A=None, b=None, domains=None):
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if domains is None:
        domains = [VariableDomain("interval", -1.0, 1.0)] * n
    return MiqpInstance.from_arrays(Q, q, A, b, domains)


INTERVAL = VariableDomain("interval", -1, 2)
BINARY = VariableDomain("binary", 0, 1)
TWO_POINT = VariableDomain("two_point", 1, 3)
INTEGER = VariableDomain("integer_range", 0, 5)


class TestDomains:
    def test_kinds_validate(self):
        VariableDomain("interval", -1, 2)
        VariableDomain("binary", 0, 1)
        VariableDomain("two_point", 1, 3)
        VariableDomain("integer_range", -2, 4)

    def test_bad_domains_rejected(self):
        with pytest.raises(InstanceError):
            VariableDomain("interval", 2, -1)  # L > U
        with pytest.raises(InstanceError):
            VariableDomain("binary", 0, 2)
        with pytest.raises(InstanceError):
            VariableDomain("two_point", 1, 1)  # needs distinct points
        with pytest.raises(InstanceError):
            VariableDomain("integer_range", 0.5, 3)
        with pytest.raises(InstanceError):
            VariableDomain("interval", 0, np.inf)  # unbounded
        with pytest.raises(InstanceError):
            VariableDomain("simplex", 0, 1)  # unknown kind

    def test_nearest_point(self):
        assert VariableDomain("interval", -1, 2).nearest_point(3.0) == 2.0
        assert VariableDomain("binary", 0, 1).nearest_point(0.4) == 0.0
        assert VariableDomain("two_point", 1, 3).nearest_point(2.2) == 3.0
        assert VariableDomain("integer_range", 0, 5).nearest_point(2.6) == 3.0

    @pytest.mark.parametrize("dom, two_point", [
        (INTERVAL, False), (BINARY, True), (TWO_POINT, True), (INTEGER, False),
    ])
    def test_two_point(self, dom, two_point):
        assert dom.two_point is two_point
        assert dom.is_discrete is (dom.kind != "interval")

    @pytest.mark.parametrize("dom, lo, hi, expected", [
        (INTERVAL, -5.0, 5.0, None),
        (BINARY, -1.0, 2.0, [0.0, 1.0]),
        (BINARY, 0.5, 1.0, [1.0]),
        (BINARY, 0.2, 0.8, []),
        (TWO_POINT, 1.0 + 5e-10, 2.0, [1.0]),
        (TWO_POINT, 1.0 + 2e-9, 2.0, []),
        (INTEGER, 0.5, 3.0 + 5e-10, [1.0, 2.0, 3.0]),
        (INTEGER, 1.0 + 5e-10, 3.0 - 2e-9, [1.0, 2.0]),
        (INTEGER, -3.0, 10.0, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
        (INTEGER, 2.2, 2.8, []),
    ])
    def test_admissible(self, dom, lo, hi, expected):
        pts = dom.admissible(lo, hi)
        if expected is None:
            assert pts is None
        else:
            assert list(pts) == expected

    @pytest.mark.parametrize("dom, lo, hi, expected", [
        # empty slices
        (INTERVAL, 2.0 + 2e-9, 4.0, None),
        (BINARY, 0.3, 0.7, None),
        (TWO_POINT, 1.5, 2.5, None),
        (INTEGER, 2.2, 2.8, None),
        # one value left; an interval narrower than 1e-12 is fixed at its
        # midpoint, also when it lies just beyond U within the 1e-9 slack
        (BINARY, 0.0, 0.0, (0.0, 0.0)),
        (TWO_POINT, 2.0, 3.0, (3.0, 3.0)),
        (INTEGER, 2.0 - 5e-10, 2.0 + 5e-10, (2.0, 2.0)),
        (INTERVAL, 0.5, 0.5 + 5e-13, (0.5 * (1.0 + 5e-13),) * 2),
        (INTERVAL, 2.0 + 5e-10, 4.0, (0.5 * (4.0 + 5e-10),) * 2),
        # a free two-point slice keeps (L, U)
        (BINARY, -1.0, 2.0, (0.0, 1.0)),
        (TWO_POINT, 1.0 - 5e-10, 3.0 + 5e-10, (1.0, 3.0)),
        # integer bounds with 1e-9 slack
        (INTEGER, 1.0 + 5e-10, 4.0 - 5e-10, (1.0, 4.0)),
        (INTEGER, 1.0 + 2e-9, 4.0 - 2e-9, (2.0, 3.0)),
        (INTEGER, -3.0, 10.0, (0.0, 5.0)),
        # an interval is intersected with the box
        (INTERVAL, -2.0, 1.0, (-1.0, 1.0)),
    ])
    def test_slice(self, dom, lo, hi, expected):
        assert dom.slice(lo, hi) == expected

    @pytest.mark.parametrize("dom, lo, hi, x, expected", [
        (BINARY, 0.0, 1.0, 0.4, [(0.0, 0.0), (1.0, 1.0)]),
        (TWO_POINT, 1.0, 3.0, 2.9, [(1.0, 1.0), (3.0, 3.0)]),
        (INTEGER, 0.0, 5.0, 2.6, [(0.0, 2.0), (3.0, 5.0)]),
        # at the integer edge the split point stays inside the range
        (INTEGER, 0.0, 5.0, 5.0, [(0.0, 4.0), (5.0, 5.0)]),
        (INTEGER, 0.0, 5.0, -0.3, [(0.0, 0.0), (1.0, 5.0)]),
        (INTERVAL, -1.0, 2.0, 0.5, [(-1.0, 0.5), (0.5, 2.0)]),
        # the interval split is clamped to 10% of the width from either end
        (INTERVAL, 0.0, 2.0, 0.05, [(0.0, 0.2), (0.2, 2.0)]),
        (INTERVAL, 0.0, 2.0, 1.95, [(0.0, 1.8), (1.8, 2.0)]),
    ])
    def test_split(self, dom, lo, hi, x, expected):
        assert dom.split(lo, hi, x) == expected


def test_only_model_reads_domain_kind():
    # VariableDomain is the one place that knows the domain kinds; every
    # other module asks it through its methods.
    pkg = pathlib.Path(__file__).resolve().parent.parent / "src" / "quadrelax"
    readers = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert readers == []


def test_separation_names_no_penalty_form():
    # relax.next_cut is the one place that writes B = Q + alpha A'A;
    # separation solves over {d : B + diag d psd} and names neither the
    # penalty weight nor the equality rows
    path = (pathlib.Path(__file__).resolve().parent.parent / "src"
            / "quadrelax" / "separation.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
    assert not names & {"alpha", "A", "Ar"}


class TestHulls:
    def test_interval_secant_and_square(self):
        inst = make_instance(np.zeros((1, 1)), [0.0],
                             domains=[VariableDomain("interval", -1, 2)])
        # u(x) = (L+U)x - LU = x + 2 at x = 0.5
        assert hull_upper(inst, 0, 0.5) == pytest.approx(2.5)
        assert hull_lower(inst, 0, 0.5) == pytest.approx(0.25)

    def test_binary_hull_collapses_to_x(self):
        inst = make_instance(np.zeros((1, 1)), [0.0],
                             domains=[VariableDomain("binary", 0, 1)])
        # L+U = 1, LU = 0: both hull sides equal x itself.
        assert hull_upper(inst, 0, 0.3) == pytest.approx(0.3)
        assert hull_lower(inst, 0, 0.3) == pytest.approx(0.3)

    def test_two_point_secant_both_sides(self):
        inst = make_instance(np.zeros((1, 1)), [0.0],
                             domains=[VariableDomain("two_point", 1, 3)])
        # u(x) = 4x - 3 at x = 2
        assert hull_upper(inst, 0, 2.0) == pytest.approx(5.0)
        assert hull_lower(inst, 0, 2.0) == pytest.approx(5.0)

    def test_integer_range_square_lower(self):
        inst = make_instance(np.zeros((1, 1)), [0.0],
                             domains=[VariableDomain("integer_range", 0, 3)])
        assert hull_upper(inst, 0, 1.5) == pytest.approx(4.5)
        assert hull_lower(inst, 0, 1.5) == pytest.approx(2.25)

    def test_hull_envelope_property(self):
        # l(x) <= x**2 <= u(x) on the box, equality at admissible points.
        rng = np.random.default_rng(7)
        for kind, L, U in [("interval", -2, 5), ("integer_range", -3, 4),
                           ("two_point", -1, 2), ("binary", 0, 1)]:
            inst = make_instance(np.zeros((1, 1)), [0.0],
                                 domains=[VariableDomain(kind, L, U)])
            for x in rng.uniform(L, U, size=50):
                lo = hull_lower(inst, 0, x)
                up = hull_upper(inst, 0, x)
                assert up >= x * x - 1e-12
                assert lo <= up + 1e-12
                if kind in ("interval", "integer_range"):
                    # The square-lower kinds underestimate pointwise; the
                    # secant-lower kinds are exact on the two points only.
                    assert lo <= x * x + 1e-12
            # The secant is exact at the endpoints, the underestimator at
            # every admissible point.
            for pt in (L, U):
                assert hull_upper(inst, 0, float(pt)) == pytest.approx(pt * pt)
            pts = ([L, U] if kind != "integer_range"
                   else range(int(L), int(U) + 1))
            for pt in pts:
                assert hull_lower(inst, 0, float(pt)) == pytest.approx(pt * pt)

    def test_outside_box_rejected(self):
        inst = make_instance(np.zeros((1, 1)), [0.0],
                             domains=[VariableDomain("interval", -1, 2)])
        with pytest.raises(InstanceError):
            hull_upper(inst, 0, 2.5)
        with pytest.raises(InstanceError):
            hull_lower(inst, 0, -1.5)


class TestObjectiveFeasibility:
    def test_objective_value(self):
        Q = [[0.0, 2.0], [2.0, -1.0]]
        inst = make_instance(Q, [1.0, -1.0],
                             domains=[VariableDomain("interval", 0, 10)] * 2)
        # x = (1, 2): xQx = 2*2*1*2 - 4 = 4, qx = 1 - 2 = -1
        assert evaluate_objective(inst, [1.0, 2.0]) == pytest.approx(3.0)

    def test_feasibility_checks_all_parts(self):
        inst = make_instance(np.zeros((2, 2)), [0.0, 0.0],
                             A=[[1.0, 1.0]], b=[1.0],
                             domains=[VariableDomain("binary", 0, 1),
                                      VariableDomain("interval", 0, 1)])
        assert is_feasible(inst, [1.0, 0.0])
        assert is_feasible(inst, [0.0, 1.0])
        assert not is_feasible(inst, [0.5, 0.5])   # binary violated
        assert not is_feasible(inst, [1.0, 1.0])   # Ax=b violated
        assert not is_feasible(inst, [2.0, -1.0])  # bounds violated
        assert is_feasible(inst, [1.0 + 1e-9, -1e-9])  # within tol

    def test_feasibility_tol_validated(self):
        inst = make_instance(np.zeros((1, 1)), [0.0])
        with pytest.raises(InstanceError):
            is_feasible(inst, [0.0], tol=0.0)


class TestValidation:
    def test_symmetrization_with_warning(self):
        with pytest.warns(UserWarning, match="asymmetry"):
            inst = make_instance([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0])
        assert np.allclose(inst.Q, [[0.0, 0.5], [0.5, 0.0]])

    def test_tiny_asymmetry_silent(self):
        Q = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
        inst = make_instance(Q, [0.0, 0.0])
        assert np.allclose(inst.Q, inst.Q.T)

    def test_consistent_dependent_rows_pruned(self):
        A = [[1.0, 1.0], [2.0, 2.0]]
        with pytest.warns(UserWarning, match="rank deficient"):
            inst = make_instance(np.zeros((2, 2)), [0.0, 0.0], A=A, b=[1.0, 2.0])
        assert inst.m == 1

    def test_inconsistent_dependent_rows_rejected(self):
        A = [[1.0, 1.0], [2.0, 2.0]]
        with pytest.raises(InstanceError, match="inconsistent"):
            make_instance(np.zeros((2, 2)), [0.0, 0.0], A=A, b=[1.0, 3.0])

    def test_shape_mismatches(self):
        with pytest.raises(InstanceError):
            make_instance(np.zeros((2, 3)), [0.0, 0.0])
        with pytest.raises(InstanceError):
            make_instance(np.zeros((2, 2)), [0.0, 0.0], A=[[1.0, 0.0]], b=[1.0, 2.0])
        with pytest.raises(InstanceError):
            MiqpInstance.from_arrays(np.zeros((2, 2)), [0.0, 0.0], None, None,
                                     [VariableDomain("interval", 0, 1)])


class TestFileFormat:
    def test_round_trip_identity(self, tmp_path):
        Q = [[1.0, -2.5], [-2.5, 0.0]]
        inst = make_instance(Q, [0.5, -1.0], A=[[1.0, 2.0]], b=[3.0],
                             domains=[VariableDomain("integer_range", -1, 4),
                                      VariableDomain("two_point", 1.5, 3.0)])
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.n == inst.n and back.m == inst.m
        assert np.array_equal(back.Q, inst.Q)
        assert np.array_equal(back.q, inst.q)
        assert np.array_equal(back.A, inst.A)
        assert np.array_equal(back.b, inst.b)
        assert back.domains == inst.domains
        # Canonical form is idempotent: a second save is byte-identical.
        path2 = tmp_path / "inst2.json"
        save_instance(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_lower_triangle_triplet_accepted(self, tmp_path):
        data = {"n": 2, "m": 0, "Q": [[1, 0, 2.0]], "q": [0.0, 0.0],
                "A": [], "b": [],
                "domains": [{"kind": "interval", "L": 0, "U": 1}] * 2}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data))
        inst = load_instance(path)
        assert inst.Q[0, 1] == 2.0 and inst.Q[1, 0] == 2.0

    def test_duplicate_pair_rejected(self, tmp_path):
        data = {"n": 2, "m": 0, "Q": [[0, 1, 2.0], [1, 0, 3.0]],
                "q": [0.0, 0.0], "A": [], "b": [],
                "domains": [{"kind": "interval", "L": 0, "U": 1}] * 2}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceError, match="duplicate"):
            load_instance(path)

    def test_malformed_inputs_have_context(self, tmp_path):
        cases = [
            ({"n": 2, "q": [0.0, 0.0]}, "domains"),
            ({"n": 2, "q": [0.0], "domains": []}, "length"),
            ({"n": 1, "q": [0.0], "Q": [[0, 3, 1.0]],
              "domains": [{"kind": "interval", "L": 0, "U": 1}]}, "out of range"),
            ({"n": 1, "q": [0.0],
              "domains": [{"kind": "interval", "L": 0}]}, "domains"),
        ]
        for data, needle in cases:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            with pytest.raises(InstanceError, match=needle):
                load_instance(path)
        path.write_text("{not json")
        with pytest.raises(InstanceError, match="JSON"):
            load_instance(path)

    def test_dict_form_uses_upper_triangle(self):
        inst = make_instance([[1.0, 2.0], [2.0, 3.0]], [0.0, 0.0])
        d = instance_to_dict(inst)
        assert [1, 0] not in [t[:2] for t in d["Q"]]
        assert sorted(t[:2] for t in d["Q"]) == [[0, 0], [0, 1], [1, 1]]
