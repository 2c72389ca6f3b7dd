import numpy as np
import pytest

from backdoorlab import generators
from backdoorlab.milp import (
    INF,
    BdmilpFormatError,
    MilpInstance,
    lp_relaxation,
    make_instance,
    read_instance,
    validate_instance,
    write_instance,
)

from conftest import brute_force_solve, random_binary_instance


def simple(name="s", **kw):
    base = dict(
        objective=[-1.0],
        rows=[],
        rhs=[],
        senses=[],
        lower=[0.0],
        upper=[1.0],
        binary_set=[0],
    )
    base.update(kw)
    return make_instance(name, **base)


class TestValidate:
    def test_column_out_of_range(self):
        inst = make_instance(
            "bad", [1.0, 1.0], [[(5, 1.0)]], [1.0], ["LE"], [0, 0], [1, 1], [0]
        )
        rep = validate_instance(inst)
        assert not rep.ok
        assert any("column 5 out of range" in v for v in rep.violations)

    def test_unconstrained_min_is_ok(self):
        assert validate_instance(simple()).ok

    def test_binary_bound_violation(self):
        inst = simple(upper=[2.0])
        rep = validate_instance(inst)
        assert not rep.ok
        assert any("binary bound" in v for v in rep.violations)

    def test_duplicate_column_in_row(self):
        inst = make_instance(
            "dup", [1.0, 1.0], [[(0, 1.0), (0, 2.0)]], [1.0], ["LE"], [0, 0], [1, 1], [0]
        )
        rep = validate_instance(inst)
        assert any("duplicate column" in v for v in rep.violations)

    def test_empty_binary_set_flagged(self):
        inst = MilpInstance(
            name="nc", num_vars=1, objective=(1.0,), rows=(), rhs=(), senses=(),
            lower=(0.0,), upper=(1.0,), binary_set=frozenset(),
        )
        rep = validate_instance(inst)
        assert any("binary set is empty" in v for v in rep.violations)

    def test_length_mismatch(self):
        inst = MilpInstance(
            name="mm", num_vars=1, objective=(1.0,), rows=((),), rhs=(), senses=(),
            lower=(0.0,), upper=(1.0,), binary_set=frozenset([0]),
        )
        assert not validate_instance(inst).ok

    @pytest.mark.parametrize("coef", [float("nan"), INF, -INF])
    def test_non_finite_objective_flagged(self, coef):
        rep = validate_instance(simple(objective=[coef]))
        assert not rep.ok
        assert any("column 0: non-finite objective" in v for v in rep.violations)

    def test_nan_upper_bound_flagged(self):
        inst = simple(objective=[-1.0, 1.0], lower=[0.0, 0.0], upper=[1.0, float("nan")])
        rep = validate_instance(inst)
        assert rep.violations == ("column 1: upper bound is NaN",)

    def test_infinite_upper_bound_is_legal(self):
        inst = simple(objective=[-1.0, 1.0], lower=[0.0, 0.0], upper=[1.0, INF])
        assert validate_instance(inst).ok

    def test_accepts_every_generator_output(self):
        insts = [
            generators.gen_gisp(nodes=20, seed=1),
            generators.gen_setcover(n_elements=30, n_sets=25, seed=1),
            generators.gen_combinatorial_auction(items=10, bids=20, seed=1),
            generators.gen_mis(nodes=20, avg_degree=4, seed=1),
            generators.gen_facility_location(facilities=4, customers=8, seed=1),
        ]
        for inst in insts:
            assert validate_instance(inst).ok, inst.name


class TestRelaxation:
    def test_binary_becomes_unit_interval(self):
        inst = simple()
        lp = lp_relaxation(inst)
        assert lp is inst
        assert lp.lower == (0.0,) and lp.upper == (1.0,)

    def test_all_continuous_copy_identical(self):
        inst = MilpInstance(
            name="cont", num_vars=2, objective=(1.0, 2.0),
            rows=(((0, 1.0),),), rhs=(1.0,), senses=("LE",),
            lower=(0.0, 0.0), upper=(5.0, INF), binary_set=frozenset(),
        )
        lp = lp_relaxation(inst)
        assert lp.objective == inst.objective
        assert lp.rows == inst.rows
        assert lp.upper == inst.upper

    def test_idempotent_on_rewrapped_output(self):
        inst = random_binary_instance(7)
        lp = lp_relaxation(inst)
        rewrapped = MilpInstance(
            name=lp.name, num_vars=lp.num_vars, objective=lp.objective,
            rows=lp.rows, rhs=lp.rhs, senses=lp.senses,
            lower=lp.lower, upper=lp.upper, binary_set=frozenset(),
        )
        assert lp_relaxation(rewrapped) is rewrapped

    def test_rejects_structurally_broken_instance(self):
        inst = make_instance(
            "bad", [1.0], [[(3, 1.0)]], [1.0], ["LE"], [0.0], [1.0], [0]
        )
        with pytest.raises(ValueError):
            lp_relaxation(inst)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(objective=[float("nan"), -1.0]),
            dict(objective=[-1.0, INF]),
            dict(upper=[1.0, float("nan")]),
        ],
    )
    def test_rejects_nan_or_infinite_data(self, kw):
        base = dict(objective=[-1.0, -1.0], upper=[1.0, 1.0])
        base.update(kw)
        inst = make_instance(
            "t", base["objective"], [[(0, 1.0), (1, 1.0)]], [1.0], ["LE"],
            [0.0, 0.0], base["upper"], [0],
        )
        with pytest.raises(ValueError, match="invalid instance"):
            lp_relaxation(inst)

    def test_relaxation_bounds_milp_optimum(self):
        """LP optimum never exceeds the brute-forced MILP optimum."""
        from backdoorlab.simplex import LpWorkspace

        for seed in range(8):
            inst = random_binary_instance(seed, max_bin=8, max_rows=5)
            milp_opt = brute_force_solve(inst)
            if milp_opt is None:
                continue
            sol = LpWorkspace(lp_relaxation(inst)).solve()
            assert sol.status == "OPTIMAL"
            assert sol.objective <= milp_opt + 1e-7


class TestFileRoundtrip:
    def test_roundtrip_identity_across_generators(self, tmp_path):
        cases = [
            generators.gen_gisp(nodes=15, seed=s) for s in range(3)
        ] + [
            generators.gen_setcover(n_elements=12, n_sets=10, seed=4),
            generators.gen_combinatorial_auction(items=6, bids=9, seed=5),
            generators.gen_mis(nodes=14, avg_degree=3, seed=6),
            generators.gen_facility_location(facilities=3, customers=5, seed=7),
        ]
        for inst in cases:
            path = tmp_path / f"{inst.name}.bdmilp"
            write_instance(inst, path)
            assert read_instance(path) == inst

    def test_roundtrip_preserves_awkward_floats(self, tmp_path):
        inst = make_instance(
            "f", [0.1, -1e-17], [[(0, 1 / 3), (1, -2.0 ** 53)]], [np.pi],
            ["LE"], [0.0, -4.25], [1.0, INF], [0],
        )
        path = tmp_path / "f.bdmilp"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_unknown_sense_token(self, tmp_path):
        inst = make_instance(
            "s", [1.0, 1.0], [[(0, 1.0)]], [1.0], ["LE"], [0, 0], [1, 1], [0]
        )
        path = tmp_path / "bad.bdmilp"
        write_instance(inst, path)
        path.write_text(path.read_text().replace("LE", "<<"))
        with pytest.raises(BdmilpFormatError, match="line"):
            read_instance(path)

    def test_empty_file_missing_header(self, tmp_path):
        path = tmp_path / "empty.bdmilp"
        path.write_text("")
        with pytest.raises(BdmilpFormatError, match="missing header"):
            read_instance(path)

    def test_non_numeric_coefficient(self, tmp_path):
        inst = make_instance(
            "s", [1.0, 1.0], [[(0, 1.0)]], [1.0], ["LE"], [0, 0], [1, 1], [0]
        )
        path = tmp_path / "bad.bdmilp"
        write_instance(inst, path)
        path.write_text(path.read_text().replace("row 1 0 1", "row 1 0 x"))
        with pytest.raises(BdmilpFormatError):
            read_instance(path)

    def test_truncated_file(self, tmp_path):
        inst = simple()
        path = tmp_path / "t.bdmilp"
        write_instance(inst, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]))
        with pytest.raises(BdmilpFormatError, match="truncated"):
            read_instance(path)
