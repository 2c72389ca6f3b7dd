import numpy as np
import pytest

from backdoorlab import generators
from backdoorlab.features import featurize
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
from backdoorlab.simplex import LpWorkspace

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

    def test_short_bounds_are_reported_not_raised(self):
        inst = MilpInstance(
            name="sb", num_vars=3, objective=(1.0, 1.0, 1.0), rows=(), rhs=(), senses=(),
            lower=(0.0, 0.0), upper=(1.0, 1.0), binary_set=frozenset([2]),
        )
        rep = validate_instance(inst)
        assert rep.violations == ("bounds length != num_vars",)

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


# A valid file: header, name, sizes, objective, two rows, senses, rhs,
# lower and upper bounds, binaries.  Each case below replaces one line, or
# keeps only the first few, and names the error that read_instance raises.
GOOD_FILE = [
    "bdmilp 1", "p", "2 2 1", "1 -1", "row 2 0 1 1 1", "row 1 1 2", "LE GE", "4 0.5", "0 0", "1 inf", "0",
]

FORMAT_ERRORS = {
    "missing-header": ({1: "junk 1"}, "line 1: missing header"),
    "magic-prefix-only": ({1: "bdmilpx 1"}, "line 1: missing header"),
    "unsupported-version": ({1: "bdmilp 2"}, "line 1: unsupported format version in header 'bdmilp 2'"),
    "no-size-line": (2, "truncated file: expected at least 3 lines, found 2"),
    "malformed-size-line": ({3: "2 2"}, "line 3: malformed size line"),
    "negative-variable-count": ({3: "-1 2 1"}, "line 3: negative count in size line '-1 2 1'"),
    "negative-row-count": ({3: "2 -4 1"}, "line 3: negative count in size line '2 -4 1'"),
    "negative-binary-count": ({3: "2 2 -1"}, "line 3: negative count in size line '2 2 -1'"),
    "truncated-body": (10, "truncated file: expected 11 lines, found 10"),
    "non-numeric-objective": ({4: "1 x"}, "line 4: non-numeric objective coefficient 'x'"),
    "objective-length": ({4: "1"}, "line 4: expected 2 objective coefficients"),
    "not-a-row-line": ({5: "rows 2 0 1 1 1"}, "line 5: expected row line"),
    "malformed-row-count": ({5: "row x"}, "line 5: malformed row count"),
    "row-token-count": ({6: "row 2 1 2"}, "line 6: row token count mismatch"),
    "bad-column-index": ({6: "row 1 y 2"}, "line 6: bad column index"),
    "non-numeric-coefficient": ({6: "row 1 1 z"}, "line 6: non-numeric coefficient 'z'"),
    "unknown-sense": ({7: "LE <="}, "line 7: unknown sense token '<='"),
    "sense-count": ({7: "LE"}, "line 7: expected 2 sense tokens"),
    "non-numeric-rhs": ({8: "4 q"}, "line 8: non-numeric rhs 'q'"),
    "rhs-count": ({8: "4"}, "line 8: expected 2 rhs values"),
    "non-numeric-lower-bound": ({9: "0 w"}, "line 9: non-numeric lower bound 'w'"),
    "lower-bound-count": ({9: "0"}, "line 9: expected 2 lower bounds"),
    "non-numeric-upper-bound": ({10: "1 v"}, "line 10: non-numeric upper bound 'v'"),
    "upper-bound-count": ({10: "1 inf 1"}, "line 10: expected 2 upper bounds"),
    "binary-count": ({11: "0 1"}, "line 11: expected 1 binary indices"),
    "bad-binary-index": ({11: "b"}, "line 11: bad binary index"),
}


class TestReadInstanceErrors:
    def test_the_good_file_reads(self, tmp_path):
        path = tmp_path / "p.bdmilp"
        path.write_text("\n".join(GOOD_FILE) + "\n")
        inst = read_instance(path)
        assert (inst.num_vars, inst.num_cons, inst.upper, inst.binary_set) == (2, 2, (1.0, INF), {0})

    @pytest.mark.parametrize("edit, message", FORMAT_ERRORS.values(), ids=FORMAT_ERRORS.keys())
    def test_each_format_error_names_its_line(self, tmp_path, edit, message):
        if isinstance(edit, int):
            lines = GOOD_FILE[:edit]
        else:
            lines = [edit.get(k, line) for k, line in enumerate(GOOD_FILE, 1)]
        path = tmp_path / "p.bdmilp"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BdmilpFormatError) as err:
            read_instance(path)
        assert str(err.value) == message


def broken(**fields):
    """A one-variable, one-row valid instance with ``fields`` replaced."""
    base = dict(
        name="b", num_vars=1, objective=(-1.0,), rows=(((0, 1.0),),), rhs=(1.0,), senses=("LE",),
        lower=(0.0,), upper=(1.0,), binary_set=frozenset([0]),
    )
    return MilpInstance(**(base | fields))


VIOLATIONS = {
    "binary-index-out-of-range": (dict(binary_set=frozenset([0, 3])), "binary index 3 out of range"),
    "no-variables": (
        dict(num_vars=0, objective=(), rows=(), rhs=(), senses=(), lower=(), upper=(), binary_set=frozenset()),
        "instance has no variables",
    ),
    "objective-length": (dict(objective=(-1.0, 2.0)), "objective length 2 != num_vars 1"),
    "non-finite-coefficient": (dict(rows=(((0, float("nan")),),)), "row 0: non-finite coefficient at column 0"),
    "unknown-sense": (dict(senses=("<=",)), "row 0: unknown sense '<='"),
    "non-finite-rhs": (dict(rhs=(INF,)), "row 0: non-finite rhs"),
    "infinite-lower-bound": (
        dict(lower=(-INF,), upper=(INF,), binary_set=frozenset()),
        "column 0: lower bound must be finite",
    ),
    "lower-above-upper": (
        dict(lower=(2.0,), upper=(1.0,), binary_set=frozenset()),
        "column 0: lower bound 2.0 above upper bound 1.0",
    ),
}


def test_the_unbroken_instance_is_valid():
    assert validate_instance(broken()).ok


@pytest.mark.parametrize("fields, message", VIOLATIONS.values(), ids=VIOLATIONS.keys())
def test_each_violation_is_reported(fields, message):
    assert message in validate_instance(broken(**fields)).violations


def five_families():
    return [
        generators.gen_gisp(nodes=15, seed=1),
        generators.gen_setcover(n_elements=12, n_sets=10, seed=2),
        generators.gen_combinatorial_auction(items=6, bids=9, seed=3),
        generators.gen_mis(nodes=14, avg_degree=3, seed=4),
        generators.gen_facility_location(facilities=3, customers=5, seed=5),
    ]


def with_explicit_zeros():
    """Rows given out of column order, with a +0.0 and a -0.0 coefficient."""
    return make_instance(
        "zeros", [-1.0, -2.0, 0.5],
        [[(2, 1.0), (1, 0.0), (0, 1.0)], [(1, 2.0), (0, -0.0)], [(2, 1.0), (1, 1.0)]],
        [1.5, 1.0, 1.0], ["LE", "LE", "GE"], [0.0, 0.0, 0.0], [1.0, 1.0, 4.0], [0, 1],
    )


class TestArrayView:
    """The array view, the LP workspace and the features equal the row loops
    they replaced, bit for bit (signed zeros included)."""

    @staticmethod
    def reference_nonzeros(inst):
        rows, cols, coefs = [], [], []
        for r, row in enumerate(inst.rows):
            for j, a in row:
                rows.append(r)
                cols.append(j)
                coefs.append(a)
        return (
            np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
            np.asarray(coefs, dtype=float),
        )

    @pytest.mark.parametrize("inst", five_families() + [with_explicit_zeros()], ids=lambda i: i.name)
    def test_view_workspace_and_features_match_the_loops(self, inst):
        def same(got, want):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

        rows, cols, coefs = self.reference_nonzeros(inst)
        view = inst.arrays
        same(view.row, rows)
        same(view.col, cols)
        same(view.coef, coefs)
        for name in ("objective", "lower", "upper", "rhs"):
            same(getattr(view, name), np.asarray(getattr(inst, name), dtype=float))
        same(view.binaries, np.array(sorted(inst.binary_set), dtype=np.int64))
        assert view.senses.tolist() == list(inst.senses)
        assert not any(a.flags.writeable for a in vars(view).values())

        n, m = inst.num_vars, inst.num_cons
        WT = np.zeros((n + m, m))
        slack_lo, slack_up = np.zeros(m), np.zeros(m)
        for r, row in enumerate(inst.rows):
            for j, a in row:
                WT[j, r] = a
            WT[n + r, r] = 1.0
            slack_lo[r], slack_up[r] = {"LE": (0.0, INF), "GE": (-INF, 0.0), "EQ": (0.0, 0.0)}[inst.senses[r]]
        ws = LpWorkspace(inst)
        same(ws.WT, WT)
        same(ws.slack_lo, slack_lo)
        same(ws.slack_up, slack_up)
        same(ws.b, np.asarray(inst.rhs, dtype=float))
        same(ws.c_ext[:n], np.asarray(inst.objective, dtype=float))
        # The memo keys are the bounds' bytes.
        same(ws.base_lower, np.asarray(inst.lower, dtype=float))
        same(ws.base_upper, np.asarray(inst.upper, dtype=float))

        g = featurize(inst, inst.lp.solve())
        same(g.edges, np.stack([rows, cols], axis=1))
        a_norm = max(abs(a) for a in coefs) or 1.0
        same(g.edge_feats, (coefs / a_norm).reshape(-1, 1))
        count, abs_sum = [0.0] * n, [0.0] * n
        for j, a in zip(cols.tolist(), coefs.tolist()):
            count[j] += 1.0
            abs_sum[j] += abs(a)
        mean = [s / c if c else 0.0 for s, c in zip(abs_sum, count)]
        same(g.var_feats[:, 12], np.array(count) / max(m, 1))
        same(g.var_feats[:, 13], np.array(mean) / a_norm)
        mask = np.zeros(n, dtype=bool)
        for j in inst.binary_set:
            mask[j] = True
        same(g.binary_mask, mask)

    def test_file_rows_take_the_in_memory_normal_form(self, tmp_path):
        inst = make_instance(
            "e", [-1.0, -1.0, -1.0], [[(0, 1.0), (2, 1.0)], [(1, 1.0), (2, 1.0)]],
            [1.0, 1.0], ["LE", "LE"], [0.0] * 3, [1.0] * 3, [0, 1, 2],
        )
        path = tmp_path / "e.bdmilp"
        write_instance(inst, path)
        assert read_instance(path) == inst
        text = path.read_text()
        assert "row 2 0 1 2 1\n" in text
        path.write_text(text.replace("row 2 0 1 2 1\n", "row 2 2 1 0 1\n"))
        edited = read_instance(path)
        assert edited == inst and edited.rows[0] == ((0, 1.0), (2, 1.0))
        got = featurize(edited, edited.lp.solve()).edges
        want = featurize(inst, inst.lp.solve()).edges
        assert got.tolist() == want.tolist() and got[:2].tolist() == [[0, 0], [0, 2]]
