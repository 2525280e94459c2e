import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apes_eval.stats import (
    ScoreTable,
    StatsError,
    correlation_matrix,
    level_aggregate,
    pearson,
    read_grouping_csv,
    read_score_csv,
    write_matrix_csv,
)
from oracles import brute_pearson


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)

    def test_closed_form_example(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-9)

    def test_zero_variance_is_error(self):
        with pytest.raises(StatsError, match="zero variance"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(StatsError, match="zero variance"):
            pearson([1, 2, 3], [5, 5, 5])

    @pytest.mark.parametrize(
        "x",
        [[1.0, math.nan, 3.0], [1.0, math.inf, 3.0], [1e200, -1e200, 3.0], [1e308, 1e308, 3.0]],
        ids=["nan", "inf", "variance overflow", "sum overflow"],
    )
    def test_non_finite_sum_or_variance_is_error(self, x):
        with pytest.raises(StatsError, match="sums and variances must be finite"):
            pearson(x, [2.0, 1.0, 5.0])

    def test_length_checks(self):
        with pytest.raises(StatsError):
            pearson([1], [1])
        with pytest.raises(StatsError):
            pearson([1, 2], [1, 2, 3])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_bounded_and_self_correlated(self, seed):
        rng = random.Random(seed)
        x = [rng.uniform(-5, 5) for _ in range(rng.randint(2, 30))]
        if len(set(x)) < 2:
            x[0] += 1.0
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
        y = [rng.uniform(-5, 5) for _ in range(len(x))]
        if len(set(y)) < 2:
            y[0] += 1.0
        assert abs(pearson(x, y)) <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 100_000),
        st.floats(min_value=-4, max_value=4).filter(lambda a: abs(a) > 1e-3),
        st.floats(min_value=-10, max_value=10),
    )
    def test_affine_invariance(self, seed, a, b):
        rng = random.Random(seed)
        x = [rng.uniform(-5, 5) for _ in range(10)]
        y = [rng.uniform(-5, 5) for _ in range(10)]
        base = pearson(x, y)
        scaled = pearson([a * v + b for v in x], y)
        assert scaled == pytest.approx(math.copysign(1.0, a) * base, abs=1e-9)

    def test_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(50):
            x = [rng.gauss(0, 1) for _ in range(12)]
            y = [rng.gauss(0, 1) for _ in range(12)]
            assert pearson(x, y) == pytest.approx(brute_pearson(x, y), abs=1e-12)


def random_table(rng, n_metrics=5, n_rows=50):
    metrics = tuple(f"m{i}" for i in range(n_metrics))
    rows = {
        f"u{j:03d}": tuple(rng.gauss(0, 1) for _ in metrics) for j in range(n_rows)
    }
    return ScoreTable(metrics, rows)


class TestCorrelationMatrix:
    def test_duplicated_metric_column_fully_correlated(self):
        table = ScoreTable(
            ("a", "b"), {"u1": (0.1, 0.1), "u2": (0.5, 0.5), "u3": (0.2, 0.2)}
        )
        matrix = correlation_matrix(table)
        assert matrix["a"]["b"] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_and_symmetry_random(self):
        rng = random.Random(3)
        matrix = correlation_matrix(random_table(rng))
        for a in matrix:
            assert matrix[a][a] == 1.0
            for b in matrix:
                assert matrix[a][b] == matrix[b][a]
                assert abs(matrix[a][b]) <= 1.0

    def test_matches_pairwise_recomputation(self):
        rng = random.Random(4)
        table = random_table(rng, n_metrics=3, n_rows=20)
        matrix = correlation_matrix(table)
        for a in table.metrics:
            for b in table.metrics:
                if a != b:
                    assert matrix[a][b] == pytest.approx(
                        brute_pearson(table.column(a), table.column(b)), abs=1e-12
                    )

    def test_needs_two_rows(self):
        with pytest.raises(StatsError):
            correlation_matrix(ScoreTable(("a",), {"u": (1.0,)}))

    def test_constant_column_error_names_pair(self):
        table = ScoreTable(("good", "flat"), {"u1": (0.1, 5.0), "u2": (0.9, 5.0)})
        with pytest.raises(StatsError, match="good vs flat"):
            correlation_matrix(table)


class TestLevelAggregate:
    def test_single_system_column_means(self):
        table = ScoreTable(("m1", "m2"), {"a": (1.0, 2.0), "b": (3.0, 4.0)})
        out = level_aggregate(table, {"a": "sys", "b": "sys"})
        assert out.rows == {"sys": (2.0, 3.0)}

    def test_identity_grouping(self):
        table = ScoreTable(("m",), {"a": (1.0,), "b": (2.0,)})
        out = level_aggregate(table, {"a": "a", "b": "b"})
        assert out.rows == table.rows

    def test_two_systems_hand_computed(self):
        table = ScoreTable(
            ("m",), {"a": (1.0,), "b": (2.0,), "c": (10.0,), "d": (20.0,)}
        )
        out = level_aggregate(table, {"a": "s1", "b": "s1", "c": "s2", "d": "s2"})
        assert out.rows == {"s1": (1.5,), "s2": (15.0,)}

    def test_unmapped_unit_is_error(self):
        table = ScoreTable(("m",), {"a": (1.0,), "b": (2.0,)})
        with pytest.raises(StatsError, match="missing from the grouping"):
            level_aggregate(table, {"a": "s"})

    def test_empty_group_is_error(self):
        table = ScoreTable(("m",), {"a": (1.0,)})
        with pytest.raises(StatsError, match="empty group"):
            level_aggregate(table, {"a": "s1", "ghost": "s2"})


class TestCsv:
    def test_score_roundtrip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("unit,r1,apes\nu1,0.5,0.25\nu2,0.75,1.0\n")
        table = read_score_csv(str(path))
        assert table.metrics == ("r1", "apes")
        assert table.rows["u2"] == (0.75, 1.0)

    def test_bad_cell_reports_position(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("unit,r1\nu1,not-a-number\n")
        with pytest.raises(StatsError, match="scores.csv:2"):
            read_score_csv(str(path))

    def test_grouping_requires_header(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("a,s1\n")
        with pytest.raises(StatsError, match="unit,system"):
            read_grouping_csv(str(path))

    def test_matrix_output_format(self, tmp_path):
        import io

        table = ScoreTable(("a", "b"), {"u1": (0.0, 0.0), "u2": (1.0, 1.0), "u3": (0.5, 0.7)})
        matrix = correlation_matrix(table)
        buffer = io.StringIO()
        write_matrix_csv(buffer, table.metrics, matrix)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "metric,a,b"
        assert lines[1].startswith("a,1.000000,")


def test_score_table_validates_shapes():
    with pytest.raises(StatsError):
        ScoreTable(("a", "b"), {"u": (1.0,)})
    with pytest.raises(StatsError):
        ScoreTable(("a", "a"), {"u": (1.0, 2.0)})
