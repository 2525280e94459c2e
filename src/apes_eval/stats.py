"""Pearson correlation, correlation matrices, and unit-to-system
aggregation over metric score tables, with CSV input and output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO


class StatsError(ValueError):
    """Degenerate or malformed score data."""


@dataclass(frozen=True)
class ScoreTable:
    """Rows of metric values keyed by unit id (summary or system)."""

    metrics: tuple[str, ...]
    rows: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        if len(set(self.metrics)) != len(self.metrics):
            raise StatsError("duplicate metric names")
        for unit, values in self.rows.items():
            if len(values) != len(self.metrics):
                raise StatsError(
                    f"row {unit!r} has {len(values)} values for {len(self.metrics)} metrics"
                )

    def column(self, metric: str) -> list[float]:
        """Values of one metric, in sorted unit-id order."""
        idx = self.metrics.index(metric)
        return [self.rows[unit][idx] for unit in sorted(self.rows)]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation; zero variance on either side, or a sum or
    variance that is not finite, is an error."""
    if len(x) != len(y):
        raise StatsError("inputs must have equal length")
    if len(x) < 2:
        raise StatsError("at least two observations are required")
    n = len(x)
    try:
        mean_x = math.fsum(x) / n
        mean_y = math.fsum(y) / n
        dx = [a - mean_x for a in x]
        dy = [b - mean_y for b in y]
        var_x = math.fsum(a * a for a in dx)
        var_y = math.fsum(b * b for b in dy)
    except (OverflowError, ValueError) as exc:  # fsum overflowed, or met inf and -inf
        raise StatsError(f"sums and variances must be finite: {exc}") from None
    # an inf or nan variance would read r as 0 or clamp it to 1
    if not (math.isfinite(var_x) and math.isfinite(var_y)):
        raise StatsError("sums and variances must be finite")
    if var_x == 0.0 or var_y == 0.0:
        raise StatsError("undefined correlation: an input has zero variance")
    if var_x * var_y == 0.0:
        raise StatsError("undefined correlation: the product of the variances underflows to 0")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def correlation_matrix(table: ScoreTable) -> dict[str, dict[str, float]]:
    """Pairwise Pearson over the table's metrics; symmetric, unit diagonal."""
    if len(table.rows) < 2:
        raise StatsError("at least two rows are required")
    columns = {m: table.column(m) for m in table.metrics}
    matrix: dict[str, dict[str, float]] = {m: {} for m in table.metrics}
    for i, a in enumerate(table.metrics):
        matrix[a][a] = 1.0
        for b in table.metrics[i + 1 :]:
            try:
                r = pearson(columns[a], columns[b])
            except StatsError as exc:
                raise StatsError(f"{a} vs {b}: {exc}") from exc
            matrix[a][b] = r
            matrix[b][a] = r
    return matrix


def level_aggregate(table: ScoreTable, grouping: Mapping[str, str]) -> ScoreTable:
    """Mean each metric per system, turning an input-level table into a
    system-level one. Every unit must be mapped and every system non-empty."""
    unmapped = sorted(set(table.rows) - set(grouping))
    if unmapped:
        raise StatsError(f"units missing from the grouping: {unmapped}")
    groups: dict[str, list[str]] = {system: [] for system in grouping.values()}
    for unit, system in grouping.items():
        if unit in table.rows:
            groups[system].append(unit)
    empty = sorted(s for s, units in groups.items() if not units)
    if empty:
        raise StatsError(f"empty groups: {empty}")

    rows: dict[str, tuple[float, ...]] = {}
    for system in sorted(groups):
        units = sorted(groups[system])
        try:
            rows[system] = tuple(
                math.fsum(table.rows[u][i] for u in units) / len(units)
                for i in range(len(table.metrics))
            )
        except OverflowError as exc:
            raise StatsError(f"system {system!r}: {exc}") from None
    return ScoreTable(table.metrics, rows)


# -- CSV formats -----------------------------------------------------------


def _csv_rows(path: str) -> list[tuple[int, list[str]]]:
    """(line, cells) of the header and of each non-blank row after it.
    A file that is empty, not UTF-8 or not CSV is an error naming the path."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            rows = [
                (lineno, row)
                for lineno, row in enumerate(reader, start=1)
                if lineno == 1 or any(cell.strip() for cell in row)
            ]
        except UnicodeDecodeError as exc:
            raise StatsError(f"{path}: {exc}") from None
        except csv.Error as exc:
            raise StatsError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise StatsError(f"{path}: empty CSV")
    return rows


def read_score_csv(path: str) -> ScoreTable:
    """Header: unit-id column name (ignored) then metric names; one row of
    finite scores per unit."""
    (_, header), *lines = _csv_rows(path)
    if len(header) < 2:
        raise StatsError(f"{path}: need a unit column plus at least one metric")
    metrics = tuple(h.strip() for h in header[1:])
    if len(set(metrics)) != len(metrics):
        repeated = sorted({m for m in metrics if metrics.count(m) > 1})
        raise StatsError(f"{path}:1: duplicate metric names {repeated}")
    rows: dict[str, tuple[float, ...]] = {}
    for lineno, row in lines:
        if len(row) != len(metrics) + 1:
            raise StatsError(f"{path}:{lineno}: expected {len(metrics) + 1} cells")
        unit = row[0].strip()
        if unit in rows:
            raise StatsError(f"{path}:{lineno}: duplicate unit id {unit!r}")
        try:
            values = tuple(float(cell) for cell in row[1:])
        except ValueError as exc:
            raise StatsError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise StatsError(f"{path}:{lineno}: scores must be finite, not nan or inf")
        rows[unit] = values
    return ScoreTable(metrics, rows)


def read_grouping_csv(path: str) -> dict[str, str]:
    """Two columns, header ``unit,system``; maps unit ids to system ids."""
    (_, header), *lines = _csv_rows(path)
    if [h.strip().lower() for h in header[:2]] != ["unit", "system"]:
        raise StatsError(f"{path}: expected header 'unit,system'")
    grouping: dict[str, str] = {}
    for lineno, row in lines:
        if len(row) < 2:
            raise StatsError(f"{path}:{lineno}: expected 'unit,system'")
        unit = row[0].strip()
        if unit in grouping:
            raise StatsError(f"{path}:{lineno}: duplicate unit id {unit!r}")
        grouping[unit] = row[1].strip()
    return grouping


def write_matrix_csv(
    handle: TextIO, metrics: Sequence[str], matrix: Mapping[str, Mapping[str, float]]
) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["metric", *metrics])
    for a in metrics:
        writer.writerow([a, *(f"{matrix[a][b]:.6f}" for b in metrics)])
