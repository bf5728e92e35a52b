"""Text rendering for figure/table reproductions.

Every benchmark prints its figure through these helpers so that
EXPERIMENTS.md and the bench output share one format: a fixed-width
table with one column per workload (plus AVG) and one row per series,
mirroring the paper's grouped bar charts.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..errors import AnalysisError


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Mapping[str, Mapping[str, float]],
    value_format: str = "{:.2f}",
    note: Optional[str] = None,
) -> str:
    """Render ``rows`` (series name -> column -> value) as fixed-width
    text. Missing cells render as '-'."""
    if not rows:
        raise AnalysisError(f"table {title!r} has no rows")
    name_width = max(len(name) for name in rows) + 2
    col_width = max(7, max(len(c) for c in columns) + 1)

    lines = [title, "=" * len(title)]
    header = " " * name_width + "".join(f"{c:>{col_width}}" for c in columns)
    lines.append(header)
    for name, values in rows.items():
        cells = []
        for column in columns:
            if column in values:
                cells.append(f"{value_format.format(values[column]):>{col_width}}")
            else:
                cells.append(f"{'-':>{col_width}}")
        lines.append(f"{name:<{name_width}}" + "".join(cells))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def format_bars(
    title: str,
    values: Mapping[str, float],
    width: int = 40,
    value_format: str = "{:.2f}",
) -> str:
    """A quick horizontal ASCII bar chart (one bar per key)."""
    if not values:
        raise AnalysisError(f"bar chart {title!r} has no values")
    peak = max(values.values())
    if peak <= 0:
        raise AnalysisError(f"bar chart {title!r} has no positive values")
    name_width = max(len(name) for name in values) + 2
    lines = [title, "=" * len(title)]
    for name, value in values.items():
        bar = "#" * max(1, round(width * value / peak))
        lines.append(
            f"{name:<{name_width}}{value_format.format(value):>8} {bar}"
        )
    return "\n".join(lines)


def render_grid_summary(name: str, grids) -> str:
    """Roll results up into one summary table per grid.

    ``grids`` maps ``(config, scale, seed)`` to ``{workload: {policy
    label: result}}`` (e.g. :meth:`repro.campaign.CampaignReport.grids`).
    Columns follow the suite order; a table shows speedup over baseline
    when every column ran a baseline and another policy, raw IPC
    otherwise.
    """
    from ..workloads.suite import SUITE_ORDER

    blocks = []
    suite_rank = {w: i for i, w in enumerate(SUITE_ORDER)}
    for key in sorted(grids, key=lambda k: (str(k[0]), str(k[1]), str(k[2]))):
        per_workload = grids[key]
        config, scale, seed = key
        columns = sorted(
            per_workload, key=lambda w: (suite_rank.get(w, len(suite_rank)), w)
        )
        labels: list = []
        for workload in columns:
            for label in per_workload[workload]:
                if label not in labels:
                    labels.append(label)
        # A baseline-only grid has nothing to compare: show its IPC.
        have_baseline = len(labels) > 1 and all(
            "baseline" in per_workload[w] for w in columns
        )
        rows: dict = {}
        for label in labels:
            if label == "baseline" and have_baseline:
                continue
            row = {}
            for workload in columns:
                result = per_workload[workload].get(label)
                if result is None:
                    continue
                if have_baseline:
                    row[workload] = result.speedup_over(
                        per_workload[workload]["baseline"]
                    )
                else:
                    row[workload] = result.ipc
            if row:
                rows[label] = row
        if not rows:
            continue
        metric = "speedup over baseline" if have_baseline else "IPC"
        blocks.append(
            format_table(
                f"{name}: config={config} scale={scale} seed={seed}",
                columns,
                rows,
                note=metric,
            )
        )
    if not blocks:
        raise AnalysisError(f"{name} has no completed results to summarize")
    return "\n\n".join(blocks)


def compare_to_paper(
    measured: Mapping[str, float],
    paper: Mapping[str, float],
    label_measured: str = "measured",
    label_paper: str = "paper",
) -> str:
    """Two-row comparison for the keys both sides have."""
    keys = [k for k in paper if k in measured]
    if not keys:
        raise AnalysisError("no overlapping keys between measured and paper data")
    rows = {
        label_paper: {k: paper[k] for k in keys},
        label_measured: {k: measured[k] for k in keys},
    }
    return format_table("paper vs measured", keys, rows)
