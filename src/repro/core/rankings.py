"""Cross-dataset model rankings (extension).

The paper's conclusion — "Graph-WaveNet shows the best average performance
and GMAN has an advantage in long-term predictions" — is a statement about
*ranks across datasets*.  This module computes per-dataset ranks, average
ranks, and a Friedman test over the rank table, so the conclusion carries a
significance level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import format_table
from .results import AggregateResult

__all__ = ["RankTable", "rank_models", "friedman_test", "leaderboard"]


@dataclass
class RankTable:
    """Ranks of models across datasets for one (horizon, metric)."""

    models: list[str]
    datasets: list[str]
    ranks: np.ndarray          # (datasets, models), 1 = best

    def average_rank(self) -> dict[str, float]:
        means = self.ranks.mean(axis=0)
        return dict(zip(self.models, means.tolist()))

    def winner(self) -> str:
        means = self.ranks.mean(axis=0)
        return self.models[int(means.argmin())]


def rank_models(results: list[AggregateResult], minutes: int = 15,
                metric: str = "mae", difficult: bool = False) -> RankTable:
    """Rank models within each dataset by mean metric (rank 1 = lowest)."""
    from scipy import stats

    datasets = sorted({r.dataset_name for r in results})
    models = sorted({r.model_name for r in results})
    by_cell = {(r.model_name, r.dataset_name): r for r in results}

    rank_rows = []
    for dataset in datasets:
        values = []
        for model in models:
            cell = by_cell.get((model, dataset))
            if cell is None:
                raise ValueError(
                    f"missing cell ({model}, {dataset}); rankings need a "
                    "complete model×dataset matrix")
            values.append(cell.metric(minutes, metric, difficult).mean)
        rank_rows.append(stats.rankdata(values))
    return RankTable(models=models, datasets=datasets,
                     ranks=np.array(rank_rows))


def friedman_test(table: RankTable) -> tuple[float, float]:
    """Friedman chi-square over the rank table; returns (statistic, p).

    Small p: the models' ranks differ beyond chance across datasets.
    Needs at least 3 models and 2 datasets; degenerate inputs return
    (nan, 1.0).
    """
    if table.ranks.shape[0] < 2 or table.ranks.shape[1] < 3:
        return float("nan"), 1.0
    columns = [table.ranks[:, j] for j in range(table.ranks.shape[1])]
    from scipy import stats

    statistic, p_value = stats.friedmanchisquare(*columns)
    return float(statistic), float(p_value)


def leaderboard(results: list[AggregateResult],
                horizons: tuple[int, ...] = (15, 30, 60),
                metric: str = "mae") -> str:
    """Printable leaderboard: average rank per model per horizon."""
    tables = {m: rank_models(results, minutes=m, metric=metric)
              for m in horizons}
    models = tables[horizons[0]].models
    rows = []
    for model in models:
        row = [model]
        for minutes in horizons:
            row.append(f"{tables[minutes].average_rank()[model]:.2f}")
        overall = np.mean([tables[m].average_rank()[model] for m in horizons])
        row.append(f"{overall:.2f}")
        rows.append((overall, row))
    rows.sort(key=lambda pair: pair[0])
    headers = (["model"] + [f"rank@{m}m" for m in horizons] + ["overall"])
    lines = [format_table(headers, [row for _, row in rows])]
    statistic, p_value = friedman_test(tables[horizons[0]])
    lines.append(f"Friedman test @ {horizons[0]}m: chi2="
                 f"{statistic:.2f}, p={p_value:.4f}")
    return "\n".join(lines)
