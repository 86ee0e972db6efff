"""Speaker-separability analysis of filterbank log-energies via F-ratio."""

from dataclasses import dataclass
from typing import Mapping

import numpy as np

GroupedEnergies = Mapping[str, np.ndarray]


def f_ratio(data: GroupedEnergies) -> tuple[np.ndarray, float]:
    """Between-speaker variance of means over mean within-speaker variance, per filter.

    F_j = [(1/S) sum_s (mu_sj - mu_j)^2] / [(1/S) sum_s var_sj] with unbiased
    within-speaker variances. Returns (per-filter F, average over filters).
    """
    if len(data) < 2:
        raise ValueError("need at least two speakers")
    groups = []
    for speaker, mat in data.items():
        mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
        if mat.shape[0] < 2:
            raise ValueError(f"speaker {speaker!r} has fewer than two frames")
        groups.append(mat)
    widths = {g.shape[1] for g in groups}
    if len(widths) != 1:
        raise ValueError("speakers disagree on filter count")
    means = np.stack([g.mean(axis=0) for g in groups])
    within = np.stack([g.var(axis=0, ddof=1) for g in groups]).mean(axis=0)
    if np.any(within == 0.0):
        raise ValueError("zero within-class variance")
    grand = means.mean(axis=0)
    between = ((means - grand) ** 2).mean(axis=0)
    ratios = between / within
    return ratios, float(ratios.mean())


@dataclass
class FRatioReport:
    """Per-filter F-ratios for several filterbank variants, Table-style."""

    variant_names: list[str]
    ratios: np.ndarray  # n_filters x n_variants
    averages: np.ndarray  # n_variants
    winners: list[str | None]  # per filter; None on ties

    def to_text(self) -> str:
        """Aligned table with the winning variant starred per filter."""
        header = ["Filter"] + self.variant_names
        rows = [header]
        for j in range(self.ratios.shape[0]):
            row = [str(j + 1)]
            for v, name in enumerate(self.variant_names):
                star = "*" if self.winners[j] == name else ""
                row.append(f"{self.ratios[j, v]:.4f}{star}")
            rows.append(row)
        rows.append(["Avg."] + [f"{a:.4f}" for a in self.averages])
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows)

    def to_tsv(self) -> str:
        """Machine-readable rows: filter, one column per variant, winner flag."""
        lines = ["\t".join(["filter"] + self.variant_names + ["winner"])]
        for j in range(self.ratios.shape[0]):
            cells = [str(j + 1)] + [repr(float(x)) for x in self.ratios[j]] + [self.winners[j] or ""]
            lines.append("\t".join(cells))
        lines.append("\t".join(["avg"] + [repr(float(x)) for x in self.averages] + [""]))
        return "\n".join(lines) + "\n"


def f_ratio_report(variants: Mapping[str, GroupedEnergies]) -> FRatioReport:
    """F-ratio comparison across filterbank variants sharing a filter count."""
    if len(variants) < 2:
        raise ValueError("need at least two variants")
    names = list(variants)
    columns = []
    averages = []
    for name in names:
        ratios, avg = f_ratio(variants[name])
        columns.append(ratios)
        averages.append(avg)
    widths = {c.size for c in columns}
    if len(widths) != 1:
        raise ValueError("variants disagree on filter count")
    ratios = np.stack(columns, axis=1)
    unique = (ratios == ratios.max(axis=1, keepdims=True)).sum(axis=1) == 1
    winners = [names[v] if one else None for v, one in zip(ratios.argmax(axis=1), unique)]
    return FRatioReport(names, ratios, np.asarray(averages), winners)
