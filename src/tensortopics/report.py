"""Human-readable summaries of selected components.

Each component is reduced to its top-scoring labels per mode plus a larger
keyword list for cloud rendering, then emitted as a deterministic bundle:
report.json (machine-readable, round-trips losslessly), index.html (one
self-contained page, no external assets), and summary.json (run metadata).
"""

from __future__ import annotations

import functools
import logging
from pathlib import Path

import numpy as np

from .artifacts import ComponentReport, save_reports
from .sparse_tensor import AxisMap

logger = logging.getLogger(__name__)

DEFAULT_TOP_N = 13
DEFAULT_KEYWORD_COUNT = 50


def top_n(values, n: int, axis: AxisMap) -> list[tuple[str, float]]:
    """The n largest of one factor column's scores `values` as (label,
    score) pairs.

    Ordered by descending score, ties broken lexicographically by label.
    Asking for more entries than the mode has returns them all.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(axis) != values.shape[0]:
        raise ValueError(
            f"axis has {len(axis)} labels but the factor column has {values.shape[0]} rows"
        )
    candidates = np.arange(values.shape[0])
    if n < values.shape[0] and not np.isnan(values).any():
        # Only entries at or above the n-th largest value can be in the top
        # n; every tie with it stays a candidate for the label tie-break.
        nth = values[np.argpartition(-values, n - 1)[n - 1]]
        candidates = np.flatnonzero(values >= nth)
    labels = axis.labels
    pairs = [(labels[i], score) for i, score in zip(candidates.tolist(), values[candidates].tolist())]
    pairs.sort(key=lambda pair: (-pair[1], pair[0]))
    return pairs[:n]


def build_report(
    table,
    ids,
    axes,
    mode_names,
    n: int = DEFAULT_TOP_N,
    keyword_count: int = DEFAULT_KEYWORD_COUNT,
) -> list[ComponentReport]:
    """Summarize each column of the Kruskal table `table` against the tensor
    axes; ids[j] is column j's (origin_rank, index_in_model).

    Each mode of each column is ranked once. The keywords come from the last
    mode, the words: its top n and its keywords are both prefixes of the
    same ranking.
    """
    if len(axes) != len(mode_names) or len(axes) != len(table.factors):
        raise ValueError("axes, mode names, and factors must align")
    if len(ids) != table.rank:
        raise ValueError(f"{len(ids)} ids for a table of {table.rank} columns")
    if min(n, keyword_count) < 1:
        raise ValueError(f"n and keyword_count must be >= 1, got {n} and {keyword_count}")
    counts = [n] * (len(axes) - 1) + [max(n, keyword_count)]
    # Each factor is transposed once, so every column is ranked from contiguous memory.
    columns = [np.ascontiguousarray(f.T) for f in table.factors]
    reports = []
    for j, (origin_rank, index_in_model) in enumerate(ids):
        ranked = [top_n(c[j], count, axis) for c, count, axis in zip(columns, counts, axes)]
        tops = {str(name): pairs[:n] for name, pairs in zip(mode_names, ranked)}
        weight, keywords = float(table.weights[j]), ranked[-1][:keyword_count]
        reports.append(ComponentReport(int(origin_rank), int(index_in_model), weight, tops, keywords))
    return reports


def emit_report(reports, out_dir: str | Path, run_meta: dict) -> Path:
    """Write report.json, index.html, and summary.json into out_dir.

    run_meta carries the selection settings to echo (ranks, threshold,
    strategy). Output bytes depend only on the inputs: floats are serialized
    by repr via json, key order is fixed, and nothing records the time or
    environment. An empty report list still produces the full bundle with an
    explicit empty notice.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = list(reports)
    summary = save_reports(reports, out_dir, run_meta)
    (out_dir / "index.html").write_text(_render_html(reports, summary), encoding="utf-8")
    logger.info("wrote report bundle with %d component(s) to %s", len(reports), out_dir)
    return out_dir


_CSS = """
body { font-family: Georgia, serif; margin: 2rem auto; max-width: 60rem;
       color: #222; background: #fdfdfc; }
h1 { font-size: 1.6rem; border-bottom: 2px solid #444; padding-bottom: .3rem; }
h2 { font-size: 1.2rem; margin-top: 2.2rem; }
table { border-collapse: collapse; margin: .6rem 0; width: 100%; }
th, td { border: 1px solid #bbb; padding: .25rem .5rem; text-align: left;
         font-size: .85rem; }
th { background: #eee; }
td.score { text-align: right; font-variant-numeric: tabular-nums; }
.negative { color: #b00020; }
.cloud { line-height: 2.1; margin: .8rem 0; }
.cloud span { margin-right: .55rem; white-space: nowrap; }
.meta { color: #666; font-size: .85rem; }
.empty { margin: 3rem 0; font-style: italic; color: #666; }
"""


def _fmt_score(score: float) -> str:
    text = f"{score:.6g}"
    if score < 0.0:
        return f'<span class="negative">{text}</span>'
    return text


def _render_html(reports, summary: dict) -> str:
    import html  # only report renders html; other stages never load it

    # Components share most of their labels, so each is escaped once per render.
    escape = functools.cache(html.escape)
    parts = [
        "<meta charset=\"utf-8\">",
        "<title>Component report</title>",
        f"<style>{_CSS}</style>",
        "<h1>Component report</h1>",
        '<p class="meta">components: {n} | ranks: {ranks} | threshold: {thr} | strategy: {strat}</p>'.format(
            n=summary["component_count"],
            ranks=html.escape(", ".join(str(r) for r in summary["ranks"])) or "?",
            thr=html.escape(str(summary["threshold"])),
            strat=html.escape(str(summary["strategy"])),
        ),
    ]
    if not reports:
        parts.append('<p class="empty">No components were selected.</p>')
        return "\n".join(parts) + "\n"

    for pos, r in enumerate(reports, start=1):
        parts.append(
            f"<h2>Component {pos} "
            f'<span class="meta">(rank {r.origin_rank}, index {r.index_in_model}, '
            f"weight {_fmt_score(r.weight)})</span></h2>"
        )
        for name, pairs in r.mode_tops.items():
            parts.append(f"<h3>{escape(name)}</h3>")
            parts.append("<table><tr><th>label</th><th>score</th></tr>")
            for label, score in pairs:
                shown = escape(label) if label else "&nbsp;"
                parts.append(
                    f'<tr><td>{shown}</td><td class="score">{_fmt_score(score)}</td></tr>'
                )
            parts.append("</table>")
        parts.append("<h3>keywords</h3>")
        parts.append(f'<div class="cloud">{_render_cloud(r.keywords, escape)}</div>')
    return "\n".join(parts) + "\n"


def _render_cloud(keywords, escape) -> str:
    if not keywords:
        return "(none)"
    peak = max(abs(score) for _, score in keywords)
    spans = []
    for word, score in keywords:
        size = 0.8 + (1.4 * abs(score) / peak if peak > 0.0 else 0.0)
        cls = ' class="negative"' if score < 0.0 else ""
        spans.append(
            f'<span{cls} style="font-size:{size:.2f}em" title="{score!r}">'
            f"{escape(word)}</span>"
        )
    return " ".join(spans)
