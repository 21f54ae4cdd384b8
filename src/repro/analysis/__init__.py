"""Analysis layer: theoretical bounds, experiment runners, report rendering."""

from . import complexity
from .reporting import (
    format_value,
    render_table,
    render_markdown_table,
    add_ratio_column,
)
from .experiments import (
    run_apsp_comparison,
    run_pde_scaling,
    run_figure1_congestion,
    run_relabeling_experiment,
    run_compact_experiment,
    run_prior_work_ablation,
    run_epsilon_sweep,
    run_tz_comparison,
)

__all__ = [
    "complexity",
    "format_value",
    "render_table",
    "render_markdown_table",
    "add_ratio_column",
    "run_apsp_comparison",
    "run_pde_scaling",
    "run_figure1_congestion",
    "run_relabeling_experiment",
    "run_compact_experiment",
    "run_prior_work_ablation",
    "run_epsilon_sweep",
    "run_tz_comparison",
]
