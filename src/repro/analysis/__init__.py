"""Experiment drivers and reporting for the paper's tables/figures."""

from repro.analysis.experiments import (APP_PARAMS, Curve, FigureResult,
                                        fig6_jacobi_ethernet,
                                        fig7_9_jacobi_atm,
                                        fig10_12_tsp_atm,
                                        fig13_15_water_atm,
                                        fig16_18_cholesky_atm,
                                        protocol_sweep,
                                        sync_message_fraction,
                                        tab2_networks, tab3_overheads,
                                        tab4_cpu_speeds, tab5_page_size)
from repro.analysis.faults import (LossPoint, format_loss_table,
                                   loss_sweep)
from repro.analysis.report import format_curve_table, format_matrix

__all__ = [
    "APP_PARAMS", "Curve", "FigureResult", "LossPoint",
    "fig6_jacobi_ethernet", "fig7_9_jacobi_atm", "fig10_12_tsp_atm",
    "fig13_15_water_atm", "fig16_18_cholesky_atm",
    "format_curve_table", "format_loss_table", "format_matrix",
    "loss_sweep", "protocol_sweep",
    "sync_message_fraction", "tab2_networks", "tab3_overheads",
    "tab4_cpu_speeds", "tab5_page_size",
]
