"""Experiment runner, probes, CLI, and table persistence."""

from .config import ExperimentConfig
from .ensemble import EnsembleRecord, RECORD_FIELDS, record_rows, run_ensemble
from .probes import (PROBES, ProbeResult, probe_contraction, probe_levy_sum,
                     probe_marginal, probe_markov, probe_tail)
from .tableio import (SCHEMA_TAG, read_csv_rows, render_csv, render_json,
                      write_table)

__all__ = [
    "ExperimentConfig", "EnsembleRecord", "RECORD_FIELDS", "record_rows",
    "run_ensemble", "PROBES", "ProbeResult", "probe_contraction",
    "probe_levy_sum", "probe_marginal", "probe_markov", "probe_tail",
    "SCHEMA_TAG", "read_csv_rows", "render_csv", "render_json",
    "write_table",
]

