"""The repo benchmark: pinned workloads, drift-cancelled host metrics,
exact simulated metrics and a per-layer ledger (see README.md)."""
