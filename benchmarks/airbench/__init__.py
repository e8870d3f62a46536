"""The repo benchmark: six workloads, end-to-end and per-layer metrics (see README.md)."""
