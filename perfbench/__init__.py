"""The publishing benchmark: workloads, tracing and the runner (see README.md)."""
