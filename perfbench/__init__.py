"""Benchmark harness for tsr; see README.md."""
