"""Benchmark of the blockstoch command line; see run.py."""
