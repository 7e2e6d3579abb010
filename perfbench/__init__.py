"""Benchmark of chaoscope; run it with ``python3 perfbench/run.py``."""
