"""Benchmark for the handover-ie toolkit; run it with ``python3 perfbench/run.py``."""
