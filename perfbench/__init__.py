"""Seeded benchmark for the pauvc library; run it with ``python3 perfbench/run.py``."""
