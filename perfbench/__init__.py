"""Benchmark of the respecting_cuts package; entry point perfbench/run.py."""
