"""The benchmark harness behind ``perfbench/run.py``."""
