"""The concretizer benchmark: ``python3 perfbench/run.py``; see METRICS.md."""
