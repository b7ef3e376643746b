"""The data-to-insight benchmark (``python3 perfbench/run.py``); see ``LAYERS.md``."""
