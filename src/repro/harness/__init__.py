"""Experiment harness: one runner per paper figure/table, plus reporting."""
