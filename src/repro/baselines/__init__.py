"""Baseline techniques the paper compares against."""
