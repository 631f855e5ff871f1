"""Synthetic internet ground truth: topology, population, churn, abuse."""
