"""Operator survey: schema, synthetic responses, tabulation."""
