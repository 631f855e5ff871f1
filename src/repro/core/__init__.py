"""The paper's primary contribution: reused-address impact analysis."""
