"""Deterministic discrete-event simulation fabric."""
