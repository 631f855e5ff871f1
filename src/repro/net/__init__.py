"""Networking primitives (IPv4 + address families) shared by every
subsystem."""
