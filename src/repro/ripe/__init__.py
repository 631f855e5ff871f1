"""RIPE Atlas substrate: probes, connection logs, dynamic detection."""
