"""Blocklist substrate: catalog, formats, feeds, listing timelines."""
