"""BitTorrent DHT substrate: wire protocol, simulated peers, crawler."""
