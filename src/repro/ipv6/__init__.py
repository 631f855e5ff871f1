"""IPv6 extension: Entropy/IP-style structure discovery (the paper's
stated path to extending reuse detection beyond IPv4)."""
