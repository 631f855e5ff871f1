"""Reproduction of "Quantifying the Impact of Blocklisting in the Age
of Address Reuse" (Ramanathan et al., ACM IMC 2020).

The package provides, against a fully synthetic but ground-truthed
internet:

* a BitTorrent DHT crawler that detects NATed addresses by verifying
  simultaneous users with bt_ping (:mod:`repro.bittorrent`,
  :mod:`repro.natdetect`);
* a RIPE Atlas log pipeline that detects dynamically-addressed /24
  prefixes via knee-point and daily-change filters (:mod:`repro.ripe`);
* the 151-blocklist measurement substrate (:mod:`repro.blocklists`);
* the impact analysis joining the three (:mod:`repro.core`);
* the Cai et al. ICMP census baseline (:mod:`repro.baselines`);
* the operator survey analysis (:mod:`repro.survey`).

Quickest start::

    from repro.experiments import run_full, RunConfig
    run = run_full(RunConfig.small())
    print(run.report.render())
"""

__version__ = "1.0.0"
