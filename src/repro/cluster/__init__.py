"""Cluster configurations (§6.2).

* :mod:`repro.cluster.gateways` — LAN clusters joined by
  store-and-forward gateways into a :class:`ClusterFederation`;
* :mod:`repro.cluster.placement` — recorder shards that split one
  cluster's node range;
* :mod:`repro.cluster.scenario` — the serial federation scenario and
  its digests.
"""
