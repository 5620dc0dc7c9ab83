"""Published communications — the paper's primary contribution (Ch. 3-4).

* :mod:`repro.publishing.disk` — the recorder's disk model (3 ms
  latency, 2 MB/s transfer, 4 KB page buffering and compaction);
* :mod:`repro.publishing.stable_storage` — battery-backed stable store;
* :mod:`repro.publishing.database` — the per-process database of §4.5;
* :mod:`repro.publishing.recorder` — the passive recorder;
* :mod:`repro.publishing.watchdog` — timeout crash detection (§4.6);
* :mod:`repro.publishing.recovery_manager` — recovery manager and
  recovery processes (§3.3.3, §4.7), the recorder restart protocol
  (§3.3.4, §3.4), and recursive-crash handling (§3.5);
* :mod:`repro.publishing.checkpoints` — checkpoint policies, including
  Young's optimal interval (§3.2.4) and the recovery-time bound (§3.2.3);
* :mod:`repro.publishing.recovery_time` — the §3.2.3 t_max model;
* :mod:`repro.publishing.multi_recorder` — priority-vector coordination
  of several recorders (§6.3);
* :mod:`repro.publishing.node_recovery` — node-as-unit recovery with a
  deterministic scheduler (§6.6.2);
* :mod:`repro.publishing.gossip` — epidemic repair: bounded peer
  buffers, gap tracking, and pull-based hole repair on top of the
  passive recorder (see ``docs/GOSSIP.md``).
"""
