"""repro.chaos — deterministic fault-campaign engine.

Schedule timed faults (crashes, outages, partitions, disk stalls,
Byzantine recorders) against a running :class:`~repro.System`, or let
the seed-determined monkey pick them; then assert the thesis's
reliability promises held. See ``docs/CHAOS.md`` and
``docs/ADVERSARY.md``.
"""
