"""Network substrate.

The thesis assumes a broadcast LAN on which a passive recorder can
overhear every message. This package provides that substrate:

* :mod:`repro.net.frames` — frames with real checksums;
* :mod:`repro.net.faults` — loss/corruption injection;
* :mod:`repro.net.media` — the medium interface and a perfect broadcast bus;
* :mod:`repro.net.ethernet` — standard CSMA/CD Ethernet;
* :mod:`repro.net.acking_ethernet` — the Tokoro & Tamaru Acknowledging
  Ethernet with a reserved recorder-acknowledgement slot (§6.1.1);
* :mod:`repro.net.token_ring` — a token ring with a recorder ack field
  (§6.1.2);
* :mod:`repro.net.star` — a star configuration whose hub is the recorder
  (the Z8000 configuration of §4.1);
* :mod:`repro.net.transport` — guaranteed/unguaranteed messages, duplicate
  suppression, end-to-end acknowledgements, and in-order delivery (§4.3.3).
"""
