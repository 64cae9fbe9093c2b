"""The repository benchmark: end-to-end and per-layer performance of ``repro``.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload facade_decide --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the diagnostics (per-pass work counts, sample counts, the host-speed
reference loop).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The exit code
is non-zero when any answer is wrong or any operation failed.

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``facade_decide`` -- one caller in a closed loop over the ``Database``
  facade with the default (propagating) engine; fresh facades every pass, so
  the decision cache never hits and every pass does identical work;
* ``sat_count`` -- the same closed loop with ``engine="sat"`` on the counting
  and pigeonhole families;
* ``facade_update`` -- the same closed loop over update streams: each
  ``Database.update`` is followed by the same decides, which the decision
  cache answers where the update evicted nothing they depend on;
* ``service_mixed`` -- ``repro.service`` in a subprocess with its default
  process executor, driven by an open loop of independent users over two
  connections (cache hits, fresh decides, updates and world streams);
  capacity is measured as requests per CPU-second of the server and its
  workers.  It is not listed in ``BENCHMARK.json``: the service answers some
  decides after an update on stale data (see :mod:`perfbench.service_mixed`),
  so its answer check fails and the run exits non-zero.

Each run does a fixed amount of work (a number of passes or requests derived
from ``--seconds``, never a time box), so two runs with the same arguments do
the same work; ``python3 -m pytest perfbench`` checks that the work counts
repeat exactly for one seed.
"""
