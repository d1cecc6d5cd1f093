"""The repository benchmark: four named workloads through ``repro.deploy``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (``--workload all`` runs every workload,
each in a fresh process).  The untraced run (``--trace 0``) reports the
end-to-end metrics; the traced run (``--trace 1``) wraps the public entry
points of each ``repro`` layer from outside and reports per-layer counts
and self times.  ``BENCHMARK.json`` at the repository root lists the
workloads and metrics.

Modules:

* :mod:`perfbench.metrics` -- the benchmark's arithmetic (stdlib only).
* :mod:`perfbench.pace`    -- the reference kernel that puts wall-clock
  metrics at a fixed host pace (stdlib only).
* :mod:`perfbench.layers`  -- the layer table, the timing wrappers and the
  scenario-phase probe.
* :mod:`perfbench.workloads` -- the four workloads, their output checks and
  the counters read from the finished deployment.
* :mod:`perfbench.run`     -- the command line.
"""
