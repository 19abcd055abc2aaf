"""Host-time benchmarks.

Each bench times one layer of the system on this host (the analyzer, the
cluster runtime, the flight recorder, the network, the engines) and prints
its table.  The paper's tables and figures, its cost-model ablations and
every extension record are functions of ``repro.analysis.paper``
(``paper.ablation_costmodel``, ``paper.live_elastic``, ...), run by
``python -m repro report``.  Benches run a single round
(``helpers.run_once``): repeated rounds would multiply wall time.
"""
