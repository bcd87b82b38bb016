"""FRESQUE reproduction: a scalable ingestion framework for secure range
query processing on clouds (Tran, Allard, d'Orazio, El Abbadi — EDBT 2021).

Top-level subpackages
---------------------
``repro.core``
    The paper's primary contribution: the FRESQUE collector architecture
    (dispatcher, computing nodes, checking node with randomer, merger).
``repro.index``
    The PINED-RQ differentially-private index family (clear index,
    perturbation, index template, AL/ALN arrays, overflow arrays).
``repro.privacy`` / ``repro.crypto``
    Differential-privacy and encryption substrates.
``repro.pinedrq`` / ``repro.pinedrqpp``
    The PINED-RQ and PINED-RQ++ baselines the paper compares against.
``repro.cloud`` / ``repro.client``
    The untrusted cloud store and the trusted query client.
``repro.runtime`` / ``repro.simulation``
    Execution substrates: a seeded single-threaded schedule, real TCP
    sockets, and a discrete-event cluster simulator for the performance
    experiments.
``repro.datasets`` / ``repro.baselines`` / ``repro.analysis``
    Synthetic NASA/Gowalla workloads, comparison baselines (ArxRange, OPE,
    bucketization), and the informed-online-attacker analysis.
"""

__version__ = "1.0.0"
