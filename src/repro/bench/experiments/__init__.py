"""One module per paper table/figure; each exposes ``run(scale)``.

:data:`repro.bench.paper.EXPERIMENTS` lists them, with the claims each
table must meet; ``python -m repro.bench run <name>`` runs one.
"""
