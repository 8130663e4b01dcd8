"""Table jobs, one per reproduced table (see DESIGN.md §3), run by
``scripts/run_experiments.py``."""
