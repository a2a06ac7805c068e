"""End-to-end benchmark of the repro stream compiler (see ``run.py``)."""
