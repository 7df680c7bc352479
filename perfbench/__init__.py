"""End-to-end benchmark of the in situ compression path (see ``run.py``)."""
