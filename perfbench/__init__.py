"""CLI-level benchmark of ratslice; see run.py."""
