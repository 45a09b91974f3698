"""Order-preserving map, kept only as a hook point.

It stays because perfbench/shim.py imports this module unguarded and
patches ordered_map by name; it goes with the next benchmark change.
"""


def ordered_map(fn, items):
    """[fn(item) for item in items], sequentially and in input order."""
    return [fn(item) for item in items]
