"""The sequential, order-preserving map."""

from ratslice.parallel import ordered_map


def test_ordered_map_preserves_order():
    items = list(range(500))
    assert ordered_map(lambda x: x * x, items) == [x * x for x in items]


def test_ordered_map_empty():
    assert ordered_map(lambda x: x, []) == []
