"""The GF(2) elimination engine's guards on its inputs."""

import pytest

from ratslice.gf2 import new_engine


def test_pure_engine_rejects_out_of_range_bits():
    engine = new_engine(4)
    with pytest.raises(ValueError):
        engine.add_column(1 << 4)
    with pytest.raises(ValueError):
        engine.reduce(1 << 5)
