"""The GF(2) elimination engine's guards on its inputs."""

import pytest

from ratslice import _gf2py


def test_pure_engine_rejects_out_of_range_bits():
    engine = _gf2py.Elimination(4)
    with pytest.raises(ValueError):
        engine.add_column(1 << 4)
    with pytest.raises(ValueError):
        engine.reduce(1 << 5)


def test_pure_engine_solve_requires_tracking():
    engine = _gf2py.Elimination(4, track=False)
    engine.add_column(0b1010)
    with pytest.raises(ValueError, match="tracking"):
        engine.solve(0b1010)
