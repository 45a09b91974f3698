"""The GF(2) elimination engine against a dense row-reduction oracle."""

import random
import tracemalloc

import pytest

from ratslice.gf2 import VectorGF2, new_engine

from helpers import dense_in_image, dense_rank, random_columns


def eliminate(rows: int, columns: list[int], track: bool = True):
    engine = new_engine(rows, track=track)
    for col in columns:
        engine.add_column(col)
    return engine


def identity(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def transpose(rows: int, columns: list[int]) -> list[int]:
    return [
        sum(1 << c for c, col in enumerate(columns) if col >> r & 1)
        for r in range(rows)
    ]


def apply(columns: list[int], combo: int) -> int:
    out = 0
    for c, col in enumerate(columns):
        if combo >> c & 1:
            out ^= col
    return out


def test_rank_identity():
    assert eliminate(3, identity(3)).rank == 3


def test_rank_zero_matrix():
    assert eliminate(4, [0] * 5).rank == 0


def test_rank_random_matches_dense_oracle():
    rng = random.Random(20240817)
    for _ in range(100):
        cols = random_columns(rng, 8, 8)
        for track in (True, False):
            assert eliminate(8, cols, track).rank == dense_rank(8, cols)


def test_rank_transpose_invariance():
    rng = random.Random(7)
    for _ in range(40):
        rows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        cols = random_columns(rng, rows, ncols)
        assert eliminate(rows, cols).rank == eliminate(ncols, transpose(rows, cols)).rank


def test_kernel_identity_empty():
    assert eliminate(4, identity(4)).kernel_combos == []


def test_kernel_one_by_two():
    assert eliminate(1, [1, 1]).kernel_combos == [0b11]


def test_kernel_random_spans_null_space():
    rng = random.Random(99)
    for _ in range(60):
        cols = random_columns(rng, 10, 10)
        combos = eliminate(10, cols).kernel_combos
        assert len(combos) == len(cols) - dense_rank(10, cols)
        for combo in combos:
            assert combo and apply(cols, combo) == 0
        assert dense_rank(len(cols), combos) == len(combos)


def test_untracked_engine_keeps_no_combination_masks():
    # A tracked engine holds one mask per pivot, as wide as the column
    # count so far: quadratic in n.  An untracked one must stay linear.
    n = 4000
    cols = identity(n)
    tracemalloc.start()
    try:
        eliminate(n, cols, track=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * n


def test_in_image_identity_contains_every_vector():
    engine = eliminate(4, identity(4))
    for target in range(16):
        assert engine.reduce(target) == 0


def test_in_image_zero_matrix_rejects_nonzero():
    assert eliminate(3, [0, 0]).reduce(0b001) == 0b001


def test_in_image_dimension_mismatch():
    with pytest.raises(ValueError):
        eliminate(3, identity(3)).reduce(1 << 3)


def test_in_image_random_agrees_with_dense_oracle():
    rng = random.Random(512)
    for _ in range(80):
        rows = rng.randint(1, 8)
        cols = random_columns(rng, rows, rng.randint(1, 8))
        target = sum(1 << r for r in range(rows) if rng.random() < 0.4)
        engine = eliminate(rows, cols, track=rng.random() < 0.5)
        residue = engine.reduce(target)
        assert (residue == 0) == dense_in_image(rows, cols, target)
        assert not any(residue >> r & 1 for r in engine.pivot_rows)
        # The residue differs from the target by a vector of the span.
        assert dense_in_image(rows, cols, residue ^ target)


def test_rank_nullity_for_all_small_shapes():
    rng = random.Random(3)
    for rows in range(1, 6):
        for ncols in range(1, 6):
            engine = eliminate(rows, random_columns(rng, rows, ncols))
            assert engine.rank + len(engine.kernel_combos) == ncols


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        VectorGF2(3, frozenset({3}))
