"""The GF(2) elimination engine against a dense row-reduction oracle,
and its guards on its inputs."""

import random
import tracemalloc

import pytest

from ratslice.gf2 import new_engine

from helpers import dense_in_image, dense_rank, random_columns


def eliminate(rows: int, columns: list[int]):
    engine = new_engine(rows)
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


def test_rank_identity():
    assert eliminate(3, identity(3)).rank == 3


def test_rank_zero_matrix():
    assert eliminate(4, [0] * 5).rank == 0


def test_rank_random_matches_dense_oracle():
    rng = random.Random(20240817)
    for _ in range(100):
        cols = random_columns(rng, 8, 8)
        assert eliminate(8, cols).rank == dense_rank(8, cols)


def test_rank_transpose_invariance():
    rng = random.Random(7)
    for _ in range(40):
        rows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        cols = random_columns(rng, rows, ncols)
        assert eliminate(rows, cols).rank == eliminate(ncols, transpose(rows, cols)).rank


def test_engine_memory_stays_linear():
    # A mask per pivot as wide as the column count so far would be
    # quadratic in n; the engine keeps only its pivot columns.
    n = 4000
    cols = identity(n)
    tracemalloc.start()
    try:
        eliminate(n, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * n


def span(columns: list[int]) -> set[int]:
    vectors = {0}
    for col in columns:
        vectors |= {v ^ col for v in vectors}
    return vectors


def lowest_row(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def test_in_image_identity_contains_every_vector():
    engine = eliminate(4, identity(4))
    for target in range(16):
        assert engine.leading_row(target) is None


def test_in_image_zero_matrix_rejects_nonzero():
    engine = eliminate(3, [0, 0])
    assert engine.leading_row(0b001) == 0
    assert engine.leading_row(0b110) == 1


def test_in_image_dimension_mismatch():
    with pytest.raises(ValueError):
        eliminate(3, identity(3)).leading_row(1 << 3)


def test_engine_rejects_out_of_range_bits():
    engine = new_engine(4)
    with pytest.raises(ValueError):
        engine.add_column(1 << 4)
    with pytest.raises(ValueError):
        engine.leading_row(1 << 5)


def test_in_image_random_agrees_with_dense_oracle():
    # The leading row is the largest lowest row over the coset target + span,
    # found by listing the coset; None exactly when the target is in the span.
    rng = random.Random(512)
    for _ in range(80):
        rows = rng.randint(1, 8)
        cols = random_columns(rng, rows, rng.randint(1, 8))
        target = sum(1 << r for r in range(rows) if rng.random() < 0.4)
        coset = {target ^ v for v in span(cols)}
        row = eliminate(rows, cols).leading_row(target)
        assert (row is None) == dense_in_image(rows, cols, target) == (0 in coset)
        if row is not None:
            assert row == max(lowest_row(v) for v in coset)


def test_rank_nullity_for_all_small_shapes():
    rng = random.Random(3)
    for rows in range(1, 6):
        for ncols in range(1, 6):
            cols = random_columns(rng, rows, ncols)
            assert eliminate(rows, cols).rank == dense_rank(rows, cols)
