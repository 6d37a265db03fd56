import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcmaes.configuration import (
    CATALOG,
    ConfigFormatError,
    ConfigRangeError,
    ConfigurationVector,
    decode,
    encode,
    enumerate_all,
    mutate,
)


def test_catalog_shape():
    assert len(CATALOG.entries) == 11
    assert CATALOG.option_counts == (2,) * 9 + (3, 3)
    assert CATALOG.size == 4608


def test_decode_default_config():
    cfg = decode("00000000000")
    assert cfg.genes == (0,) * 11


def test_decode_named_modules():
    cfg = decode("01100000100")
    active_positions = [i + 1 for i, g in enumerate(cfg.genes) if g]
    assert active_positions == [2, 3, 9]


def test_decode_range_error_position():
    with pytest.raises(ConfigRangeError) as exc:
        decode("00000000003")
    assert exc.value.position == 11
    assert "position 11" in str(exc.value)


def test_decode_rejects_bad_length():
    with pytest.raises(ConfigFormatError):
        decode("0000000000")
    with pytest.raises(ConfigFormatError):
        decode("000000000000")


def test_decode_rejects_non_digit():
    with pytest.raises(ConfigRangeError) as exc:
        decode("0000000000X")
    assert exc.value.position == 11


def test_decode_rejects_binary_gene_out_of_range():
    with pytest.raises(ConfigRangeError) as exc:
        decode("20000000000")
    assert exc.value.position == 1


def test_encode_identity_and_extremes():
    assert encode(ConfigurationVector((0,) * 11)) == "00000000000"
    assert encode(ConfigurationVector((1,) * 9 + (2, 2))) == "11111111122"
    genes = [0] * 11
    genes[9], genes[10] = 1, 2
    assert encode(ConfigurationVector(tuple(genes))) == "00000000012"


@pytest.mark.parametrize(
    "text",
    [
        "00000000000",
        "10000000000",
        "01000000000",
        "00100001000",
        "00000000001",
        "10000000001",
        "11000000001",
        "00000000002",
        "10000000002",
        "11000000002",
    ],
)
def test_round_trip_common_variants(text):
    assert encode(decode(text)) == text


def test_enumerate_all_count_and_bounds():
    seen = [encode(cfg) for cfg in enumerate_all()]
    assert len(seen) == 4608
    assert len(set(seen)) == 4608
    assert seen[0] == "00000000000"
    assert seen[-1] == "11111111122"
    assert seen == sorted(seen)


def test_enumerate_round_trip_everything():
    for cfg in enumerate_all():
        assert decode(encode(cfg)) == cfg


def test_enumerate_frozen_subspace():
    subset = list(enumerate_all(free={0, 1, 2}))
    assert len(subset) == 8
    for cfg in subset:
        assert cfg.genes[3:] == (0,) * 8


def test_mutate_rate_zero_is_identity():
    rng = np.random.default_rng(0)
    cfg = decode("01100000100")
    assert mutate(cfg, 0.0, rng) == cfg


def test_mutate_rate_one_flips_binary():
    rng = np.random.default_rng(0)
    cfg = decode("00000000000")
    out = mutate(cfg, 1.0, rng)
    assert out.genes[:9] == (1,) * 9


def test_mutate_rate_one_changes_every_gene():
    rng = np.random.default_rng(1)
    for text in ("00000000000", "11111111122", "01010101011"):
        cfg = decode(text)
        for _ in range(50):
            out = mutate(cfg, 1.0, rng)
            assert all(a != b for a, b in zip(out.genes, cfg.genes))


def test_mutate_ternary_even_split():
    rng = np.random.default_rng(2)
    genes = [0] * 11
    genes[10] = 1
    cfg = ConfigurationVector(tuple(genes))
    counts = {0: 0, 2: 0}
    trials = 10_000
    for _ in range(trials):
        out = mutate(cfg, 1.0, rng)
        counts[out.genes[10]] += 1
    assert counts[0] + counts[2] == trials
    assert abs(counts[0] / trials - 0.5) <= 0.02
    assert abs(counts[2] / trials - 0.5) <= 0.02


def test_mutate_never_leaves_range():
    rng = np.random.default_rng(3)
    cfg = decode("00000000000")
    for _ in range(2000):
        rate = rng.random()
        cfg = mutate(cfg, rate, rng)
        for g, count in zip(cfg.genes, CATALOG.option_counts):
            assert 0 <= g < count


def test_mutate_respects_frozen_genes():
    rng = np.random.default_rng(4)
    cfg = decode("00000000000")
    for _ in range(200):
        cfg = mutate(cfg, 1.0, rng, free={0, 1, 2})
        assert cfg.genes[3:] == (0,) * 8


def test_vector_validation():
    with pytest.raises(ConfigFormatError):
        ConfigurationVector((0,) * 10)
    with pytest.raises(ConfigRangeError):
        ConfigurationVector((0,) * 10 + (3,))


def test_named_views():
    cfg = decode("11111111122")
    assert cfg.active and cfg.elitist and cfg.mirrored and cfg.orthogonal
    assert cfg.sequential and cfg.threshold and cfg.tpa and cfg.pairwise
    assert cfg.weights_option == "equal"
    assert cfg.base_sampler == "halton"
    assert cfg.restart_regime == "bipop"
    default = decode("00000000000")
    assert default.weights_option == "log"
    assert default.base_sampler == "gaussian"
    assert default.restart_regime == "none"


@functools.cache
def _full_enumeration():
    return tuple(enumerate_all())


@settings(max_examples=50)
@given(free=st.sets(st.integers(0, 10)))
def test_enumerate_free_subset_is_filtered_full_enumeration(free):
    expected = [
        cfg for cfg in _full_enumeration()
        if all(g == 0 for i, g in enumerate(cfg.genes) if i not in free)
    ]
    assert list(enumerate_all(free)) == expected


def test_enumerate_rejects_gene_index_out_of_range():
    for free in ({11}, {-1}):
        with pytest.raises(IndexError):
            list(enumerate_all(free))
