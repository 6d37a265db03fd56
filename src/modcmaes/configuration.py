"""Integer encoding of modular ES structures.

Eleven independently switchable strategy modules are encoded as an
11-gene integer vector. Nine modules are binary switches, two offer a
third option, giving 2^9 * 3^2 = 4608 distinct structures. The textual
form is the bare 11-digit string, e.g. ``"00000000000"`` for the plain
CMA-ES and ``"11111111122"`` with everything switched on. A sub-space is
named by its set of free genes (0-based indices); every other gene is 0,
its module switched off, and ``None`` leaves all eleven free.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterator

import numpy as np

__all__ = [
    "ModuleDescriptor",
    "ModuleCatalog",
    "CATALOG",
    "ConfigurationVector",
    "ConfigError",
    "ConfigFormatError",
    "ConfigRangeError",
    "decode",
    "encode",
    "enumerate_all",
    "mutate",
]


class ConfigError(ValueError):
    """Base error for malformed configuration strings or vectors."""


class ConfigFormatError(ConfigError):
    """Configuration string has the wrong length or shape."""


class ConfigRangeError(ConfigError):
    """A gene value falls outside its module's option range."""

    def __init__(self, position: int, value: int, option_count: int):
        self.position = position  # 1-based, matching the printed string
        self.value = value
        self.option_count = option_count
        super().__init__(
            f"gene at position {position} has value {value}, "
            f"valid options are 0..{option_count - 1}"
        )


@dataclass(frozen=True)
class ModuleDescriptor:
    name: str
    option_labels: tuple[str, ...]

    @property
    def option_count(self) -> int:
        return len(self.option_labels)


@dataclass(frozen=True)
class ModuleCatalog:
    """Ordered list of the eleven switchable modules."""

    entries: tuple[ModuleDescriptor, ...]

    @cached_property
    def option_counts(self) -> tuple[int, ...]:
        return tuple(e.option_count for e in self.entries)

    @property
    def size(self) -> int:
        return math.prod(self.option_counts)


CATALOG = ModuleCatalog(
    entries=(
        ModuleDescriptor("active_update", ("off", "on")),
        ModuleDescriptor("elitism", ("comma", "plus")),
        ModuleDescriptor("mirrored_sampling", ("off", "on")),
        ModuleDescriptor("orthogonal_sampling", ("off", "on")),
        ModuleDescriptor("sequential_selection", ("off", "on")),
        ModuleDescriptor("threshold_convergence", ("off", "on")),
        ModuleDescriptor("tpa", ("off", "on")),
        ModuleDescriptor("pairwise_selection", ("off", "on")),
        ModuleDescriptor("recombination_weights", ("log", "equal")),
        ModuleDescriptor("base_sampler", ("gaussian", "sobol", "halton")),
        ModuleDescriptor("restart_regime", ("none", "ipop", "bipop")),
    )
)


@dataclass(frozen=True)
class ConfigurationVector:
    """An 11-gene structure genome; immutable value object."""

    genes: tuple[int, ...]

    def __post_init__(self):
        if len(self.genes) != 11:
            raise ConfigFormatError(
                f"expected 11 genes, got {len(self.genes)}"
            )
        for i, (g, count) in enumerate(zip(self.genes, CATALOG.option_counts)):
            if not 0 <= g < count:
                raise ConfigRangeError(i + 1, g, count)

    def __str__(self) -> str:
        return encode(self)

    # Named views used by the ES engine; positions follow the catalog order.
    @property
    def active(self) -> bool:
        return self.genes[0] == 1

    @property
    def elitist(self) -> bool:
        return self.genes[1] == 1

    @property
    def mirrored(self) -> bool:
        return self.genes[2] == 1

    @property
    def orthogonal(self) -> bool:
        return self.genes[3] == 1

    @property
    def sequential(self) -> bool:
        return self.genes[4] == 1

    @property
    def threshold(self) -> bool:
        return self.genes[5] == 1

    @property
    def tpa(self) -> bool:
        return self.genes[6] == 1

    @property
    def pairwise(self) -> bool:
        return self.genes[7] == 1

    @property
    def weights_option(self) -> str:
        return CATALOG.entries[8].option_labels[self.genes[8]]

    @property
    def base_sampler(self) -> str:
        return CATALOG.entries[9].option_labels[self.genes[9]]

    @property
    def restart_regime(self) -> str:
        return CATALOG.entries[10].option_labels[self.genes[10]]


def decode(text: str) -> ConfigurationVector:
    """Parse an 11-digit string into a :class:`ConfigurationVector`.

    Raises :class:`ConfigFormatError` on wrong length and
    :class:`ConfigRangeError` (with a 1-based position) on an invalid
    digit.
    """
    if len(text) != 11:
        raise ConfigFormatError(
            f"configuration string must have 11 digits, got {len(text)}"
        )
    genes = []
    for i, ch in enumerate(text):
        count = CATALOG.option_counts[i]
        if not ch.isdigit():
            raise ConfigRangeError(i + 1, -1, count)
        genes.append(int(ch))
    return ConfigurationVector(tuple(genes))


def encode(cfg: ConfigurationVector) -> str:
    """Render a vector as its canonical 11-digit string."""
    return "".join(str(g) for g in cfg.genes)


def enumerate_all(
    free: AbstractSet[int] | None = None,
) -> Iterator[ConfigurationVector]:
    """Every valid vector once, in lexicographic order.

    ``free`` optionally names the genes (0-based) that vary; every other
    gene is 0. The free genes are still enumerated lexicographically.
    """
    if free is not None and not set(free) <= set(range(11)):
        raise IndexError(f"gene indices {sorted(free)} outside 0..10")
    choices = [
        range(count) if free is None or i in free else (0,)
        for i, count in enumerate(CATALOG.option_counts)
    ]
    return map(ConfigurationVector, itertools.product(*choices))


def mutate(
    cfg: ConfigurationVector,
    rate: float,
    rng: np.random.Generator,
    free: AbstractSet[int] | None = None,
) -> ConfigurationVector:
    """Mutate each free gene independently with probability ``rate``.

    A gene picked for mutation always changes: binary genes flip,
    ternary genes move to one of the two other values with equal
    probability. Genes outside ``free`` are never touched.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must be in [0, 1], got {rate}")
    genes = list(cfg.genes)
    for i, count in enumerate(CATALOG.option_counts):
        if (free is not None and i not in free) or rng.random() >= rate:
            continue
        if count == 2:
            genes[i] = 1 - genes[i]
        else:
            k = int(rng.integers(2))  # the k-th of the two other values
            genes[i] = k + (k >= genes[i])
    return ConfigurationVector(tuple(genes))
