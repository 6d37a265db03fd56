"""Integer encoding of modular ES structures.

Eleven independently switchable strategy modules are encoded as an
11-gene integer vector. Nine modules are binary switches, two offer a
third option, giving 2^9 * 3^2 = 4608 distinct structures. The textual
form is the bare 11-digit string, e.g. ``"00000000000"`` for the plain
CMA-ES and ``"11111111122"`` with everything switched on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

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

    def __post_init__(self):
        if len(self.entries) != 11:
            raise ValueError("catalog must have exactly 11 entries")
        counts = [e.option_count for e in self.entries]
        if counts[:9] != [2] * 9 or counts[9:] != [3, 3]:
            raise ValueError("modules 1-9 are binary, modules 10-11 ternary")

    @cached_property
    def option_counts(self) -> tuple[int, ...]:
        return tuple(e.option_count for e in self.entries)

    @property
    def size(self) -> int:
        n = 1
        for c in self.option_counts:
            n *= c
        return n


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
    frozen: Mapping[int, int] | None = None,
) -> Iterator[ConfigurationVector]:
    """Yield every valid vector once, in lexicographic order.

    ``frozen`` optionally pins genes (0-based index -> value); only the
    remaining free genes are enumerated, still lexicographically.
    """
    frozen = dict(frozen or {})
    for idx, value in frozen.items():
        if not 0 <= idx < 11:
            raise IndexError(f"gene index {idx} out of range")
        if not 0 <= value < CATALOG.option_counts[idx]:
            raise ConfigRangeError(idx + 1, value, CATALOG.option_counts[idx])

    def rec(prefix: list[int], i: int) -> Iterator[ConfigurationVector]:
        if i == 11:
            yield ConfigurationVector(tuple(prefix))
            return
        if i in frozen:
            choices: tuple[int, ...] = (frozen[i],)
        else:
            choices = tuple(range(CATALOG.option_counts[i]))
        for g in choices:
            prefix.append(g)
            yield from rec(prefix, i + 1)
            prefix.pop()

    yield from rec([], 0)


def mutate(
    cfg: ConfigurationVector,
    rate: float,
    rng: np.random.Generator,
    frozen: Mapping[int, int] | None = None,
) -> ConfigurationVector:
    """Mutate each free gene independently with probability ``rate``.

    A gene picked for mutation always changes: binary genes flip,
    ternary genes move to one of the two other values with equal
    probability. Frozen genes are never touched.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must be in [0, 1], got {rate}")
    frozen = frozen or {}
    genes = list(cfg.genes)
    for i, count in enumerate(CATALOG.option_counts):
        if i in frozen:
            continue
        if rng.random() >= rate:
            continue
        if count == 2:
            genes[i] = 1 - genes[i]
        else:
            others = [v for v in range(count) if v != genes[i]]
            genes[i] = others[rng.integers(len(others))]
    return ConfigurationVector(tuple(genes))
