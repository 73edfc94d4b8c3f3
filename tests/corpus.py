"""The acceptance corpus: the instance spec of each seed, shared by the
test files that build corpus data."""

from mmpwalk import InstanceSpec


def corpus_spec(seed):
    """The spec of corpus document ``seed``: r cycles through 1, 1, 2, 2, 3
    with the seed, with 6, 6 and 5 generators and 4, 3 and 2 valuations for
    r = 1, 2 and 3, and coordinates at most 4."""
    r = (1, 1, 2, 2, 3)[seed % 5]
    return InstanceSpec(
        r=r,
        generator_count={1: 6, 2: 6, 3: 5}[r],
        valuation_count={1: 4, 2: 3, 3: 2}[r],
        coordinate_bound=4,
        seed=seed,
    )
