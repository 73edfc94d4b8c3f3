"""Helpers shared by the benchmark's scripts."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_mmpwalk():
    """Import the package from the checkout's ``src`` directory."""
    if not os.path.isdir(os.path.join(SRC, "mmpwalk")):
        print(f"error: no mmpwalk package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mmpwalk

    return mmpwalk


def acceptance_spec(instance_seed):
    """The acceptance corpus's spec for one instance seed.

    Kept as a copy of ``tests/test_acceptance.py``'s table so the benchmark
    does not import the tests.  ``instance_seed % 5`` fixes r as 1, 1, 2, 2, 3.
    """
    from mmpwalk import InstanceSpec

    r = (1, 1, 2, 2, 3)[instance_seed % 5]
    return InstanceSpec(
        r=r,
        generator_count={1: 6, 2: 6, 3: 5}[r],
        valuation_count={1: 4, 2: 3, 3: 2}[r],
        coordinate_bound=4,
        seed=instance_seed,
    )
