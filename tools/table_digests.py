"""Print a digest line for every table that the default grid builds.

    PYTHONPATH=src python3 tools/table_digests.py > digests.txt

For each of the 251 G tuples of ``polycert sweep``'s default grid, and for
the K groups and tight groups below, it builds a ``RealizedGroup`` under
both strategies and prints the sha256 of its table in coset-major order
(``perms.T``, one coset's images after another), every
``EnumerationStats`` field and ``stats["enumerations"]``. Every tenth group
is also enumerated plainly over the trivial subgroup. Run it on two
checkouts and compare the outputs with ``cmp``: a change to the engine that
should move no table must leave the two files byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib

from polycert import families
from polycert.cli import _all_exponents
from polycert.coset import STRATEGIES, enumerate_cosets
from polycert.realize import RealizedGroup

K_GROUPS = ((3, (2, 2)), (3, (2, 3)), (4, (2, 2, 2)), (4, (2, 3, 2)), (4, (3, 2, 2)),
            (5, (2, 2, 2, 2)), (5, (2, 3, 2, 2)), (5, (3, 3, 2, 2)))
TIGHT_GROUPS = ((4, 4), (4, 8), (8, 8), (8, 8, 8))


def groups():
    for d in range(3, 6):
        for n in range(10, 13):
            for ks in _all_exponents(d, n, 2):
                yield f"G d={d} n={n} k={ks}", families.family_g(d, n, ks)
    for d, ks in K_GROUPS:
        yield f"K d={d} k={ks}", families.family_k(d, ks)
    for ks in TIGHT_GROUPS:
        yield f"tight k={ks}", families.tight_quotient_presentation(ks)


def line(name, table, enumerations="-") -> str:
    digest = hashlib.sha256(table.perms.T.tobytes()).hexdigest()
    return f"{name}\t{digest}\t{dataclasses.astuple(table.stats)}\t{enumerations}"


def main() -> None:
    for i, (name, p) in enumerate(groups()):
        for strategy in STRATEGIES:
            rg = RealizedGroup(p, strategy=strategy)
            print(line(f"{name} {strategy}", rg.table, rg.stats["enumerations"]))
            if i % 10 == 0:
                print(line(f"{name} {strategy} plain", enumerate_cosets(p, (), None, strategy)))


if __name__ == "__main__":
    main()
