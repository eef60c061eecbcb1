"""Verified construction of string C-groups of 2-power order.

The package builds finitely presented groups whose generators are
involutions, enumerates them onto concrete coset tables, certifies the
string and intersection properties, and realizes the face lattices of the
abstract regular polytopes they encode. Everything is deterministic and
every expensive computation is re-checked by an independent pass.
"""
