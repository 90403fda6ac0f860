"""Shared group constructions and bare windows used across the test
suite."""

from graphforge.analysis import BallView
from graphforge.groups import (
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
)
from graphforge.gsets import GSetElem
from graphforge.subgroups import (
    Monomorphism,
    build_amalgam,
    build_hnn,
    cyclic,
    generated,
    whole,
)
from graphforge.words import Word


def int_line():
    return FreeAbelianGroup("Z", ["a"])


def free2():
    return FreeGroup("F", ["a", "b"])


def sym3():
    # x = (1 2), y = (1 2 3) acting on {0,1,2}
    return FiniteGroup.from_permutations("S3", {"x": (1, 0, 2), "y": (1, 2, 0)})


def modular_amalgam():
    """Z/4 amalgamated with Z/6 over the common Z/2 (a^2 = b^3)."""
    z4 = FiniteGroup.cyclic(4, "a", "Z4")
    z6 = FiniteGroup.cyclic(6, "b", "Z6")
    z2 = FiniteGroup.cyclic(2, "c", "Z2")
    d1 = Monomorphism(whole(z2), generated(z4, ["a a"]), ["a a"])
    d2 = Monomorphism(whole(z2), generated(z6, ["b b b"]), ["b b b"])
    return build_amalgam("Z4*Z6", z4, z6, d1, d2)


def shift_hnn():
    """<F(a,b), t | t a t^-1 = b>."""
    f = free2()
    c = cyclic(f, "a")
    l = cyclic(f, "b")
    iso = Monomorphism(c, l, ["b"])
    return build_hnn("F*t", f, c, iso, "t")


def lattice_amalgam():
    """Z^2 amalgamated with Z^2 over a maximal cyclic subgroup of each."""
    a = FreeAbelianGroup("A", ["a1", "a2"])
    b = FreeAbelianGroup("B", ["b1", "b2"])
    zc = FreeAbelianGroup("C", ["c"])
    d1 = Monomorphism(whole(zc), cyclic(a, "a1"), ["a1"])
    d2 = Monomorphism(whole(zc), cyclic(b, "b1"), ["b1"])
    return build_amalgam("ZZ*ZZ", a, b, d1, d2)


def cone_factor(prefix):
    """Z^2 * Z with generators <p>1, <p>2, <p>3 (the third is the free part)."""
    flat = FreeAbelianGroup(f"{prefix}12", [f"{prefix}1", f"{prefix}2"])
    line = FreeGroup(f"{prefix}3f", [f"{prefix}3"])
    return FreeProductGroup(f"{prefix.upper()}", [flat, line])


def coned_amalgam():
    """(Z^2 * Z) amalgamated with (Z^2 * Z) over <a1> = <b1>."""
    a = cone_factor("a")
    b = cone_factor("b")
    zc = FreeAbelianGroup("C", ["c"])
    d1 = Monomorphism(whole(zc), cyclic(a, "a1"), ["a1"])
    d2 = Monomorphism(whole(zc), cyclic(b, "b1"), ["b1"])
    return build_amalgam("A*B", a, b, d1, d2)


def dihedral_product():
    """Z/2 * Z/2, the infinite dihedral group."""
    h1 = FiniteGroup.cyclic(2, "p", "H1")
    h2 = FiniteGroup.cyclic(2, "q", "H2")
    return FreeProductGroup("D", [h1, h2])


def table_subgroup(group, elements):
    """The handle of a table group's subgroup generated by the given
    elements (ints of the table)."""
    return generated(group, [group.word_of(e) for e in sorted(elements)])


def all_subgroups(group):
    """Every subgroup of a finite group, as frozensets of elements (small
    groups only)."""
    found = {frozenset([0])}
    frontier = [frozenset([0])]
    while frontier:
        h = frontier.pop()
        for x in range(1, group.n):
            if x not in h:
                h2 = group.subgroup_closure(h | {x})
                if h2 not in found:
                    found.add(h2)
                    frontier.append(h2)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def view_from_edges(n, edges, base=(0,)):
    """A bare finite window given by vertex count and index pairs."""
    view = BallView(radius=n, word_budget=n)
    for i in range(n):
        view.add_vertex(GSetElem(f"v{i}", Word()), depth=0, complete=True)
    for i, j in edges:
        view.add_edge("e", i, j)
    view.base = list(base)
    return view
