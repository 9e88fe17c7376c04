"""Poic-spaces: essentially finite diagrams of poics with finite hom-sets.

Morphisms are stored extensionally as face-embedding matrices; hom-sets
are closed under composition and contain identities.  The axioms (all
morphisms are face-embeddings; every face of every object is realized
uniquely up to isomorphism) are verified exhaustively.
"""

from __future__ import annotations

from .cone import check_morphism, faces
from .complexes import PoicComplex
from .intlinalg import IntMatrix
from .value import Value, set_field


class SpaceError(ValueError):
    pass


class PoicSpace(Value):
    """A poic-space: ``objects`` maps an id to its Poic, and ``homs`` a
    pair (x, y) to the tuple of its IntMatrix morphisms."""

    __slots__ = _fields = ("objects", "homs")

    def __init__(self, objects: dict, homs: dict):
        set_field(self, "objects", objects)
        set_field(self, "homs", homs)

    def ids(self):
        return sorted(self.objects)

    def dim(self, x):
        return self.objects[x].rank

    def hom(self, x, y):
        return self.homs.get((x, y), ())

    def classes(self, k):
        reps = iso_class_reps(self)
        return sorted({reps[x] for x in self.ids() if self.dim(x) == k})


def is_space_iso(space: PoicSpace, x, y, mat: IntMatrix):
    """True iff mat is an isomorphism x -> y of the space."""
    n = space.dim(x)
    if space.dim(y) != n or (mat.rows, mat.cols) != (n, n):
        return False
    # a square integer matrix with an integer left inverse is unimodular
    ident = IntMatrix.identity(n)
    return any(g @ mat == ident for g in space.hom(y, x))


def space_isos(space: PoicSpace, x, y):
    if x == y:
        # each m in hom(x, x) is a face-embedding onto a face of full
        # dimension, so onto x; the powers of m stay in the finite,
        # composition-closed hom(x, x), so m^-1 = m^(k-1) is there too
        return list(space.hom(x, x))
    return [m for m in space.hom(x, y) if is_space_iso(space, x, y, m)]


def iso_class_reps(space: PoicSpace):
    """Representative (smallest id) of each isomorphism class."""
    reps = {x: x for x in space.ids()}

    def find(x):
        while reps[x] != x:
            reps[x] = reps[reps[x]]
            x = reps[x]
        return x

    for x in space.ids():
        for y in space.ids():
            if x < y and space_isos(space, x, y):
                rx, ry = find(x), find(y)
                if rx != ry:
                    a, b = sorted((rx, ry))
                    reps[b] = a
    return {x: find(x) for x in space.ids()}


def space_new(objects, homs) -> PoicSpace:
    """Validated poic-space from objects and extensional hom-sets."""
    objects = dict(objects)
    cleaned = {}
    for (x, y), mats in homs.items():
        uniq = []
        for m in mats:
            if m not in uniq:
                uniq.append(m)
        if uniq:
            cleaned[(x, y)] = tuple(uniq)
    space = PoicSpace(objects=objects, homs=cleaned)
    for x in space.ids():
        if IntMatrix.identity(space.dim(x)) not in space.hom(x, x):
            raise SpaceError(f"identity missing in hom({x},{x})")
    # face-embedding check, keeping the face of y each morphism realizes
    realizations = {}
    for (x, y), mats in sorted(cleaned.items()):
        for m in mats:
            mor = check_morphism(m, objects[x], objects[y])
            if not mor.face_embedding:
                raise SpaceError(
                    f"a morphism {x} -> {y} is not a face-embedding")
            realizations.setdefault((y, mor.face.gens_key), []).append(
                (x, m))
    # composition closure, on the composable pairs (x -> y, y -> z)
    targets = {}
    for (y, z) in sorted(cleaned):
        targets.setdefault(y, []).append(z)
    members = {key: set(mats) for key, mats in cleaned.items()}
    for (x, y) in sorted(cleaned):
        for z in targets.get(y, ()):
            for f in cleaned[(x, y)]:
                for g in cleaned[(y, z)]:
                    if g @ f not in members.get((x, z), ()):
                        raise SpaceError(
                            f"hom-sets are not closed under composition "
                            f"({x} -> {y} -> {z})")
    # axiom 2: each face of each object realized, uniquely up to iso
    for y in space.ids():
        for f in faces(objects[y]):
            reals = realizations.get((y, f.gens_key))
            if reals is None:
                raise SpaceError(
                    f"face {sorted(f.gens_key)} of {y} is not realized")
            (x0, m0) = reals[0]
            for (x1, m1) in reals[1:]:
                if not any(
                        m1 @ u == m0
                        for u in space_isos(space, x0, x1)):
                    raise SpaceError(
                        f"face of {y} realized non-uniquely "
                        f"({x0} vs {x1})")
    return space


def space_from_complex(phi: PoicComplex) -> PoicSpace:
    """A poset complex viewed as a poic-space."""
    homs = {}
    for p in phi.ids():
        homs[(p, p)] = (IntMatrix.identity(phi.dim(p)),)
    for (p, q) in phi.order:
        homs[(p, q)] = (phi.facemap(p, q),)
    return space_new(dict(phi.cones), homs)
