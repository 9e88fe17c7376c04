"""Poic-spaces: essentially finite diagrams of poics with finite hom-sets.

Morphisms are stored extensionally as face-embedding matrices; hom-sets
are closed under composition and contain identities.  The axioms (all
morphisms are face-embeddings; every face of every object is realized
uniquely up to isomorphism) are verified exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cone import cell_key, check_morphism, faces
from .complexes import PoicComplex
from .intlinalg import IntMatrix, unimodular_inverse


class SpaceError(ValueError):
    pass


@dataclass(frozen=True)
class PoicSpace:
    objects: dict   # id -> Poic
    homs: dict      # (x, y) -> tuple of IntMatrix

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
    if space.dim(x) != space.dim(y):
        return False
    try:
        inv = unimodular_inverse(mat)
    except ValueError:
        return False
    return inv in space.hom(y, x)


def space_isos(space: PoicSpace, x, y):
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
    # face-embedding check and composition closure
    for (x, y), mats in sorted(cleaned.items()):
        for m in mats:
            mor = check_morphism(m, objects[x], objects[y])
            if not mor.face_embedding:
                raise SpaceError(
                    f"a morphism {x} -> {y} is not a face-embedding")
    for (x, y) in sorted(cleaned):
        for (y2, z) in sorted(cleaned):
            if y2 != y:
                continue
            for f in cleaned[(x, y)]:
                for g in cleaned[(y2, z)]:
                    if g @ f not in space.hom(x, z):
                        raise SpaceError(
                            f"hom-sets are not closed under composition "
                            f"({x} -> {y} -> {z})")
    # axiom 2: each face of each object realized, uniquely up to iso
    for y in space.ids():
        sigma = objects[y]
        realizations = {}
        for x in space.ids():
            for m in space.hom(x, y):
                img = cell_key(m.apply(g) for g in objects[x].closure_rays)
                realizations.setdefault(img, []).append((x, m))
        for f in faces(sigma):
            key = frozenset(f.gens_key)
            if key not in realizations:
                raise SpaceError(
                    f"face {sorted(key)} of {y} is not realized")
            reals = realizations[key]
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
