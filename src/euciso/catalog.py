"""Built-in groups with known structure, used for regression and demos.

Entries cover the plain translation lattice (p1), a symmorphic and a
nonsymmorphic wallpaper group (pm, pg), two rod groups with a nontrivial
O(2) block (screw-C4, helix-C3), and two E(8) groups whose sections
misbehave: twistE8 (commuting lifts, twisted alternatives, m0 = 2, D4
point group) and twistE8-m4 (noncommuting lifts, m0 = 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import isometry as iso
from .groups import GroupSpec, tf_slice
from .isometry import Isometry, block_diag, rotation2

_I2 = np.eye(2)
_S = np.array([[1.0, 0.0], [0.0, -1.0]])        # reflection, x-axis
_R3 = rotation2(math.pi / 2)                    # quarter turn


@dataclass
class CatalogEntry:
    name: str
    build: object
    expected: dict = field(default_factory=dict)
    summary: str = ""
    _spec: GroupSpec | None = None

    def spec(self) -> GroupSpec:
        if self._spec is None:
            self._spec = self.build()
        return self._spec


def _p1() -> GroupSpec:
    q0 = np.zeros((0, 0))
    e1 = Isometry(q0, iso.identity_int_matrix(2), (1, 0))
    e2 = Isometry(q0, iso.identity_int_matrix(2), (0, 1))
    return GroupSpec("p1", 0, 2, [q0], [e1, e2], [iso.identity_isometry(0, 2)])


def _pm() -> GroupSpec:
    q0 = np.zeros((0, 0))
    e1 = Isometry(q0, iso.identity_int_matrix(2), (1, 0))
    e2 = Isometry(q0, iso.identity_int_matrix(2), (0, 1))
    mirror = Isometry(q0, ((1, 0), (0, -1)), (0, 0))
    return GroupSpec("pm", 0, 2, [q0], [e1, e2],
                     [iso.identity_isometry(0, 2), mirror])


def _pg() -> GroupSpec:
    q0 = np.zeros((0, 0))
    e1 = Isometry(q0, iso.identity_int_matrix(2), (1, 0))
    e2 = Isometry(q0, iso.identity_int_matrix(2), (0, 1))
    glide = Isometry(q0, ((1, 0), (0, -1)), (Fraction(1, 2), 0))
    return GroupSpec("pg", 0, 2, [q0], [e1, e2],
                     [iso.identity_isometry(0, 2), glide])


def _screw_c4() -> GroupSpec:
    # quarter-turn screw axis; kernel contains the half turn
    lift = Isometry(rotation2(math.pi / 2), ((1,),), (1,))
    return GroupSpec("screw-C4", 2, 1, [_I2, rotation2(math.pi)], [lift],
                     [iso.identity_isometry(2, 1)])


def _helix_c3(alpha: float = 1.0) -> GroupSpec:
    lift = Isometry(rotation2(alpha), ((1,),), (1,))
    f = [_I2, rotation2(2 * math.pi / 3), rotation2(4 * math.pi / 3)]
    flip = Isometry(_S, ((-1,),), (0,))
    return GroupSpec("helix-C3", 2, 1, f, [lift],
                     [iso.identity_isometry(2, 1), flip])


def _twist_e8(alpha: float = 1.0) -> GroupSpec:
    """E(8) group with commuting section lifts but no normal section.

    The kernel is cyclic of order 4 generated by phi = I4 + quarter-turn;
    conjugation by either lift inverts phi, so the section itself is a
    subgroup that fails normality (m0 = 2).  A full D4 point group acts,
    with block-swapping O(6) parts on the lifts.
    """
    R = rotation2(alpha)
    phi = block_diag(_I2, _I2, _R3)
    f = [np.linalg.matrix_power(phi, k) for k in range(4)]
    g1 = Isometry(block_diag(R, _I2, _S), iso.identity_int_matrix(2), (1, 0))
    g2 = Isometry(block_diag(_I2, R, -_S), iso.identity_int_matrix(2), (0, 1))

    swap = np.zeros((4, 4))
    swap[0:2, 2:4] = _S
    swap[2:4, 0:2] = _I2
    q_r = block_diag(swap, rotation2(math.pi / 4))
    q_s = block_diag(_I2, _S, _I2)
    r4 = ((0, -1), (1, 0))
    s = ((1, 0), (0, -1))
    p_r = Isometry(q_r, r4, (0, 0))
    p_s = Isometry(q_s, s, (0, 0))

    p_reps = []
    for a in range(4):
        for b in range(2):
            elt = iso.identity_isometry(6, 2)
            for _ in range(a):
                elt = iso.compose(elt, p_r)
            if b:
                elt = iso.compose(elt, p_s)
            p_reps.append(elt)
    return GroupSpec("twistE8", 6, 2, f, [g1, g2], p_reps)


def _twist_e8_m4(alpha1: float = 1.0, alpha2: float = math.sqrt(2.0)) -> GroupSpec:
    """E(8) group whose section lifts do not commute; m0 equals the bound 4."""
    f0 = block_diag(_I2, _I2, rotation2(math.pi))
    g1 = Isometry(block_diag(rotation2(alpha1), _I2, _S),
                  iso.identity_int_matrix(2), (1, 0))
    g2 = Isometry(block_diag(_I2, rotation2(alpha2), _R3),
                  iso.identity_int_matrix(2), (0, 1))
    return GroupSpec("twistE8-m4", 6, 2, [np.eye(6), f0], [g1, g2],
                     [iso.identity_isometry(6, 2)])


CATALOG: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    CATALOG[entry.name] = entry


_register(CatalogEntry(
    "p1", _p1,
    expected={"m0": 1, "f_order": 1, "rot_order": 1, "is_space_group": True,
              "orders": {1: 1, 2: 4, 3: 9, 4: 16}},
    summary="plane translation lattice"))

_register(CatalogEntry(
    "pm", _pm,
    expected={"m0": 1, "f_order": 1, "rot_order": 2, "is_space_group": True,
              "orders": {1: 2, 2: 8, 3: 18}},
    summary="wallpaper group with a plain mirror (symmorphic)"))

_register(CatalogEntry(
    "pg", _pg,
    expected={"m0": 1, "f_order": 1, "rot_order": 2, "is_space_group": True,
              "orders": {1: 2, 2: 8, 3: 18},
              "dual": {3: {"labels": 6, "irreducible": 3,
                           "census_dims": [1, 1, 1, 1, 1, 1, 2, 2, 2]}}},
    summary="wallpaper group with a glide mirror (nonsymmorphic)"))

_register(CatalogEntry(
    "screw-C4", _screw_c4,
    expected={"m0": 1, "f_order": 2, "rot_order": 1, "is_space_group": False,
              "orders": {1: 2, 2: 4, 3: 6}},
    summary="quarter-turn screw rod group, abelian"))

_register(CatalogEntry(
    "helix-C3", _helix_c3,
    expected={"m0": 1, "f_order": 3, "rot_order": 2, "is_space_group": False,
              "orders": {1: 6, 2: 12, 3: 18},
              "rep_set_size": 2},
    summary="irrational helix with threefold kernel and axis flip"))

_register(CatalogEntry(
    "helix-C3-tf", lambda: tf_slice(_helix_c3()),
    expected={"m0": 1, "f_order": 3, "rot_order": 1, "is_space_group": False,
              "orders": {1: 3, 2: 6}},
    summary="helix-C3 without the flip; product of section and kernel"))

_register(CatalogEntry(
    "twistE8", _twist_e8,
    expected={"m0": 2, "f_order": 4, "rot_order": 8, "is_space_group": False,
              "orders": {2: 128, 4: 512, 6: 1152}},
    summary="twisted sections over a square lattice, D4 point group, m0 = 2"))

_register(CatalogEntry(
    "twistE8-m4", _twist_e8_m4,
    expected={"m0": 4, "f_order": 2, "rot_order": 1, "is_space_group": False,
              "orders": {4: 32, 8: 128, 12: 288}},
    summary="noncommuting section lifts; least normal power is 4"))


def names() -> list[str]:
    return list(CATALOG)


def get(name: str) -> GroupSpec:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog group {name!r}; have {', '.join(CATALOG)}")
    return CATALOG[name].spec()
