import json
import math

import numpy as np
import pytest
from hypothesis import settings

from euciso import catalog, io
from euciso import isometry as iso
from euciso.groups import GroupSpec, build_quotient
from euciso.reps import STRUCT_TOL

# derandomized examples keep tier-1 deterministic; no deadline, as host speed varies
settings.register_profile("euciso", derandomize=True, deadline=None)
settings.load_profile("euciso")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def spec(name):
    return catalog.get(name)


def quotient(name, N):
    return build_quotient(catalog.get(name), N)


def cyclic(k):
    """The rotations of the plane by multiples of 2 pi / k."""
    return [iso.rotation2(2 * math.pi * j / k) for j in range(k)]


def rod_spec(k, flip, alpha):
    """Screw rod by angle alpha over a C_k kernel; the flip reverses the axis."""
    p_reps = [iso.identity_isometry(2, 1)]
    if flip:
        p_reps.append(iso.Isometry(np.diag([1.0, -1.0]), ((-1,),), (0,)))
    return GroupSpec(f"rod-C{k}", 2, 1, cyclic(k),
                     [iso.Isometry(iso.rotation2(alpha), ((1,),), (1,))], p_reps)


def translation_isometry(d1, v):
    v = iso.frac_vector(v)
    return iso.Isometry(np.eye(d1), iso.identity_int_matrix(len(v)), v)


def compose_all(factors):
    factors = list(factors)
    acc = factors[0]
    for f in factors[1:]:
        acc = iso.compose(acc, f)
    return acc


def q_equal(a, b, tol=iso.DEFAULT_TOL):
    return a.size == 0 or float(np.abs(a - b).max()) <= tol


def reconstruct(s, nf):
    """The isometry t(n)*f*p encoded by a normal form."""
    return compose_all([s.section(nf.n), s.f_iso(nf.f), s.p_reps[nf.p]])


def trivial_on(r, ids):
    """True iff the representation r is the identity at every id."""
    mats = r.mats[r.rows(list(ids))]
    return bool((np.abs(mats - np.eye(r.dim)) < STRUCT_TOL).all())


def reference_json(obj) -> str:
    """What `io.canonical_json` must return: json's own canonical dump."""
    return json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": "),
                      default=io._coerce) + "\n"
