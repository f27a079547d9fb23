"""Direct sums of phi-modules, Breuil modules and FL modules.

The tests build modules from smaller ones with direct_sum(A, B); no check
of prismalab needs one, so the builder lives here and not in src.
"""

from prismalab.breuil_fl import BreuilModule, FLModule
from prismalab.errors import InputError
from prismalab.phi_modules import PhiModule
from prismalab.series_rings import SeriesElem


def direct_sum_rows(A, B, ga, gb, zero):
    """The rows of A padded on the right by gb entries zero, then the rows
    of B padded on the left by ga: generators of a direct sum of modules
    on ga and gb coordinates, or the block-diagonal matrix diag(A, B)."""
    return ([list(r) + [zero] * gb for r in A]
            + [[zero] * ga + list(r) for r in B])


def _phi_sum(A, B):
    if A.ring != B.ring:
        raise InputError("summands over different rings")
    W = A.ring
    z = SeriesElem.from_ints(W, [])
    rels = direct_sum_rows(A.relations, B.relations, A.g, B.g, z)
    phi = direct_sum_rows(A.phi, B.phi, A.g, B.g, z)
    kb = None
    if A.killed_by is not None and B.killed_by is not None:
        a = max(A.killed_by[0], B.killed_by[0])
        b1, b2 = A.killed_by[1], B.killed_by[1]
        kb = (a, None if b1 is None or b2 is None else max(b1, b2))
    tb = None
    if A.torsion_bound is not None and B.torsion_bound is not None:
        tb = max(A.torsion_bound, B.torsion_bound)
    return PhiModule(W, A.g + B.g, rels, phi, killed_by=kb, torsion_bound=tb,
                     N=max(A.N, B.N), validate=False)


def _breuil_sum(A, B):
    key = lambda M: (M.S.p, M.S.e, M.S.D, M.S.m, M.S.n_int,
                     tuple(M.S.eis.int_coeffs), M.h)
    if key(A) != key(B):
        raise InputError("summands must share the ring and level")
    z = A.S.zero()
    fil = direct_sum_rows(A.fil_gens, B.fil_gens, A.r, B.r, z)
    img = direct_sum_rows(A.phi_gens, B.phi_gens, A.r, B.r, z)
    nab = None
    if A.nabla is not None and B.nabla is not None:
        nab = direct_sum_rows(A.nabla, B.nabla, A.r, B.r, z)
    return BreuilModule(A.S, A.r + B.r, A.h, fil, img, nabla=nab)


def _fl_sum(A, B):
    key = lambda M: (M.W.p, M.W.n, M.W.m, M.W.f, M.h)
    if key(A) != key(B):
        raise InputError("summands must share W and the level")
    pad = lambda X, Y: direct_sum_rows(X, Y, A.g, B.g, A.W.zero())
    fil = {i: pad(A.fil_gens(i), B.fil_gens(i)) for i in range(1, A.h + 1)}
    phi = {i: pad(A.phi_images(i), B.phi_images(i)) for i in range(A.h + 1)}
    return FLModule(A.W, A.divisors + B.divisors, A.h, fil, phi)


_SUMS = {PhiModule: _phi_sum, BreuilModule: _breuil_sum, FLModule: _fl_sum}


def direct_sum(A, B):
    """A + B, for two modules of one of the three kinds."""
    return _SUMS[type(A)](A, B)
