"""Graphs of semilinear maps read from one Howell form of their rows
[source | image], as prismalab read them before each graph became a
linalg_residue.factor system.  Kept verbatim as the references that
factor's solve and kernel are compared against.

ref_is_fl_module is the FL axiom check as it was before it read every
axiom but generation from one graph per filtration level: a span per
level for the chain, then a graph for well-definedness and another for
axiom 2.
"""

from prismalab.errors import Inconsistent
from prismalab.linalg_residue import (
    howell_form, in_span, reduce_vector, span_length,
)
from prismalab.witt_base import _multiples


def _graph_apply(H, d, targets, p, n, msg):
    """Values at the flat vectors targets of the map with Howell graph rows
    H = [source | image], the source being the first d entries: [target | 0]
    is reduced against the rows with a nonzero source, the value is minus
    the image block left, and a nonzero source left raises Inconsistent."""
    q = p ** n
    rows = [r for r in H if any(r[:d])]
    out = []
    for v in targets:
        rem = reduce_vector(rows, v + [0] * d, p, n)
        if any(rem[:d]):
            raise Inconsistent(msg)
        out.append([-x % q for x in rem[d:]])
    return out


def _graph_consistent(H, d, rel, p, n):
    """The map is well defined: each graph row with a zero source block,
    the image of a syzygy, has its image block in the span of rel."""
    return all(in_span(rel, r[d:], p, n) for r in H if not any(r[:d]))


def fl_graph(M, gens, images):
    """Howell form of the graph rows [f | phi(f)] of a semilinear map on
    the FL module M, the relations entering as rows [rel | 0]."""
    W = M.W
    x, sx = W._gen_matrices()
    zero = [0] * M.dim
    rows = [list(r) + zero for r in M.relation_rows()]
    for f, im in zip(gens, images):
        src = _multiples(M.vec(f), x, W.q)
        dst = _multiples(M.vec(im), sx, W.q)
        rows.extend(a + b for a, b in zip(src, dst))
    return howell_form(rows, M.p, W.n)


def fil_graph(B):
    """Howell form of the graph rows [x | phi_h(x)] of phi_h on the Fil of
    the Breuil module B, built from B.fil_gens and B.phi_gens."""
    S, p, rows = B.S, B.p, []
    for g, img in zip(B.fil_gens, B.phi_gens):
        dst = S.s_multiples([c.vec for c in img], p, frob=True)
        rows.extend(a + b for a, b in zip(B.s_multiples(g), dst))
    return howell_form(rows, p, 1)


def fil_basis(B):
    """Howell basis of Fil: the S-multiples of the Fil generators of B."""
    return howell_form([r for g in B.fil_gens for r in B.s_multiples(g)],
                       B.p, 1)


def assert_factor_is_graph(F, H, d, p, n):
    """F, a factor system of a map's graph, against the Howell form H of
    its rows [source | image], sources d wide: the kernel of F is the image
    blocks of the rows of H with a zero source, and F.solve maps the source
    of every other row to its image modulo that kernel."""
    q = p ** n
    K = [r[d:] for r in H if not any(r[:d])]
    assert F.kernel() == K
    for r in H:
        if any(r[:d]):
            diff = [(a - b) % q for a, b in zip(F.solve(r[:d]), r[d:])]
            assert in_span(K, diff, p, n)


def _semilinear_apply(M, gens, images, targets):
    """sigma-semilinear values at each of targets; raises Inconsistent
    when a target is not in the W-span of gens.

    The map sends sum a_k f_k to sum sigma(a_k) phi(f_k).
    """
    F, m = M._graph(gens, images), M.m
    vals = [F.solve(M.vec(v)) for v in targets]
    return [[M.W.elem(val[t * m:(t + 1) * m]) for t in range(M.g)]
            for val in vals]


def _semilinear_consistent(M, gens, images):
    """Every syzygy of the gens maps into the relations: the kernel of
    the graph lies in their span."""
    rel = M.relation_rows()
    return all(in_span(rel, k, M.p, M.W.n)
               for k in M._graph(gens, images).kernel())


def _is_zero_in_module(M, v):
    return in_span(M.relation_rows(), M.vec(v), M.p, M.W.n)


def ref_is_fl_module(M):
    """The three category axioms; returns (ok, failing axiom).  Verbatim
    but for the projector witnesses, which FLModule no longer takes, and
    the three deleted FLModule methods, now the functions above."""
    # axiom 1: decreasing chain
    for i in range(1, M.h + 1):
        Hi = M.w_span(M.fil_gens(i - 1))
        for v in M.fil_gens(i):
            if not in_span(Hi, M.vec(v), M.p, M.W.n):
                return False, "axiom1-chain"
    # well-definedness of each phi_i
    for i in range(M.h + 1):
        if not _semilinear_consistent(M, M.fil_gens(i), M.phi_images(i)):
            return False, "phi-not-well-defined"
    # axiom 2: phi_i restricted to Fil^{i+1} equals p phi_{i+1}
    for i in range(M.h):
        if not M.fil_gens(i + 1):
            continue
        vals = _semilinear_apply(M, M.fil_gens(i), M.phi_images(i),
                                 M.fil_gens(i + 1))
        for via_i, im in zip(vals, M.phi_images(i + 1)):
            diff = [a - b.scale(M.p) for a, b in zip(via_i, im)]
            if not _is_zero_in_module(M, diff):
                return False, "axiom2"
    # axiom 3: the phi images generate the module (their lifts plus the
    # relation rows must span the whole lattice)
    gens = []
    for i in range(M.h + 1):
        gens.extend(M.phi_images(i))
    H = M.w_span(gens)
    if span_length(H, M.p, M.W.n) != M.dim * M.W.n:
        return False, "axiom3"
    return True, None
