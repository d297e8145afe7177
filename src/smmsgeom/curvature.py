"""Curvature and weighted-curvature algebra over a generic scalar ring.

Every function here manipulates nested lists of "scalars": anything
closed under +, -, *, / and multiplication by floats (ScalarField,
Series, Graded, or plain floats).  Differentiation is injected as a
list `derivs` of per-coordinate derivation callables, so the same code
serves the base chart (jet-backed fields), deformation series, and the
graded cone scalars.  `Geometry` assembles them for one metric (and
density) on any of these rings, and is the one place where the
weighted curvature of (g, f) is put together.

Every ring absorbs an exact zero (its product with anything is that
zero) and `acc_sum` drops exact zeros, so a formula tests for zero only
where the test saves building an operand: the contractions skip the
structurally zero entries of g^{ij}, and `_det` skips a zero entry
before it expands the minor.

Conventions (fixed so the unit round sphere has positive sectional
curvature and R_{abkl} = -2(g_{a[l} P_{k]b} + g_{b[k} P_{l]a}) holds on
conformally flat spaces with X_[ab] = (X_ab - X_ba)/2):

    Gamma^k_ij = g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)/2
    R^i_jkl    = d_k Gamma^i_lj - d_l Gamma^i_kj
                 + Gamma^i_kp Gamma^p_lj - Gamma^i_lp Gamma^p_kj
    R_ijkl     = g_im R^m_jkl
    Ric_jl     = R^k_jkl            (contraction on slots 1 and 3)
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from operator import add, getitem

__all__ = [
    "Geometry", "partials", "matrix_inverse", "christoffel", "ricci",
    "riemann_lowered", "trace", "gradient", "hessian", "grad_norm_sq",
    "bakry_emery_ricci", "f_curvature", "weighted_scalar", "schouten_tensor",
    "kulkarni_nomizu", "weighted_weyl", "weighted_cotton", "cov_deriv",
    "weighted_divergence", "weighted_bach", "bianchi_residual",
    "phi_gradient", "phi_hessian", "weighted_ricci_coordinate_formula",
]


def partials(dim):
    """The derivations d/dx^i, i < dim, of a ring whose elements have
    `.partial(i)`: fields, series of fields, graded scalars."""
    return [lambda a, i=i: a.partial(i) for i in range(dim)]


def _is_zero(x) -> bool:
    # ring elements (fields, series, Graded) say so themselves; numbers
    # are tested
    is_zero = getattr(x, "is_zero", None)
    if is_zero is not None:
        return bool(is_zero)
    if isinstance(x, (int, float)):
        return x == 0.0
    return False


def acc_sum(terms, zero):
    """Sum skipping structural zeros; `zero` is returned for an empty sum.
    The other terms are added by `fold_sum`, so a sum of fields is one
    node, not a chain of partial sums."""
    terms = [t for t in terms if not _is_zero(t)]
    return fold_sum(terms) if terms else zero


def fold_sum(terms):
    """terms[0] + terms[1] + ..., as the left fold of `+` builds it, for a
    nonempty list.  Where every term has the same n-ary `sum_of` (fields,
    a zero constant of their subclass too, series, graded scalars), that
    builds the fold at once; it gives what the fold gives.  Any other
    list is folded."""
    nary = getattr(terms[0], "sum_of", None)
    if (nary is not None and len(terms) > 1
            and all(getattr(t, "sum_of", None) is nary for t in terms)):
        return nary(terms)
    return reduce(add, terms)


def _det(m, rows, cols, memo, zero):
    if len(rows) == 1:
        return m[rows[0]][cols[0]]
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    r = rows[0]
    terms = []
    for t, c in enumerate(cols):
        if _is_zero(m[r][c]):
            continue
        minor = _det(m, rows[1:], cols[:t] + cols[t + 1:], memo, zero)
        term = m[r][c] * minor
        terms.append(term if t % 2 == 0 else -term)
    return memo.setdefault(key, acc_sum(terms, zero))


def matrix_inverse(g, zero):
    """Cofactor inverse of a square matrix of ring elements; also returns det."""
    n = len(g)
    memo = {}
    all_idx = tuple(range(n))
    det = _det(g, all_idx, all_idx, memo, zero)
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        rows = all_idx[:i] + all_idx[i + 1:]
        for j in range(n):
            cols = all_idx[:j] + all_idx[j + 1:]
            if n == 1:
                cof = 1.0 if isinstance(zero, float) else zero + 1.0
            else:
                cof = _det(g, rows, cols, memo, zero)
            cof = cof if (i + j) % 2 == 0 else -cof
            inv[j][i] = cof / det
    return inv, det


def christoffel(g, ginv, derivs, zero):
    """Levi-Civita connection coefficients Gamma[k][i][j]."""
    n = len(g)
    dg = [[[derivs[k](g[i][j]) for k in range(n)] for j in range(n)] for i in range(n)]
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = []
                for l in range(n):
                    if _is_zero(ginv[k][l]):
                        continue
                    inner = acc_sum([dg[j][l][i], dg[i][l][j], -dg[i][j][l]], zero)
                    terms.append(ginv[k][l] * inner)
                val = acc_sum(terms, zero) * 0.5
                gamma[k][i][j] = gamma[k][j][i] = val
    return gamma


def ricci(gamma, derivs, zero):
    """Ric[j][l] from the connection coefficients alone.  Of the partials
    d_a Gamma^k_ij it builds, on first use, only the 2n^3 it reads:
    d_k Gamma^k_lj and d_l Gamma^k_kj."""
    n = len(gamma)

    @cache
    def dgam(k, i, j, a):
        """d_a Gamma^k_ij."""
        return derivs[a](gamma[k][i][j])

    ric = [[None] * n for _ in range(n)]
    for j in range(n):
        for l in range(j, n):
            terms = []
            for k in range(n):
                terms.append(dgam(k, l, j, k))
                terms.append(-dgam(k, k, j, l))
                for p in range(n):
                    terms.append(gamma[k][k][p] * gamma[p][l][j])
                    terms.append(-(gamma[k][l][p] * gamma[p][k][j]))
            ric[j][l] = ric[l][j] = acc_sum(terms, zero)
    return ric


def riemann_lowered(g, gamma, derivs, zero):
    """Fully lowered curvature R[i][j][k][l]."""
    n = len(g)
    dgam = [[[[derivs[a](gamma[m][i][j]) for a in range(n)]
              for j in range(n)] for i in range(n)] for m in range(n)]
    rm_up = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for m in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    terms = [dgam[m][l][j][k], -dgam[m][k][j][l]]
                    for p in range(n):
                        terms.append(gamma[m][k][p] * gamma[p][l][j])
                        terms.append(-(gamma[m][l][p] * gamma[p][k][j]))
                    rm_up[m][j][k][l] = acc_sum(terms, zero)
    rm = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    rm[i][j][k][l] = acc_sum(
                        [g[i][m] * rm_up[m][j][k][l] for m in range(n)], zero)
    return rm


def trace(ginv, T, zero):
    """g^{ij} T_ij (i outer, j inner): R from Ric, Lap f from Hess f, tr P."""
    n = len(ginv)
    return acc_sum([ginv[i][j] * T[i][j] for i in range(n) for j in range(n)],
                   zero)


def gradient(f, derivs):
    return [d(f) for d in derivs]


def hessian(f, gamma, derivs, zero):
    n = len(gamma)
    df = gradient(f, derivs)
    h = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            terms = [derivs[i](df[j])]
            for k in range(n):
                terms.append(-(gamma[k][i][j] * df[k]))
            h[i][j] = h[j][i] = acc_sum(terms, zero)
    return h


def grad_norm_sq(ginv, df, zero):
    n = len(ginv)
    return acc_sum([ginv[i][j] * (df[i] * df[j]) for i in range(n) for j in range(n)
                    if not _is_zero(ginv[i][j])], zero)


# -- weighted invariants ------------------------------------------------------


def bakry_emery_ricci(ric, hess_f, f, m, zero):
    """Ric - (m/f) Hess f; the correction is left out where m or the Hess f
    entry is zero, since a zero Ric entry minus 0 would fold to -0.0."""
    n = len(ric)
    if m == 0.0:
        return [row[:] for row in ric]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if _is_zero(hess_f[i][j]):
                out[i][j] = ric[i][j]
            else:
                out[i][j] = ric[i][j] - (hess_f[i][j] * float(m)) / f
    return out


def f_curvature(f, lap_f, gn2_f, m, mu, zero):
    """f Lap f + (m-1)(|grad f|^2 - mu)."""
    return acc_sum([f * lap_f, (gn2_f - mu) * (float(m) - 1.0)], zero)


def weighted_scalar(scal, f, lap_f, gn2_f, m, mu, zero):
    """R - (2m/f) Lap f - m(m-1)/f^2 (|grad f|^2 - mu)."""
    terms = [scal]
    if m != 0.0:
        terms.append(-((lap_f * (2.0 * float(m))) / f))
    if m != 0.0 and m != 1.0:
        terms.append(-(((gn2_f - mu) * (float(m) * (float(m) - 1.0))) / (f * f)))
    return acc_sum(terms, zero)


def schouten_tensor(ric_phi, scal_phi, g, ginv, d, m, zero):
    """Returns (P, J, trace of P, Y) with the d+m-shifted normalizations."""
    dm = d + float(m)
    if abs(dm - 2.0) < 1e-12 or abs(dm - 1.0) < 1e-12:
        raise ZeroDivisionError(f"Schouten normalization degenerate at d+m={dm}")
    J = scal_phi * (1.0 / (2.0 * (dm - 1.0)))
    P = [[(ric_phi[i][j] - g[i][j] * J) * (1.0 / (dm - 2.0)) for j in range(d)]
         for i in range(d)]
    trP = trace(ginv, P, zero)
    Y = J - trP
    return P, J, trP, Y


def kulkarni_nomizu(h, k, zero):
    """(h ^ k)_xyzw = h_xz k_yw + h_yw k_xz - h_xw k_yz - h_yz k_xw."""
    n = len(h)
    out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    out[x][y][z][w] = acc_sum(
                        [h[x][z] * k[y][w], h[y][w] * k[x][z],
                         -(h[x][w] * k[y][z]), -(h[y][z] * k[x][w])], zero)
    return out


def weighted_weyl(rm, P, g, zero):
    n = len(g)
    png = kulkarni_nomizu(P, g, zero)
    return [[[[rm[i][j][k][l] - png[i][j][k][l] for l in range(n)]
              for k in range(n)] for j in range(n)] for i in range(n)]


def _shaped(template, entry, idx=()):
    """The nested list shaped like `template` whose entry at each index
    tuple idx is entry(idx), built in lexicographic order."""
    if not isinstance(template, list):
        return entry(idx)
    return [_shaped(t, entry, idx + (i,)) for i, t in enumerate(template)]


def _at(T, idx):
    return reduce(getitem, idx, T)


def cov_deriv(T, gamma, derivs, zero):
    """nabla_a T_{b...} as out[a][b]..., for a covariant tensor T of any
    rank (its nesting depth): d_a T minus, for each p and then each slot,
    Gamma^p_{a slot} times T with p in that slot."""
    n = len(gamma)

    def entry(idx):
        a, rest = idx[0], idx[1:]
        terms = [derivs[a](_at(T, rest))]
        for p in range(n):
            for s, b in enumerate(rest):
                terms.append(-(gamma[p][a][b]
                               * _at(T, rest[:s] + (p,) + rest[s + 1:])))
        return acc_sum(terms, zero)

    return _shaped([T] * n, entry)


def weighted_cotton(P, gamma, derivs, zero):
    """dP[i][j][k] = nabla_i P_jk - nabla_j P_ik."""
    n = len(gamma)
    dP_cov = cov_deriv(P, gamma, derivs, zero)
    return [[[dP_cov[i][j][k] - dP_cov[j][i][k] for k in range(n)]
             for j in range(n)] for i in range(n)]


def phi_gradient(f, derivs, m):
    """d(phi) = -m df/f for phi = -m log f, without forming the log."""
    return [-(d(f) * float(m)) / f for d in derivs]


def phi_hessian(f, hess_f, df, m, zero):
    """Hess(phi) = -m (Hess f / f - df x df / f^2)."""
    n = len(df)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = acc_sum(
                [-(hess_f[i][j] * float(m)) / f,
                 ((df[i] * df[j]) * float(m)) / (f * f)], zero)
    return out


def weighted_divergence(T, ginv, dphi, gamma, derivs, zero):
    """(delta_phi T)_{j...} = g^{ab}(nabla_a T_{bj...} - phi_a T_{bj...}),
    for a covariant tensor T of rank 2 or more."""
    n = len(ginv)
    covT = cov_deriv(T, gamma, derivs, zero)

    def entry(rest):
        terms = []
        for a in range(n):
            for b in range(n):
                if _is_zero(ginv[a][b]):
                    continue
                terms.append(ginv[a][b] * _at(covT, (a, b) + rest))
                terms.append(-(ginv[a][b] * (dphi[a] * _at(T, (b,) + rest))))
        return acc_sum(terms, zero)

    return _shaped(T[0], entry)


def weighted_bach(A, P, g, ginv, dP, dphi, Y, gamma, derivs, m, zero):
    """delta_phi dP - (1/m) tr dP x dphi + <A, P - (Y/m) g>; at m = 0,
    where f = 1 makes dphi and Y vanish, the classical delta dP + <A, P>."""
    n = len(g)
    div_dP = weighted_divergence(dP, ginv, dphi, gamma, derivs, zero)
    if m == 0.0:
        S = P
    else:
        # (tr dP)_x = g^{ik} dP_{ixk}
        tr_dP = [acc_sum([ginv[i][k] * dP[i][x][k]
                          for i in range(n) for k in range(n)], zero)
                 for x in range(n)]
        S = [[P[i][j] - (g[i][j] * Y) * (1.0 / float(m)) for j in range(n)]
             for i in range(n)]
    Sup = [[acc_sum([ginv[i][a] * (ginv[j][b] * S[a][b])
                     for a in range(n) for b in range(n)
                     if not (_is_zero(ginv[i][a]) or _is_zero(ginv[j][b]))],
                    zero)
            for j in range(n)] for i in range(n)]
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        for l in range(n):
            terms = [div_dP[j][l]]
            if m != 0.0:
                terms.append(-((tr_dP[j] * dphi[l]) * (1.0 / float(m))))
            for a in range(n):
                for c in range(n):
                    terms.append(A[a][j][c][l] * Sup[a][c])
            out[j][l] = acc_sum(terms, zero)
    return out


def bianchi_residual(ric_phi, scal_phi, F_phi, f, ginv, dphi, gamma, derivs, zero):
    """delta_phi Ric_phi - d(R_phi)/2 - F_phi dphi / f^2, a 1-form."""
    n = len(ginv)
    div_ric = weighted_divergence(ric_phi, ginv, dphi, gamma, derivs, zero)
    return [acc_sum([div_ric[j], -(derivs[j](scal_phi) * 0.5),
                     -((F_phi * dphi[j]) / (f * f))], zero)
            for j in range(n)]


def weighted_ricci_coordinate_formula(g, ginv, f, m, mu, derivs, zero,
                                      entries=None, upto=None):
    """The second-derivative coordinate expression for the weighted Ricci
    tensor and its companion scalar, used as an independent route:

        Ric_IJ = (1/2) g^{KL}(d2_{IL} g_{JK} + d2_{JK} g_{IL}
                              - d2_{KL} g_{IJ} - d2_{IJ} g_{KL})
                 + g^{KL} g^{PQ}(G_{ILP} G_{JKQ} - G_{IJP} G_{KLQ})
                 - (m/f)(d2_{IJ} f - Gamma^K_{IJ} d_K f)

    with G the first-kind connection symbols, plus

        F = f Lap f + (m-1)(|grad f|^2 - mu).

    The quadratic term is contracted one index at a time,

        U_I[K][P] = g^{KL} G_{ILP},   W_J[K][P] = g^{PQ} G_{JKQ},
        V^P = g^{PQ} g^{KL} G_{KLQ},
        g^{KL} g^{PQ}(...) = U_I[K][P] W_J[K][P] - G_{IJP} V^P,

    so in dimension n the full build costs O(n^4) ring products, not the
    O(n^6) of summing all four indices for every entry.

    With `entries` (index pairs (I, J)), only those entries and their
    mirrors are built (U only for their rows I), the rest of `ric` is
    None and F is None; each built entry is the same expression as in
    the full build.

    With `upto` (a series order), the connection symbols G, d f and the
    inverse metric are cut after their X^upto coefficient
    (`.truncated(upto)`) once the second derivatives are taken, so the
    products stop there and what they keep of each entry is the same
    expression as in the full build.
    """
    n = len(g)
    if entries is None:
        wanted = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        wanted = sorted({(min(i, j), max(i, j)) for i, j in entries})
    dg = [[[derivs[k](g[i][j]) for k in range(n)] for j in range(n)]
          for i in range(n)]

    @cache
    def d2g(i, j, k, l):
        return derivs[l](dg[i][j][k])

    gamma1 = [[[acc_sum([dg[j][p][i], dg[i][p][j], -dg[i][j][p]], zero) * 0.5
                for p in range(n)] for j in range(n)] for i in range(n)]
    df = gradient(f, derivs)
    d2f = [[derivs[j](df[i]) for j in range(n)] for i in range(n)]
    if upto is not None:
        # only now: a cut d f would cut d2f one order earlier
        gamma1 = [[[x.truncated(upto) for x in row] for row in block]
                  for block in gamma1]
        ginv = [[x.truncated(upto) for x in row] for row in ginv]
        df = [x.truncated(upto) for x in df]

    def contract(a, b):
        """sum_k a[k] b[k]."""
        return acc_sum([x * y for x, y in zip(a, b)], zero)

    @cache
    def hess(i, j):
        terms = [d2f[i][j]]
        for kk in range(n):
            for ll in range(n):
                if _is_zero(ginv[kk][ll]):
                    continue
                terms.append(-(ginv[kk][ll] * (gamma1[i][j][ll] * df[kk])))
        return acc_sum(terms, zero)

    @cache
    def U(i):
        return [[contract(ginv[kk], [gamma1[i][ll][p] for ll in range(n)])
                 for p in range(n)] for kk in range(n)]

    @cache
    def W(j):
        return [[contract(ginv[p], gamma1[j][kk]) for p in range(n)]
                for kk in range(n)]

    pairs = [(kk, ll) for kk in range(n) for ll in range(n)
             if not _is_zero(ginv[kk][ll])]
    trace1 = [acc_sum([ginv[kk][ll] * gamma1[kk][ll][q] for kk, ll in pairs], zero)
              for q in range(n)]
    V = [contract(ginv[p], trace1) for p in range(n)]
    ric = [[None] * n for _ in range(n)]
    for i, j in wanted:
        terms = []
        for kk, ll in pairs:
            inner = acc_sum([d2g(j, kk, i, ll), d2g(i, ll, j, kk),
                             -d2g(i, j, kk, ll), -d2g(kk, ll, i, j)], zero)
            terms.append((ginv[kk][ll] * inner) * 0.5)
        terms += [a * b for Uk, Wk in zip(U(i), W(j)) for a, b in zip(Uk, Wk)]
        terms += [-(a * b) for a, b in zip(gamma1[i][j], V)]
        if m != 0.0:
            terms.append(-((hess(i, j) * float(m)) / f))
        ric[i][j] = ric[j][i] = acc_sum(terms, zero)
    if entries is not None:
        return ric, None

    lap = acc_sum([ginv[i][j] * hess(i, j) for i in range(n) for j in range(n)
                   if not _is_zero(ginv[i][j])], zero)
    gn2 = grad_norm_sq(ginv, df, zero)
    F = f_curvature(f, lap, gn2, m, mu, zero)
    return ric, F


def _part(function, *args):
    """A Geometry attribute: the module function named `function` applied
    to the attributes named `args`, built on first read and then kept.
    The function is looked up at that read, so a wrapper put on the
    module is seen."""
    return cached_property(
        lambda self: globals()[function](*(getattr(self, a) for a in args)))


class Geometry:
    """The curvature of the metric matrix `g` and the weighted curvature of
    (g, f, m, mu), over the ring that `derivs` differentiates, with `zero`
    its zero; the weighted attributes need the density `f`.

    Every attribute is built on first read by the function of this module
    named next to it below, and then kept, so a quantity nobody reads is
    never built.  `inverse` is (ginv, det), `schouten` is (P, J, tr P, Y)
    with P and Y also read alone, `dphi` is d phi = -m df/f (zeros when
    m = 0), `hess_phi` is Hess phi and `bach` at m = 0 is the classical
    Bach tensor.
    """

    def __init__(self, g, derivs, zero, f=None, m=0.0, mu=0.0):
        self.g, self.derivs, self.zero = g, derivs, zero
        self.f, self.m, self.mu = f, m, mu
        self.dim = len(g)

    inverse = _part("matrix_inverse", "g", "zero")
    ginv = property(lambda self: self.inverse[0])
    gamma = _part("christoffel", "g", "ginv", "derivs", "zero")
    ric = _part("ricci", "gamma", "derivs", "zero")
    scal = _part("trace", "ginv", "ric", "zero")
    rm = _part("riemann_lowered", "g", "gamma", "derivs", "zero")
    df = _part("gradient", "f", "derivs")
    hess_f = _part("hessian", "f", "gamma", "derivs", "zero")
    hess_phi = _part("phi_hessian", "f", "hess_f", "df", "m", "zero")
    lap_f = _part("trace", "ginv", "hess_f", "zero")
    gn2_f = _part("grad_norm_sq", "ginv", "df", "zero")
    ric_phi = _part("bakry_emery_ricci", "ric", "hess_f", "f", "m", "zero")
    scal_phi = _part("weighted_scalar", "scal", "f", "lap_f", "gn2_f", "m",
                     "mu", "zero")
    F_phi = _part("f_curvature", "f", "lap_f", "gn2_f", "m", "mu", "zero")
    schouten = _part("schouten_tensor", "ric_phi", "scal_phi", "g", "ginv",
                     "dim", "m", "zero")
    P = property(lambda self: self.schouten[0])
    Y = property(lambda self: self.schouten[3])
    weyl = _part("weighted_weyl", "rm", "P", "g", "zero")
    cotton = _part("weighted_cotton", "P", "gamma", "derivs", "zero")
    bach = _part("weighted_bach", "weyl", "P", "g", "ginv", "cotton", "dphi",
                 "Y", "gamma", "derivs", "m", "zero")
    bianchi = _part("bianchi_residual", "ric_phi", "scal_phi", "F_phi", "f",
                    "ginv", "dphi", "gamma", "derivs", "zero")

    @cached_property
    def dphi(self):
        if self.m == 0.0:
            return [self.zero] * self.dim
        return phi_gradient(self.f, self.derivs, self.m)
