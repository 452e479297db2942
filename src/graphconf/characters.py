"""Symmetric group machinery: partitions, conjugacy classes, irreducible
characters by border-strip recursion, multiplicities of irreducibles in the
homology action, padded re-indexing, and window stability verdicts.

The class values of S_k on H_q(Conf_n(G ∨ k·H)) come by one of two routes.
The trace route maps a homology basis through one chain map per class.  The
fixed-point route reads them off Euler characteristics of smaller members:
a permutation g of the copies fixes exactly the cells supported on
G ∨ m·H, m = m₁(g) the number of copies it fixes, each with sign +1, so the
Hopf trace formula gives Σ_i (−1)^i χ_{H_i}(g) = χ(Conf_n(G_m)).  When the
rational homology sits in degrees 0 (b_0 = 1, acted on trivially) and q ≥ 1
only, this is χ_{H_q}(g) = (−1)^q (χ(Conf_n(G_m)) − 1), and Gal's formula
(``graphs.conf_euler``) gives χ(Conf_n(G_m)) without building a model.

Partitions are plain tuples of weakly decreasing positive integers.  All
arithmetic is exact; characters and multiplicities are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .complexes import DEFAULT_CELL_BUDGET, build_model
from .graphs import conf_euler, realize_family
from .homology import betti_numbers, homology, permutation_action_map

TRACES = "traces"
FIXED_POINTS = "fixed_points"


class CharacterError(ValueError):
    pass


class CorruptedCharacterError(RuntimeError):
    """Two exact computations that must agree did not (routes, Euler
    characteristics, multiplicities): a bug upstream of the characters."""


def is_partition(lam):
    return all(isinstance(p, int) and p >= 1 for p in lam) and \
        all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def partitions(n):
    """All partitions of n as weakly decreasing tuples, descending lex."""
    if n < 0:
        raise CharacterError("partitions of a negative integer")
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, largest), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n if n else 0, [])
    if n == 0:
        return [()]
    return out


def class_size(mu):
    """Size of the conjugacy class of cycle type mu in Sym(|mu|)."""
    k = sum(mu)
    centralizer = 1
    mult = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        centralizer *= part ** m * factorial(m)
    return factorial(k) // centralizer


def class_representative(mu):
    """One permutation of cycle type mu: contiguous cycles in increasing
    label order, returned as a dict i -> sigma(i) on {1..k}."""
    perm = {}
    start = 1
    for part in sorted(mu, reverse=True):
        block = list(range(start, start + part))
        for i, x in enumerate(block):
            perm[x] = block[(i + 1) % part]
        start += part
    return perm


def hook_length_dimension(lam):
    """dim of the irreducible for lam via the hook length formula."""
    k = sum(lam)
    cols = [0] * (lam[0] if lam else 0)
    for row in lam:
        for j in range(row):
            cols[j] += 1
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (cols[j] - i) - 1
    return factorial(k) // prod


@lru_cache(maxsize=None)
def _mn(lam, mu):
    # border strips of size mu[0] spanning rows i..j; each valid removal is
    # reached for exactly one pair (i, j)
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    lam_list = list(lam)
    rows = len(lam_list)
    total = 0
    for i in range(rows):
        for j in range(i, rows):
            new = lam_list[:]
            for r in range(i, j):
                new[r] = lam_list[r + 1] - 1
            new[j] = lam_list[i] - t + (j - i)
            if new[j] < 0:
                continue
            if any(new[r] < new[r + 1] for r in range(rows - 1)):
                continue
            trimmed = tuple(p for p in new if p > 0)
            total += (-1) ** (j - i) * _mn(trimmed, rest)
    return total


def mn_character(lam, mu):
    """Irreducible character value chi^lam on the class of cycle type mu."""
    lam = tuple(lam)
    mu = tuple(sorted(mu, reverse=True))
    if not is_partition(lam) or not is_partition(mu):
        raise CharacterError("arguments must be partitions")
    if sum(lam) != sum(mu):
        raise CharacterError("character arguments must partition the same integer")
    return _mn(lam, mu)


def decompose(class_values, k):
    """Multiplicities c_lam of each irreducible in a character.

    ``class_values`` maps every cycle type (partition of k) to the exact
    character value on that class.  Non-integral or negative output raises
    CorruptedCharacterError.
    """
    parts = partitions(k)
    if set(class_values) != set(parts):
        raise CharacterError("need one value per conjugacy class")
    fact = factorial(k)
    out = {}
    for lam in parts:
        total = 0
        for mu in parts:
            total += class_size(mu) * class_values[mu] * mn_character(lam, mu)
        if total % fact:
            raise CorruptedCharacterError(
                f"multiplicity of {lam} is not an integer")
        c = total // fact
        if c < 0:
            raise CorruptedCharacterError(
                f"multiplicity of {lam} is negative")
        if c:
            out[lam] = c
    return out


def pad(lam, k):
    """The partition (k - |lam|, lam...) indexing the stabilized irreducible."""
    lam = tuple(lam)
    head = k - sum(lam)
    if head < (lam[0] if lam else 0):
        raise CharacterError(f"padding of {lam} is not defined at k={k}")
    return (head,) + lam if head > 0 else lam


def pad_is_valid(lam, k):
    head = k - sum(lam)
    return head >= (lam[0] if lam else 0)


def unpad(lam):
    """Strip the first (largest) part: the stable label of an irreducible."""
    return tuple(lam[1:])


# -- homology characters ------------------------------------------------------


def homology_character(complex_, presentation, instance, perm):
    """Exact trace of the action of a summand permutation on free homology."""
    vmap, emap = instance.copy_automorphism(
        {(1, m): (1, c) for m, c in perm.items()})
    chain_map = permutation_action_map(complex_, vmap, emap)
    return chain_map.homology_trace(presentation)


@dataclass(frozen=True)
class CharacterReport:
    """Character of the symmetric group action on H_q for one family size;
    ``route`` names the route its class values were read from."""

    k: int
    q: int
    n: int
    betti: int
    class_data: tuple      # ((mu, class size, value), ...)
    multiplicities: tuple  # ((unpadded lam, c), ...) for padded irreducibles
    route: str = TRACES

    def value(self, mu):
        for m, _, v in self.class_data:
            if m == mu:
                return v
        raise KeyError(mu)

    def multiplicity_map(self):
        return dict(self.multiplicities)


def _report_from_values(k, q, n, betti, values, route):
    """Check a character given by its class values and decompose it; both
    routes end here."""
    if values[(1,) * k if k else ()] != betti:
        raise CorruptedCharacterError("identity character must equal betti")
    mults = decompose(values, k)
    dim_total = sum(c * hook_length_dimension(lam) for lam, c in mults.items())
    if dim_total != betti:
        raise CorruptedCharacterError(
            "dimension bookkeeping failed: sum c * dim != betti")
    stable = tuple(sorted((unpad(lam), c) for lam, c in mults.items()))
    data = tuple((mu, class_size(mu), values[mu]) for mu in partitions(k))
    return CharacterReport(k=k, q=q, n=n, betti=betti, class_data=data,
                           multiplicities=stable, route=route)


def trace_values(complex_, presentation, instance):
    """Class values on free H_q, one chain-map trace per class."""
    return {mu: homology_character(complex_, presentation, instance,
                                   class_representative(mu))
            for mu in partitions(instance.sizes[0])}


def character_report(complex_, presentation, instance):
    """Compute the full character and its decomposition for one family size
    by the trace route."""
    values = trace_values(complex_, presentation, instance)
    return _report_from_values(instance.sizes[0], presentation.q, complex_.n,
                              presentation.betti, values, TRACES)


def fixed_points_apply(bettis, q):
    """Whether the Betti numbers ``bettis`` (every degree of the complex)
    leave H_q as the only term of the Hopf trace formula besides H_0 = Q."""
    return q >= 1 and bettis[0] == 1 and all(
        b == 0 for i, b in enumerate(bettis) if i not in (0, q))


def fixed_point_values(k, q, chis):
    """Class values on H_q from the Hopf trace formula, where ``chis[m]``
    is the Euler characteristic of Conf_n of member m.  Valid only where
    ``fixed_points_apply`` holds."""
    return {mu: (-1) ** q * (chis[mu.count(1)] - 1) for mu in partitions(k)}


def window_reports(descriptor, n, q, window, budget=DEFAULT_CELL_BUDGET):
    """Character reports of H_q over consecutive sizes of a one-coordinate
    wedge family.

    Each χ comes from ``conf_euler`` and must equal the cell count of each
    window size's model.  Until the fixed-point route has been checked,
    each size takes the trace route, and runs the rank-only Betti loop only
    if χ = 1 + (-1)^q b_q, which holds wherever the route applies; the
    first size where it applies also computes the fixed-point values, and
    the two routes must agree on every class.  Each later size runs the
    Betti loop first and, where the route applies, reads its values from χ
    of members 0..k, none of them built; elsewhere it takes the trace
    route.  For q = 0 the route never applies and no Betti loop runs.
    """
    def fixed_points(k):
        return fixed_point_values(k, q, [
            conf_euler(realize_family(descriptor, (m,)).graph, n)
            for m in range(k + 1)])

    reports = []
    checked = False
    for k in window:
        instance = realize_family(descriptor, (k,))
        cx = build_model(instance.graph, n, budget=budget)
        chi = conf_euler(instance.graph, n)
        if cx.euler_characteristic() != chi:
            raise CorruptedCharacterError(
                f"the model's Euler characteristic at k={k} is "
                f"{cx.euler_characteristic()}, Gal's formula gives {chi}")
        if checked:
            bettis = betti_numbers(cx, max(q, cx.top_dimension))
            if fixed_points_apply(bettis, q):
                reports.append(_report_from_values(
                    k, q, n, bettis[q], fixed_points(k), FIXED_POINTS))
                continue
        rep = character_report(cx, homology(cx, q), instance)
        if not checked and q >= 1 and chi == 1 + (-1) ** q * rep.betti:
            bettis = betti_numbers(cx, max(q, cx.top_dimension))
            if rep.betti != bettis[q]:
                raise CorruptedCharacterError(
                    f"b_{q} = {rep.betti} from the presentation but "
                    f"{bettis[q]} from the Betti loop at k={k}")
            if fixed_points_apply(bettis, q):
                values = fixed_points(k)
                wrong = [mu for mu, _, v in rep.class_data if values[mu] != v]
                if wrong:
                    raise CorruptedCharacterError(
                        f"fixed points and traces disagree at k={k} on the "
                        f"classes {wrong}")
                checked = True
        reports.append(rep)
    return reports


def stability_verdict(reports):
    """Whether padded multiplicities agree across a window of sizes.

    Rows whose padding is undefined at some window size are flagged and
    excluded from the verdict.
    """
    if len(reports) < 2:
        raise CharacterError("stability needs a window of at least two sizes")
    ks = [r.k for r in reports]
    if any(b - a != 1 for a, b in zip(ks, ks[1:])):
        raise CharacterError("window sizes must be consecutive")
    labels = set()
    for r in reports:
        labels.update(lam for lam, _ in r.multiplicities)
    table = {}
    excluded = []
    for lam in sorted(labels):
        if not all(pad_is_valid(lam, k) for k in ks):
            excluded.append(lam)
            continue
        table[lam] = tuple(r.multiplicity_map().get(lam, 0) for r in reports)
    stable = all(len(set(row)) == 1 for row in table.values())
    return {
        "stable": stable,
        "window": tuple(ks),
        "table": table,
        "excluded": tuple(excluded),
    }
