"""Symmetric group machinery: partitions, conjugacy classes, irreducible
characters by border-strip recursion, multiplicities of irreducibles in the
homology action, padded re-indexing, and window stability verdicts.

Partitions are plain tuples of weakly decreasing positive integers.  All
arithmetic is exact; characters and multiplicities are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .homology import permutation_action_map


class CharacterError(ValueError):
    pass


class CorruptedCharacterError(RuntimeError):
    """A decomposition produced a non-integer or negative multiplicity,
    which signals a bug upstream of the character pipeline."""


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
    vmap, emap = instance.summand_automorphism(1, perm)
    chain_map = permutation_action_map(complex_, vmap, emap)
    return chain_map.homology_trace(presentation)


@dataclass(frozen=True)
class CharacterReport:
    """Character of the symmetric group action on H_q for one family size."""

    k: int
    q: int
    n: int
    betti: int
    class_data: tuple      # ((mu, class size, value), ...)
    multiplicities: tuple  # ((unpadded lam, c), ...) for padded irreducibles

    def value(self, mu):
        for m, _, v in self.class_data:
            if m == mu:
                return v
        raise KeyError(mu)

    def multiplicity_map(self):
        return dict(self.multiplicities)


def character_report(complex_, presentation, instance):
    """Compute the full character and its decomposition for one family size."""
    k = instance.sizes[0]
    values = {}
    data = []
    for mu in partitions(k):
        perm = class_representative(mu)
        value = homology_character(complex_, presentation, instance, perm)
        values[mu] = value
        data.append((mu, class_size(mu), value))
    if values[(1,) * k if k else ()] != presentation.betti:
        raise CorruptedCharacterError("identity character must equal betti")
    mults = decompose(values, k)
    dim_total = sum(c * hook_length_dimension(lam) for lam, c in mults.items())
    if dim_total != presentation.betti:
        raise CorruptedCharacterError(
            "dimension bookkeeping failed: sum c * dim != betti")
    stable = tuple(sorted((unpad(lam), c) for lam, c in mults.items()))
    return CharacterReport(
        k=k, q=presentation.q, n=complex_.n, betti=presentation.betti,
        class_data=tuple(data), multiplicities=stable)


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
