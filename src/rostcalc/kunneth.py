"""Products of motives and the theorem verifiers.

The pieces: the mixed-class decomposition C_0 + C_1 + C_2 of a two-factor
product, the identification ideal J_s, tilde quotients (kill everything
supported on a proper subset of factors), the comparison map into a product
with split second factor, the image-membership criterion (**) in the ambient
periodic split module, and one verifier per published claim id.

Verifiers construct both sides of each isomorphism through independent code
paths and compare exact invariants; a verdict of "verified" never comes from
re-evaluating a definition against itself.
"""

from __future__ import annotations

import copy
import itertools
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial, reduce

from .catalog import (
    GR_M_PFISTER_NOTE,
    CatalogObject,
    _c,
    _power,
    bar_rost_ring,
    build_excellent_quadric_chow,
    build_pfister_neighbor_chow,
    build_product_rost,
    chow_rost_ring,
    flags,
    gr_m_rost_ring,
    km_rost,
)
from .exact_linalg import is_prime, membership, solve_sparse
from .graded import (
    DegreeComponent,
    GradedFPModule,
    GradedMap,
    cyclic_summands,
    direct_sum,
    gr_ps,
    iso_equal,
    kill_generator,
    normalize,
    quotient,
    tensor_product,
    zero_module,
)
from .km import check_cor_3_5_second, free_km, gr_geometric, v_torsion_generators
from .omega import (
    DegreeRule,
    OmegaImageModel,
    PresentedRing,
    _canon_coeff,
    ideal_power_witness,
    ring_quotient,
    ring_tensor,
    tensor_name,
    torsion_ideal,
)
from .report import NOT_CERTIFIABLE, REFUTED, VERIFIED, TheoremReport


class KunnethError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the mixed-class decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CDecomposition:
    """The product classes of two factors, split by torsion type.

    c0: free classes c_0*c_0; c1: torsion c_m*c_m; c2: the mixed classes
    c_m*c_0 and c_0*c_m.  Degrees add; the three parts together are exactly
    the tensor product of the positive parts of the two factor rings.
    """

    p: int
    n1: int
    n2: int
    m: int
    c0: GradedFPModule
    c1: GradedFPModule
    c2: GradedFPModule

    def total(self) -> GradedFPModule:
        return direct_sum(direct_sum(self.c0, self.c1), self.c2)


def positive_part(M: GradedFPModule) -> GradedFPModule:
    components = {d: c for d, c in M.components.items() if d > 0}
    if not components:
        return zero_module(M.p)
    window = (min(components), max(M.window[1], max(components)))
    return GradedFPModule(p=M.p, components=components, window=window)


def c_decomposition(p: int, n1: int, n2: int, m: int) -> CDecomposition:
    if not is_prime(p):
        raise KunnethError(f"p={p} must be prime")
    if min(n1, n2) < 2:
        raise KunnethError("both factors need n >= 2")
    if not (1 <= m <= min(n1, n2) - 1):
        raise KunnethError(
            f"m={m} out of range: both factors must carry the class c_m "
            f"(need 1 <= m <= {min(n1, n2) - 1})"
        )
    r1, r2 = DegreeRule(p, n1), DegreeRule(p, n2)
    c0_parts, c1_parts, c2_parts = [], [], []
    for i in range(1, p):
        for j in range(1, p):
            a = _c(0, i, "y_1")
            b = _c(0, j, "y_2")
            am = _c(m, i, "y_1")
            bm = _c(m, j, "y_2")
            c0_parts.append((r1.c_degree(0, i) + r2.c_degree(0, j), 0, f"{a}*{b}"))
            c1_parts.append((r1.c_degree(m, i) + r2.c_degree(m, j), 1, f"{am}*{bm}"))
            c2_parts.append((r1.c_degree(m, i) + r2.c_degree(0, j), 1, f"{am}*{b}"))
            c2_parts.append((r1.c_degree(0, i) + r2.c_degree(m, j), 1, f"{a}*{bm}"))
    dec = CDecomposition(
        p=p,
        n1=n1,
        n2=n2,
        m=m,
        c0=cyclic_summands(p, c0_parts),
        c1=cyclic_summands(p, c1_parts),
        c2=cyclic_summands(p, c2_parts),
    )
    pos1 = positive_part(gr_m_rost_ring(p, n1, m, var="y_1").module())
    pos2 = positive_part(gr_m_rost_ring(p, n2, m, var="y_2").module())
    check = iso_equal(dec.total(), tensor_product(pos1, pos2))
    if not check:
        raise KunnethError(
            "decomposition does not match the product of positive parts: "
            + "; ".join(check.diffs)
        )
    return dec


# ---------------------------------------------------------------------------
# the identification ideal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JGenerator:
    r: int  # factor carrying c_m in the first word (1-based)
    t: int  # factor carrying c_0 in the first word
    i: int
    j: int
    m: int

    @property
    def positive_name(self) -> str:
        return f"{_c(self.m, self.i, f'y_{self.r}')}*{_c(0, self.j, f'y_{self.t}')}"

    @property
    def negative_name(self) -> str:
        return f"{_c(0, self.i, f'y_{self.r}')}*{_c(self.m, self.j, f'y_{self.t}')}"

    @property
    def name(self) -> str:
        return f"{self.positive_name} - {self.negative_name}"


@dataclass(frozen=True)
class KunnethIdeal:
    p: int
    m: int
    s: int
    generators: tuple[JGenerator, ...]

    @property
    def count(self) -> int:
        return len(self.generators)


def j_ideal(p: int, m: int, s: int) -> KunnethIdeal:
    """Differences identifying where the torsion label sits among the factors."""
    if s < 2:
        raise KunnethError("the ideal needs at least two factors")
    if not is_prime(p):
        raise KunnethError(f"p={p} must be prime")
    if m < 1:
        raise KunnethError("m must be >= 1")
    gens = tuple(
        JGenerator(r=r, t=t, i=i, j=j, m=m)
        for r in range(1, s + 1)
        for t in range(r + 1, s + 1)
        for i in range(1, p)
        for j in range(1, p)
    )
    ideal = KunnethIdeal(p=p, m=m, s=s, generators=gens)
    if ideal.count != (p - 1) ** 2 * s * (s - 1) // 2:
        raise KunnethError("internal generator count mismatch")
    return ideal


def _difference_relation(M: GradedFPModule, pos: str, neg: str) -> tuple[int, list[int]]:
    d1, i1 = M.generator_index(pos)
    d2, i2 = M.generator_index(neg)
    if d1 != d2:
        raise KunnethError(f"difference {pos} - {neg} is not homogeneous")
    vec = [0] * M.gens_at(d1)
    vec[i1] += 1
    vec[i2] -= 1
    return d1, vec


def j_quotient(M: GradedFPModule, ideal: KunnethIdeal) -> GradedFPModule:
    """Quotient a named module by the ideal generators present in its basis."""
    rels = []
    for g in ideal.generators:
        rels.append(_difference_relation(M, g.positive_name, g.negative_name))
    return quotient(M, rels)


# ---------------------------------------------------------------------------
# the ambient periodic split module and the criterion (**)
# ---------------------------------------------------------------------------

Mono = tuple[int, ...]
BarElement = dict[Mono, tuple[int, ...]]  # monomial -> coefficients of v^0, v^1, ...


@dataclass(frozen=True)
class BarKmModel:
    """Free Z_(p)[v]-module on y-monomials of the split product, y_t^p = 0.

    Image membership is decided degreewise: for homogeneous data the only
    admissible multiplier of a generator is a single power of v fixed by the
    degrees, so the span question becomes finite exact linear algebra over
    Z_(p) on (monomial, v-power) coordinates.
    """

    p: int
    m: int
    ydegs: tuple[int, ...]

    @property
    def nfactors(self) -> int:
        return len(self.ydegs)

    @property
    def vdeg(self) -> int:
        return self.p**self.m - 1

    def monomial(self, coeff: int, exps, vpow: int = 0) -> BarElement:
        exps = tuple(exps)
        if len(exps) != self.nfactors:
            raise KunnethError("exponent vector length mismatch")
        if any(e >= self.p for e in exps):
            return {}
        if coeff == 0:
            return {}
        return {exps: tuple([0] * vpow + [coeff])}

    def add(self, a: BarElement, b: BarElement) -> BarElement:
        out = dict(a)
        for mono, poly in b.items():
            cur = list(out.get(mono, ()))
            cur += [0] * (len(poly) - len(cur))
            for k, c in enumerate(poly):
                cur[k] += c
            while cur and cur[-1] == 0:
                cur.pop()
            if cur:
                out[mono] = tuple(cur)
            else:
                out.pop(mono, None)
        return out

    def scale(self, c: int, a: BarElement) -> BarElement:
        if c == 0:
            return {}
        return {m_: tuple(c * x for x in poly) for m_, poly in a.items()}

    def sub(self, a: BarElement, b: BarElement) -> BarElement:
        return self.add(a, self.scale(-1, b))

    def mul(self, a: BarElement, b: BarElement) -> BarElement:
        out: BarElement = {}
        for ma, pa in a.items():
            for mb, pb in b.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                if any(e >= self.p for e in mono):
                    continue
                conv = [0] * (len(pa) + len(pb) - 1)
                for i, ca in enumerate(pa):
                    for j, cb in enumerate(pb):
                        conv[i + j] += ca * cb
                out = self.add(out, {mono: tuple(conv)})
        return out

    def vmul(self, a: BarElement, k: int) -> BarElement:
        return {m_: tuple([0] * k + list(poly)) for m_, poly in a.items()}

    def degree(self, a: BarElement) -> int | None:
        degs = set()
        for mono, poly in a.items():
            base = sum(e * yd for e, yd in zip(mono, self.ydegs))
            for k, c in enumerate(poly):
                if c:
                    degs.add(base - k * self.vdeg)
        if not degs:
            return None
        if len(degs) > 1:
            raise KunnethError(f"malformed element: mixed degrees {sorted(degs)}")
        return degs.pop()

    def span_contains(self, gens, target: BarElement) -> bool:
        """Is target in the Z_(p)[v]-span of the (homogeneous) generators?"""
        tdeg = self.degree(target)
        if tdeg is None:
            return True
        cols = []
        for g in gens:
            gdeg = self.degree(g)
            if gdeg is not None and gdeg >= tdeg and (gdeg - tdeg) % self.vdeg == 0:
                cols.append(_coords(self.vmul(g, (gdeg - tdeg) // self.vdeg)))
        return solve_sparse(self.p, cols, _coords(target)) is not None


def _coords(el: BarElement) -> dict[tuple[Mono, int], int]:
    """The element on (monomial, v-power) coordinates."""
    return {(mono, k): c for mono, poly in el.items() for k, c in enumerate(poly) if c}


def mono_name(exps) -> str:
    parts = [_power(f"y_{t + 1}", e) for t, e in enumerate(exps) if e > 0]
    return "*".join(parts) if parts else "1"


def j_res_vanishes(ideal: KunnethIdeal, model: BarKmModel) -> bool:
    """Every ideal generator restricts to zero: vp - pv on the same monomial."""
    for g in ideal.generators:
        first = model.mul(
            model.monomial(1, [g.i if t == g.r - 1 else 0 for t in range(model.nfactors)], 1),
            model.monomial(model.p, [g.j if t == g.t - 1 else 0 for t in range(model.nfactors)], 0),
        )
        second = model.mul(
            model.monomial(model.p, [g.i if t == g.r - 1 else 0 for t in range(model.nfactors)], 0),
            model.monomial(1, [g.j if t == g.t - 1 else 0 for t in range(model.nfactors)], 1),
        )
        if model.sub(first, second):
            return False
    return True


def star_star_check(model: BarKmModel, image_generators) -> dict[str, dict[str, bool]]:
    """For each full-support monomial Y: is p*Y or v*Y in the image span?"""
    for g in image_generators:
        model.degree(g)  # raises on malformed input
    out: dict[str, dict[str, bool]] = {}
    for exps in itertools.product(range(1, model.p), repeat=model.nfactors):
        out[mono_name(exps)] = {
            "p": model.span_contains(image_generators, model.monomial(model.p, exps, 0)),
            "v": model.span_contains(image_generators, model.monomial(1, exps, 1)),
        }
    return out


def star_star_holds(result: dict[str, dict[str, bool]]) -> bool:
    return not any(hit["p"] or hit["v"] for hit in result.values())


def versal_image(model: BarKmModel) -> list[BarElement]:
    """Image generators asserted for versal-type factors.

    Every class restricts to p*Y or v*Y per factor, so the image is spanned
    by all products of those over nonempty factor subsets.  This is input
    data (the torsion-index argument), not computed geometry.
    """
    gens: list[BarElement] = []
    seen = set()
    s = model.nfactors
    for mask in range(1, 2**s):
        slots = [t for t in range(s) if mask >> t & 1]
        for exps in itertools.product(range(1, model.p), repeat=len(slots)):
            full = [0] * s
            for t, e in zip(slots, exps):
                full[t] = e
            for nv in range(0, len(slots) + 1):
                coeff = model.p ** (len(slots) - nv)
                key = (tuple(full), nv, coeff)
                if key in seen:
                    continue
                seen.add(key)
                gens.append(model.monomial(coeff, full, nv))
    return gens


def product_image(model: BarKmModel) -> list[BarElement]:
    """Image generators when every factor after the first is split.

    The split factors contribute their monomials with unit coefficient, so
    mixed monomials appear with a bare p and a bare v: (**) fails.
    """
    s = model.nfactors
    gens: list[BarElement] = []
    for exps in itertools.product(range(0, model.p), repeat=s - 1):
        tail = (0,) + exps
        gens.append(model.monomial(1, tail, 0))
        for i in range(1, model.p):
            full = (i,) + exps
            gens.append(model.monomial(model.p, full, 0))
            gens.append(model.monomial(1, full, 1))
    return [g for g in gens if g]


# The image generators of each `--image` preset; "none" supplies no hypotheses.
IMAGE_PRESETS = {"versal": versal_image, "product": product_image, "none": lambda model: None}


def image_preset(model: BarKmModel, preset: str) -> list[BarElement] | None:
    if preset not in IMAGE_PRESETS:
        raise KunnethError(f"unknown image preset {preset!r} (choose from {tuple(IMAGE_PRESETS)})")
    return IMAGE_PRESETS[preset](model)


# ---------------------------------------------------------------------------
# tilde quotients and the second-display machinery
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"y_(\d+)")


def name_support(name: str) -> frozenset[int]:
    return frozenset(int(t) for t in _FACTOR_RE.findall(name))


def tilde_quotient(M: GradedFPModule, nfactors: int) -> GradedFPModule:
    """Kill every basis monomial not supported on all factors."""
    full = frozenset(range(1, nfactors + 1))
    doomed = []
    for d in M.degrees():
        names = M.names_at(d)
        if names is None:
            raise KunnethError("unindexed basis: tilde quotient needs generator names")
        for nm in names:
            if name_support(nm) != full:
                doomed.append(nm)
    out = M
    for nm in doomed:
        out = kill_generator(out, nm)
    return out


def bar_tensor_module(p: int, ns) -> GradedFPModule:
    mods = [bar_rost_ring(p, n, var=f"y_{t + 1}").module() for t, n in enumerate(ns)]
    return reduce(tensor_product, mods)


def tilde_bar_module(p: int, ns) -> GradedFPModule:
    return tilde_quotient(bar_tensor_module(p, ns), len(ns))


def word_slot_module(p: int, ns, m: int, k: int) -> GradedFPModule:
    """Full-support words with exactly k zero-labels, as a presented module.

    Generators are all label arrangements; relations are p times any word
    containing a torsion label, plus the label-swap differences coming from
    the ideal.  The normal form of this module is one slot of the filtration
    comparison — computed honestly rather than read off the identification.
    """
    s = len(ns)
    if not (0 <= k <= s):
        raise KunnethError("zero-label count out of range")
    rules = [DegreeRule(p, n) for n in ns]
    delta = p**m - 1
    gens: list[tuple[frozenset[int], tuple[int, ...]]] = []
    for mask in itertools.combinations(range(s), k):
        for jvec in itertools.product(range(1, p), repeat=s):
            gens.append((frozenset(mask), jvec))

    def word_name(mask, jvec):
        parts = []
        for t in range(s):
            label = 0 if t in mask else m
            parts.append(_c(label, jvec[t], f"y_{t + 1}"))
        return "*".join(parts)

    def word_degree(mask, jvec):
        return sum(rules[t].c_degree(0, jvec[t]) for t in range(s)) - (s - k) * delta

    by_degree: dict[int, list[tuple[frozenset[int], tuple[int, ...]]]] = {}
    for w in gens:
        by_degree.setdefault(word_degree(*w), []).append(w)
    components = {}
    for d, ws in by_degree.items():
        idx = {w: i for i, w in enumerate(ws)}
        rels: list[tuple[int, ...]] = []
        for w in ws:
            mask, jvec = w
            if k < s:
                col = [0] * len(ws)
                col[idx[w]] = p
                rels.append(tuple(col))
            for r in sorted(mask):
                for t in range(s):
                    if t in mask:
                        continue
                    swapped = (mask - {r}) | {t}
                    w2 = (frozenset(swapped), jvec)
                    col = [0] * len(ws)
                    col[idx[w]] += 1
                    col[idx[w2]] -= 1
                    if any(col):
                        rels.append(tuple(col))
        names = tuple(word_name(*w) for w in ws)
        components[d] = DegreeComponent(gens=len(ws), relations=tuple(rels), names=names)
    if not components:
        return zero_module(p)
    degs = sorted(components)
    return GradedFPModule(p=p, components=components, window=(degs[0], degs[-1]))


def second_display_sides(p: int, s: int, n: int, m: int):
    """Left: word-space slots from the quotient presentation.  Right: the
    p-power filtration of the tilde split module.  Slot t+1 holds the words
    with t zero-labels; the degree shift between the sides is the torsion
    twist, so the verdict compares ungraded slot invariants."""
    ns = (n,) * s
    left = {}
    for k in range(0, s + 1):
        nf = normalize(word_slot_module(p, ns, m, k))
        fr, tors = nf.aggregate()
        left[f"slot_{k + 1}"] = {"free": fr, "torsion": list(tors)}
    filt = gr_ps(tilde_bar_module(p, ns), s)
    right = {}
    for slot in range(1, s + 2):
        fr, tors = filt.slot_aggregate(slot)
        right[f"slot_{slot}"] = {"free": fr, "torsion": list(tors)}
    return left, right


# ---------------------------------------------------------------------------
# the full product quotient as a ring
# ---------------------------------------------------------------------------


def kunneth_quotient_ring(p: int, n: int, m: int, s: int) -> PresentedRing:
    """The ring gr_m(R')^{(x) s}/J of cor-1.3: the s-fold tensor product of the
    gr_m Rost rings, factor t on y_t, modulo the ideal J of `j_ideal`, which
    identifies c_m(Y)*c_0(Y') with c_0(Y)*c_m(Y') on every two factors.  The
    word kept for each class puts the torsion labels on its first factors.
    """
    if not is_prime(p):
        raise KunnethError(f"p={p} must be prime")
    if not (1 <= m <= n - 1):
        raise KunnethError("need 1 <= m <= n-1 so the factors carry c_m")
    if s < 1:
        raise KunnethError("need at least one factor")
    factors = [gr_m_rost_ring(p, n, m, var=f"y_{t}") for t in range(1, s + 1)]
    if s == 1:
        return factors[0]
    pairs = [(g.positive_name, g.negative_name) for g in j_ideal(p, m, s).generators]
    return ring_quotient(reduce(ring_tensor, factors), identified=pairs)


# ---------------------------------------------------------------------------
# the comparison map into a product with split second factor
# ---------------------------------------------------------------------------


def kunneth_map(p: int, n: int, target: CatalogObject) -> GradedMap:
    """Multiplication-induced map from the two-factor tensor module.

    Sends a*b to a times the restriction of b; requires the target to carry
    the split-product structure (its bar is the product of the factor bars).
    """
    if target.bar is None or target.ring is None:
        raise KunnethError("target lacks product bar structure")
    chow1 = chow_rost_ring(p, n, var="y_1")
    chow2 = chow_rost_ring(p, n, var="y_2")
    domain = tensor_product(chow1.module(), chow2.module())
    tmod = target.ring.module()
    rule = DegreeRule(p, n)

    def res2(name: str) -> list[tuple[str, int]]:
        # restriction of a second-factor class into the split ring
        if name == "1":
            return [("1", 1)]
        for j in range(1, p):
            if name == _c(0, j, "y_2"):
                return [(_power("y_2", j), p)]
            for i in range(1, n):
                if name == _c(i, j, "y_2"):
                    return []
        raise KunnethError(f"unrecognized class {name!r}")

    matrices: dict[int, list[list[int]]] = {
        d: [[0] * domain.gens_at(d) for _ in range(tmod.gens_at(d))]
        for d in domain.degrees()
    }
    for d in domain.degrees():
        names = domain.names_at(d)
        for col, nm in enumerate(names or ()):
            a, b = nm.split("*", 1)
            for tgt, coeff in res2(b):
                td, row = tmod.generator_index(tensor_name(a, tgt))
                if td != d:
                    raise KunnethError("comparison map does not preserve degree")
                matrices[d][row][col] += coeff
    gm = GradedMap(
        source=domain,
        target=tmod,
        matrices={d: tuple(tuple(r) for r in m_) for d, m_ in matrices.items()},
    )
    check = gm.well_defined()
    if not check:
        raise KunnethError("comparison map not well defined: " + "; ".join(check.diffs))
    return gm


def class_is_nonzero(M: GradedFPModule, name: str) -> bool:
    """Is the named generator nonzero in the presented quotient?"""
    d, i = M.generator_index(name)
    comp = M.components[d]
    if not comp.relations:
        return True
    vec = [0] * comp.gens
    vec[i] = 1
    return membership(M.relation_matrix(d), vec) is None


# ---------------------------------------------------------------------------
# theorem verifiers
# ---------------------------------------------------------------------------

_DEFINITIONAL_NOTE = (
    "the first display defines the graded ring as this quotient; the certified "
    "content is the independently computed slot comparison"
)
_TWIST_NOTE = (
    "slot degrees on the two sides differ by the torsion-label twist, so the "
    "verdict compares ungraded slot invariants; graded tables are logged"
)
_EXTENSION_NOTE = (
    "the free and pure-torsion components are checked by the same membership "
    "criterion as the mixed one; this is an interpretive extension of the "
    "sketched argument"
)
_FLAG_NOTE = (
    "packaged for the product of flag quotients; the computation is the "
    "s-fold slot comparison"
)
_VERSAL_NOTE = (
    "image generators are hypothesis data for versal-type factors (torsion-index "
    "argument), not computed geometry"
)


def _slot_dict(agg: tuple[int, tuple[int, ...]]) -> dict:
    fr, tors = agg
    return {"free": fr, "torsion": list(tors)}


def _verify_thm_1_1(params: dict) -> TheoremReport:
    p = params.get("p", 2)
    if p not in (2, 3, 5):
        raise KunnethError("thm-1.1 is stated for p in {2, 3, 5}")
    n, m = 2, 1
    rule = DegreeRule(p, n)
    g1 = gr_m_rost_ring(p, n, m, var="y_1").module()
    g2 = gr_m_rost_ring(p, n, m, var="y_2").module()
    left_mod = j_quotient(tensor_product(g1, g2), j_ideal(p, m, 2))

    filt = gr_ps(tilde_bar_module(p, (n, n)), 2)
    slot1 = filt.slot_aggregate(1)
    slot2 = filt.slot_aggregate(2)
    slot3 = filt.slot_aggregate(3)
    pairs = [(i, j) for i in range(1, p) for j in range(1, p)]
    notes = [_DEFINITIONAL_NOTE, _TWIST_NOTE]
    ok_shape = (
        slot1 == (0, (1,) * len(pairs))
        and slot2 == (0, (1,) * len(pairs))
        and slot3 == (len(pairs), ())
    )
    pieces: list[tuple[int, int, str]] = [(0, 0, "1")]
    for t in (1, 2):
        for j in range(1, p):
            pieces.append((rule.c_degree(0, j), 0, _c(0, j, f"y_{t}")))
            pieces.append((rule.c_degree(m, j), 1, _c(m, j, f"y_{t}")))
    for i, j in pairs:
        pieces.append((rule.c_degree(m, i) + rule.c_degree(m, j), 1, "mixed-both"))
        pieces.append((rule.c_degree(m, i) + rule.c_degree(0, j), 1, "mixed-one"))
        pieces.append((rule.c_degree(0, i) + rule.c_degree(0, j), 0, "mixed-free"))
    right_mod = cyclic_summands(p, [(d, e, f"{nm}#{k}") for k, (d, e, nm) in enumerate(pieces)])
    iso = iso_equal(left_mod, right_mod)
    verdict = VERIFIED if (ok_shape and iso) else REFUTED
    if not ok_shape:
        notes.append("split-filtration slot ranks do not match the mixed classes")
    notes.extend(iso.diffs)
    return TheoremReport(
        id="thm-1.1",
        params={"p": p, "n": n, "m": m},
        verdict=verdict,
        left=normalize(left_mod).to_json(),
        right=normalize(right_mod).to_json(),
        notes=notes,
    )


def _verify_lemma_4_1(params: dict) -> TheoremReport:
    p = params.get("p", 2)
    n1 = params.get("n1", 2)
    n2 = params.get("n2", 2)
    m = params.get("m", 1)
    dec = c_decomposition(p, n1, n2, m)
    ideal = j_ideal(p, m, 2)
    model = BarKmModel(p, m, (DegreeRule(p, n1).y_degree, DegreeRule(p, n2).y_degree))
    res_ok = j_res_vanishes(ideal, model)
    c2q = j_quotient(dec.c2, ideal)
    left = {
        "slot_1": _slot_dict(normalize(dec.c1).aggregate()),
        "slot_2": _slot_dict(normalize(c2q).aggregate()),
        "slot_3": _slot_dict(normalize(dec.c0).aggregate()),
    }
    filt = gr_ps(tilde_bar_module(p, (n1, n2)), 2)
    right = {f"slot_{k}": _slot_dict(filt.slot_aggregate(k)) for k in (1, 2, 3)}
    verdict = VERIFIED if (left == right and res_ok) else REFUTED
    notes = [
        "slots: torsion-torsion words, mixed words mod identification, free words",
        _TWIST_NOTE,
        _EXTENSION_NOTE,
    ]
    if not res_ok:
        notes.append("an ideal generator has nonzero restriction")
    return TheoremReport(
        id="lemma-4.1",
        params={"p": p, "n1": n1, "n2": n2, "m": m},
        verdict=verdict,
        left=left,
        right=right,
        witnesses=[g.name for g in ideal.generators],
        notes=notes,
    )


def _verify_cor_4_2(params: dict) -> TheoremReport:
    p = params.get("p", 2)
    n = params.get("n", 2)
    m = params.get("m", 1)
    if not is_prime(p):
        raise KunnethError(f"p={p} must be prime")
    ydeg = DegreeRule(p, n).y_degree
    model = BarKmModel(p, m, (ydeg, ydeg))
    result = star_star_check(model, versal_image(model))
    clear = {mono: {"p": False, "v": False} for mono in result}
    verdict = VERIFIED if result == clear else REFUTED
    return TheoremReport(
        id="cor-4.2",
        params={"p": p, "n": n, "m": m},
        verdict=verdict,
        left=result,
        right=clear,
        notes=[
            "surjectivity is a supplied hypothesis; given it, the membership "
            "criterion upgrades the inclusion to an isomorphism",
            _VERSAL_NOTE,
        ],
    )


def _verify_remark_4_2_negative(params: dict) -> TheoremReport:
    p = params.get("p", 2)
    n = params.get("n", 2)
    m = params.get("m", 1)
    target = build_product_rost(p, n)
    gm = kunneth_map(p, n, target)
    killed = []
    for d in gm.source.degrees():
        names = gm.source.names_at(d) or ()
        mat = gm.matrix_at(d)
        for col, nm in enumerate(names):
            if all(row[col] == 0 for row in mat) and class_is_nonzero(gm.source, nm):
                killed.append(nm)
    killed.sort()
    ydeg = DegreeRule(p, n).y_degree
    model = BarKmModel(p, m, (ydeg, ydeg))
    result = star_star_check(model, product_image(model))
    fails = not star_star_holds(result)
    verdict = VERIFIED if (killed and fails) else REFUTED
    return TheoremReport(
        id="remark-4.2-negative",
        params={"p": p, "n": n, "m": m},
        verdict=verdict,
        left={"kernel_classes": killed},
        right={"star_star": result},
        witnesses=killed[:4],
        notes=[
            "negative control: the comparison map kills torsion classes of the "
            "second factor and the membership criterion fails on the same data"
        ],
    )


def _second_display_report(id_: str, params: dict, extra_notes=()) -> TheoremReport:
    p = params.get("p", 2)
    s = params.get("s", 2)
    n = params.get("n", 2)
    m = params.get("m", 1)
    if not is_prime(p):
        raise KunnethError(f"p={p} must be prime")
    if s < 2:
        raise KunnethError("need at least two factors")
    if not (1 <= m <= n - 1):
        raise KunnethError("need 1 <= m <= n-1")
    left, right = second_display_sides(p, s, n, m)
    verdict = VERIFIED if left == right else REFUTED
    return TheoremReport(
        id=id_,
        params={"p": p, "s": s, "n": n, "m": m},
        verdict=verdict,
        left=left,
        right=right,
        notes=[_DEFINITIONAL_NOTE, _TWIST_NOTE, *extra_notes],
    )


def _star_star_report(id_: str, params: dict, s: int | None = None) -> TheoremReport:
    """The (**) criterion on s quadric factors; s=None reads s from params."""
    if s is None:
        s = params.get("s", 2)
    p = params.get("p", 2)
    if p != 2:
        raise KunnethError(f"{id_} concerns quadratic forms: p must be 2")
    n = params.get("n", 2 if s == 2 else 3)
    m = params.get("m", 1)
    if not (1 <= m <= n - 1):
        raise KunnethError("need 1 <= m <= n-1")
    preset = params.get("image", "versal")
    ydeg = 2**n - 1
    model = BarKmModel(2, m, (ydeg,) * s)
    img = image_preset(model, preset)
    notes = [_VERSAL_NOTE, _EXTENSION_NOTE, GR_M_PFISTER_NOTE]
    if img is None:
        return TheoremReport(
            id=id_,
            params={"p": 2, "n": n, "m": m, "s": s, "image": preset},
            verdict=NOT_CERTIFIABLE,
            notes=["image hypotheses not supplied; the criterion cannot be run"],
        )
    ideal = j_ideal(2, m, s)
    res_ok = j_res_vanishes(ideal, model)
    result = star_star_check(model, img)
    holds = star_star_holds(result) and res_ok
    verdict = VERIFIED if holds else REFUTED
    return TheoremReport(
        id=id_,
        params={"p": 2, "n": n, "m": m, "s": s, "image": preset},
        verdict=verdict,
        left=result,
        right={mono: {"p": False, "v": False} for mono in result},
        witnesses=[g.name for g in ideal.generators],
        notes=notes,
    )


def _verify_cor_1_3(params: dict) -> TheoremReport:
    p = params.get("p", 2)
    s = params.get("s", 2)
    n = params.get("n", 2)
    m = params.get("m", 1)
    ring = kunneth_quotient_ring(p, n, m, s)
    tgens = [_c(m, j, f"y_{t + 1}") for t in range(s) for j in range(1, p)]
    w = ideal_power_witness(ring, tgens, s)
    if w is None:
        return TheoremReport(
            id="cor-1.3",
            params={"p": p, "s": s, "n": n, "m": m},
            verdict=REFUTED,
            left={"witness": None},
            right={"expected": "nonzero s-fold torsion product"},
            notes=["every s-fold product of torsion generators vanishes"],
        )
    p_kill = all(
        _canon_coeff(p * c, ring.basis[ring.index_of(nm)].torsion_exp, p) == 0
        for nm, c in w.vector
    )
    verdict = VERIFIED if p_kill else REFUTED
    return TheoremReport(
        id="cor-1.3",
        params={"p": p, "s": s, "n": n, "m": m},
        verdict=verdict,
        left={
            "witness_product": list(w.factors),
            "value": [[nm, c] for nm, c in w.vector],
            "degree": w.degree,
        },
        right={"order": p},
        witnesses=["*".join(w.factors)],
        notes=["s-th power of the torsion ideal is nonzero; the witness has "
               "additive order p"],
    )


def _verify_cor_3_5(params: dict) -> TheoremReport:
    p = params.get("p", 2)
    n = params.get("n", 2)
    m = params.get("m", 1)
    km = km_rost(p, n, m)
    left_mod = gr_geometric(km)
    right_mod = gr_m_rost_ring(p, n, m).module()
    iso = iso_equal(left_mod, right_mod)
    killed = v_torsion_generators(km)
    notes = [f"v-torsion generators: {', '.join(killed) if killed else 'none'}"]
    notes.extend(iso.diffs)
    left: dict = {"graded": normalize(left_mod).to_json()}
    right: dict = {"graded": normalize(right_mod).to_json()}
    second_ok = True
    if m <= n - 1:
        ydeg = DegreeRule(p, n).y_degree
        bar_km = free_km(
            p, m, [("1", 0)] + [(_power("y", j), j * ydeg) for j in range(1, p)]
        )
        second = check_cor_3_5_second(km, bar_km)
        second_ok = second.verdict == VERIFIED
        left["second_display"] = second.left
        right["second_display"] = second.right
        notes.extend(second.notes)
    else:
        notes.append("second display applies to m <= n-1; skipped")
    verdict = VERIFIED if (iso and second_ok) else REFUTED
    return TheoremReport(
        id="cor-3.5",
        params={"p": p, "n": n, "m": m},
        verdict=verdict,
        left=left,
        right=right,
        notes=notes,
    )


def _verify_cor_3_6(params: dict) -> TheoremReport:
    p = params.get("p", 2)
    km = km_rost(p, 2, 1)
    killed = v_torsion_generators(km)
    iso = iso_equal(gr_m_rost_ring(p, 2, 1).module(), chow_rost_ring(p, 2).module())
    verdict = VERIFIED if (not killed and iso) else REFUTED
    return TheoremReport(
        id="cor-3.6",
        params={"p": p, "n": 2, "m": 1},
        verdict=verdict,
        left={"v_torsion": list(killed)},
        right={"v_torsion": []},
        notes=["no torsion ideal at n = 2: the geometric graded is the whole ring",
               *iso.diffs],
    )


def _verify_lemma_3_2(params: dict) -> TheoremReport:
    p = params.get("p", 2)
    n = params.get("n", 3)
    model = OmegaImageModel(p, (n,))
    failures = []
    checked = 0
    for r in range(0, n):
        for s_ in range(r + 1, n):
            for j in range(1, p):
                checked += 1
                if not model.check_commutation_identity(r, s_, j):
                    failures.append([r, s_, j])
    verdict = VERIFIED if not failures else REFUTED
    return TheoremReport(
        id="lemma-3.2",
        params={"p": p, "n": n},
        verdict=verdict,
        left={"identities_checked": checked, "failures": failures},
        right={"failures": []},
        notes=["cross-multiplication identity for restrictions, index 0 meaning "
               "multiplication by p"],
    )


def _torsion_square_report(id_: str, obj, params: dict) -> TheoremReport:
    tnames = torsion_ideal(obj.ring, obj.res)
    w = ideal_power_witness(obj.ring, tnames, 2)
    verdict = VERIFIED if w is None else REFUTED
    witnesses = [] if w is None else ["*".join(w.factors)]
    return TheoremReport(
        id=id_,
        params=params,
        verdict=verdict,
        left={"torsion_generators": list(tnames),
              "witness": None if w is None else [[nm, c] for nm, c in w.vector]},
        right={"square": 0},
        witnesses=witnesses,
        notes=["restriction map certified to kill exactly the torsion ideal",
               *obj.notes],
    )


def _verify_thm_5_5_torsion_square(params: dict) -> TheoremReport:
    n = params.get("n", 2)
    obj = build_pfister_neighbor_chow(n)
    return _torsion_square_report("thm-5.5-torsion-square", obj, {"p": 2, "n": n})


def _verify_thm_5_7_torsion_square(params: dict) -> TheoremReport:
    n = params.get("n", 2)
    d = params.get("d", 2**n - 1)
    di = tuple(params.get("di") or ())
    obj = build_excellent_quadric_chow(n, d, di)
    return _torsion_square_report(
        "thm-5.7-torsion-square", obj, {"p": 2, "n": n, "d": d, "di": list(di)}
    )


@dataclass(frozen=True)
class Claim:
    verify: Callable[[dict], TheoremReport]
    params: tuple[str, ...]  # the parameter names the verifier reads
    grid: tuple[dict, ...]  # the verify-all parameter sets, in report order


_EACH_P = tuple({"p": p} for p in (2, 3, 5))
_P_S = tuple({"p": p, "s": s} for p, s in ((2, 2), (2, 3), (3, 2), (3, 3)))
_QUADRIC_N_M = tuple({"p": 2, "n": n, "m": m} for n in (2, 3, 4) for m in range(1, n))

# Every claim id with its verifier, the parameters it reads and its
# verify-all grid, in report order.
CLAIMS: dict[str, Claim] = {
    "thm-1.1": Claim(_verify_thm_1_1, ("p",), _EACH_P),
    "lemma-4.1": Claim(
        _verify_lemma_4_1,
        ("p", "n1", "n2", "m"),
        tuple(
            {"p": p, "n1": n1, "n2": n2, "m": m}
            for p, n1, n2, m in (
                (2, 2, 2, 1), (2, 3, 3, 1), (2, 3, 3, 2), (3, 2, 2, 1), (5, 2, 2, 1)
            )
        ),
    ),
    "cor-4.2": Claim(_verify_cor_4_2, ("p", "n", "m"), _EACH_P),
    "remark-4.2-negative": Claim(_verify_remark_4_2_negative, ("p", "n", "m"), _EACH_P),
    "thm-6.9": Claim(partial(_second_display_report, "thm-6.9"), ("p", "s", "n", "m"), _P_S),
    "cor-6.10": Claim(
        partial(_second_display_report, "cor-6.10", extra_notes=(_FLAG_NOTE,)),
        ("p", "s", "n", "m"),
        tuple({"p": 2, "s": s} for s in (2, 3)),
    ),
    "lemma-7.2": Claim(
        partial(_star_star_report, "lemma-7.2", s=2), ("p", "n", "m", "image"), _QUADRIC_N_M
    ),
    "cor-7.3": Claim(
        partial(_star_star_report, "cor-7.3"),
        ("p", "n", "m", "s", "image"),
        tuple({"p": 2, "n": 3, "m": 1, "s": s} for s in (2, 3)),
    ),
    "cor-1.3": Claim(_verify_cor_1_3, ("p", "s", "n", "m"), _P_S),
    "cor-3.5": Claim(
        _verify_cor_3_5,
        ("p", "n", "m"),
        _QUADRIC_N_M + ({"p": 3, "n": 2, "m": 1}, {"p": 5, "n": 2, "m": 1}),
    ),
    "cor-3.6": Claim(_verify_cor_3_6, ("p",), _EACH_P),
    "lemma-3.2": Claim(
        _verify_lemma_3_2,
        ("p", "n"),
        tuple({"p": p, "n": n} for p, n in ((2, 3), (2, 4), (3, 2))),
    ),
    "thm-5.5-torsion-square": Claim(
        _verify_thm_5_5_torsion_square, ("n",), tuple({"n": n} for n in (2, 3, 4))
    ),
    "thm-5.7-torsion-square": Claim(
        _verify_thm_5_7_torsion_square,
        ("n", "d", "di"),
        ({"n": 2, "d": 3, "di": [2]}, {"n": 2, "d": 5, "di": [3]}, {"n": 3, "d": 7, "di": [4, 2]}),
    ),
}

THEOREM_IDS = tuple(CLAIMS)


def verify_theorem(id: str, params: dict | None = None) -> TheoremReport:
    claim = CLAIMS.get(id)
    if claim is None:
        raise KunnethError(f"unknown theorem id {id!r}")
    params = dict(params or {})
    unused = [k for k in params if k not in claim.params]
    if unused:
        raise KunnethError(
            f"{id} does not read {flags(unused)}; it reads {flags(claim.params)}"
        )
    return claim.verify(params)


def default_grid() -> tuple[tuple[str, dict], ...]:
    """The parameter grid behind verify-all, in fixed report order."""
    return tuple(
        (id_, copy.deepcopy(params)) for id_, claim in CLAIMS.items() for params in claim.grid
    )
