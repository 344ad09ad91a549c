"""Products of motives and the theorem verifiers.

The pieces: the mixed-class decomposition C_0 + C_1 + C_2 of a two-factor
product, the identification ideal J_s and the word ring gr_m(R')^{(x) s}/J
whose slots the second display reads, the tilde split module (the monomials
supported on every factor), the comparison map into a product with split
second factor, the image-membership criterion (**) in the ambient
periodic split module (`omega.OmegaImageModel` with v = v_m), and one
verifier per published claim id.

Verifiers build the two sides of each claim through the code paths that
README's "The two paths behind each claim" names, and compare exact
invariants.  Some right sides are a constant or the same ring, so their
"verified" rests on the left path alone (ROADMAP item 5): `cor-1.3` and the
two torsion-square claims compare with a constant, and `cor-3.6` compares
`chow_rost_ring(p, 2)` with a quotient of itself that kills nothing.  The
(**) claims `cor-4.2`, `lemma-7.2` and `cor-7.3` compare the criterion's
table with the all-False table it asks for.  `lemma-3.2` holds by the
definition of `res_class`: both sides of each identity are the term
p^[r=0]*p^[s=0]*v_r*v_s*Y, so only a planted `res_class` refutes it.
"""

from __future__ import annotations

import copy
import itertools
from collections.abc import Callable
from functools import lru_cache, partial, reduce

from .catalog import (
    GR_M_PFISTER_NOTE,
    bar_rost_ring,
    build_excellent_quadric_chow,
    build_pfister_neighbor_chow,
    chow_rost_ring,
    gr_m_rost_ring,
    km_rost,
    lookup,
    map_from_rules,
    rost_res_rules,
    signature_params,
)
from .exact_linalg import SpanSolver, is_prime, membership  # noqa: F401 (perfbench's bypass test)
from .exact_linalg import pvaluation
from .graded import (
    GradedFPModule,
    GradedMap,
    cyclic_summands,
    direct_sum,
    gr_ps,
    iso_equal,
    normalize,
    slot_json,
    tensor_product,
    zero_module,
)
from .km import check_cor_3_5_second, gr_geometric, v_torsion_generators
from .omega import (
    OmegaImageModel,
    OmegaModelError,
    PresentedRing,
    TensorParent,
    Term,
    _c,
    _canon_coeff,
    _power,
    c_degree,
    ideal_generators,
    ideal_power_witness,
    ring_quotient,
    ring_tensor,
    tensor_name,
    torsion_ideal,
)
from .record import Frozen
from .report import NOT_CERTIFIABLE, REFUTED, VERIFIED, TheoremReport


class KunnethError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the mixed-class decomposition
# ---------------------------------------------------------------------------


def positive_part(M: GradedFPModule) -> GradedFPModule:
    components = {d: c for d, c in M.components.items() if d > 0}
    if not components:
        return zero_module(M.p)
    window = (min(components), max(M.window[1], max(components)))
    return GradedFPModule(p=M.p, components=components, window=window)


def c_decomposition(
    p: int, n1: int, n2: int, m: int
) -> tuple[GradedFPModule, GradedFPModule, GradedFPModule]:
    """The product classes of two factors, split by torsion type, as (c0, c1, c2).

    c0: free classes c_0*c_0; c1: torsion c_m*c_m; c2: the mixed classes
    c_m*c_0 and c_0*c_m.  Degrees add; the three parts together are exactly
    the tensor product of the positive parts of the two factor rings, which
    is checked here.
    """
    if not is_prime(p):
        raise KunnethError(f"p={p} must be prime")
    if min(n1, n2) < 2:
        raise KunnethError("both factors need n >= 2")
    if not (1 <= m <= min(n1, n2) - 1):
        raise KunnethError(
            f"m={m} out of range: both factors must carry the class c_m "
            f"(need 1 <= m <= {min(n1, n2) - 1})"
        )
    c0_parts, c1_parts, c2_parts = [], [], []
    for i, j in itertools.product(range(1, p), repeat=2):
        a, b, am, bm = _c(0, i, "y_1"), _c(0, j, "y_2"), _c(m, i, "y_1"), _c(m, j, "y_2")
        c0_parts.append((c_degree(p, n1, 0, i) + c_degree(p, n2, 0, j), 0, f"{a}*{b}"))
        c1_parts.append((c_degree(p, n1, m, i) + c_degree(p, n2, m, j), 1, f"{am}*{bm}"))
        c2_parts.append((c_degree(p, n1, m, i) + c_degree(p, n2, 0, j), 1, f"{am}*{b}"))
        c2_parts.append((c_degree(p, n1, 0, i) + c_degree(p, n2, m, j), 1, f"{a}*{bm}"))
    dec = tuple(cyclic_summands(p, parts) for parts in (c0_parts, c1_parts, c2_parts))
    pos1 = positive_part(gr_m_rost_ring(p, n1, m, var="y_1").module())
    pos2 = positive_part(gr_m_rost_ring(p, n2, m, var="y_2").module())
    check = iso_equal(reduce(direct_sum, dec), tensor_product(pos1, pos2))
    if not check:
        raise KunnethError(
            "decomposition does not match the product of positive parts: "
            + "; ".join(check.diffs)
        )
    return dec


# ---------------------------------------------------------------------------
# the identification ideal
# ---------------------------------------------------------------------------


class JGenerator(Frozen):
    _fields = ("r", "t", "i", "j", "m")

    def __init__(self, r: int, t: int, i: int, j: int, m: int):
        object.__setattr__(self, "r", r)  # factor carrying c_m in the first word (1-based)
        object.__setattr__(self, "t", t)  # factor carrying c_0 in the first word
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "m", m)

    @property
    def positive_name(self) -> str:
        return f"{_c(self.m, self.i, f'y_{self.r}')}*{_c(0, self.j, f'y_{self.t}')}"

    @property
    def negative_name(self) -> str:
        return f"{_c(0, self.i, f'y_{self.r}')}*{_c(self.m, self.j, f'y_{self.t}')}"

    @property
    def name(self) -> str:
        return f"{self.positive_name} - {self.negative_name}"


def j_ideal(p: int, m: int, s: int) -> tuple[JGenerator, ...]:
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
    if len(gens) != (p - 1) ** 2 * s * (s - 1) // 2:
        raise KunnethError("internal generator count mismatch")
    return gens


# ---------------------------------------------------------------------------
# the ambient periodic split module and the criterion (**)
# ---------------------------------------------------------------------------


class BarKmModel(OmegaImageModel):
    """The ambient model of the split product read with one variable v = v_m.

    res(c_0(Y)) = p*Y and res(c_m(Y)) = v_m*Y on the y-monomials Y, y_t^p = 0.
    Image membership is decided term by term, on a `term_index`.

    Row-splitting lemma.  Every image generator is one term c*v^I*Y, as
    every element of the model is a `Term`, and multiplying by v_m keeps Y,
    so every translate v_m^e*c*v^I*Y is one term too.  A degree of the
    Z_(p)[v_m]-span is then spanned by columns with one nonzero each, and
    such a span is the direct sum of its rows: row v^J*Y is p^mu*Z_(p), mu
    the least v_p(c) over the generators with the key of v^J*Y (v^J without
    v_m, and Y) and a v_m exponent no higher than J's.  So a target a*v^J*Y
    lies in the span exactly when it has such a generator with v_p(c) <=
    v_p(a); a target without one is outside, and the missing divisor is the
    certificate.
    """

    _fields = ("p", "factor_ns", "m")

    def __init__(self, p: int, factor_ns: tuple[int, ...], m: int):
        super().__init__(p, factor_ns)
        object.__setattr__(self, "m", m)
        if not 1 <= self.m <= min(self.factor_ns) - 1:
            raise KunnethError(
                f"m={self.m} out of range: every factor must carry the class c_m "
                f"(need 1 <= m <= {min(self.factor_ns) - 1})"
            )

    def vm_monomial(self, coeff: int, exps, k: int) -> Term | None:
        return self.monomial(coeff, ((self.m, k),) if k else (), exps)

    def _key(self, v, y) -> tuple[tuple, int]:
        """(v without v_m, Y) and the v_m exponent of the term v*Y."""
        return (tuple(t for t in v if t[0] != self.m), y), dict(v).get(self.m, 0)

    def term_index(self, image_generators) -> dict:
        """(v-key without v_m, Y) -> {v_m exponent: least v_p(c)} over the
        generators c*v^I*Y with that key, each a `Term`."""
        index: dict = {}
        for g in image_generators:
            if not (isinstance(g, tuple) and len(g) == 3 and isinstance(g[0], int) and g[0]):
                raise OmegaModelError(f"image generator {g!r} is not a term (c, v, Y), c != 0")
            c, v, y = g
            key, e = self._key(v, y)
            least, val = index.setdefault(key, {}), pvaluation(c, self.p)
            least[e] = min(least.get(e, val), val)
        return index

    def span_contains(self, index, target: Term | None) -> bool:
        """Is target in the Z_(p)[v_m]-span of the generators of the term
        index?  Zero (None) is."""
        if target is not None:
            a, v, y = target
            key, e = self._key(v, y)
            val = pvaluation(a, self.p)
            if not any(ek <= e and least <= val for ek, least in index.get(key, {}).items()):
                return False
        return True


def mono_name(exps) -> str:
    parts = [_power(f"y_{t + 1}", e) for t, e in enumerate(exps) if e > 0]
    return "*".join(parts) if parts else "1"


def j_res_vanishes(gens: tuple[JGenerator, ...], model: BarKmModel) -> bool:
    """Every ideal generator restricts to zero: res(c_m(Y)c_0(Y')) = res(c_0(Y)c_m(Y'))."""
    for g in gens:
        first, second = [None] * model.nfactors, [None] * model.nfactors
        first[g.r - 1], first[g.t - 1] = (g.m, g.i), (0, g.j)
        second[g.r - 1], second[g.t - 1] = (0, g.i), (g.m, g.j)
        if model.res_word(first) != model.res_word(second):
            return False
    return True


def star_star_check(model: BarKmModel, image_generators) -> dict[str, dict[str, bool]]:
    """For each full-support monomial Y: is p*Y or v*Y in the image span?"""
    index = model.term_index(image_generators)
    return {
        mono_name(exps): {
            kind: model.span_contains(index, model.vm_monomial(coeff, exps, k))
            for kind, coeff, k in (("p", model.p, 0), ("v", 1, 1))
        }
        for exps in itertools.product(range(1, model.p), repeat=model.nfactors)
    }


def star_star_holds(result: dict[str, dict[str, bool]]) -> bool:
    return not any(hit["p"] or hit["v"] for hit in result.values())


def versal_image(model: BarKmModel) -> list[Term]:
    """Image generators asserted for versal-type factors.

    Every class restricts to p*Y or v*Y per factor, so the image is spanned
    by the restrictions of all nonempty words in the c_0 and c_m classes,
    each distinct restriction once.  This is input data (the torsion-index
    argument), not computed geometry.
    """
    slot = [None] + [(i, j) for i in (0, model.m) for j in range(1, model.p)]
    words = itertools.product(slot, repeat=model.nfactors)
    return list(dict.fromkeys(model.res_word(combo) for combo in words if any(combo)))


def product_image(model: BarKmModel) -> list[Term]:
    """Image generators when every factor after the first is split.

    The split factors contribute their monomials with unit coefficient, so
    mixed monomials appear with a bare p and a bare v: (**) fails.
    """
    gens: list[Term | None] = []
    for exps in itertools.product(range(0, model.p), repeat=model.nfactors - 1):
        gens.append(model.vm_monomial(1, (0,) + exps, 0))
        for i in range(1, model.p):
            full = (i,) + exps
            gens.append(model.vm_monomial(model.p, full, 0))
            gens.append(model.vm_monomial(1, full, 1))
    return [g for g in gens if g is not None]


# The image generators of each `--image` preset; "none" supplies no hypotheses.
IMAGE_PRESETS = {"versal": versal_image, "product": product_image, "none": lambda model: None}


def image_preset(model: BarKmModel, preset: str) -> list[Term] | None:
    if preset not in IMAGE_PRESETS:
        raise KunnethError(f"unknown image preset {preset!r} (choose from {tuple(IMAGE_PRESETS)})")
    return IMAGE_PRESETS[preset](model)


# ---------------------------------------------------------------------------
# the tilde split module and the word slots of the second display
# ---------------------------------------------------------------------------


def tilde_bar_module(p: int, ns) -> GradedFPModule:
    """The split product modulo every monomial not supported on all factors:
    the bar rings are free on the y_t^j, so this is the tensor product of
    their positive parts."""
    bars = [bar_rost_ring(p, n, var=f"y_{t + 1}") for t, n in enumerate(ns)]
    return reduce(tensor_product, [positive_part(bar.module()) for bar in bars])


@lru_cache(maxsize=64)
def tilde_slots(p: int, ns: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Slots 1 .. s+1 of the p-power filtration of the tilde split module on
    s = len(ns) factors, ungraded as in `gr_ps`; cached per process."""
    return gr_ps(tilde_bar_module(p, ns), len(ns))[1:]


def word_slots(ring: PresentedRing, s: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The full-support classes of an s-factor word ring, ungraded as in
    `gr_ps`: slot k+1 (index k) holds those with k c_0 labels.  J swaps a c_0
    label with a c_m label, so it keeps the count, and each slot is the sum of
    the cyclic classes in it."""
    free, torsion = [0] * (s + 1), [[] for _ in range(s + 1)]
    for b in ring.basis:
        labels = b.name.split("*")
        if len(labels) == s:
            k = sum(label.startswith("c_0(") for label in labels)
            if b.torsion_exp:
                torsion[k].append(b.torsion_exp)
            else:
                free[k] += 1
    return tuple(zip(free, (tuple(sorted(t)) for t in torsion)))


def second_display_sides(p: int, s: int, n: int, m: int) -> tuple[dict, dict]:
    """The report JSON of both sides.  Left: the slots of the word ring
    gr_m(R')^{(x) s}/J.  Right: the p-power filtration of the tilde split
    module.  Slot t+1 holds the words with t zero-labels; the degree shift
    between the sides is the torsion twist, so the verdict compares ungraded
    slot invariants."""
    left = word_slots(kunneth_quotient_ring(p, n, m, s), s)
    return slot_json(left), slot_json(tilde_slots(p, (n,) * s))


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
    return _word_ring(p, (n,) * s, m)


@lru_cache(maxsize=8)
def _word_ring(p: int, ns: tuple[int, ...], m: int) -> PresentedRing:
    """gr_m(R_1) (x) ... (x) gr_m(R_s) / J, factor t on y_t with exponent
    ns[t-1].  The J pairs have equal degrees for unequal exponents too.

    Built one factor at a time: Q_1 = gr_m(R_1) and Q_t = (Q_{t-1} (x)
    gr_m(R_t)) / J_t, with J_t the pairs of J whose later factor is t, and
    Q_s is the ring.  Proof.  Write T_t for the t-fold tensor product and
    J_{<=t} for the ideal of T_t generated by the pairs with later factor at
    most t; those pairs involve only factors 1..t, so they lie in T_t.  If
    Q_{t-1} = T_{t-1}/J_{<=t-1}, right exactness of (x) gr_m(R_t) gives
    Q_{t-1} (x) gr_m(R_t) = T_t / (J_{<=t-1} (x) gr_m(R_t)), whose
    denominator is the ideal of T_t generated by J_{<=t-1}; modulo J_t then
    leaves T_t/J_{<=t}.  At t = s this is T_s/J.  Every stage is a
    `ring_quotient` of a `TensorParent`, the tensor never built, certified
    by induction from the audited catalog rings under the factors; no stage
    is audited again, and the stages before Q_s never compute their words.  Cached per process, as
    (p, ns, m) fixes the ring: callers share it and must not mutate it.  The
    cache keeps the 8 rings used last; a verify-all pass builds 7.
    """
    factors = [gr_m_rost_ring(p, n, m, var=f"y_{t}") for t, n in enumerate(ns, 1)]
    gens = j_ideal(p, m, len(ns)) if len(ns) > 1 else ()
    ring = factors[0]
    for t, factor in enumerate(factors[1:], 2):
        pairs = [(g.positive_name, g.negative_name) for g in gens if g.t == t]
        ring = ring_quotient(TensorParent(ring, factor), identified=pairs)
    return ring


# ---------------------------------------------------------------------------
# the comparison map into a product with split second factor
# ---------------------------------------------------------------------------


def kunneth_map(chow1: PresentedRing, n: int) -> GradedMap:
    """Multiplication-induced map from the two-factor tensor module.

    chow1 is the first factor, chow_rost_ring(p, n, var="y_1").  Sends a*b
    to a times the restriction of b, in chow1 tensored with the split form
    bar_rost_ring(p, n, var="y_2") of the second factor.
    """
    p = chow1.p
    domain = tensor_product(chow1.module(), chow_rost_ring(p, n, var="y_2").module())
    target = ring_tensor(chow1, bar_rost_ring(p, n, var="y_2")).module()
    rules = {
        f"{a.name}*{b}": tuple((tensor_name(a.name, t), c) for t, c in images)
        for a in chow1.basis
        for b, images in rost_res_rules(p, n, var="y_2").items()
    }
    return map_from_rules(domain, target, rules)


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


def _verify_thm_1_1(p=2) -> TheoremReport:
    if p not in (2, 3, 5):
        raise KunnethError("thm-1.1 is stated for p in {2, 3, 5}")
    n, m = 2, 1
    left_mod = kunneth_quotient_ring(p, n, m, 2).module()
    pairs = [(i, j) for i in range(1, p) for j in range(1, p)]
    notes = [_DEFINITIONAL_NOTE, _TWIST_NOTE]
    torsion = (0, (1,) * len(pairs))
    ok_shape = tilde_slots(p, (n, n)) == (torsion, torsion, (len(pairs), ()))
    pieces: list[tuple[int, int, str]] = [(0, 0, "1")]
    for t in (1, 2):
        for j in range(1, p):
            pieces.append((c_degree(p, n, 0, j), 0, _c(0, j, f"y_{t}")))
            pieces.append((c_degree(p, n, m, j), 1, _c(m, j, f"y_{t}")))
    for i, j in pairs:
        pieces.append((c_degree(p, n, m, i) + c_degree(p, n, m, j), 1, "mixed-both"))
        pieces.append((c_degree(p, n, m, i) + c_degree(p, n, 0, j), 1, "mixed-one"))
        pieces.append((c_degree(p, n, 0, i) + c_degree(p, n, 0, j), 0, "mixed-free"))
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


def _verify_lemma_4_1(p=2, n1=2, n2=2, m=1) -> TheoremReport:
    c0, c1, _ = c_decomposition(p, n1, n2, m)
    gens = j_ideal(p, m, 2)
    model = BarKmModel(p=p, factor_ns=(n1, n2), m=m)
    res_ok = j_res_vanishes(gens, model)
    mixed = word_slots(_word_ring(p, (n1, n2), m), 2)[1]
    left = (normalize(c1).aggregate(), mixed, normalize(c0).aggregate())
    right = tilde_slots(p, (n1, n2))
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
        left=slot_json(left),
        right=slot_json(right),
        witnesses=[g.name for g in gens],
        notes=notes,
    )


def _verify_cor_4_2(p=2, n=2, m=1) -> TheoremReport:
    model = BarKmModel(p=p, factor_ns=(n, n), m=m)
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


def _verify_remark_4_2_negative(p=2, n=2, m=1) -> TheoremReport:
    model = BarKmModel(p=p, factor_ns=(n, n), m=m)
    gm = kunneth_map(chow_rost_ring(p, n, var="y_1"), n)
    killed = []
    for d in gm.source.degrees():
        comp, cols = gm.source.components[d], gm.columns.get(d, {})
        zero = [j for j in range(comp.gens) if j not in cols]
        # nonzero classes: unit vectors off the relation span, factored once
        rels = SpanSolver(p, comp.relations, range(comp.gens)) if zero else None
        killed.extend(comp.names[j] for j in zero if not rels.contains({j: 1}))
    killed.sort()
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


def _second_display_report(id_: str, p=2, s=2, n=2, m=1, *, extra_notes=()) -> TheoremReport:
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


def _star_star_report(id_: str, p=2, n=None, m=1, s=2, image="versal") -> TheoremReport:
    """The (**) criterion on s quadric factors; n defaults to 2 on two, 3 on more."""
    if p != 2:
        raise KunnethError(f"{id_} concerns quadratic forms: p must be 2")
    if n is None:
        n = 2 if s == 2 else 3
    model = BarKmModel(p=2, factor_ns=(n,) * s, m=m)
    img = image_preset(model, image)
    notes = [_VERSAL_NOTE, _EXTENSION_NOTE, GR_M_PFISTER_NOTE]
    if img is None:
        return TheoremReport(
            id=id_,
            params={"p": 2, "n": n, "m": m, "s": s, "image": image},
            verdict=NOT_CERTIFIABLE,
            notes=["image hypotheses not supplied; the criterion cannot be run"],
        )
    gens = j_ideal(2, m, s)
    res_ok = j_res_vanishes(gens, model)
    result = star_star_check(model, img)
    holds = star_star_holds(result) and res_ok
    verdict = VERIFIED if holds else REFUTED
    return TheoremReport(
        id=id_,
        params={"p": 2, "n": n, "m": m, "s": s, "image": image},
        verdict=verdict,
        left=result,
        right={mono: {"p": False, "v": False} for mono in result},
        witnesses=[g.name for g in gens],
        notes=notes,
    )


def _verify_cor_1_3(p=2, s=2, n=2, m=1) -> TheoremReport:
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
    factors, ((name, c),), degree = w
    p_kill = _canon_coeff(p * c, ring.basis[ring.index_of(name)].torsion_exp, p) == 0
    verdict = VERIFIED if p_kill else REFUTED
    return TheoremReport(
        id="cor-1.3",
        params={"p": p, "s": s, "n": n, "m": m},
        verdict=verdict,
        left={
            "witness_product": list(factors),
            "value": [[name, c]],
            "degree": degree,
        },
        right={"order": p},
        witnesses=["*".join(factors)],
        notes=["s-th power of the torsion ideal is nonzero; the witness has "
               "additive order p"],
    )


def _verify_cor_3_5(p=2, n=2, m=1) -> TheoremReport:
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
        bar = bar_rost_ring(p, n).module()
        left["second_display"], right["second_display"] = check_cor_3_5_second(km, bar)
        second_ok = left["second_display"] == right["second_display"]
        notes.append("ungraded slotwise comparison of localized invariants")
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


def _verify_cor_3_6(p=2) -> TheoremReport:
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


def _verify_lemma_3_2(p=2, n=3) -> TheoremReport:
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
    # T = (S) decides T^2 = 0; only a nonzero one needs the ordered search to name a witness
    w = ideal_power_witness(obj.ring, ideal_generators(obj.ring, tnames), 2)
    if w is not None:
        w = ideal_power_witness(obj.ring, tnames, 2)
    verdict = VERIFIED if w is None else REFUTED
    witnesses, witness = [], None
    if w is not None:
        factors, ((name, c),), _ = w
        witnesses, witness = ["*".join(factors)], [[name, c]]
    return TheoremReport(
        id=id_,
        params=params,
        verdict=verdict,
        left={"torsion_generators": list(tnames), "witness": witness},
        right={"square": 0},
        witnesses=witnesses,
        notes=["restriction map certified to kill exactly the torsion ideal",
               *obj.notes],
    )


def _verify_thm_5_5_torsion_square(n=2) -> TheoremReport:
    obj = build_pfister_neighbor_chow(n)
    return _torsion_square_report("thm-5.5-torsion-square", obj, {"p": 2, "n": n})


def _verify_thm_5_7_torsion_square(n=2, d=None, di=()) -> TheoremReport:
    d = 2**n - 1 if d is None else d
    di = tuple(di or ())
    obj = build_excellent_quadric_chow(n, d, di)
    return _torsion_square_report(
        "thm-5.7-torsion-square", obj, {"p": 2, "n": n, "d": d, "di": list(di)}
    )


class Claim:
    """A verifier and its verify-all parameter sets, in report order; the
    parameters it reads, and those with a default, are the verifier's own
    (`signature_params`)."""

    def __init__(self, verify: Callable[..., TheoremReport], grid: tuple[dict, ...]):
        self.verify = verify
        self.params, self.optional = signature_params(verify)
        self.grid = grid


_EACH_P = tuple({"p": p} for p in (2, 3, 5))
_P_S = tuple({"p": p, "s": s} for p, s in ((2, 2), (2, 3), (3, 2), (3, 3)))
_QUADRIC_N_M = tuple({"p": 2, "n": n, "m": m} for n in (2, 3, 4) for m in range(1, n))

# Every claim id with its verifier and its verify-all grid, in report order.
CLAIMS: dict[str, Claim] = {
    "thm-1.1": Claim(_verify_thm_1_1, _EACH_P),
    "lemma-4.1": Claim(
        _verify_lemma_4_1,
        tuple(
            {"p": p, "n1": n1, "n2": n2, "m": m}
            for p, n1, n2, m in (
                (2, 2, 2, 1), (2, 3, 3, 1), (2, 3, 3, 2), (3, 2, 2, 1), (5, 2, 2, 1)
            )
        ),
    ),
    "cor-4.2": Claim(_verify_cor_4_2, _EACH_P),
    "remark-4.2-negative": Claim(_verify_remark_4_2_negative, _EACH_P),
    "thm-6.9": Claim(partial(_second_display_report, "thm-6.9"), _P_S),
    "cor-6.10": Claim(
        partial(_second_display_report, "cor-6.10", extra_notes=(_FLAG_NOTE,)),
        tuple({"p": 2, "s": s} for s in (2, 3)),
    ),
    "lemma-7.2": Claim(partial(_star_star_report, "lemma-7.2", s=2), _QUADRIC_N_M),
    "cor-7.3": Claim(
        partial(_star_star_report, "cor-7.3"),
        tuple({"p": 2, "n": 3, "m": 1, "s": s} for s in (2, 3)),
    ),
    "cor-1.3": Claim(_verify_cor_1_3, _P_S),
    "cor-3.5": Claim(
        _verify_cor_3_5, _QUADRIC_N_M + ({"p": 3, "n": 2, "m": 1}, {"p": 5, "n": 2, "m": 1})
    ),
    "cor-3.6": Claim(_verify_cor_3_6, _EACH_P),
    "lemma-3.2": Claim(
        _verify_lemma_3_2, tuple({"p": p, "n": n} for p, n in ((2, 3), (2, 4), (3, 2)))
    ),
    "thm-5.5-torsion-square": Claim(
        _verify_thm_5_5_torsion_square, tuple({"n": n} for n in (2, 3, 4))
    ),
    "thm-5.7-torsion-square": Claim(
        _verify_thm_5_7_torsion_square,
        ({"n": 2, "d": 3, "di": [2]}, {"n": 2, "d": 5, "di": [3]}, {"n": 3, "d": 7, "di": [4, 2]}),
    ),
}

THEOREM_IDS = tuple(CLAIMS)


def verify_theorem(id: str, params: dict | None = None) -> TheoremReport:
    params = dict(params or {})
    return lookup(CLAIMS, "theorem", id, params, KunnethError).verify(**params)


def default_grid() -> tuple[tuple[str, dict], ...]:
    """The parameter grid behind verify-all, in fixed report order."""
    return tuple(
        (id_, copy.deepcopy(params)) for id_, claim in CLAIMS.items() for params in claim.grid
    )
