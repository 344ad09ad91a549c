"""Catalog of the graded rings and modules the verifiers operate on.

Each entry builds an explicit object: a ring with basis and structure
constants, usually together with its split form (`bar`), the restriction map
between them, and where relevant a presentation over k_m* or the ambient
image model.  Two functions write rules, the products g*x of each generator g
with the basis classes x: `chow_rost_ring`, the stated Chow presentation of a
Rost-type motive, and `tower_ring`, a truncated polynomial ring in one class
with side towers (the split forms and the quadric Chow rings).  The gr_m rings are certified quotients of these (`ring_quotient`),
as is their Kunneth ring gr_m(R')^{(x) s}/J (`kunneth.kunneth_quotient_ring`).
Independent construction paths (ambient collapse, v -> 0 of the k_m*
presentation) live in other modules and are compared against these in the
verifier suite.

Each ring is built and audited once per process: `tower_ring`,
`_chow_rost_ring` and `_gr_m_rost_ring` keep the 64 rings used last, and
callers share them read-only.  The public `chow_rost_ring` and
`gr_m_rost_ring` stay plain functions that delegate to the cached ones, as
the benchmark tracer wraps them by name.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, partial

from .exact_linalg import is_prime
from .graded import GradedFPModule, GradedMap
from .km import KmPresentation
from .omega import (
    BasisClass,
    OmegaImageModel,
    PresentedRing,
    _c,
    _power,
    c_degree,
    ring_quotient,
    ring_tensor,
    tensor_name,
    y_degree,
)
from .record import Record


class CatalogError(ValueError):
    pass


class CatalogObject(Record):
    _fields = ("id", "params", "ring", "bar", "res", "km", "omega", "notes")

    def __init__(
        self, id: str, params: dict, ring: PresentedRing | None = None,
        bar: PresentedRing | None = None, res: GradedMap | None = None,
        km: KmPresentation | None = None, omega: OmegaImageModel | None = None,
        notes: tuple[str, ...] = (),
    ):
        self.id = id
        self.params = params
        self.ring = ring
        self.bar = bar
        self.res = res
        self.km = km
        self.omega = omega
        self.notes = notes

    def module(self) -> GradedFPModule:
        if self.ring is None:
            raise CatalogError(f"{self.id} has no ring presentation")
        return self.ring.module()


def map_from_rules(
    source: GradedFPModule, target: GradedFPModule, rules: dict
) -> GradedMap:
    """GradedMap from rules {src_name: ((tgt_name, coeff), ...)}; unruled names map to 0."""
    if unknown := rules.keys() - {nm for c in source.components.values() for nm in c.names or ()}:
        source.generator_index(min(unknown))  # raises: no generator of that name
    columns: dict[int, dict[int, dict[int, int]]] = {}
    for d, comp in source.components.items():
        for j, src_name in enumerate(comp.names or ()):
            col: dict[int, int] = {}
            for tgt_name, coeff in rules.get(src_name, ()):
                td, i = target.generator_index(tgt_name)
                if td != d:
                    raise CatalogError(
                        f"rule {src_name} -> {tgt_name} does not preserve degree"
                    )
                col[i] = col.get(i, 0) + coeff
            if col:
                columns.setdefault(d, {})[j] = col
    gm = GradedMap(source=source, target=target, columns=columns)
    check = gm.well_defined()
    if not check:
        raise CatalogError("map not well defined: " + "; ".join(check.diffs))
    return gm


def _sorted_ring(p: int, classes, generators, rules) -> PresentedRing:
    """Assemble and audit a PresentedRing from name-level data.

    `rules` maps (generator, class) name pairs to ((name, coeff), ...), the
    product g*x; missing pairs multiply to zero and g*1 = g is added.
    """
    classes = sorted(classes, key=lambda b: (b.degree, b.name))
    index = {b.name: k for k, b in enumerate(classes)}
    unit = index["1"]
    ops = {index[g]: {unit: {index[g]: 1}} for g in generators}
    for (g, x), terms in rules.items():
        col = ops[index[g]].setdefault(index[x], {})
        for name, coeff in terms:
            col[index[name]] = col.get(index[name], 0) + coeff
    ring = PresentedRing(p, tuple(classes), unit, ops)
    ring.audit()
    return ring


# ---------------------------------------------------------------------------
# Rost-type entries
# ---------------------------------------------------------------------------


def _require_prime(p: int):
    if not is_prime(p):
        raise CatalogError(f"p={p} must be prime")


def _require_n(n: int):
    if n < 2:
        raise CatalogError(f"n={n} must be >= 2")


def _times(name: str, var: str, k: int) -> str:
    """The name of the class name * var^k."""
    return name if k == 0 else f"{name}*{_power(var, k)}"


def chow_rost_ring(p: int, n: int, var: str = "y") -> PresentedRing:
    """Chow ring of a Rost-type motive: free classes 1, c_0(y^j); p-torsion
    classes c_i(y^j) for 1 <= i <= n-1; the only nonzero products are
    c_0(Y) c_0(Y') = p c_0(YY')."""
    _require_prime(p)
    _require_n(n)
    return _chow_rost_ring(p, n, var)


@lru_cache(maxsize=64)
def _chow_rost_ring(p: int, n: int, var: str) -> PresentedRing:
    classes = [BasisClass("1", 0, 0)]
    for j in range(1, p):
        classes.append(BasisClass(_c(0, j, var), c_degree(p, n, 0, j), 0))
        for i in range(1, n):
            classes.append(BasisClass(_c(i, j, var), c_degree(p, n, i, j), 1))
    rules = {
        (_c(0, a, var), _c(0, b, var)): ((_c(0, a + b, var), p),)
        for a in range(1, p)
        for b in range(1, p - a)
    }
    gens = [_c(i, j, var) for j in range(1, p) for i in range(0, n)]
    return _sorted_ring(p, classes, gens, rules)


@lru_cache(maxsize=64)
def tower_ring(
    p: int, var: str, var_degree: int, top: int, towers=(), wrap: int = 0
) -> PresentedRing:
    """Z_(p)[x]/(x^{top+1} - wrap*X_1) on x = `var` of degree `var_degree`,
    with side towers.

    Each tower (X, degree of X, length, e) adds classes X x^k for k < length,
    of order p^e, with x^a (X x^k) = X x^{a+k} (zero once a+k reaches the
    length) and (X x^k)(X' x^l) = 0.  A power x^t past the top is wrap
    times X_1 x^{t-top-1}, X_1 the first tower; zero when wrap is 0.  The
    generators are x and the X; `towers` is a tuple, as the ring is cached.
    """
    power = [_power(var, k) for k in range(top + 1)]
    classes = [BasisClass(power[k], k * var_degree, 0) for k in range(top + 1)]
    rules = {(var, power[k]): ((power[k + 1], 1),) for k in range(1, top)}
    if wrap:
        rules[(var, power[top])] = ((towers[0][0], wrap),)
    for name, degree, length, exp in towers:
        for k in range(length):
            classes.append(BasisClass(_times(name, var, k), degree + k * var_degree, exp))
            if k + 1 < length:
                rules[(var, _times(name, var, k))] = ((_times(name, var, k + 1), 1),)
            if 0 < k <= top:
                rules[(name, power[k])] = ((_times(name, var, k), 1),)
    return _sorted_ring(p, classes, [var] + [t[0] for t in towers], rules)


def bar_rost_ring(p: int, n: int, var: str = "y") -> PresentedRing:
    """Split form: the truncated polynomial ring on one class of degree
    (p^n - 1)/(p - 1)."""
    _require_prime(p)
    _require_n(n)
    return tower_ring(p, var, y_degree(p, n), p - 1)


def rost_res_rules(p: int, n: int, var: str = "y") -> dict:
    rules = {"1": (("1", 1),)}
    for j in range(1, p):
        rules[_c(0, j, var)] = ((_power(var, j), p),)
        for i in range(1, n):
            rules[_c(i, j, var)] = ()
    return rules


def build_chow_rost(p: int, n: int) -> CatalogObject:
    ring = chow_rost_ring(p, n)
    bar = bar_rost_ring(p, n)
    res = map_from_rules(ring.module(), bar.module(), rost_res_rules(p, n))
    return CatalogObject(
        id="chow_rost",
        params={"p": p, "n": n},
        ring=ring,
        bar=bar,
        res=res,
        omega=OmegaImageModel(p, (n,)),
    )


def build_bar_rost(p: int, n: int) -> CatalogObject:
    return CatalogObject(
        id="bar_rost", params={"p": p, "n": n}, ring=bar_rost_ring(p, n)
    )


def build_omega_image_rost(p: int, n: int) -> CatalogObject:
    _require_prime(p)
    _require_n(n)
    return CatalogObject(
        id="omega_image_rost", params={"p": p, "n": n}, omega=OmegaImageModel(p, (n,))
    )


def km_rost(p: int, n: int, m: int) -> KmPresentation:
    """Presentation of the connective theory of a Rost-type motive.

    For m >= n everything is scalar-extended from the Chow ring.  For
    m <= n-1 the classes c_i (i != 0, m) are (p, v)-torsion and c_m, c_0 are
    amalgamated along p*c_m = v*c_0.
    """
    _require_prime(p)
    _require_n(n)
    if m < 1:
        raise CatalogError("m must be >= 1")
    gens: list[tuple[str, int]] = [("1", 0)]
    for j in range(1, p):
        gens.append((_c(0, j, "y"), c_degree(p, n, 0, j)))
        for i in range(1, n):
            gens.append((_c(i, j, "y"), c_degree(p, n, i, j)))
    gidx = {name: k for k, (name, _) in enumerate(gens)}
    rels = []  # terms (generator, coefficient, power of v)
    for j in range(1, p):
        for i in range(1, n):
            c_ij = gidx[_c(i, j, "y")]
            if m >= n:
                rels.append(((c_ij, p, 0),))
            elif i == m:
                rels.append(((gidx[_c(0, j, "y")], -1, 1), (c_ij, p, 0)))
            else:
                rels += [((c_ij, p, 0),), ((c_ij, 1, 1),)]
    return KmPresentation(p=p, m=m, gens=tuple(gens), rels=tuple(rels))


def build_km_rost(p: int, n: int, m: int) -> CatalogObject:
    return CatalogObject(
        id="km_rost", params={"p": p, "n": n, "m": m}, km=km_rost(p, n, m)
    )


def gr_m_rost_ring(p: int, n: int, m: int, var: str = "y") -> PresentedRing:
    """Geometric-filtration graded ring: the Chow ring modulo the torsion
    classes c_i with i != 0, m (all of them survive when m >= n)."""
    return _gr_m_rost_ring(p, n, m, var)


@lru_cache(maxsize=64)
def _gr_m_rost_ring(p: int, n: int, m: int, var: str) -> PresentedRing:
    torsion = range(1, n) if m < n else ()
    killed = [_c(i, j, var) for j in range(1, p) for i in torsion if i != m]
    return ring_quotient(chow_rost_ring(p, n, var), killed)


def build_gr_m_rost(p: int, n: int, m: int) -> CatalogObject:
    if m < 1:
        raise CatalogError("m must be >= 1")
    return CatalogObject(
        id="gr_m_rost",
        params={"p": p, "n": n, "m": m},
        ring=gr_m_rost_ring(p, n, m),
        km=km_rost(p, n, m),
    )


def build_product_rost(p: int, n: int) -> CatalogObject:
    return product_rost(chow_rost_ring(p, n, var="y_1"), n)


def product_rost(chow1: PresentedRing, n: int) -> CatalogObject:
    """Two-factor product: the Chow ring chow1 = chow_rost_ring(p, n,
    var="y_1") of the first factor tensored with the split truncated
    polynomial ring of the second.  A caller that needs chow1 as well
    (`kunneth.kunneth_map`) builds it once and hands it to both."""
    p = chow1.p
    bar1 = bar_rost_ring(p, n, var="y_1")
    bar2 = bar_rost_ring(p, n, var="y_2")
    ring = ring_tensor(chow1, bar2)
    bar = ring_tensor(bar1, bar2)
    rules = {
        tensor_name(src, _power("y_2", j)): tuple(
            (tensor_name(tgt, _power("y_2", j)), c) for tgt, c in images
        )
        for j in range(p)
        for src, images in rost_res_rules(p, n, var="y_1").items()
    }
    res = map_from_rules(ring.module(), bar.module(), rules)
    return CatalogObject(
        id="product_rost", params={"p": p, "n": n}, ring=ring, bar=bar, res=res
    )


# ---------------------------------------------------------------------------
# quadric-side entries (p = 2)
# ---------------------------------------------------------------------------


def _require_p2(p: int):
    if p != 2:
        raise CatalogError("quadric-side entries exist only at p = 2")


def pfister_neighbor_ring(n: int) -> PresentedRing:
    """Chow ring of a maximal neighbor: polynomial class h with u_0 = h^{2^n-1},
    torsion classes u_1..u_{n-1}; relations u_i u_j = 0 and 2 u_k = 0 (k >= 1).

    The monomial basis this produces: h^k free for k <= 2^{n+1}-3 (the square
    u_0^2 kills everything above) and u_i h^k torsion for k <= 2^n-2."""
    _require_n(n)
    u = tuple((f"u_{i}", 2**n - 2**i, 2**n - 1, 1) for i in range(1, n))
    return tower_ring(2, "h", 1, 2 ** (n + 1) - 3, u)


def pfister_bar_ring(n: int) -> PresentedRing:
    """Split form: Z_(2)[y, h]/(y^2, h^{2^n-1} - 2y).

    The relation forces y h^k = 0 for k >= 2^n-1 (multiply it by y), so the
    additive basis is h^k and y h^k with k <= 2^n-2; the top class y h^{2^n-2}
    sits in degree 2^{n+1}-3, inside the dimension bound 2^{n+1}-1."""
    _require_n(n)
    return tower_ring(2, "h", 1, 2**n - 2, (("y", 2**n - 1, 2**n - 1, 0),), wrap=2)


def pfister_res_rules(n: int) -> dict:
    rules = {}
    for k in range(2 ** (n + 1) - 2):
        over = k - (2**n - 1)  # past the top of the split form, h^k = 2 y h^over
        if over < 0:
            rules[_power("h", k)] = ((_power("h", k), 1),)
        else:
            rules[_power("h", k)] = ((_times("y", "h", over), 2),)
    for i in range(1, n):
        for k in range(2**n - 1):
            rules[_times(f"u_{i}", "h", k)] = ()
    return rules


def build_pfister_neighbor_chow(n: int, p: int = 2) -> CatalogObject:
    _require_p2(p)
    ring = pfister_neighbor_ring(n)
    bar = pfister_bar_ring(n)
    res = map_from_rules(ring.module(), bar.module(), pfister_res_rules(n))
    return CatalogObject(
        id="pfister_neighbor_chow", params={"p": 2, "n": n}, ring=ring, bar=bar, res=res
    )


def gr_m_pfister_ring(n: int, m: int) -> PresentedRing:
    """Geometric graded of a maximal neighbor: the Chow ring modulo the
    torsion classes u_i h^k with i != m (everything survives when m >= n)."""
    if m < 1:
        raise CatalogError("m must be >= 1")
    torsion = range(1, n) if m < n else ()
    killed = [_times(f"u_{i}", "h", k) for i in torsion if i != m for k in range(2**n - 1)]
    return ring_quotient(pfister_neighbor_ring(n), killed)


GR_M_PFISTER_NOTE = (
    "relation 2*u_m used in place of the squared form 2*u_m^2; "
    "with u_m^2 = 0 the squared relation is redundant and would leave u_m "
    "integral, contradicting the stated additive structure"
)


def build_gr_m_pfister(n: int, m: int, p: int = 2) -> CatalogObject:
    _require_p2(p)
    return CatalogObject(
        id="gr_m_pfister",
        params={"p": 2, "n": n, "m": m},
        ring=gr_m_pfister_ring(n, m),
        notes=(GR_M_PFISTER_NOTE,),
    )


def excellent_quadric_ring(n: int, d: int, di: tuple[int, ...]) -> PresentedRing:
    """Chow ring of an excellent quadric of odd dimension d: h^{d+1} = 0,
    torsion classes c_i(d) with h^{d_i} c_i(d) = 0, 2 c_i(d) = 0 and
    c_i(d) c_j(d) = 0.  The cutoffs d_i are caller-supplied data."""
    _require_n(n)
    if d % 2 == 0:
        raise CatalogError(f"d={d} must be odd")
    if not (2**n - 1 <= d <= 2 ** (n + 1) - 2):
        raise CatalogError(f"d={d} out of range for n={n}")
    di = tuple(int(x) for x in di)
    if len(di) != n - 1:
        raise CatalogError(f"expected {n - 1} cutoffs d_i, got {len(di)}")
    if any(x <= 0 for x in di) or any(a < b for a, b in zip(di, di[1:])):
        raise CatalogError("cutoffs d_i must be positive and nonincreasing")
    c = tuple((f"c_{i}(d)", 2**n - 2**i, di[i - 1], 1) for i in range(1, n))
    return tower_ring(2, "h", 1, d, c)


def excellent_bar_ring(d: int) -> PresentedRing:
    """Split-side image model: the free ring Z_(2)[h]/(h^{d+1})."""
    return tower_ring(2, "h", 1, d)


def build_excellent_quadric_chow(n: int, d: int, di=(), p: int = 2) -> CatalogObject:
    _require_p2(p)
    ring = excellent_quadric_ring(n, d, tuple(di))
    bar = excellent_bar_ring(d)
    rules = {b.name: () if b.torsion_exp else ((b.name, 1),) for b in ring.basis}
    res = map_from_rules(ring.module(), bar.module(), rules)
    return CatalogObject(
        id="excellent_quadric_chow",
        params={"p": 2, "n": n, "d": d, "di": list(di)},
        ring=ring,
        bar=bar,
        res=res,
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def signature_params(fn) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The parameters `fn` reads, in order, and those of them with a default:
    its positional-or-keyword arguments, less those a `partial` binds."""
    args, bound = (fn.args, fn.keywords) if isinstance(fn, partial) else ((), {})
    fn = getattr(fn, "func", fn)
    names = fn.__code__.co_varnames[: fn.__code__.co_argcount]
    defaulted = names[len(names) - len(fn.__defaults__ or ()) :]
    params = tuple(k for k in names[len(args) :] if k not in bound)
    return params, tuple(k for k in params if k in defaulted)


class Entry:
    """A catalog builder and whether its object carries a ring; the
    parameters it reads, and those with a default, are the builder's own.
    A plain class, like every class of the package (see `record`)."""

    def __init__(self, build: Callable[..., CatalogObject], ring=True):
        self.build = build
        self.params, self.optional = signature_params(build)
        self.ring = ring


# Every catalog id with its builder; the id list and the CLI choices (for the
# ring verbs, RING_IDS) come from it.  Entries are build_* functions only: a
# ring constructor held here would be called past any wrapper later bound to
# its module name, such as the benchmark tracer's.
CATALOG: dict[str, Entry] = {
    "chow_rost": Entry(build_chow_rost),
    "bar_rost": Entry(build_bar_rost),
    "omega_image_rost": Entry(build_omega_image_rost, ring=False),
    "km_rost": Entry(build_km_rost, ring=False),
    "gr_m_rost": Entry(build_gr_m_rost),
    "product_rost": Entry(build_product_rost),
    "pfister_neighbor_chow": Entry(build_pfister_neighbor_chow),
    "gr_m_pfister": Entry(build_gr_m_pfister),
    "excellent_quadric_chow": Entry(build_excellent_quadric_chow),
}

CATALOG_IDS = tuple(CATALOG)
RING_IDS = tuple(id_ for id_, entry in CATALOG.items() if entry.ring)


def flags(names) -> str:
    return ", ".join("--" + k for k in names)


def catalog_build(id: str, params: dict) -> CatalogObject:
    entry = CATALOG.get(id)
    if entry is None:
        raise CatalogError(f"unknown catalog id {id!r}")
    unread = [k for k in params if k not in entry.params]
    if unread:
        raise CatalogError(f"{id} does not read {flags(unread)}; it reads {flags(entry.params)}")
    for k in entry.params:
        if k not in params and k not in entry.optional:
            raise CatalogError(f"{id} requires parameter {k!r}")
    return entry.build(**params)
