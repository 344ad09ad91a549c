"""Per-layer tracing from outside rostcalc: wrap public functions, count, time.

Every function in `TARGETS` is replaced by a timing wrapper in every rostcalc
module that bound it (`from .exact_linalg import membership` makes a separate
binding in each importer), and methods are replaced on their class.  A
wrapper records calls and self time: the call's wall time minus the time of
the wrapped calls nested in it, and minus the tracer's own bookkeeping.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time

TARGETS = {
    "exact_linalg": ("snf_p_local", "membership", "kernel_basis", "snf_fp_poly", "zp_poly_det"),
    "graded": ("normalize", "tensor_product", "gr_ps", "iso_equal", "GradedMap.well_defined"),
    "omega": (
        "PresentedRing.multiply",
        "PresentedRing.audit",
        "chow_collapse",
        "ideal_power_witness",
        "ring_tensor",
        "torsion_ideal",
    ),
    "km": ("localize_v", "v_torsion_generators", "slice_membership", "gr_geometric", "to_chow"),
    "catalog": (
        "catalog_build",
        "chow_rost_ring",
        "bar_rost_ring",
        "gr_m_rost_ring",
        "pfister_neighbor_ring",
        "excellent_quadric_ring",
        "km_rost",
    ),
    "kunneth": (
        "verify_theorem",
        "BarKmModel.span_contains",
        "star_star_check",
        "kunneth_quotient_ring",
        "kunneth_map",
        "c_decomposition",
    ),
    "cli": ("main",),
}

# Theorem ids of `verify_theorem`, one inclusive-time metric each.
THEOREM_IDS = (
    "thm-1.1",
    "lemma-4.1",
    "cor-4.2",
    "remark-4.2-negative",
    "thm-6.9",
    "cor-6.10",
    "lemma-7.2",
    "cor-7.3",
    "cor-1.3",
    "cor-3.5",
    "cor-3.6",
    "lemma-3.2",
    "thm-5.5-torsion-square",
    "thm-5.7-torsion-square",
)

# name -> (unit, better) of every metric a traced run reports.
METRICS: dict[str, tuple[str, str]] = {}
for _layer, _names in TARGETS.items():
    for _name in _names:
        METRICS[f"{_layer}.{_name}.calls"] = ("count", "lower")
        METRICS[f"{_layer}.{_name}.self_s"] = ("s", "lower")
METRICS.update(
    {
        "exact_linalg.snf_p_local.max_entry_bits": ("bits", "lower"),
        "exact_linalg.snf_p_local.max_rows": ("count", "lower"),
        "exact_linalg.snf_p_local.max_cols": ("count", "lower"),
        "exact_linalg.snf_p_local.cells": ("count", "lower"),
        "exact_linalg.snf_p_local.repeat_frac": ("frac", "lower"),
        "exact_linalg.membership.hit_frac": ("frac", "higher"),
        "omega.PresentedRing.audit.max_basis": ("count", "lower"),
        "omega.PresentedRing.audit.sampled_calls": ("count", "lower"),
    }
)
for _id in THEOREM_IDS:
    METRICS[f"kunneth.verify.{_id}.incl_s"] = ("s", "lower")
METRICS["trace.overhead_frac"] = ("frac", "lower")


class TraceError(RuntimeError):
    pass


class Tracer:
    """Counters for one traced pass; `install` wraps rostcalc in place."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.originals: dict[str, object] = {}
        self.wrappers: dict[str, object] = {}
        self._stack = [0.0]
        self._snf_seen: set = set()
        self.snf_repeats = 0
        self.snf_max_bits = 0
        self.snf_max_rows = 0
        self.snf_max_cols = 0
        self.snf_cells = 0
        self.membership_hits = 0
        self.audit_max_basis = 0
        self.audit_sampled = 0
        self._assoc_limit = None
        self.verify_incl_s = dict.fromkeys(THEOREM_IDS, 0.0)

    # -- observers: extra counters, run after the call's own timing ----------

    def _observe_snf(self, args, kwargs, result, elapsed):
        M = args[0]
        key = (M.p, M.rows, M.cols, M.entries)
        if key in self._snf_seen:
            self.snf_repeats += 1
        else:
            self._snf_seen.add(key)
        self.snf_max_rows = max(self.snf_max_rows, M.rows)
        self.snf_max_cols = max(self.snf_max_cols, M.cols)
        self.snf_cells += M.rows * M.cols
        bits = max(
            (abs(x).bit_length() for part in (result.U, result.V) for row in part for x in row),
            default=0,
        )
        bits = max(bits, max((abs(d).bit_length() for d in result.diag), default=0))
        self.snf_max_bits = max(self.snf_max_bits, bits)

    def _observe_membership(self, args, kwargs, result, elapsed):
        if result is not None:
            self.membership_hits += 1

    def _observe_audit(self, args, kwargs, result, elapsed):
        # The seed-commit audit checks all N^3 triples only when N^3 is at
        # most `assoc_limit`, else only triples whose first two are
        # generators; an audit without that parameter is not counted.
        n = len(args[0].basis)
        self.audit_max_basis = max(self.audit_max_basis, n)
        limit = args[1] if len(args) > 1 else kwargs.get("assoc_limit", self._assoc_limit)
        if limit is not None and n**3 > limit:
            self.audit_sampled += 1

    def _observe_verify(self, args, kwargs, result, elapsed):
        id_ = args[0] if args else kwargs["id"]
        if id_ in self.verify_incl_s:  # an id added later has no metric yet
            self.verify_incl_s[id_] += elapsed

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                nested = stack.pop()
                calls[name] += 1
                self_s[name] += t1 - t0 - nested
                if done and observe is not None:
                    observe(args, kwargs, result, t1 - t0)
                stack[-1] += clock() - t0
            return result

        return wrapper

    def reset_stack(self):
        """Drop frames left open by an item that was interrupted."""
        del self._stack[1:]
        self._stack[0] = 0.0

    def install(self):
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "rostcalc" or name.startswith("rostcalc.")
        }
        observers = {
            "exact_linalg.snf_p_local": self._observe_snf,
            "exact_linalg.membership": self._observe_membership,
            "omega.PresentedRing.audit": self._observe_audit,
            "kunneth.verify_theorem": self._observe_verify,
        }
        for layer, names in TARGETS.items():
            home = modules.get(f"rostcalc.{layer}")
            if home is None:
                raise TraceError(f"rostcalc.{layer} is not imported")
            for qual in names:
                name = f"{layer}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                orig = vars(owner).get(attr)
                if orig is None or getattr(orig, "__module__", None) != home.__name__:
                    raise TraceError(f"{name} is not defined in {home.__name__}")
                if name == "omega.PresentedRing.audit":
                    param = inspect.signature(orig).parameters.get("assoc_limit")
                    self._assoc_limit = None if param is None else param.default
                wrapper = self.wrap(name, orig, observers.get(name))
                self.originals[name] = orig
                self.wrappers[name] = wrapper
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)

    def check_no_bypass(self):
        """Fail if anything but a wrapper still refers to an original function.

        A binding the install loop missed (a module global, a class attribute,
        a dict of callbacks, a closure cell) would let calls bypass the
        counters; the garbage collector sees every such reference.
        """
        gc.collect()
        allowed = {id(self.originals)}
        for wrapper in self.wrappers.values():
            allowed.add(id(wrapper.__dict__))  # __wrapped__
            allowed.update(id(cell) for cell in wrapper.__closure__)
        for name in list(self.originals):
            # Looked up by key: an items() iterator would hold a tuple with it.
            for ref in gc.get_referrers(self.originals[name]):
                if id(ref) not in allowed:
                    raise TraceError(
                        f"{name} is still referenced by a {type(ref).__name__} "
                        f"{str(ref)[:200]}; "
                        "calls through it would not be counted"
                    )

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        snf_calls = self.calls["exact_linalg.snf_p_local"]
        member_calls = self.calls["exact_linalg.membership"]
        out.update(
            {
                "exact_linalg.snf_p_local.max_entry_bits": self.snf_max_bits,
                "exact_linalg.snf_p_local.max_rows": self.snf_max_rows,
                "exact_linalg.snf_p_local.max_cols": self.snf_max_cols,
                "exact_linalg.snf_p_local.cells": self.snf_cells,
                "exact_linalg.snf_p_local.repeat_frac": self.snf_repeats / snf_calls
                if snf_calls
                else 0.0,
                "exact_linalg.membership.hit_frac": self.membership_hits / member_calls
                if member_calls
                else 0.0,
                "omega.PresentedRing.audit.max_basis": self.audit_max_basis,
                "omega.PresentedRing.audit.sampled_calls": self.audit_sampled,
            }
        )
        for id_, seconds in self.verify_incl_s.items():
            out[f"kunneth.verify.{id_}.incl_s"] = seconds
        return out
