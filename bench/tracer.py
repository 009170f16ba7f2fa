"""Span tracing of mfhrr from outside the program.

``Tracer.install()`` replaces every public function of every ``mfhrr``
module by a wrapper that records a span, in each module namespace that
binds it: ``homalg`` imports ``module_kernel`` by name, so the wrapper is
set there too, and one wrapper object serves every binding of a function.
A few class methods are wrapped on the class itself (constructors that
validate, the residue cover), and ``Poly`` multiplication and addition are
counted without spans.  Per-term helpers (monomial order keys, vector
helpers) are left alone: they run millions of times and are not layer
boundaries.

Spans stay in memory as ``(name, parent, start, end)`` and are written
once, by :meth:`Tracer.dump`, after the job.  Counts come from return
values: kernel lengths, chain term counts and ``GroebnerBasis.stats``.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from collections import Counter, defaultdict

import mfhrr

# per-term helpers: called once per monomial or term, not a layer boundary
HOT = {
    "groebner.lex_key", "groebner.term_key", "groebner.v_lead",
    "groebner.v_sub_scaled", "polyring.degrevlex_key", "polyring.wedge_sign",
}

# (module, class, method) -> span name
METHODS = {
    ("residue", "ResidueProblem", "__init__"): "residue.problem",
    ("residue", "ResidueProblem", "cover"): "residue.cover",
    ("mfcat", "MatrixFactorization", "__init__"): "mfcat.mf_build",
    ("mfcat", "Z2Complex", "__init__"): "mfcat.z2complex_build",
}
COUNTED = {("polyring", "Poly", "__mul__"): "polyring.mul_calls",
           ("polyring", "Poly", "__add__"): "polyring.add_calls"}

CHAIN_OPS = ("hochschild.b_op", "hochschild.B_op", "hochschild.sh_op",
             "hochschild.cyclic_sh_op")


def _mf_key(P, order):
    return (P.vars, P.f, P.delta0, P.delta1, order)


# span name -> function of (args, kwargs) giving a hashable input key
REUSE_KEYS = {
    "groebner.check_isolated":
        lambda a, k: (a[0], a[1] if len(a) > 1 else k.get("order", "degrevlex")),
    "residue.problem":
        lambda a, k: (a[1], tuple(a[2]), a[3] if len(a) > 3 else k.get("order")),
    "hkrtrace.chern_form": lambda a, k: _mf_key(a[0], k.get("order")),
    "hochschild.phi_construct": lambda a, k: (a, tuple(sorted(k.items()))),
}


def _modules():
    return [importlib.import_module(f"mfhrr.{m.name}")
            for m in pkgutil.iter_modules(mfhrr.__path__)]


class Tracer:
    def __init__(self):
        self.spans = []            # [name, parent index or -1, start, end]
        self._stack = []
        self.counts = Counter()    # counted calls and sizes from return values
        self.inputs = defaultdict(set)
        self.max_chain_terms = 0
        self.b_op_terms = 0

    # -- installation --------------------------------------------------------

    def install(self):
        wrappers = {}
        for mod in _modules():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("mfhrr."):
                    continue
                name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                if name in HOT:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._span_wrapper(obj, name)
                setattr(mod, attr, wrappers[id(obj)])
        for (modname, cls, meth), name in METHODS.items():
            klass = getattr(importlib.import_module(f"mfhrr.{modname}"), cls)
            setattr(klass, meth, self._span_wrapper(vars(klass)[meth], name))
        for (modname, cls, meth), name in COUNTED.items():
            klass = getattr(importlib.import_module(f"mfhrr.{modname}"), cls)
            setattr(klass, meth, self._count_wrapper(vars(klass)[meth], name))


    def _count_wrapper(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keyer = REUSE_KEYS.get(name)

        def traced(*args, **kwargs):
            if keyer is not None:
                self.inputs[name].add(keyer(args, kwargs))
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observe(self, name, args, result):
        if name == "groebner.buchberger":
            self.counts["groebner.spairs"] += result.stats["spairs"]
            self.counts["groebner.basis_size"] += result.stats["basis_size"]
        elif name == "groebner.module_kernel":
            self.counts["groebner.kernel_generators"] += len(result)
        elif name in CHAIN_OPS:
            self.max_chain_terms = max(self.max_chain_terms, len(result.terms))
            if name == "hochschild.b_op":
                self.b_op_terms += len(args[0].terms)
        elif name in ("hochschild.phi_construct", "hochschild.eta_construct"):
            for part in result.parts:
                self.max_chain_terms = max(self.max_chain_terms, len(part.terms))

    # -- summaries ----------------------------------------------------------------

    def totals(self):
        """{name: (calls, inclusive seconds, self seconds)}.

        Inclusive time counts only the outermost span of a name, so a
        function that reaches itself is not counted twice.
        """
        calls = Counter()
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for name, parent, start, end in self.spans:
            calls[name] += 1
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                inclusive[name] += end - start
        return {n: (calls[n], inclusive[n], own[n]) for n in calls}

    def metrics(self):
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        t = self.totals()

        def busy(name):
            return t.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return t.get(name, (0, 0.0, 0.0))[2]

        def reuse(name):
            calls = t.get(name, (0, 0.0, 0.0))[0]
            return len(self.inputs[name]) / calls if calls else 1.0

        b_busy = busy("hochschild.b_op")
        out = {
            "groebner.module_kernel_s": busy("groebner.module_kernel"),
            "groebner.subquotient_dim_s": busy("groebner.subquotient_dim"),
            "groebner.kernel_generators": self.counts["groebner.kernel_generators"],
            "groebner.buchberger_calls": t.get("groebner.buchberger", (0,))[0],
            "groebner.spairs": self.counts["groebner.spairs"],
            "groebner.basis_size": self.counts["groebner.basis_size"],
            "groebner.check_isolated_s": busy("groebner.check_isolated"),
            "groebner.check_isolated_reuse": reuse("groebner.check_isolated"),
            "polyring.mul_calls": self.counts["polyring.mul_calls"],
            "polyring.add_calls": self.counts["polyring.add_calls"],
            "mfcat.hom_complex_s": busy("mfcat.hom_complex"),
            "mfcat.z2complex_build_s": busy("mfcat.z2complex_build"),
            "mfcat.mf_build_s": busy("mfcat.mf_build"),
            "mfcat.mf_builds": t.get("mfcat.mf_build", (0,))[0],
            "homalg.ext_dims_self_s": self_s("homalg.ext_dims"),
            "residue.problem_s": busy("residue.problem"),
            "residue.problem_reuse": reuse("residue.problem"),
            "residue.cover_s": busy("residue.cover"),
            "residue.groth_residue_s": busy("residue.groth_residue"),
            "hkrtrace.chern_form_s": busy("hkrtrace.chern_form"),
            "hkrtrace.chern_form_reuse": reuse("hkrtrace.chern_form"),
            "pairing.calibrate_sign_s": busy("pairing.calibrate_sign"),
            "hochschild.phi_construct_s": busy("hochschild.phi_construct"),
            "hochschild.phi_reuse": reuse("hochschild.phi_construct"),
            "hochschild.eta_construct_s": busy("hochschild.eta_construct"),
            "hochschild.b_op_self_s": self_s("hochschild.b_op"),
            "hochschild.B_op_self_s": self_s("hochschild.B_op"),
            "hochschild.sh_op_self_s": self_s("hochschild.sh_op"),
            "hochschild.cyclic_sh_op_self_s": self_s("hochschild.cyclic_sh_op"),
            "hochschild.b_op_terms_per_s": self.b_op_terms / b_busy if b_busy else 0.0,
            "hochschild.max_chain_terms": self.max_chain_terms,
            "pairing.phi_eta_suite_s": busy("pairing.phi_eta_suite"),
            "pairing.shuffle_suite_s": busy("pairing.shuffle_suite"),
            "cli.dispatch_s": busy("cli.dispatch"),
            "cli.emit_report_s": busy("cli.emit_report"),
        }
        return out

    def deterministic(self):
        """Counts and reuse ratios only: two traced runs of one seed must
        agree on these exactly."""
        return {k: v for k, v in self.metrics().items() if not k.endswith("_s")}

    def dump(self, path):
        """Write the spans and the per-name totals once, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, (calls, incl, own) in sorted(self.totals().items()):
                fh.write(json.dumps({"total": name, "calls": calls,
                                     "inclusive_s": incl, "self_s": own}) + "\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
