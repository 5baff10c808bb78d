"""Spans and counts around the public functions of every liecg module.

Nothing in liecg is edited: `install` replaces each public function by a
wrapper in every module namespace that holds it, so the wrapper sits where
the caller looks the name up (``liecg.tensor.gauss`` is the wrapped
``linalg.gauss``).  A few public methods are wrapped on their class.

Each call becomes a span (name, start, end, parent span, job).  Functions
called up to hundreds of thousands of times per job (HOT) are rolled up
instead: one record per (enclosing span, name, direct, outer) with the
number of calls and their total duration, so the file stays small and self
times stay exact.  Counters are recorded at the same wrappers.

`Tracer.write_jsonl` emits one JSON object per line:
  {"span": id, "name", "start", "end", "parent": id|null, "direct", "outer", "job"}
  {"rollup": name, "parent": id|null, "direct", "outer", "calls", "dur"}
  {"count": name, "n": value}        (summed over the pass)
  {"max": name, "n": value}          (maximum over the pass)
"""

import importlib
import json
import time

MODULES = ("exactnum", "linalg", "liealg", "irrep", "tensor", "multitensor", "cli")

# public methods wrapped on their class: (module, class, method)
METHODS = (
    ("irrep", "Irrep", "check_consistency"),
    ("irrep", "ImportedIrrepData", "to_json"),
    ("irrep", "ImportedIrrepData", "from_json"),
    ("multitensor", "TensorNode", "expand"),
)

# label_key is the sort key of every LabeledVector listing; a wrapper there
# would cost more than the work it measures
SKIP = {"linalg.label_key"}

HOT = {
    "exactnum.field",
    "exactnum.number",
    "exactnum.field_sqrt",
    "exactnum.parse_field",
    # liealg is cached lookups after the first call of each argument
    "liealg.cartan",
    "liealg.root_weights",
    "liealg.positive_roots",
    "liealg.highest_root",
    "liealg.lowest_root_label",
    "liealg.adjoint_hw",
    "liealg.level_vector",
    "liealg.complete_descent",
    "liealg.freudenthal",
    "liealg.weyl_dim",
    "irrep.lower",
    "irrep.scalar_product",
    "irrep.scp_zero_weights",
    "tensor.product_lower",
    "tensor.product_scp",
    "tensor.product_weight",
    "multitensor.TensorNode.expand",
    "multitensor.tree_leaves",
    "multitensor.tree_str",
}

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []
        self.rollups = {}  # (anchor span, name, direct, outer) -> [calls, dur]
        self.counts = {}
        self.maxima = {}
        # frames: (name, span id or None, nearest span id at or above)
        self.stack = []
        self.depth = {}  # name -> calls of it now on the stack
        self.next_id = 1

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name, n):
        if n > self.maxima.get(name, 0):
            self.maxima[name] = n

    def wrap(self, fn, name, post=None):
        """A wrapper recording fn as a span, or a rollup if name is HOT.

        direct: the caller is a span (or the job itself), so this call's
        time is covered time of that span.  outer: no call of the same
        name is already on the stack, so the time counts once.
        """
        stack, depth = self.stack, self.depth
        spans, rollups = self.spans, self.rollups
        hot = name in HOT

        def wrapper(*args, **kw):
            top = stack[-1] if stack else None
            anchor = top[2] if top else None
            direct = top is None or top[1] is not None
            d = depth.get(name, 0)
            depth[name] = d + 1
            if hot:
                stack.append((name, None, anchor))
            else:
                sid = self.next_id
                self.next_id += 1
                stack.append((name, sid, sid))
            t0 = clock()
            try:
                res = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] = d
                if hot:
                    key = (anchor, name, direct, d == 0)
                    acc = rollups.get(key)
                    if acc is None:
                        rollups[key] = [1, t1 - t0]
                    else:
                        acc[0] += 1
                        acc[1] += t1 - t0
                else:
                    spans.append((sid, name, t0, t1, anchor, direct, d == 0,
                                  self.job))
            if post is not None:
                post(self, top[0] if top else None, args, kw, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, direct, outer, jid in self.spans:
                fh.write(json.dumps({
                    "span": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "direct": direct, "outer": outer,
                    "job": jid}) + "\n")
            for (parent, name, direct, outer), (calls, dur) in self.rollups.items():
                fh.write(json.dumps({
                    "rollup": name, "parent": parent, "direct": direct,
                    "outer": outer, "calls": calls, "dur": dur}) + "\n")
            for name, n in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "n": n}) + "\n")
            for name, n in sorted(self.maxima.items()):
                fh.write(json.dumps({"max": name, "n": n}) + "\n")


# ---------------------------------------------------------------- counters
# Each post hook runs after the wrapped call returns and gets the name of
# the wrapped function that called it.

def _post_product_lower(tr, caller, args, kw, res):
    if caller == "tensor.descend_irrep" and not res.is_zero():
        tr.count("tensor.descend_candidates")


def _post_descend(tr, caller, args, kw, res):
    # every state but the highest weight was kept from a lowered candidate
    tr.count("tensor.descend_kept", res.dim - 1)


def _post_gauss(tr, caller, args, kw, res):
    m = args[0]
    rhs = args[1] if len(args) > 1 else kw.get("rhs")
    cols = (len(m[0]) if m else 0) + (len(rhs[0]) if rhs else 0)
    tr.maximum("linalg.max_matrix_cells", len(m) * cols)


def _post_consistency(tr, caller, args, kw, res):
    irrep = args[0]
    labels = args[1] if len(args) > 1 else kw.get("labels")
    tr.count("irrep.consistency_states",
             irrep.dim if labels is None else len(labels))


def _post_expand(tr, caller, args, kw, res):
    if caller != "multitensor.TensorNode.expand":
        tr.count("multitensor.expanded_terms", len(res))


POST = {
    "tensor.product_lower": _post_product_lower,
    "tensor.descend_irrep": _post_descend,
    "linalg.gauss": _post_gauss,
    "irrep.Irrep.check_consistency": _post_consistency,
    "multitensor.TensorNode.expand": _post_expand,
}


def _public_functions(mod):
    """(name, function) pairs a module defines and exports."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for n in names:
        obj = getattr(mod, n)
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield n, obj


def install(tracer):
    """Wrap every public function and the METHODS; returns an undo list."""
    mods = {m: importlib.import_module(f"liecg.{m}") for m in MODULES}
    namespaces = [importlib.import_module("liecg")] + list(mods.values())
    undo = []
    for short, mod in mods.items():
        for n, fn in _public_functions(mod):
            name = f"{short}.{n}"
            if name in SKIP:
                continue
            w = tracer.wrap(fn, name, POST.get(name))
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        undo.append((ns, attr, fn))
                        setattr(ns, attr, w)
    for short, cls_name, meth in METHODS:
        cls = getattr(mods[short], cls_name)
        raw = cls.__dict__[meth]
        name = f"{short}.{cls_name}.{meth}"
        if isinstance(raw, classmethod):
            w = classmethod(tracer.wrap(raw.__func__, name, POST.get(name)))
        else:
            w = tracer.wrap(raw, name, POST.get(name))
        undo.append((cls, meth, raw))
        setattr(cls, meth, w)
    return undo


def uninstall(undo):
    for ns, attr, val in reversed(undo):
        setattr(ns, attr, val)


# ---------------------------------------------------------------- analysis

def load(path):
    spans, rollups, counts, maxima = [], [], {}, {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "span" in rec:
                spans.append(rec)
            elif "rollup" in rec:
                rollups.append(rec)
            elif "count" in rec:
                counts[rec["count"]] = rec["n"]
            else:
                maxima[rec["max"]] = rec["n"]
    return spans, rollups, counts, maxima


class Profile:
    """Per-name totals over one traced pass.

    incl[name]: time inside outermost calls of name (recursion counted once)
    self_[name]: span time not covered by direct child spans and rollups
    calls[name]: number of calls
    under[(parent, name)], pair_calls[(parent, name)]: time and number of
        name's direct calls from spans of parent
    """

    def __init__(self, path):
        spans, rollups, self.counts, self.maxima = load(path)
        names = {s["span"]: s["name"] for s in spans}
        self.incl, self.self_, self.calls = {}, {}, {}
        self.under, self.pair_calls = {}, {}
        covered = {}
        for rec in spans + rollups:
            name = rec.get("name") or rec["rollup"]
            dur = rec["end"] - rec["start"] if "span" in rec else rec["dur"]
            n = rec.get("calls", 1)
            self.calls[name] = self.calls.get(name, 0) + n
            if rec["outer"]:
                self.incl[name] = self.incl.get(name, 0.0) + dur
            parent = rec["parent"]
            if rec["direct"] and parent is not None:
                covered[parent] = covered.get(parent, 0.0) + dur
                key = (names[parent], name)
                self.under[key] = self.under.get(key, 0.0) + dur
                self.pair_calls[key] = self.pair_calls.get(key, 0) + n
        for s in spans:
            dur = s["end"] - s["start"] - covered.get(s["span"], 0.0)
            self.self_[s["name"]] = self.self_.get(s["name"], 0.0) + dur

