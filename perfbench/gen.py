"""Seeded corpus generators for the PDT pipeline benchmark.

Each generator writes PDT-C++ sources that g++ also accepts and returns a
manifest of what it emitted: classes with their bases, routines, distinct
template instantiations, call edges, the planted defects pdbcheck must
report, the share of files the edit touches, and a call-count model of the
program's routines. The checks in oracle.py compare the program's outputs
against this manifest, never against stored output.

Two shapes:

* wide -- many small translation units sharing one templated library
  header (build_wide, query_serve). Names, loop bounds and where the
  defects sit are drawn from the seed.
* deep -- a few long template-heavy units in the pooma_mini/expr_mini
  style (build_deep). Its declarations are fixed; the seed draws the loop
  bounds, constants, kernel names and the long def-use-rich bodies. The
  profiled routine set therefore does not depend on the seed, which keeps
  the profile-link failures a fixed share of every run.
"""

import os
import random

SYLLABLES = ["ka", "lo", "mi", "ne", "ru", "ta", "vi", "zo", "pe", "su",
             "da", "fi", "go", "hu", "je", "xo", "ba", "ce", "wu", "yi"]


class Namer:
    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def __call__(self, prefix):
        while True:
            name = prefix + "".join(self.rng.choice(SYLLABLES) for _ in range(3))
            if name not in self.used:
                self.used.add(name)
                return name


def _spread(rng, values, n):
    """n values cycling through `values`, in a seeded order: the seed moves
    sizes around the corpus but never changes their sum."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _write(root, rel, text):
    path = os.path.join(root, rel)
    with open(path, "w") as f:
        f.write(text)


MAIN_ARGS = """\
int main(int argc, char** argv) {
    int reps = 0;
    if (argc > 1) {
        const char* s = argv[1];
        while (*s != 0) {
            reps = reps * 10 + (*s - '0');
            s++;
        }
    }
    if (reps < 1)
        reps = 1;
"""


class Manifest:
    """What a generator emitted, in the shape the oracle compares."""

    def __init__(self, shape):
        self.shape = shape
        self.classes = {}          # class name -> base class name or None
        self.routines = []         # qualified routine names (multiset)
        self.instantiations = set()  # class template instantiations
        self.edges = set()         # (caller, callee) qualified names
        self.defects = {}          # rule -> sorted list of entity/file keys
        self.sources = []          # every generated file, relative
        self.tus = []              # translation units in build order
        self.instrumented = []     # files the instrumentor rewrites
        self.edit = {}             # file -> (old text, new text)
        self.renamed = {}          # old routine name -> new routine name
        self.per_rep = {}          # profiled routine row -> calls per rep
        self.per_run = {}          # profiled routine row -> calls per process
        self.point_names = []      # names the load generator looks up
        self.defuse_routines = []  # routines the load generator asks defuse for
        self.extra_tu = None       # a TU that today's parser rejects

    def to_json(self):
        return {
            "shape": self.shape,
            "classes": self.classes,
            "routines": sorted(self.routines),
            "instantiations": sorted(self.instantiations),
            "edges": sorted(list(e) for e in self.edges),
            "defects": self.defects,
            "sources": self.sources,
            "tus": self.tus,
            "instrumented": self.instrumented,
            "edit": {k: list(v) for k, v in self.edit.items()},
            "renamed": self.renamed,
            "per_rep": self.per_rep,
            "per_run": self.per_run,
            "point_names": self.point_names,
            "defuse_routines": self.defuse_routines,
            "extra_tu": self.extra_tu,
        }


def _add(d, key, n):
    d[key] = d.get(key, 0) + n


# --------------------------------------------------------------------------
# wide shape


N_CELLS = 10  # class templates in the shared library header
HELPERS = 10  # helper routines per wide TU


def generate_wide(root, seed, n_tus):
    rng = random.Random(seed * 7919 + n_tus)
    name = Namer(rng)
    m = Manifest("wide")
    os.makedirs(root, exist_ok=True)

    # Library header: three cell templates used at two types each, one
    # fold function template, and a small polymorphic hierarchy.
    cells = []
    for _ in range(N_CELLS):
        cells.append({"cls": name("Cell"), "get": name("get"), "put": name("put"),
                      "cap": name("cap"), "more": [name("op") for _ in range(4)]})
    fold = name("fold")
    base, der1, der2, area = name("Shape"), name("Sq"), name("Tri"), name("area")
    lib = ["#ifndef WIDE_LIB_H", "#define WIDE_LIB_H", ""]
    for c in cells:
        lib.append(f"""template <class T>
class {c['cls']} {{
public:
    explicit {c['cls']}(int n) : n_(n), v_(T()) {{}}
    T {c['get']}() const {{ return v_; }}
    void {c['put']}(const T& x) {{ v_ = v_ + x; }}
    int {c['cap']}() const {{ return n_; }}
    int size() const {{ return n_ + 1; }}
""" + "".join(f"""    T {op}(const T& x) const {{ return v_ * x + T({i}); }}
""" for i, op in enumerate(c["more"])) + f"""private:
    int n_;
    T v_;
}};
""")
    lib.append(f"""template <class C>
int {fold}(const C& c, int k) {{
    int s = 0;
    for (int i = 0; i < k; i++)
        s = s + c.size();
    return s;
}}

class {base} {{
public:
    virtual ~{base}() {{}}
    virtual int {area}() const {{ return 1; }}
}};

class {der1} : public {base} {{
public:
    int {area}() const {{ return 2; }}
}};

class {der2} : public {base} {{
public:
    int {area}() const {{ return 3; }}
}};

#endif
""")
    _write(root, "wlib.h", "\n".join(lib))
    m.sources.append("wlib.h")

    m.classes[base] = None
    m.classes[der1] = base
    m.classes[der2] = base
    m.routines += [f"{base}::~{base}", f"{base}::{area}", f"{der1}::{area}",
                   f"{der2}::{area}"]
    types = ["int", "double", "long"]

    # Which TU hosts which planted defect.
    picks = rng.sample(range(n_tus), 4)
    rec_tu, cyc_tu, dead_tu, store_tu = picks
    rec_a, rec_b = name("even"), name("odd")
    cyc_val, cyc_f = name("cyca"), name("cycb")
    dead1, dead_uninit = name("unused"), name("stale")
    rec_depth = 7

    # The TU with the include cycle is never cached (its dependency scan
    # warns), so the edit avoids it: every warm rebuild recompiles exactly
    # the edited TUs plus that one.
    edit_count = max(1, n_tus // 8)
    edited = set(rng.sample([i for i in range(n_tus) if i != cyc_tu], edit_count))

    decls = ["#ifndef WIDE_DECL_H", "#define WIDE_DECL_H", ""]
    entries = []
    used_inst_cls = set()
    used_fold = set()
    args = _spread(rng, [2, 3, 4, 5, 6], n_tus)
    bounds = _spread(rng, list(range(8, 25)), n_tus)
    for i in range(n_tus):
        tu = f"tu_{i:03d}.cpp"
        wf = name("wf")
        entries.append((wf, args[i]))
        decls.append(f"int {wf}(int n);")
        helpers = []
        body = ['#include "wlib.h"']
        if i == cyc_tu:
            body.append('#include "wcyc_a.h"')
        body.append("")
        n_help = HELPERS
        bound = bounds[i]
        for j in range(n_help):
            h = name("h")
            c = cells[rng.randrange(N_CELLS)]
            t = types[rng.randrange(len(types))]
            inst = f"{c['cls']}<{t}>"
            used_inst_cls.add((c["cls"], t))
            used_fold.add(inst)
            k = 1 + j % 3
            extra = ""
            if i == store_tu and j == 0:
                # Planted dead store: the second write to `t` is never read.
                extra = ("    int t = n * 2;\n    int r2 = t + 1;\n"
                         "    t = r2 * 3;\n    acc = acc + r2;\n")
            body.append(f"""int {h}(int n) {{
    {inst} c(n);
    int acc = 0;
{extra}    for (int k = 0; k < n; k++) {{
        c.{c['put']}(k);
        acc = acc + c.{c['cap']}();
    }}
    return acc + {fold}(c, {k});
}}
""")
            helpers.append(h)
            m.routines.append(h)
            m.edges.add((h, f"{inst}::{c['cap']}"))
            m.edges.add((h, f"{inst}::{c['put']}"))
            m.edges.add((h, f"{inst}::{c['cls']}"))
            m.edges.add((h, fold))
        if i % 5 == 0:
            # Polymorphic use keeps the hierarchy alive.
            h = name("h")
            der = der1 if i % 2 == 0 else der2
            body.append(f"""int {h}(int n) {{
    {der} d;
    {base} s0;
    const {base}& b = d;
    return b.{area}() + s0.{area}() + n;
}}
""")
            helpers.append(h)
            m.routines.append(h)
            m.edges.add((h, f"{base}::{area}"))
        if i == rec_tu:
            body.append(f"""int {rec_b}(int n);

int {rec_a}(int n) {{
    if (n <= 0)
        return 1;
    return {rec_b}(n - 1) + 1;
}}

int {rec_b}(int n) {{
    if (n <= 0)
        return 0;
    return {rec_a}(n - 1);
}}
""")
            m.routines += [rec_a, rec_b]
            m.edges.add((rec_a, rec_b))
            m.edges.add((rec_b, rec_a))
        if i == dead_tu:
            body.append(f"""int {dead1}(int a) {{
    return a + 1;
}}

int {dead_uninit}(int a) {{
    int x;
    int y = x + a;
    return y;
}}
""")
            m.routines += [dead1, dead_uninit]
        calls = " + ".join(f"{h}(n)" for h in helpers)
        if i == rec_tu:
            calls += f" + {rec_a}({rec_depth})"
        if i == cyc_tu:
            calls += f" + {cyc_f}(n)"
        body.append(f"""int {wf}(int n) {{
    int total = 0;
    for (int r = 0; r < {bound}; r++)
        total = (total + {calls}) % 1000003;
    return total;
}}
""")
        m.routines.append(wf)
        for h in helpers:
            m.edges.add((wf, h))
        text = "\n".join(body)
        _write(root, tu, text)
        m.sources.append(tu)
        m.tus.append(tu)
        m.instrumented.append(tu)

        # Profile model: calls per rep of main's loop.
        _add(m.per_rep, wf, 1)
        for h in helpers:
            _add(m.per_rep, h, bound)
        m.point_names.append(wf)
        m.defuse_routines.append(helpers[0])
        if i == rec_tu:
            m.edges.add((wf, rec_a))
            _add(m.per_rep, rec_a, bound * (rec_depth // 2 + 1))
            _add(m.per_rep, rec_b, bound * (rec_depth + 1 - (rec_depth // 2 + 1)))
        if i == cyc_tu:
            m.edges.add((wf, cyc_f))
        if i in edited:
            # The edit renames the TU's first helper and its call sites.
            old = helpers[0]
            new = name("ren")
            m.edit[tu] = (text, text.replace(old + "(", new + "("))
            m.renamed[old] = new

    # Include cycle: each header uses an entity the other declares first.
    _write(root, "wcyc_a.h", f"""#ifndef WIDE_CYC_A_H
#define WIDE_CYC_A_H
int {cyc_val}(int x);
#include "wcyc_b.h"
inline int {cyc_val}(int x) {{
    return x + 1;
}}
inline int {cyc_f}(int n) {{
    return {cyc_f}_inner(n) + 1;
}}
#endif
""")
    _write(root, "wcyc_b.h", f"""#ifndef WIDE_CYC_B_H
#define WIDE_CYC_B_H
#include "wcyc_a.h"
inline int {cyc_f}_inner(int n) {{
    return {cyc_val}(n) * 2;
}}
#endif
""")
    m.sources += ["wcyc_a.h", "wcyc_b.h"]
    m.routines += [cyc_val, cyc_f, f"{cyc_f}_inner"]
    m.edges.add((cyc_f, f"{cyc_f}_inner"))
    m.edges.add((f"{cyc_f}_inner", cyc_val))

    decls += ["", "#endif", ""]
    _write(root, "wdecl.h", "\n".join(decls))
    calls = "\n".join(f"        total = (total + {wf}({n})) % 1000003;"
                      for wf, n in entries)
    _write(root, "main.cpp", f"""#include "iostream.h"
#include "wdecl.h"

{MAIN_ARGS}    int total = 0;
    for (int r = 0; r < reps; r++) {{
{calls}
    }}
    cout << total << endl;
    return 0;
}}
""")
    m.sources += ["wdecl.h", "main.cpp"]
    m.tus.insert(0, "main.cpp")
    m.instrumented.insert(0, "main.cpp")
    m.routines.append("main")
    for wf, _ in entries:
        m.edges.add(("main", wf))
    m.per_run["main"] = 1

    for cls, t in used_inst_cls:
        inst = f"{cls}<{t}>"
        m.instantiations.add(inst)
        m.classes[inst] = None
        c = next(c for c in cells if c["cls"] == cls)
        m.routines += [f"{inst}::{cls}", f"{inst}::{c['get']}", f"{inst}::{c['put']}",
                       f"{inst}::{c['cap']}", f"{inst}::size"]
        m.routines += [f"{inst}::{op}" for op in c["more"]]
    for inst in used_fold:
        m.routines.append(fold)
        m.edges.add((fold, f"{inst}::size"))

    m.defects = {
        "dead-code": sorted([dead1, dead_uninit]),
        "recursion-cycles": sorted([rec_a, rec_b]),
        "include-graph": ["wcyc_a.h", "wcyc_b.h"],
        "uninitialized-read": [f"tu_{dead_tu:03d}.cpp:x"],
        "dead-store": [f"tu_{store_tu:03d}.cpp:t"],
    }
    m.point_names += [base, der1, cells[0]["cls"]]
    m.point_names += list(m.renamed) + list(m.renamed.values())
    return m


# --------------------------------------------------------------------------
# deep shape

DEEP_TUS = 8          # kernel units (plus the unit holding main)
DEEP_KERNELS = 32     # kernels per unit
DEEP_VEC = 64         # vector length
FORMS = ["a + a * b", "a * b + b * a", "b * a + a", "a + b"]
FORM_LEAVES = [3, 4, 3, 2]

DEEP_HEADERS = {
    "Vec.h": """// Templated vector in the pooma_mini style.
#ifndef DEEP_VEC_H
#define DEEP_VEC_H

template <class T>
class Vec {
public:
    explicit Vec(int n) : n_(n), d_(0) {
        d_ = new T[n];
        for (int i = 0; i < n; i++)
            d_[i] = T();
    }
    ~Vec() {
        delete [] d_;
    }
    T& operator()(int i) { return d_[i]; }
    T eval(int i) const { return d_[i]; }
    int size() const { return n_; }
    void fill(const T& v) {
        for (int i = 0; i < n_; i++)
            d_[i] = v;
    }
private:
    int n_;
    T* d_;
};

#endif
""",
    "Grid.h": """// Matrix-free 1-D stencil operator.
#ifndef DEEP_GRID_H
#define DEEP_GRID_H

#include "Vec.h"

template <class T>
class Grid {
public:
    explicit Grid(int n) : n_(n) {}
    int size() const { return n_; }
    void apply(Vec<T>& x, Vec<T>& y) const {
        for (int i = 0; i < n_; i++) {
            T left = T();
            T right = T();
            if (i > 0)
                left = x(i - 1);
            if (i < n_ - 1)
                right = x(i + 1);
            y(i) = x(i) + x(i) - left - right;
        }
    }
private:
    int n_;
};

#endif
""",
    "Blas.h": """// Level-1 kernels as function templates.
#ifndef DEEP_BLAS_H
#define DEEP_BLAS_H

#include "Vec.h"

template <class T>
T dot(Vec<T>& a, Vec<T>& b) {
    T sum = T();
    for (int i = 0; i < a.size(); i++)
        sum = sum + a(i) * b(i);
    return sum;
}

template <class T>
void axpy(const T& alpha, Vec<T>& x, Vec<T>& y) {
    for (int i = 0; i < y.size(); i++)
        y(i) = y(i) + alpha * x(i);
}

#endif
""",
    "Expr.h": """// Expression templates: whole-vector arithmetic builds nested types.
#ifndef DEEP_EXPR_H
#define DEEP_EXPR_H

#include "Vec.h"

template <class L, class R>
class AddE {
public:
    AddE(const L& l, const R& r) : l_(l), r_(r) {}
    double eval(int i) const { return l_.eval(i) + r_.eval(i); }
private:
    const L& l_;
    const R& r_;
};

template <class L, class R>
class MulE {
public:
    MulE(const L& l, const R& r) : l_(l), r_(r) {}
    double eval(int i) const { return l_.eval(i) * r_.eval(i); }
private:
    const L& l_;
    const R& r_;
};

template <class L, class R>
AddE<L, R> operator+(const L& l, const R& r) {
    return AddE<L, R>(l, r);
}

template <class L, class R>
MulE<L, R> operator*(const L& l, const R& r) {
    return MulE<L, R>(l, r);
}

template <class E>
void assign(Vec<double>& dst, const E& e) {
    for (int i = 0; i < dst.size(); i++)
        dst(i) = e.eval(i);
}

#endif
""",
}

# A class-template member whose type names the template at two levels.
# g++ accepts it; the PDT-C++ parser rejects it today.
NESTED_SELF_TU = """template <class T>
class S {
public:
    S<S<T> >* next;
    T value;
};

int nested_self() {
    S<int> s;
    s.next = 0;
    s.value = 1;
    return s.value;
}
"""


def _expr_instantiations(form):
    """Class and function template instantiations one expression form creates
    (V = Vec<double>): classes, operator+ and operator* argument lists, and
    the expression type assign() is instantiated for."""
    V = "Vec<double>"
    mul = f"MulE<{V}, {V}>"
    return {
        "a + a * b": ([mul, f"AddE<{V}, {mul}>"], [(V, mul)], [(V, V)]),
        "a * b + b * a": ([mul, f"AddE<{mul}, {mul}>"], [(mul, mul)], [(V, V)]),
        "b * a + a": ([mul, f"AddE<{mul}, {V}>"], [(mul, V)], [(V, V)]),
        "a + b": ([f"AddE<{V}, {V}>"], [(V, V)], []),
    }[form]


def _body(rng, nd, ni, length, loop_var_reads):
    """Straight-line def-use-rich statements over locals s0.., q0..

    Every write reads its own target first, so no write is dead, and every
    local is initialized at its declaration, so no read is uninitialized.
    """
    out = []
    for _ in range(length):
        kind = rng.randrange(5)
        d = rng.randrange(nd)
        e = rng.randrange(nd)
        q = rng.randrange(ni)
        c = rng.randint(1, 9)
        src = rng.choice(loop_var_reads + [f"s{e}"])
        if kind == 0:
            out.append(f"s{d} = s{d} * 0.5 + {src};")
        elif kind == 1:
            out.append(f"q{q} = (q{q} * {c} + {rng.randint(1, 50)}) % 1009;")
        elif kind == 2:
            out.append(f"if (q{q} > {rng.randint(100, 900)})\n"
                       f"            s{d} = s{d} - {src} * 0.25;\n"
                       f"        else\n"
                       f"            s{d} = s{d} + 0.{c};")
        elif kind == 3:
            out.append(f"s{d} = s{d} + s{e} * 0.125 - {c}.0;")
        else:
            out.append(f"q{q} = q{q} + {c};\n        q{q} = q{q} % 997;")
    return out


def generate_deep(root, seed):
    rng = random.Random(seed * 104729 + 17)
    name = Namer(rng)
    m = Manifest("deep")
    os.makedirs(root, exist_ok=True)
    for rel, text in DEEP_HEADERS.items():
        _write(root, rel, text)
        m.sources.append(rel)
    N = DEEP_VEC
    V = "Vec<double>"
    G = "Grid<double>"

    # Fixed structure.
    m.classes.update({V: None, G: None})
    m.instantiations.update({V, G})
    m.routines += [f"{V}::Vec", f"{V}::~Vec", f"{V}::operator()", f"{V}::eval",
                   f"{V}::size", f"{V}::fill", f"{G}::Grid", f"{G}::size",
                   f"{G}::apply", "dot", "axpy", "main"]
    m.edges.update({("dot", f"{V}::size"), ("dot", f"{V}::operator()"),
                    ("axpy", f"{V}::size"), ("axpy", f"{V}::operator()"),
                    (f"{G}::apply", f"{V}::operator()")})

    rec_tu = rng.randrange(DEEP_TUS)
    store_tu = rng.randrange(DEEP_TUS)
    dead_tu = rng.randrange(DEEP_TUS)
    cyc_tu = rng.randrange(DEEP_TUS)
    rec = name("depth")
    rec_depth = 9
    dead1, dead_uninit = name("unused"), name("stale")
    cyc_val, cyc_f = name("cyca"), name("cycb")
    edit_tu = (cyc_tu + 1 + rng.randrange(DEEP_TUS - 1)) % DEEP_TUS  # see generate_wide

    trip_counts = _spread(rng, [2, 3, 4], DEEP_TUS)
    drives = []
    expr_classes, expr_adds, expr_muls, expr_forms = set(), set(), set(), set()
    per_drive_op = 0
    per_drive_size = 0
    per_drive_eval = 0
    kernel_rows = {}
    for k in range(DEEP_TUS):
        tu = f"deep_{k}.cpp"
        drive = f"drive_{k}"
        drives.append(drive)
        form = FORMS[k % len(FORMS)]
        classes, adds, muls = _expr_instantiations(form)
        expr_classes.update(classes)
        expr_adds.update(adds)
        expr_muls.update(muls)
        expr_forms.add(form)
        body = ['#include "Grid.h"', '#include "Blas.h"', '#include "Expr.h"']
        if k == cyc_tu:
            body.append('#include "dcyc_a.h"')
        body.append("")
        trips = trip_counts[k]
        kernels = []
        for j in range(DEEP_KERNELS):
            kern = name("kern")
            kernels.append(kern)
            nd, ni = 5 + j % 5, 3 + j % 3
            decl = [f"    double s{x} = {rng.randint(0, 9)}.{rng.randint(0, 9)};"
                    for x in range(nd)]
            decl += [f"    int q{x} = {rng.randint(1, 200)};" for x in range(ni)]
            inner = _body(rng, nd, ni, 40 + (7 * j) % 21, ["ai", "bi"])
            outer = _body(rng, nd, ni, 15 + (3 * j) % 11, [])
            store = ""
            if k == store_tu and j == 0:
                store = ("    int t = q0 * 2;\n    int r2 = t + 1;\n"
                         "    t = r2 * 3;\n    q0 = q0 + r2 % 7;\n")
            ret = " + ".join([f"s{x}" for x in range(nd)] + [f"q{x}" for x in range(ni)])
            body.append(f"double {kern}(Vec<double>& a, Vec<double>& b, int m) {{\n"
                        + "\n".join(decl) + "\n" + store
                        + "    for (int i = 0; i < m; i++) {\n"
                        + "        double ai = a(i);\n        double bi = b(i);\n        "
                        + "\n        ".join(inner) + "\n    }\n    "
                        + "\n    ".join(outer).replace("\n        ", "\n    ")
                        + f"\n    return {ret};\n}}\n")
            m.routines.append(kern)
            m.edges.add((kern, f"{V}::operator()"))
            m.point_names.append(kern)
            m.defuse_routines.append(kern)
            kernel_rows[kern] = trips
        if k == rec_tu:
            body.append(f"""int {rec}(int n) {{
    if (n <= 0)
        return 0;
    return {rec}(n - 1) + 1;
}}
""")
            m.routines.append(rec)
            m.edges.add((rec, rec))
        if k == dead_tu:
            body.append(f"""int {dead1}(int a) {{
    return a + 1;
}}

int {dead_uninit}(int a) {{
    int x;
    int y = x + a;
    return y;
}}
""")
            m.routines += [dead1, dead_uninit]
        kcalls = "\n".join(f"        acc = acc + {kern}(a, b, m);" for kern in kernels)
        extra = ""
        if k == rec_tu:
            extra += f"    acc = acc + {rec}({rec_depth});\n"
            m.edges.add((drive, rec))
        if k == cyc_tu:
            extra += f"    acc = acc + {cyc_f}(m);\n"
            m.edges.add((drive, cyc_f))
        body.append(f"""double {drive}(Grid<double>& g, Vec<double>& a, Vec<double>& b) {{
    double acc = 0.0;
    int m = a.size();
    for (int t = 0; t < {trips}; t++) {{
{kcalls}
    }}
{extra}    g.apply(a, b);
    acc = acc + dot(a, b);
    axpy(0.5, a, b);
    assign(b, {form});
    b.fill(0.25);
    return acc;
}}
""")
        m.routines.append(drive)
        m.edges.update({(drive, kern) for kern in kernels})
        m.edges.update({(drive, f"{G}::apply"), (drive, "dot"), (drive, "axpy"),
                        (drive, "assign"), (drive, f"{V}::size"), (drive, f"{V}::fill")})
        text = "\n".join(body)
        _write(root, tu, text)
        m.sources.append(tu)
        m.tus.append(tu)
        if k == edit_tu:
            old = kernels[-1]
            new = name("ren")
            m.edit[tu] = (text, text.replace(old + "(", new + "("))
            m.renamed[old] = new

        # Calls per drive (per rep of main's loop).
        leaves = FORM_LEAVES[k % len(FORMS)]
        per_drive_op += 2 * N * DEEP_KERNELS * trips + (5 * N - 2) + 2 * N + 3 * N + N
        per_drive_size += 1 + (N + 1) * 3
        per_drive_eval += N * leaves
        for kern in kernels:
            _add(m.per_rep, kern, trips)
        _add(m.per_rep, drive, 1)
        if k == rec_tu:
            _add(m.per_rep, rec, rec_depth + 1)

    _write(root, "dcyc_a.h", f"""#ifndef DEEP_CYC_A_H
#define DEEP_CYC_A_H
int {cyc_val}(int x);
#include "dcyc_b.h"
inline int {cyc_val}(int x) {{
    return x + 1;
}}
inline int {cyc_f}(int n) {{
    return {cyc_f}_inner(n) + 1;
}}
#endif
""")
    _write(root, "dcyc_b.h", f"""#ifndef DEEP_CYC_B_H
#define DEEP_CYC_B_H
#include "dcyc_a.h"
inline int {cyc_f}_inner(int n) {{
    return {cyc_val}(n) * 2;
}}
#endif
""")
    m.sources += ["dcyc_a.h", "dcyc_b.h"]
    m.routines += [cyc_val, cyc_f, f"{cyc_f}_inner"]
    m.edges.add((cyc_f, f"{cyc_f}_inner"))
    m.edges.add((f"{cyc_f}_inner", cyc_val))
    for inst in expr_classes:
        m.instantiations.add(inst)
        m.classes[inst] = None
        cls = inst.split("<")[0]
        m.routines += [f"{inst}::{cls}", f"{inst}::eval"]
    m.routines += ["operator+"] * len(expr_adds) + ["operator*"] * len(expr_muls)
    m.routines += ["assign"] * len(expr_forms)

    decl = "\n".join(f"double {d}(Grid<double>& g, Vec<double>& a, Vec<double>& b);"
                     for d in drives)
    _write(root, "ddecl.h", f"""#ifndef DEEP_DECL_H
#define DEEP_DECL_H
#include "Grid.h"
{decl}
#endif
""")
    calls = " + ".join(f"{d}(g, a, b)" for d in drives)
    _write(root, "deep_main.cpp", f"""#include "iostream.h"
#include "ddecl.h"

{MAIN_ARGS}    Grid<double> g({N});
    Vec<double> a({N});
    Vec<double> b({N});
    a.fill(1.5);
    b.fill(0.25);
    double total = 0.0;
    for (int r = 0; r < reps; r++)
        total = total + {calls};
    cout << total << endl;
    return 0;
}}
""")
    m.sources += ["ddecl.h", "deep_main.cpp"]
    m.tus.insert(0, "deep_main.cpp")
    m.edges.update({("main", d) for d in drives})
    m.edges.update({("main", f"{G}::Grid"), ("main", f"{V}::Vec"),
                    ("main", f"{V}::fill")})
    m.instrumented = ["deep_main.cpp", "Vec.h", "Grid.h", "Blas.h"] + m.tus[1:]

    nd = len(drives)
    _add(m.per_rep, f"{V}::operator()", per_drive_op)
    _add(m.per_rep, f"{V}::size", per_drive_size)
    _add(m.per_rep, f"{V}::eval", per_drive_eval)
    _add(m.per_rep, f"{V}::fill", nd)
    _add(m.per_rep, f"{G}::apply", nd)
    _add(m.per_rep, "dot", nd)
    _add(m.per_rep, "axpy", nd)
    m.per_run.update({"main": 1, f"{G}::Grid": 1, f"{V}::Vec": 2, f"{V}::~Vec": 2,
                      f"{V}::fill": 2})

    m.defects = {
        "dead-code": sorted([dead1, dead_uninit]),
        "recursion-cycles": [rec],
        "include-graph": ["dcyc_a.h", "dcyc_b.h"],
        "uninitialized-read": [f"deep_{dead_tu}.cpp:x"],
        "dead-store": [f"deep_{store_tu}.cpp:t"],
    }
    m.point_names += ["Vec", "Grid", "AddE", "dot"]
    m.point_names += list(m.renamed) + list(m.renamed.values())
    _write(root, "nested_self.cpp", NESTED_SELF_TU)
    m.extra_tu = "nested_self.cpp"
    return m
