"""Checks of the program's outputs against a generator manifest.

Every check returns a list of problems (empty when the output is right).
Nothing here is a stored copy of the program's output: the expected
values come from the manifest gen.py wrote while emitting the sources.
"""

import csv
import io
import json
import re

RULES = ["dead-code", "recursion-cycles", "include-graph", "uninitialized-read",
         "dead-store"]


# --------------------------------------------------------------------------
# ASCII PDB reader (only the attributes the checks need)


class Pdb:
    def __init__(self):
        self.files = {}      # so id -> path
        self.classes = {}    # cl id -> {"name", "base": [cl ids], "file"}
        self.routines = {}   # ro id -> {"name", "cls", "calls": [ro ids], "file"}
        self.dynprofs = []   # {"name", "link": ro id or None, "calls"}

    def qualified(self, rid):
        r = self.routines[rid]
        if r["cls"] is not None and r["cls"] in self.classes:
            return self.classes[r["cls"]]["name"] + "::" + r["name"]
        return r["name"]


def _ref(tok):
    return int(tok.split("#", 1)[1])


def parse_pdb(text):
    pdb = Pdb()
    kind, cur = None, None
    for line in text.splitlines():
        if not line:
            kind, cur = None, None
            continue
        head = re.match(r"^(so|ro|cl|dp|te|ty|na|ma|du)#(\d+) ?(.*)$", line)
        if head:
            kind, ident, name = head.group(1), int(head.group(2)), head.group(3)
            if kind == "so":
                pdb.files[ident] = name
                cur = None
            elif kind == "ro":
                cur = pdb.routines[ident] = {"name": name, "cls": None, "calls": [],
                                             "file": None}
            elif kind == "cl":
                cur = pdb.classes[ident] = {"name": name, "base": [], "file": None}
            elif kind == "dp":
                cur = {"name": name, "link": None, "calls": None}
                pdb.dynprofs.append(cur)
            else:
                cur = None
            continue
        if cur is None:
            continue
        parts = line.split()
        key = parts[0]
        if kind == "ro":
            if key == "rclass":
                cur["cls"] = _ref(parts[1])
            elif key == "rcall":
                cur["calls"].append(_ref(parts[1]))
            elif key == "rloc" and parts[1] != "NULL":
                cur["file"] = _ref(parts[1])
        elif kind == "cl":
            if key == "cbase":
                cur["base"].append(_ref(parts[-1]))
            elif key == "cloc" and parts[1] != "NULL":
                cur["file"] = _ref(parts[1])
        elif kind == "dp":
            if key == "plink":
                cur["link"] = _ref(parts[1])
            elif key == "pdata":
                cur["calls"] = int(parts[1])
    return pdb


# --------------------------------------------------------------------------
# structure: classes, bases, routines, instantiations, call edges


def norm(name):
    """Spelling-independent entity name: 'A<B<int> >' and 'A<B<int>>' agree."""
    return name.replace(" ", "")


def check_structure(pdb, man):
    problems = []
    corpus = {i for i, path in pdb.files.items() if path in man["sources"]}
    classes = {norm(c["name"]): c for c in pdb.classes.values() if c["file"] in corpus}
    want = {norm(k): norm(v) if v else None for k, v in man["classes"].items()}
    if set(classes) != set(want):
        problems.append(f"classes: missing {sorted(set(want) - set(classes))}, "
                        f"unexpected {sorted(set(classes) - set(want))}")
    for name, base in want.items():
        if name not in classes:
            continue
        got = [norm(pdb.classes[b]["name"]) for b in classes[name]["base"]
               if b in pdb.classes]
        if got != ([base] if base else []):
            problems.append(f"class {name}: base {got}, expected {base}")
    inst = {n for n in classes if "<" in n}
    want_inst = {norm(n) for n in man["instantiations"]}
    if inst != want_inst:
        problems.append(f"instantiations: missing {sorted(want_inst - inst)}, "
                        f"unexpected {sorted(inst - want_inst)}")
    rids = [rid for rid, r in pdb.routines.items() if r["file"] in corpus]
    got_ro = sorted(norm(pdb.qualified(rid)) for rid in rids)
    want_ro = sorted(norm(r) for r in man["routines"])
    if got_ro != want_ro:
        missing = _multiset_minus(want_ro, got_ro)
        extra = _multiset_minus(got_ro, want_ro)
        problems.append(f"routines: missing {missing[:8]}, unexpected {extra[:8]}")
    edges = {(norm(pdb.qualified(rid)), norm(pdb.qualified(c))) for rid in rids
             for c in pdb.routines[rid]["calls"] if c in pdb.routines}
    missing = sorted((norm(a), norm(b)) for a, b in man["edges"]
                     if (norm(a), norm(b)) not in edges)
    if missing:
        problems.append(f"call edges missing: {missing[:8]}")
    return problems


def _multiset_minus(a, b):
    left = list(a)
    for x in b:
        if x in left:
            left.remove(x)
    return left


# --------------------------------------------------------------------------
# pdbcheck findings


def finding_keys(sarif_text):
    """rule -> set of entity keys, from pdbcheck --format=json output."""
    keys = {rule: set() for rule in RULES}
    for res in json.loads(sarif_text)["runs"][0]["results"]:
        rule = res["ruleId"]
        if rule not in keys:
            continue
        text = res["message"]["text"]
        uri = res["locations"][0]["physicalLocation"]["artifactLocation"]["uri"] \
            if res.get("locations") else "<generated>"
        if rule == "dead-code":
            keys[rule].add(re.search(r"'([^']*)'", text).group(1))
        elif rule == "recursion-cycles":
            cyc = re.search(r"routines: (.*)$", text)
            if cyc:
                keys[rule].update(p.strip() for p in cyc.group(1).split("->"))
            else:
                keys[rule].add(re.search(r"'([^']*)'", text).group(1))
        elif rule == "include-graph":
            cyc = re.search(r"files: (.*)$", text)
            if cyc:
                keys[rule].update(p.strip() for p in cyc.group(1).split("->"))
            else:
                keys[rule].add("unused-include:" + uri)
        else:
            var = re.search(r"local '([^']*)'", text).group(1)
            keys[rule].add(f"{uri}:{var}")
    return keys


def check_findings(keys, man):
    problems = []
    for rule in RULES:
        want = set(man["defects"][rule])
        if keys[rule] != want:
            problems.append(f"{rule}: missing {sorted(want - keys[rule])}, "
                            f"unexpected {sorted(keys[rule] - want)}")
    return problems


# --------------------------------------------------------------------------
# TAU profiles


def row_key(name, typ):
    """Qualified routine a profile row names: 'int f(int)' -> 'f',
    'operator()()' with type 'Vec<double>' -> 'Vec<double>::operator()'."""
    depth, cut = 0, len(name)
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                cut = i
                break
    base = name[:cut].strip()
    if "operator" in base:
        base = base[base.index("operator"):]
    else:
        base = base.split()[-1] if base else base
    return norm(f"{typ}::{base}" if typ else base)


def parse_profile_csv(text):
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append({"key": row_key(rec["name"], rec["type"]),
                     "calls": int(rec["calls"]),
                     "incl": int(rec["inclusive_ns"]),
                     "excl": int(rec["exclusive_ns"])})
    return rows


def expected_calls(man, reps, processes):
    want = {}
    for key, n in man["per_rep"].items():
        want[norm(key)] = want.get(norm(key), 0) + n * reps * processes
    for key, n in man["per_run"].items():
        want[norm(key)] = want.get(norm(key), 0) + n * processes
    return want


def check_profile(rows, man, reps, processes):
    problems = []
    want = expected_calls(man, reps, processes)
    got = {}
    for r in rows:
        got[r["key"]] = got.get(r["key"], 0) + r["calls"]
        if r["incl"] < r["excl"]:
            problems.append(f"profile row {r['key']}: inclusive {r['incl']} < "
                            f"exclusive {r['excl']}")
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            problems.append(f"#Call of {key}: {got.get(key)}, expected {want.get(key)}")
    return problems


def dp_link_results(pdb):
    """One (row, ok) per dp item: ok when it links to the routine it names."""
    by_qname = {}
    for rid in pdb.routines:
        by_qname.setdefault(norm(pdb.qualified(rid)), set()).add(rid)
    out = []
    for dp in pdb.dynprofs:
        name, _, typ = dp["name"].partition(" <")
        key = row_key(name, typ[:-1] if typ else "")
        ok = dp["link"] is not None and dp["link"] in by_qname.get(key, ())
        out.append((dp["name"], ok))
    return out


# --------------------------------------------------------------------------
# pdbd responses


def check_responses(records, gens, man):
    """records: the load generator's per-response lines; gens: generation ->
    'orig' | 'edit', from the load and swap replies."""
    problems = []
    last = {}
    renamed_old = set(man["renamed"])
    renamed_new = set(man["renamed"].values())
    for rec in records:
        if not rec["ok"] or rec["generations"] != 1:
            problems.append(f"response without exactly one generation: {rec}")
            continue
        g = rec["gen"]
        if g < last.get(rec["conn"], 0):
            problems.append(f"generation went backwards on connection {rec['conn']}")
        last[rec["conn"]] = g
        which = gens.get(g)
        if which is None:
            problems.append(f"response names unknown generation {g}")
            continue
        if rec["verb"] == "lookup":
            name = rec["arg"]
            found = rec["found"]
            if name in renamed_new:
                expect = which == "edit"
            elif name in renamed_old:
                expect = which == "orig"
            else:
                expect = True
            if found != expect:
                problems.append(f"lookup {name} at generation {g} ({which}): "
                                f"found={found}")
    return problems[:20]
