"""Shows that every output check in oracle.py fails on a corrupted output.

    python3 perfbench/run.py --selftest

Builds a small wide corpus, runs cxxparse, pdbcheck, the instrumented
program and tauprof on it, checks that the real outputs pass, then feeds
each check a corrupted copy and requires it to fail.
"""

import copy
import os
import shutil
import subprocess
import tempfile

import gen
import oracle
import run


def _call(cmd, cwd, **kw):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=120, check=True, **kw).stdout


def main():
    run.build()
    os.makedirs(os.path.join(run.BUILD, "runs"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.BUILD, "runs"))
    results = []

    def expect(name, clean, corrupted):
        ok = not clean and bool(corrupted)
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: clean={clean[:2]} "
              f"corrupted={corrupted[:1]}")

    try:
        src = os.path.join(tmp, "src")
        man = gen.generate_wide(src, 7, 8).to_json()
        tools = run.TOOLS
        _call([os.path.join(tools, "cxxparse")] + man["tus"] +
              ["-I", run.STL, "-o", "db.pdb"], src)
        with open(os.path.join(src, "db.pdb")) as f:
            pdb = oracle.parse_pdb(f.read())

        # A class dropped from the PDB.
        bad = copy.deepcopy(pdb)
        victim = next(i for i, c in bad.classes.items() if c["name"] in man["classes"])
        del bad.classes[victim]
        expect("structure / class dropped", oracle.check_structure(pdb, man),
               oracle.check_structure(bad, man))

        # A finding removed from pdbcheck's report.
        report = subprocess.run([os.path.join(tools, "pdbcheck"), "db.pdb", "--checks=all",
                                 "--format=json"], cwd=src, stdout=subprocess.PIPE,
                                timeout=120).stdout.decode()
        keys = oracle.finding_keys(report)
        bad_keys = copy.deepcopy(keys)
        bad_keys["dead-code"].pop()
        expect("findings / finding removed", oracle.check_findings(keys, man),
               oracle.check_findings(bad_keys, man))

        # A wrong call count in the merged profile.
        instr = os.path.join(tmp, "instr")
        shutil.copytree(src, instr)
        for rel in man["instrumented"]:
            _call([os.path.join(run.PDT_BUILD, "src", "tau", "tau_instr"), "db.pdb", rel,
                   "-o", os.path.join(instr, rel)], src)
        _call(["g++", "-std=c++17", "-O0", "-w", "-I", instr, "-I", run.STL, "-I",
               run.TAU_INC] + man["tus"] +
              [os.path.join(run.HARNESS_BUILD, "libpdt_stl_impl.a"),
               os.path.join(run.PDT_BUILD, "src", "tau", "libpdt_tau_rt.a"), "-lpthread",
               "-o", "prog"], instr)
        prof = os.path.join(tmp, "prof")
        os.makedirs(prof)
        for node in range(2):
            _call([os.path.join(instr, "prog"), "3"], tmp,
                  env=dict(os.environ, TAU_PROFILE_FILE=prof, TAU_NODE=str(node),
                           TAU_CONTEXT="0"))
        files = sorted(os.path.join(prof, f) for f in os.listdir(prof))
        rows = oracle.parse_profile_csv(
            _call([os.path.join(tools, "tauprof")] + files + ["--format=csv"], tmp).decode())
        bad_rows = copy.deepcopy(rows)
        bad_rows[0]["calls"] += 1
        expect("profile / wrong call count", oracle.check_profile(rows, man, 3, 2),
               oracle.check_profile(bad_rows, man, 3, 2))
        bad_rows = copy.deepcopy(rows)
        bad_rows[0]["excl"] = bad_rows[0]["incl"] + 1
        expect("profile / exclusive above inclusive", oracle.check_profile(rows, man, 3, 2),
               oracle.check_profile(bad_rows, man, 3, 2))

        # A dp row linked to the wrong routine.
        _call([os.path.join(tools, "tauprof")] + files +
              ["--pdb", os.path.join(src, "db.pdb"), "--db-out", "dyn.pdb"], tmp)
        with open(os.path.join(tmp, "dyn.pdb")) as f:
            dyn = oracle.parse_pdb(f.read())
        clean = [row for row, ok in oracle.dp_link_results(dyn) if not ok]
        other = next(rid for rid in dyn.routines if rid != dyn.dynprofs[0]["link"])
        dyn.dynprofs[0]["link"] = other
        expect("dp links / row relinked", clean,
               [row for row, ok in oracle.dp_link_results(dyn) if not ok])

        # pdbd answers: two generations in one reply, and a renamed name
        # answered before the swap.
        old, new = next(iter(man["renamed"].items()))
        good = [{"conn": 0, "verb": "lookup", "arg": old, "ok": True, "gen": 1,
                 "generations": 1, "found": True},
                {"conn": 0, "verb": "lookup", "arg": new, "ok": True, "gen": 2,
                 "generations": 1, "found": True}]
        gens = {1: "orig", 2: "edit"}
        twice = copy.deepcopy(good)
        twice[0]["generations"] = 2
        expect("pdbd / two generations in a reply", oracle.check_responses(good, gens, man),
               oracle.check_responses(twice, gens, man))
        early = copy.deepcopy(good)
        early[1]["gen"] = 1
        expect("pdbd / renamed name before the swap",
               oracle.check_responses(good, gens, man),
               oracle.check_responses(early, gens, man))
        back = copy.deepcopy(good)
        back[1]["gen"], back[0]["gen"] = 1, 2
        back[0]["arg"], back[1]["arg"] = new, old
        expect("pdbd / generation goes backwards", oracle.check_responses(good, gens, man),
               oracle.check_responses(back, gens, man))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"selftest: {sum(results)}/{len(results)} checks fail on corrupted output")
    return 0 if all(results) else 1
