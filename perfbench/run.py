#!/usr/bin/env python3
"""End-to-end benchmark of the PDT pipeline.

    python3 perfbench/run.py --workload build_wide|build_deep|query_serve
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the repository with its own CMake project (configured once per
checkout into .bench_build/, rebuilt incrementally on every run), generates
a seeded corpus, runs the real binaries on it in whole rounds until
--seconds have passed, checks every output against the generator's
manifest, and prints one JSON object as the last stdout line.
See perfbench/README.md for the workloads, metrics and drift correction.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

T0 = time.monotonic()

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
PDT_BUILD = os.path.join(BUILD, "pdt")
HARNESS_BUILD = os.path.join(BUILD, "harness")
TOOLS = os.path.join(PDT_BUILD, "src", "tools")
PROBE = os.path.join(HARNESS_BUILD, "probe")
STL = os.path.join(ROOT, "runtime", "pdt_stl")
TAU_INC = os.path.join(ROOT, "runtime", "tau")

JOBS = 2          # cxxparse -j, fixed on every run
CONNS = 2         # pdbd client connections
K_NOMINAL = 0.016  # reference kernel seconds the corrected times are scaled to
MIN_ROUNDS = 3
EVENTS = 1.5e6      # profiled calls in each round's timed instrumented run
KERNEL_WINDOW = 3   # kernel samples on each side of an operation for its factor
# Operations repeated inside one round, so every run attempts whole rounds
# of the same operations and each median rests on many samples.
BUILD_REPS = 2      # cold build + edit + warm rebuild
CHECK_REPS = 4
RUN_REPS = 2        # instrumented + plain program run
MERGE_REPS = 4
OP_TIMEOUT = 60

# The vCPUs of a shared host differ in speed by up to a third, and a
# process that migrates between them changes speed with it. Timed work is
# therefore pinned: single-threaded programs to one CPU; cxxparse -j2, and
# pdbd together with its load generator, to two. Client and daemon share
# their CPUs because a reply that has to wake an idle vCPU waits for the
# host to schedule it, which put the point-query p99 anywhere from 0.2 to
# 1.4 ms from one batch to the next. The reference kernel runs on every
# CPU, so each time is corrected by the speed of the CPUs it ran on.
_CPUS = sorted(os.sched_getaffinity(0))
ONE = frozenset(_CPUS[-1:])
TWO = frozenset(_CPUS[-2:])

# "queries": requests in one pdbd batch, "batches": batches a round (even,
# so every round ends on the original database). Each batch swaps once,
# half way, and its second half outlasts the swap.
# "profiles": instrumented processes whose profiles tauprof merges. On
# build_deep, where profile_merge_s belongs, there are enough of them that
# reading and merging profiles takes most of the tauprof run.
WORKLOADS = {
    "build_wide": {"shape": "wide", "tus": 128, "queries": 1500, "batches": 4,
                   "profiles": 24},
    "build_deep": {"shape": "deep", "queries": 2000, "batches": 4, "profiles": 256},
    "query_serve": {"shape": "wide", "tus": 64, "queries": 2000, "batches": 6,
                    "profiles": 24},
}

END_TO_END = [
    ("setup_s", "s"), ("build_s", "s"), ("rebuild_s", "s"), ("check_s", "s"),
    ("build_peak_rss_mb", "MB"), ("check_peak_rss_mb", "MB"),
    ("point_query_p50_ms", "ms"), ("point_query_p99_ms", "ms"),
    ("report_query_p50_ms", "ms"), ("queries_per_s", "queries/s"),
    ("swap_s", "s"), ("daemon_peak_rss_mb", "MB"), ("events_per_s", "events/s"),
    ("profile_merge_s", "s"),
]

PER_LAYER = [
    ("lex.tokens", "count"), ("lex.tokens_per_s", "1/s"),
    ("frontend.compile_ms", "ms"), ("sema.class_instantiations", "count"),
    ("sema.bodies_instantiated", "count"), ("ilanalyzer.analyze_ms", "ms"),
    ("il.items", "count"), ("pdb.write_ms", "ms"), ("pdb.open_ms", "ms"),
    ("pdb.db_bytes", "bytes"), ("ductape.merge_ms", "ms"), ("ductape.merges", "count"),
    ("merge.duplicates_elided", "count"), ("ductape.last_merge_ms", "ms"),
    ("driver.compile_wall_ms", "ms"), ("driver.compile_cpu_ms", "ms"),
    ("cache.key_ms", "ms"), ("cache.fetch_ms", "ms"), ("cache.hits", "count"),
    ("cache.misses", "count"), ("cache.hit_ratio", "ratio"),
    ("analysis.context_ms", "ms"), ("analysis.rules_ms", "ms"),
    ("analysis.findings", "count"), ("query.prewarm_ms", "ms"),
    ("query.handle_point_us", "us"), ("query.handle_report_ms", "ms"),
    ("pdbd.transport_us", "us"), ("pdbd.generation_rss_mb", "MB"),
    ("tau.overhead_ns_per_event", "ns"), ("tauprof.files", "count"),
    ("tauprof.rows", "count"), ("tauprof.merge_ms", "ms"), ("tauprof.attach_ms", "ms"),
    ("load.client_us", "us"), ("trace.overhead_ms", "ms"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# build


def build():
    """Configures once per checkout, then builds incrementally on every run, so
    each run times binaries built from the checkout's current sources."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at the checkout root: nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    harness = os.path.join(HERE, "harness")
    steps = []
    if not os.path.exists(os.path.join(PDT_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", PDT_BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", PDT_BUILD, "-j", jobs, "--target", "cxxparse",
                  "pdbcheck", "pdbconv", "pdbd", "tauprof", "tau_instr", "pdt_tau_rt",
                  "pdt_pdbd", "pdt_tau", "pdt_driver"])
    if not os.path.exists(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", harness, "-B", HARNESS_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                      f"-DPDT_SOURCE_DIR={ROOT}", f"-DPDT_BUILD_DIR={PDT_BUILD}"])
    steps.append(["cmake", "--build", HARNESS_BUILD, "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as logf:
        for cmd in steps:
            if subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT) != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)} "
                                 f"(see .bench_build/build.log)")


# --------------------------------------------------------------------------
# processes


class Procs:
    """Every child the run starts, so teardown can stop and reap them all."""

    def __init__(self):
        self.live = []

    def popen(self, cmd, cpus=None, **kw):
        # Own process group, so teardown also reaches what the child started.
        if cpus:
            kw["preexec_fn"] = lambda: os.sched_setaffinity(0, cpus)
        p = subprocess.Popen(cmd, start_new_session=True, **kw)
        self.live.append(p)
        return p

    def kill(self, p):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()

    def run(self, cmd, cwd, env=None, timeout=OP_TIMEOUT, cpus=None):
        """Runs cmd to completion; returns (rc, wall seconds, stdout bytes)."""
        t = time.perf_counter()
        p = self.popen(cmd, cpus, cwd=cwd, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL)
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill(p)
            raise BenchError(f"timed out: {' '.join(cmd[:2])}")
        finally:
            self.live.remove(p)
        return p.returncode, time.perf_counter() - t, out

    def stop_all(self):
        for p in self.live:
            self.kill(p)
        self.live.clear()


def timed_run(procs, cmd, cwd, env=None, stdout=subprocess.DEVNULL, cpus=ONE):
    """rc, wall seconds and peak RSS (KiB) of one child, measured by probe spawn."""
    fd, result = tempfile.mkstemp(dir=cwd, prefix=".spawn")
    os.close(fd)
    p = procs.popen([PROBE, "spawn", result] + cmd, cpus, cwd=cwd, env=env, stdout=stdout,
                    stderr=subprocess.DEVNULL)
    try:
        rc = p.wait(timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        procs.kill(p)
        raise BenchError(f"timed out: {' '.join(cmd[:2])}")
    finally:
        procs.live.remove(p)
    with open(result) as f:
        wall_ns, rss = f.read().split()
    os.unlink(result)
    return rc, int(wall_ns) / 1e9, int(rss)


class KernelClock:
    """Reference kernel timed between program operations (drift correction).

    One kernel server runs on each CPU; a tick runs them side by side. Every timed operation sits between two ticks. Its correction factor
    is K_NOMINAL over the median, in a window of ticks around it, of the
    kernel time averaged over the CPUs the operation ran on."""

    def __init__(self, procs):
        self.servers = {cpu: procs.popen([PROBE, "kernel"], {cpu}, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)
                        for cpu in _CPUS}
        self.samples = []   # one {cpu: seconds} per tick

    def tick(self):
        for p in self.servers.values():
            p.stdin.write("\n")
            p.stdin.flush()
        self.samples.append({cpu: int(p.stdout.readline().split()[0]) / 1e9
                             for cpu, p in self.servers.items()})
        return len(self.samples) - 1

    def last(self):
        return len(self.samples) - 1 if self.samples else self.tick()

    def factor(self, span, cpus):
        i, j = span
        window = self.samples[max(0, i - KERNEL_WINDOW + 1):j + KERNEL_WINDOW]
        return K_NOMINAL / statistics.median(
            statistics.fmean(tick[c] for c in cpus) for tick in window)

    def close(self, procs):
        for p in self.servers.values():
            p.stdin.close()
            p.wait(timeout=10)
            procs.live.remove(p)


def vm_status(pid, key):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# --------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.w = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.procs = Procs()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = {}     # name -> [(raw seconds, kernel span)]
        self.plain = {}     # name -> [value] (memory, client cost)
        self.layer = {}
        self.first_output = {}
        self.links = []     # (dp row, linked to the routine it names?)
        self.batches = 0    # query batches run

    def problem(self, what):
        if len(self.problems) < 30:
            self.problems.append(what)

    def op(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def timed(self, name, fn, cpus=ONE):
        """Runs fn() -> (raw seconds, result) on cpus; files the time under name."""
        i = self.clock.last()
        raw, result = fn()
        span = (i, self.clock.tick())
        self.times.setdefault(name, []).append((raw, span, cpus))
        return result, span

    def corrected(self, name):
        return [raw * self.clock.factor(span, cpus) for raw, span, cpus in self.times[name]]

    def raw(self, name):
        return [raw for raw, _, _ in self.times[name]]

    def same_as_first(self, key, path):
        """True when path holds the same bytes as the first output filed under key."""
        with open(path, "rb") as f:
            data = f.read()
        return self.first_output.setdefault(key, data) == data

    # -- helpers ---------------------------------------------------------

    def cxxparse(self, tus, out, cache=None, extra=()):
        cmd = [os.path.join(TOOLS, "cxxparse")] + tus + [
            "-I", STL, "-j", str(JOBS), "--format=bin", "-o", out]
        if cache:
            cmd += ["--cache-dir", cache]
        return cmd + list(extra)

    def spawn(self, cmd, cwd, env=None, stdout=subprocess.DEVNULL, cpus=ONE):
        """(wall, (rc, peak RSS KiB)) of one child, for timed()."""
        rc, wall, rss = timed_run(self.procs, cmd, cwd, env, stdout, cpus)
        return wall, (rc, rss)

    def write_sources(self, which):
        for rel, (old, new) in self.man["edit"].items():
            with open(os.path.join(self.src, rel), "w") as f:
                f.write(new if which == "edit" else old)

    def gxx(self, srcdir, out, tau):
        """Compiles the program's units in parallel with g++ and links them."""
        incs = ["-I", srcdir, "-I", STL]
        if tau:
            # The instrumentor puts #include "TAU.h" first in every file, so a
            # precompiled TAU.h (found before the header itself) saves most
            # of each instrumented unit's compile time. The header sits beside
            # it for the instrumented headers, which cannot use the PCH.
            pch = os.path.join(self.tmp, "pch")
            os.makedirs(pch, exist_ok=True)
            shutil.copy(os.path.join(TAU_INC, "TAU.h"), pch)
            rc, _, _ = self.procs.run(
                ["g++", "-std=c++17", "-O0", "-w", "-x", "c++-header",
                 os.path.join(TAU_INC, "TAU.h"), "-o", os.path.join(pch, "TAU.h.gch")],
                cwd=self.tmp, env=self.env, timeout=120)
            if rc != 0:
                raise BenchError("g++ could not precompile TAU.h")
            incs += ["-I", pch, "-I", TAU_INC]
        objs, running = [], []
        for tu in self.man["tus"]:
            obj = os.path.join(srcdir, tu + ".o")
            objs.append(obj)
            running.append(self.procs.popen(
                ["g++", "-std=c++17", "-O0", "-w", "-c"] + incs + [tu, "-o", obj],
                cwd=srcdir, env=self.env, stderr=subprocess.DEVNULL))
            if len(running) == 4 or tu == self.man["tus"][-1]:
                for p in running:
                    rc = p.wait(timeout=120)
                    self.procs.live.remove(p)
                    if rc != 0:
                        raise BenchError(f"g++ rejected the generated program ({tu})")
                running = []
        libs = [os.path.join(HARNESS_BUILD, "libpdt_stl_impl.a")]
        if tau:
            libs += [os.path.join(PDT_BUILD, "src", "tau", "libpdt_tau_rt.a"), "-lpthread"]
        rc, _, _ = self.procs.run(["g++"] + objs + libs + ["-o", out], cwd=srcdir,
                                  env=self.env, timeout=120)
        if rc != 0:
            raise BenchError(f"linking {out} failed")

    # -- preparation (untimed, except the cold daemon start) -------------

    def prepare(self):
        w = self.w
        self.src = os.path.join(self.tmp, "src")
        if w["shape"] == "wide":
            m = gen.generate_wide(self.src, self.seed, w["tus"])
        else:
            m = gen.generate_deep(self.src, self.seed)
        self.man = man = m.to_json()

        # Cold builds of the original and of the edited sources: the
        # references every cold build and warm rebuild must equal, and the
        # two databases the daemon swaps between.
        self.orig_ref = os.path.join(self.tmp, "orig_ref.pdb")
        self.edit_ref = os.path.join(self.tmp, "edit_ref.pdb")
        self.write_sources("edit")
        rc, _, _ = self.procs.run(self.cxxparse(man["tus"], self.edit_ref), cwd=self.src)
        self.write_sources("orig")
        rc2, _, _ = self.procs.run(self.cxxparse(man["tus"], self.orig_ref), cwd=self.src)
        if rc or rc2:
            raise BenchError("cxxparse rejected the generated corpus")
        self.same_as_first("build", self.orig_ref)
        self.same_as_first("rebuild", self.edit_ref)
        ascii_db = os.path.join(self.tmp, "orig.pdb")
        rc, _, _ = self.procs.run([os.path.join(TOOLS, "pdbconv"), self.orig_ref,
                                   "--to=ascii", "-o", ascii_db], cwd=self.tmp)
        with open(ascii_db) as f:
            self.orig_pdb = oracle.parse_pdb(f.read())
        for p in oracle.check_structure(self.orig_pdb, man):
            self.problem("structure: " + p)

        # Figure 7 path: instrument, compile with g++, run, merge.
        instr = os.path.join(self.tmp, "instr")
        shutil.copytree(self.src, instr)
        for rel in man["instrumented"]:
            rc, _, _ = self.procs.run(
                [os.path.join(PDT_BUILD, "src", "tau", "tau_instr"), ascii_db, rel,
                 "-o", os.path.join(instr, rel)], cwd=self.src)
            if rc:
                raise BenchError(f"tau_instr failed on {rel}")
        self.exe_instr = os.path.join(self.tmp, "prog_instr")
        self.exe_plain = os.path.join(self.tmp, "prog_plain")
        self.gxx(instr, self.exe_instr, True)
        plain = os.path.join(self.tmp, "plain")
        shutil.copytree(self.src, plain)
        self.gxx(plain, self.exe_plain, False)
        if man["extra_tu"]:
            rc, _, _ = self.procs.run(["g++", "-std=c++17", "-fsyntax-only",
                                       man["extra_tu"]], cwd=self.src, env=self.env)
            if rc:
                self.problem("g++ rejects the nested class-template TU")
        self.profdir = os.path.join(self.tmp, "profiles")
        os.makedirs(self.profdir)
        running = []
        procs = w["profiles"]
        for i in range(procs):
            env = dict(self.env, TAU_PROFILE_FILE=self.profdir, TAU_NODE=str(i),
                       TAU_CONTEXT="0")
            running.append(self.procs.popen([self.exe_instr, "1"], cwd=self.tmp, env=env,
                                            stdout=subprocess.DEVNULL))
            if len(running) >= 4 or i == procs - 1:
                for p in running:
                    if p.wait(timeout=OP_TIMEOUT) != 0:
                        raise BenchError("instrumented program failed")
                    self.procs.live.remove(p)
                running = []
        self.profiles = sorted(os.path.join(self.profdir, f)
                               for f in os.listdir(self.profdir))
        rc, _, out = self.procs.run([os.path.join(TOOLS, "tauprof")] + self.profiles +
                                    ["--format=csv"], cwd=self.tmp)
        rows = oracle.parse_profile_csv(out.decode())
        for p in oracle.check_profile(rows, man, 1, procs):
            self.problem("profile: " + p)
        # The timed instrumented run makes about EVENTS profiled calls.
        per_rep = sum(man["per_rep"].values())
        self.reps = max(1, round(EVENTS / per_rep))
        self.events_per_run = sum(oracle.expected_calls(man, self.reps, 1).values())

        # pdbd requests, fixed shares in a seeded order: 60 % lookup, 35 %
        # single-routine defuse, 5 % reports split evenly over calltree,
        # hierarchy and check.
        rng = random.Random(self.seed)
        q = w["queries"]
        n_report = q // 20 // 3 * 3
        n_defuse = q * 35 // 100
        lines = []
        for i in range(q - n_report - n_defuse):
            name = man["point_names"][i % len(man["point_names"])]
            lines.append(("point", "lookup", name, json.dumps({"q": "lookup", "name": name})))
        for i in range(n_defuse):
            name = rng.choice(man["defuse_routines"])
            lines.append(("point", "defuse", name,
                          json.dumps({"q": "defuse", "routine": name, "defs": True})))
        for i in range(n_report):
            verb = ["calltree", "hierarchy", "check"][i % 3]
            lines.append(("report", verb, "-", json.dumps({"q": verb})))
        rng.shuffle(lines)
        self.reqs = os.path.join(self.tmp, "requests.tsv")
        with open(self.reqs, "w") as f:
            for line in lines:
                f.write("\t".join(line) + "\n")
        log(f"prepared in {time.monotonic() - T0:.1f}s")

        # Cold daemon start: launch to first answered request.
        def start():
            t = time.perf_counter()
            self.pdbd = self.procs.popen(
                [os.path.join(PDT_BUILD, "src", "pdbd", "pdbd"), self.orig_ref,
                 "--socket", "pdbd.sock"], TWO, cwd=self.tmp, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            self.status_request()
            return time.perf_counter() - t, None
        self.timed("setup_s", start, TWO)
        self.gens = {1: "orig"}
        self.rss_one_gen = vm_status(self.pdbd.pid, "VmRSS")

    def socket_path(self):
        # Relative, because AF_UNIX paths are limited to 107 bytes and the
        # checkout may sit deep in the file system.
        return os.path.relpath(os.path.join(self.tmp, "pdbd.sock"))

    def status_request(self):
        deadline = time.monotonic() + 30
        sock_path = self.socket_path()
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(sock_path)
                break
            except OSError:
                s.close()
                if self.pdbd.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("pdbd did not start")
                time.sleep(0.0005)
        with s:
            s.sendall(b'{"q": "status"}\n')
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf)

    # -- one round ---------------------------------------------------------

    def build_pair(self):
        """Cold build into an empty cache, then the edit and a warm rebuild."""
        tus = self.man["tus"]
        cache = os.path.join(self.tmp, "cache")
        shutil.rmtree(cache, ignore_errors=True)
        out = os.path.join(self.tmp, "round_a.pdb")
        (rc, rss), _ = self.timed("build_s", lambda: self.spawn(
            self.cxxparse(tus, out, cache), self.src, cpus=TWO), TWO)
        if self.op(rc == 0):
            self.plain.setdefault("build_peak_rss_mb", []).append(rss / 1024)
            if not self.same_as_first("build", out):
                self.problem("cold build differs from the reference cold build")
        out = os.path.join(self.tmp, "round_b.pdb")
        self.write_sources("edit")
        (rc, _), _ = self.timed("rebuild_s", lambda: self.spawn(
            self.cxxparse(tus, out, cache), self.src, cpus=TWO), TWO)
        self.write_sources("orig")
        if self.op(rc == 0) and not self.same_as_first("rebuild", out):
            self.problem("warm rebuild differs from a cold build of the edited sources")

    def check(self):
        report = os.path.join(self.tmp, "check.json")
        with open(report, "w") as f:
            (rc, rss), _ = self.timed("check_s", lambda: self.spawn(
                [os.path.join(TOOLS, "pdbcheck"), self.orig_ref, "--checks=all",
                 "--format=json"], self.tmp, stdout=f))
        if self.op(rc in (0, 1)):
            self.plain.setdefault("check_peak_rss_mb", []).append(rss / 1024)
            first = "check" not in self.first_output
            if not self.same_as_first("check", report):
                self.problem("pdbcheck report differs between runs on one database")
            elif first:
                with open(report) as f:
                    for p in oracle.check_findings(oracle.finding_keys(f.read()), self.man):
                        self.problem("findings: " + p)

    def program_runs(self):
        rdir = os.path.join(self.tmp, "round_prof")
        os.makedirs(rdir, exist_ok=True)
        env = dict(self.env, TAU_PROFILE_FILE=rdir, TAU_NODE="0", TAU_CONTEXT="0")
        (rc, _), _ = self.timed("instr_s", lambda: self.spawn(
            [self.exe_instr, str(self.reps)], self.tmp, env))
        shutil.rmtree(rdir)
        self.op(rc == 0)
        (rc, _), _ = self.timed("plain_s", lambda: self.spawn(
            [self.exe_plain, str(self.reps)], self.tmp, self.env))
        self.op(rc == 0)

    def merge(self):
        dyn = os.path.join(self.tmp, "dyn.pdb")
        (rc, _), _ = self.timed("profile_merge_s", lambda: self.spawn(
            [os.path.join(TOOLS, "tauprof")] + self.profiles +
            ["--pdb", self.orig_ref, "--db-out", dyn, "--db-format=bin"], self.tmp))
        if not self.op(rc == 0):
            return
        # One operation per dp row: is it linked to the routine it names?
        # Outputs equal to the first merge's carry the same verdicts.
        first = "merge" not in self.first_output
        if not self.same_as_first("merge", dyn):
            self.problem("tauprof output differs between merges of one profile set")
        elif first:
            ascii_dyn = os.path.join(self.tmp, "dyn_ascii.pdb")
            rc, _, _ = self.procs.run([os.path.join(TOOLS, "pdbconv"), dyn, "--to=ascii",
                                       "-o", ascii_dyn], cwd=self.tmp)
            if rc:
                raise BenchError("pdbconv could not read the tauprof database")
            with open(ascii_dyn) as f:
                self.links = oracle.dp_link_results(oracle.parse_pdb(f.read()))
        for _, ok in self.links:
            self.op(ok)

    def query_batch(self, target):
        """One batch of the request file over CONNS connections, with one swap
        to target on its own connection after half the batch."""
        recs = os.path.join(self.tmp, "records.tsv")
        q = self.w["queries"]

        def batch():
            rc, wall, out = self.procs.run(
                [PROBE, "load", "pdbd.sock", str(CONNS), self.reqs, recs, target,
                 str(q // 2)], cwd=self.tmp, cpus=TWO)
            summary = json.loads(out.decode().strip().splitlines()[-1])
            return summary["wall_ns"] / 1e9, summary
        summary, span = self.timed("batch_s", batch, TWO)
        if summary["swap_ok"]:
            prev = max(self.gens)
            self.gens[summary["swap_gen"]] = "edit" if target == self.edit_ref else "orig"
            self.times.setdefault("swap_s", []).append((summary["swap_ns"] / 1e9, span,
                                                        TWO))
            if summary["swap_gen"] <= prev:
                self.problem("swap did not increase the generation")
        else:
            self.problem("swap failed")
        records = []
        with open(recs) as f:
            for line in f:
                c, _, kind, verb, arg, ns, ok, g, gf, found = line.rstrip("\n").split("\t")
                records.append({"conn": int(c), "kind": kind, "verb": verb, "arg": arg,
                                "ns": int(ns), "ok": ok == "1", "gen": int(g),
                                "generations": int(gf), "found": found == "1"})
        self.attempted += q
        self.failed += q - sum(1 for r in records if r["ok"])
        for p in oracle.check_responses(records, self.gens, self.man):
            self.problem("pdbd: " + p)
        # Latencies are filed per batch; metrics() takes each percentile per
        # batch and then summarizes over the batches.
        self.batches += 1
        for r in records:
            name = f"{r['kind']}_s.{self.batches - 1}"
            self.times.setdefault(name, []).append((r["ns"] / 1e9, span, TWO))
        self.plain.setdefault("load.client_us", []).append(summary["client_ns_per_req"] / 1e3)

    def round(self):
        for _ in range(BUILD_REPS):
            self.build_pair()
        if self.man["extra_tu"]:
            # The class-template member today's parser rejects.
            rc, _, _ = timed_run(self.procs, [os.path.join(TOOLS, "cxxparse"),
                                              self.man["extra_tu"], "-o", "nested.pdb"],
                                 self.src)
            self.op(rc == 0)
        for _ in range(CHECK_REPS):
            self.check()
        for _ in range(RUN_REPS):
            self.program_runs()
        for _ in range(MERGE_REPS):
            self.merge()
        # Batches swap to the edited database and back in turn, so every
        # round starts from the same daemon state.
        for b in range(self.w["batches"]):
            self.query_batch(self.edit_ref if b % 2 == 0 else self.orig_ref)
            if self.batches == 1:
                # Peak across the first swap: the same work in every run.
                # Later swaps can overlap a request that still holds the
                # generation before, and then a third one is resident.
                self.rss_two_gen = vm_status(self.pdbd.pid, "VmHWM")

    def shutdown_daemon(self):
        """pdbd keeps serving while the connection that sent shutdown stays
        open, so the reply is read and the connection closed before waiting."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(self.socket_path())
            s.sendall(b'{"q": "shutdown"}\n')
            s.recv(65536)
        try:
            ok = self.pdbd.wait(timeout=10) == 0
        except subprocess.TimeoutExpired:
            self.procs.kill(self.pdbd)
            ok = False
        self.procs.live.remove(self.pdbd)
        return ok

    # -- traced layer probes ---------------------------------------------

    def traced(self):
        man = self.man
        tus = man["tus"]
        L = self.layer
        out = os.path.join(self.tmp, "layers.json")

        def probe(args, cwd):
            def call():
                rc, wall, _ = self.procs.run([PROBE] + args, cwd=cwd, cpus=ONE)
                if rc != 0:
                    raise BenchError(f"probe {args[0]} failed")
                return wall, None
            _, span = self.timed("probe", call)
            with open(out) as f:
                return json.load(f), self.clock.factor(span, ONE)

        def scale(name, value, f):
            if name.endswith(("_ms", "_us")):
                return value * f
            return value / f if name.endswith("_per_s") else value

        for args, cwd in [
                (["layers-build", out, "-I", STL, "--"] + tus, self.src),
                (["layers-check", out, self.orig_ref], self.tmp),
                (["layers-query", out, self.orig_ref, self.reqs], self.tmp),
                (["layers-tauprof", out, self.orig_ref] + self.profiles, self.tmp)]:
            vals, f = probe(args, cwd)
            for k, v in vals.items():
                L[k] = scale(k, v, f)

        # The tools' own counters and spans, from a traced cold build and a
        # traced warm rebuild.
        cache = os.path.join(self.tmp, "trace_cache")
        stats = os.path.join(self.tmp, "stats.json")
        trace = os.path.join(self.tmp, "trace.json")
        db = os.path.join(self.tmp, "traced.pdb")
        (rc, _), span = self.timed("traced_build_s", lambda: self.spawn(self.cxxparse(
            tus, db, cache, ["--stats=json", "--stats-out", stats, "--trace-out", trace]),
            self.src, cpus=TWO), TWO)
        if rc != 0:
            raise BenchError("traced cold build failed")
        f = self.clock.factor(span, TWO)
        L["trace.overhead_ms"] = (self.corrected("traced_build_s")[0] -
                                  statistics.median(self.corrected("build_s"))) * 1e3
        with open(stats) as fh:
            counters = json.load(fh)["counters"]
        for k in ["lex.tokens", "sema.class_instantiations", "sema.bodies_instantiated",
                  "il.items", "merge.duplicates_elided"]:
            L[k] = counters[k]
        with open(trace) as fh:
            events = json.load(fh)
        events = events["traceEvents"] if isinstance(events, dict) else events

        def spans(name):
            return sorted((e for e in events if e.get("name") == name and e.get("ph") == "X"),
                          key=lambda e: e["ts"])
        compiles = spans("tu.compile")
        L["driver.compile_cpu_ms"] = sum(e["dur"] for e in compiles) / 1e3 * f
        L["driver.compile_wall_ms"] = (max(e["ts"] + e["dur"] for e in compiles) -
                                       compiles[0]["ts"]) / 1e3 * f
        # The driver's own merge steps (PDB::merge) and the database write.
        merges = spans("ductape.merge")
        L["ductape.merges"] = len(merges)
        L["ductape.merge_ms"] = sum(e["dur"] for e in merges) / 1e3 * f
        L["ductape.last_merge_ms"] = merges[-1]["dur"] / 1e3 * f if merges else 0
        L["pdb.write_ms"] = sum(e["dur"] for e in spans("pdb.write")) / 1e3 * f
        L["pdb.db_bytes"] = os.path.getsize(db)
        self.write_sources("edit")
        (rc, _), span = self.timed("traced_rebuild_s", lambda: self.spawn(self.cxxparse(
            tus, os.path.join(self.tmp, "traced_b.pdb"), cache,
            ["--stats=json", "--stats-out", stats]), self.src, cpus=TWO), TWO)
        f = self.clock.factor(span, TWO)
        self.write_sources("orig")
        with open(stats) as fh:
            st = json.load(fh)
        phases = {p["name"]: p["total_us"] for p in st["timings"]["phases"]}
        L["cache.key_ms"] = phases.get("cache.scan", 0) / 1e3 * f
        L["cache.fetch_ms"] = phases.get("cache.fetch", 0) / 1e3 * f
        hits, misses = st["cache"]["hits"], st["cache"]["misses"]
        L["cache.hits"], L["cache.misses"] = hits, misses
        L["cache.hit_ratio"] = hits / max(1, hits + misses)

    # -- driver ------------------------------------------------------------

    def execute(self):
        os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "runs"))
        self.env = dict(os.environ, TMPDIR=self.tmp)
        try:
            self.clock = KernelClock(self.procs)
            self.prepare()
            start = time.monotonic()
            rounds = 0
            while rounds < MIN_ROUNDS or time.monotonic() - start < self.seconds:
                self.round()
                rounds += 1
            self.rounds = rounds
            if self.trace:
                self.traced()
            if not self.shutdown_daemon():
                self.op(False)
                self.problem("pdbd did not exit within 10 s of shutdown; killed")
            self.clock.close(self.procs)
        finally:
            self.procs.stop_all()
            shutil.rmtree(self.tmp, ignore_errors=True)

    def metrics(self):
        """(metrics for the JSON line, table lines with raw values beside)."""
        med = statistics.median

        def pct(vals, q):
            vals = sorted(vals)
            return vals[min(len(vals) - 1, int(q * len(vals)))]

        q = self.w["queries"]
        ev = self.events_per_run
        values = {}   # name -> (corrected, raw)
        for name in ["setup_s", "build_s", "rebuild_s", "check_s", "swap_s",
                     "profile_merge_s"]:
            values[name] = (med(self.corrected(name)), med(self.raw(name)))
        for name in ["build_peak_rss_mb", "check_peak_rss_mb"]:
            values[name] = (med(self.plain[name]),) * 2
        # Percentiles per batch, then the median over the batches; for the
        # p99 the lower quartile over the batches, because an occasional
        # batch whose replies were held up by the host reads 5-10 times the
        # usual p99 (see README.md).
        def lower_quartile(vals):
            return statistics.quantiles(vals, n=4, method="inclusive")[0]
        for name, kind, p, over in [("point_query_p50_ms", "point", 0.5, med),
                                    ("point_query_p99_ms", "point", 0.99, lower_quartile),
                                    ("report_query_p50_ms", "report", 0.5, med)]:
            batches = [f"{kind}_s.{i}" for i in range(self.batches)]
            values[name] = (over([pct(self.corrected(b), p) for b in batches]) * 1e3,
                            over([pct(self.raw(b), p) for b in batches]) * 1e3)
        values["queries_per_s"] = (q / med(self.corrected("batch_s")),
                                   q / med(self.raw("batch_s")))
        values["daemon_peak_rss_mb"] = (self.rss_two_gen / 1024,) * 2
        values["events_per_s"] = (ev / med(self.corrected("instr_s")),
                                  ev / med(self.raw("instr_s")))
        overhead = ((med(self.corrected("instr_s")) - med(self.corrected("plain_s"))) /
                    ev * 1e9)

        if self.trace:
            L = dict(self.layer)
            L["tau.overhead_ns_per_event"] = overhead
            L["load.client_us"] = med(self.plain["load.client_us"])
            L["pdbd.transport_us"] = values["point_query_p50_ms"][0] * 1e3 - \
                L["query.handle_point_us"]
            L["pdbd.generation_rss_mb"] = (self.rss_two_gen - self.rss_one_gen) / 1024
            return {name: {"value": round(float(L[name]), 6), "unit": unit}
                    for name, unit in PER_LAYER}, []
        out, table = {}, []
        for name, unit in END_TO_END:
            cor, raw = values[name]
            out[name] = {"value": round(float(cor), 9), "unit": unit}
            table.append(f"{name:22s} {cor:14.6g} {unit:10s} raw {raw:.6g}")
        return out, table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            import selftest
            return selftest.main()
        if not args.workload:
            ap.error("--workload is required")
        build()
        run = Run(args.workload, args.seed, args.seconds, args.trace)
        run.execute()
        metrics, table = run.metrics()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    for p in run.problems:
        log("CHECK FAILED: " + p)
    bad = [row for row, ok in run.links if not ok]
    if bad:
        log(f"counted failures: {len(bad)} of {len(run.links)} dp rows mislinked: {bad}")
    for name in sorted(run.times):
        vals = run.corrected(name)
        if len(vals) <= 64:
            log(f"  {name}: " + " ".join(f"{v:.4g}" for v in vals))
    for kind in ["point", "report"]:
        log(f"  {kind} p50/p99 ms by batch: " + " ".join(
            "{:.4g}/{:.4g}".format(*(1e3 * statistics.quantiles(run.corrected(f"{kind}_s.{i}"),
                                                                 n=100)[q] for q in (49, 98)))
            for i in range(run.batches)))
    log(f"{args.workload} seed {args.seed}: {run.rounds} rounds, "
        f"{run.attempted} operations, {run.failed} failed")
    for line in table:
        print(line)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
