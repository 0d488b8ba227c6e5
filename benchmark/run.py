#!/usr/bin/env python3
"""The repository benchmark: end-to-end runs of the cscpta binary.

Usage (from the repository root):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds cscpta and benchtool from the checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), generates the workload's inputs
from the seed with src/workload, and drives the unmodified cscpta binary
in a closed loop with one client for --seconds seconds. Every output is
checked; failed operations are counted against attempted ones, with their
cause, and never retried. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
instead replays the same inputs in-process (benchtool trace), writes a
Chrome trace-event file under .bench_out/ and reports the per-layer
metrics. See benchmark/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s: no child outlives RUN_BUDGET_S from the
# run's start (run() sets the deadline), nor CHILD_TIMEOUT_S.
RUN_BUDGET_S = 165.0
CHILD_TIMEOUT_S = 60.0
deadline = time.perf_counter() + RUN_BUDGET_S
# The set-up runs at least SETUP_REPEATS times, and a quick one (serve-edit's
# takes well under 0.1 s) repeats until SETUP_MIN_S have passed, at most
# SETUP_MAX_REPEATS times: the median of a few tiny timings is noisy.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 15
# `benchtool calibrate` takes this long on the reference host speed; the
# end-to-end times are scaled to it (see speed()).
CALIBRATION_REF_MS = 400.0
EXTRA_OPS = 10
FACT_VARS = 200
SPECS_SOLVE = ["ci", "csc", "2obj", "zipper-e"]
SPECS_BATCH = ["ci", "csc", "2obj"]
# batch-store runs its batches on one pool thread. With more, analyses of
# one program race on the unlocked Program::isSubtype cache and crash or
# answer wrongly (see benchmark/README.md); a fix of that race should
# raise this to 4.
BATCH_JOBS = 1
METRIC_KEYS = ("fail_casts", "reach_methods", "poly_calls", "call_edges")


class CheckFailed(Exception):
    """An output check failed: the program answered wrongly."""


class OpFailed(Exception):
    """A cscpta child died, exited nonzero, timed out or answered ok:false."""


# --------------------------------------------------------------------------
# Build and host metadata
# --------------------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures (once) and builds cscpta and benchtool; returns paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("benchmark: run from the repository root; the program's "
                 "sources (CMakeLists.txt, src/) are missing")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "bench-build.log")
    with open(log, "w") as fh:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", BENCH_DIR, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=fh, stderr=fh)
            if rc != 0:
                shutil.rmtree(bdir, ignore_errors=True)
                sys.exit(f"benchmark: cmake configure failed (exit {rc})")
        rc = subprocess.call(
            ["cmake", "--build", bdir, "--target", "cscpta", "benchtool",
             "-j", str(os.cpu_count() or 1)], stdout=fh, stderr=fh)
    if rc != 0:
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        sys.exit(f"benchmark: build failed (exit {rc})")
    return (os.path.join(bdir, "csc", "tools", "cscpta"),
            os.path.join(bdir, "benchtool"))


def host_metadata():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as fh:
            for line in fh:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler += " (" + subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=10).stdout.splitlines()[0] + ")"
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "compiler": compiler,
            "commit": commit or "none (not a git checkout)",
            "source_sha256": source_digest()}


def source_digest():
    """Digest of the program's sources, standing in for a commit id."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# Children
# --------------------------------------------------------------------------

def describe_status(status):
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        try:
            return f"died by signal {sig} ({signal.Signals(sig).name})"
        except ValueError:
            return f"died by signal {sig}"
    return f"exited {os.WEXITSTATUS(status)}"


# Children not yet reaped; stop_children() ends them if the run is stopped.
LIVE = set()


class Child:
    """One cscpta process: spawned, watched by a timeout, reaped with
    wait4 so its own CPU time and peak RSS are known."""

    def __init__(self, argv, stdout, stdin=None):
        self.start = time.perf_counter()
        timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - self.start))
        self.proc = subprocess.Popen(argv, stdin=stdin, stdout=stdout,
                                     stderr=subprocess.PIPE)
        self.timed_out = False
        self.reaped = False
        self.lock = threading.Lock()
        LIVE.add(self)
        self.timer = threading.Timer(timeout, self._kill)
        self.timer.daemon = True
        self.timer.start()
        self.stderr_tail = b""
        self.drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self.drain.start()

    def _kill(self):
        with self.lock:
            if not self.reaped:
                self.timed_out = True
                os.kill(self.proc.pid, signal.SIGKILL)

    def _drain_stderr(self):
        for line in self.proc.stderr:
            self.stderr_tail = (self.stderr_tail + line)[-2000:]

    def reap(self):
        """Waits for the child; returns (wall_s, cpu_s, rss_mb)."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        with self.lock:
            self.reaped = True
        LIVE.discard(self)
        self.proc.returncode = (-os.WTERMSIG(status) if os.WIFSIGNALED(status)
                                else os.WEXITSTATUS(status))
        self.timer.cancel()
        self.drain.join()
        for pipe in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            if pipe:
                pipe.close()
        if self.timed_out:
            raise OpFailed(f"timed out after {wall:.0f} s")
        if status != 0:
            tail = self.stderr_tail.decode(errors="replace").strip()
            raise OpFailed(describe_status(status) +
                           (f": {tail.splitlines()[-1]}" if tail else ""))
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def stop_children():
    """Kills and reaps every child still running: the run was stopped while
    waiting for it. (subprocess.run kills its own child on the way out.)"""
    for child in list(LIVE):
        child.timer.cancel()
        try:
            child.proc.kill()
            os.waitpid(child.proc.pid, 0)
        except OSError:
            pass
        LIVE.discard(child)


def run_child(argv, out_path):
    with open(out_path, "wb") as out:
        return Child(argv, out).reap()


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)} is not JSON: {exc}")


# --------------------------------------------------------------------------
# Output checks (none of them trusts the solver)
# --------------------------------------------------------------------------

def strip_timings(node):
    """The timing-free form of a report, as scripts/strip_timings.py."""
    if isinstance(node, dict):
        return {k: strip_timings(v) for k, v in node.items()
                if k != "timings" and not k.endswith("_ms")}
    if isinstance(node, list):
        return [strip_timings(v) for v in node]
    return node


def check_runs(runs, specs, where):
    """Every spec completed, and the csc / 2obj / zipper-e precision
    metrics never exceed ci's (the paper's precision order)."""
    by_name = {r.get("analysis"): r for r in runs}
    if sorted(by_name) != sorted(specs):
        raise CheckFailed(f"{where}: analyses {sorted(by_name)} != {specs}")
    for name, run in by_name.items():
        if run.get("status") != "completed":
            raise CheckFailed(f"{where}: {name} is {run.get('status')}")
    ci = by_name["ci"]["metrics"]
    for name, run in by_name.items():
        for key in METRIC_KEYS:
            if run["metrics"][key] > ci[key]:
                raise CheckFailed(f"{where}: {name} {key} "
                                  f"{run['metrics'][key]} exceeds ci's "
                                  f"{ci[key]}")


def check_sound(report, facts, specs, where):
    """Every dynamic fact of the interpreter is in each analysis's answer:
    each sampled variable's observed objects lie in its points-to set, and
    each analysis reaches at least the methods the run reached."""
    answers = {}
    for q in report.get("queries", []):
        pt = q["points_to"]
        answers[(q["analysis"], pt["var"])] = (
            {o["obj"] for o in pt.get("objects", [])}
            if pt.get("found") else None)
    for spec in specs:
        run = next(r for r in report["runs"] if r["analysis"] == spec)
        if run["metrics"]["reach_methods"] < facts["reached_methods"]:
            raise CheckFailed(f"{where}: {spec} reaches "
                              f"{run['metrics']['reach_methods']} methods, "
                              f"the interpreter {facts['reached_methods']}")
        for var, objs in facts["vars"].items():
            got = answers.get((spec, var))
            if got is None:
                raise CheckFailed(f"{where}: {spec} has no answer for {var}")
            missing = set(objs) - got
            if missing:
                raise CheckFailed(f"{where}: {spec} misses objects "
                                  f"{sorted(missing)} of {var}")


def check_same(got, want, what):
    if got != want:
        raise CheckFailed(f"{what} differs")


def strip_meta(answer):
    """An answer with the diagnostics object removed, re-serialized."""
    return json.dumps({k: v for k, v in answer.items() if k != "meta"})


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def percentile(values, q):
    """The q-th percentile (nearest rank) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Workload:
    """Inputs in self.dir; ops driven by the closed loop in measure()."""

    def __init__(self, tools, work_dir, seed, tier=None):
        self.cscpta, self.benchtool = tools
        self.dir = work_dir
        self.seed = seed
        self.tier = tier  # overrides every tier (the self-test uses it)
        self.extra = {}   # workload figures printed besides the metrics

    def gen(self, tier, name, salt=0):
        """Generates a tier from the seed; the salt tells apart several
        programs of one workload."""
        path = os.path.join(self.dir, name)
        subprocess.run([self.benchtool, "gen", self.tier or tier,
                        str(self.seed + salt), path], check=True)
        return path

    def facts(self, jir, out):
        with open(os.path.join(self.dir, out), "w") as fh:
            subprocess.run([self.benchtool, "facts", str(self.seed),
                            str(FACT_VARS), jir], stdout=fh, check=True)
        return read_json(os.path.join(self.dir, out))

    def rel(self, path):
        return os.path.relpath(path, ROOT)

    def soundness(self, files, specs, facts, where):
        """A check child: the analyses with the fact variables queried."""
        out = os.path.join(self.dir, "sound.json")
        argv = [self.cscpta, *map(self.rel, files), "--json", "--analyses",
                ",".join(specs)]
        for var in facts["vars"]:
            argv += ["--points-to", var]
        run_child(argv, out)
        report = self.sound_report = read_json(out)
        check_runs(report["runs"], specs, where)
        check_sound(report, facts, specs, where)
        return report


class SolveXxl(Workload):
    """`cscpta <scale-xxl.jir> --json --analyses ci,csc,2obj,zipper-e`."""

    specs = SPECS_SOLVE

    def setup(self):
        self.jir = self.gen("scale-xxl", "program.jir")
        self.fact_set = self.facts(self.jir, "facts.json")
        self.reference = None

    def check_once(self):
        report = self.soundness([self.jir], self.specs, self.fact_set,
                                "soundness")
        self.reference = strip_timings(report["runs"])

    def op(self, i):
        out = os.path.join(self.dir, f"report-{i % 2}.json")
        wall, cpu, rss = run_child(
            [self.cscpta, self.rel(self.jir), "--json", "--analyses",
             ",".join(self.specs)], out)
        report = self.last = read_json(out)
        self.check_report(report)
        return {"op_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                "analyze_s": wall}

    def check_report(self, report):
        check_runs(report["runs"], self.specs, "report")
        if self.reference is not None:
            check_same(strip_timings(report["runs"]), self.reference,
                       "report (timings stripped) vs the soundness-checked "
                       "run")


class BatchStore(Workload):
    """Three `cscpta --batch --jobs 1` passes over scale-xl x ci,csc,2obj:
    no store, cold --store, warm --store."""

    specs = SPECS_BATCH

    def setup(self):
        self.jirs = [self.gen("scale-xl", "scale-xl.jir")]
        self.manifest = os.path.join(self.dir, "manifest.json")
        with open(self.manifest, "w") as fh:
            json.dump({"entries": [
                {"label": os.path.basename(j)[:-4],
                 "program": os.path.basename(j), "specs": self.specs}
                for j in self.jirs]}, fh)
        self.fact_sets = [self.facts(j, f"facts-{k}.json")
                          for k, j in enumerate(self.jirs)]
        self.reference = None

    def check_once(self):
        reference = []
        for jir, facts in zip(self.jirs, self.fact_sets):
            report = self.soundness([jir], self.specs, facts,
                                    f"soundness {os.path.basename(jir)}")
            reference.append({r["analysis"]: r["metrics"]
                              for r in report["runs"]})
        self.reference = reference

    def op(self, i):
        """The three passes."""
        store = os.path.join(self.dir, "store")
        shutil.rmtree(store, ignore_errors=True)
        base = [self.cscpta, "--batch", self.rel(self.manifest), "--jobs",
                str(BATCH_JOBS), "--json"]
        res = {"cpu_s": 0.0, "peak_rss_mb": 0.0}
        outs = []
        try:
            for name, extra in (("nostore_s", []),
                                ("cold_s", ["--store", self.rel(store)]),
                                ("warm_s", ["--store", self.rel(store)])):
                out = os.path.join(self.dir, f"{name[:-2]}.json")
                try:
                    wall, cpu, rss = run_child(base + extra, out)
                except OpFailed as exc:
                    raise OpFailed(f"{name[:-2]} pass {exc}")
                res[name] = wall
                res["cpu_s"] += cpu
                res["peak_rss_mb"] = max(res["peak_rss_mb"], rss)
                if name == "cold_s":
                    res["store_mb"] = dir_mb(store)
                with open(out, "rb") as fh:
                    outs.append(fh.read())
        finally:
            shutil.rmtree(store, ignore_errors=True)
        self.last = outs
        self.check_aggregates(outs)
        res["op_s"] = res["nostore_s"] + res["cold_s"] + res["warm_s"]
        return res

    def check_aggregates(self, outs):
        check_same(outs[1], outs[0], "cold --store aggregate vs no store")
        check_same(outs[2], outs[0], "warm --store aggregate vs no store")
        try:
            agg = json.loads(outs[0])
        except ValueError as exc:
            raise CheckFailed(f"aggregate is not JSON: {exc}")
        for entry, ref in zip(agg["entries"], self.reference or
                              [None] * len(agg["entries"])):
            check_runs(entry["runs"], self.specs, entry["label"])
            if ref is not None:
                check_same({r["analysis"]: r["metrics"] for r in entry["runs"]},
                           ref, f"{entry['label']} metrics vs the "
                           "soundness-checked run")


class ServeEdit(Workload):
    """One `cscpta --serve scale-l.jir` NDJSON session per op."""

    specs = SPECS_SOLVE
    edits = 16
    reads_per_edit = 12
    final_reads = 24

    def setup(self):
        self.jir = self.gen("scale-l", "program.jir")
        self.fact_set = self.facts(self.jir, "facts.json")
        out = subprocess.run([self.benchtool, "catalog", self.jir],
                             capture_output=True, text=True, check=True)
        self.make_session(json.loads(out.stdout))
        self.oracle = None

    # The shape of a session is fixed, so that its cost does not hinge on
    # the seed: in each block of reads, the kind of each read, its spec
    # (position 3 csc, position 7 2obj, the rest the default ci) and the
    # two "full" reads are fixed. ci answers demand-driven until its full
    # read in block 2, then from the resident fixpoint; every fourth edit
    # adds a method to an existing class. The seed picks the variables,
    # methods and classes.
    KINDS = ("points-to", "points-to", "may-alias", "points-to", "callees",
             "points-to", "may-alias", "points-to", "points-to", "may-alias",
             "points-to", "callees")
    FULL = {(2, 5), (4, 7)}

    def make_session(self, cat):
        """Blocks of reads with an add-delta edit after each; the last
        block of reads follows the last delta."""
        rng = random.Random(self.seed)
        vars_ = list(cat["vars"])
        requests, self.deltas = [], []

        def read(block, j):
            kind = self.KINDS[j % len(self.KINDS)]
            q = {"op": "query", "kind": kind}
            if kind == "points-to":
                q["var"] = rng.choice(vars_)
            elif kind == "may-alias":
                q["a"], q["b"] = rng.choice(vars_), rng.choice(vars_)
            else:
                q["method"] = rng.choice(cat["methods"])
            if j % len(self.KINDS) in (3, 7):
                q["spec"] = "csc" if j % len(self.KINDS) == 3 else "2obj"
            if (block, j) in self.FULL:
                q["mode"] = "full"
            return q

        for k in range(self.edits):
            requests += [read(k, j) for j in range(self.reads_per_edit)]
            ent = rng.choice(cat["entities"])
            if k % 4 == 3:
                src = (f"extend class {ent} {{ method bench_{k}(): Object {{ "
                       f"var o: Object; o = new Object; return o; }} }}")
            else:
                scen = rng.choice(cat["scenarios"])
                src = (f"extend class {scen} {{ append method run {{ "
                       f"var bd_{k}: {ent}; bd_{k} = new {ent}; "
                       f"var bv_{k}: Object; bv_{k} = new Object; "
                       f"call bd_{k}.setVal(bv_{k}); var br_{k}: Object; "
                       f"br_{k} = call bd_{k}.getVal(); }} }}")
                vars_ += [f"{scen}.run.bd_{k}", f"{scen}.run.br_{k}"]
            name = f"delta-{k:02d}.jir"
            with open(os.path.join(self.dir, name), "w") as fh:
                fh.write(src + "\n")
            self.deltas.append(os.path.join(self.dir, name))
            requests.append({"op": "add-delta", "name": name, "source": src})
        self.final = [read(self.edits, j) for j in range(self.final_reads)]
        self.requests = requests + self.final
        with open(os.path.join(self.dir, "session.ndjson"), "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in self.requests)

    def session(self, files, requests):
        """One closed-loop session; returns (answers, latencies, usage)."""
        child = Child([self.cscpta, "--serve", *map(self.rel, files)],
                      subprocess.PIPE, stdin=subprocess.PIPE)
        answers, lat = [], []
        try:
            for req in requests + [{"op": "shutdown"}]:
                t0 = time.perf_counter()
                child.proc.stdin.write((json.dumps(req) + "\n").encode())
                child.proc.stdin.flush()
                line = child.proc.stdout.readline()
                lat.append((time.perf_counter() - t0) * 1000)
                if not line:
                    break
                answers.append(json.loads(line))
        except (OSError, ValueError):
            pass
        finally:
            if child.proc.stdin:
                try:
                    child.proc.stdin.close()
                except OSError:
                    pass
            usage = child.reap()
        if len(answers) != len(requests) + 1:
            raise OpFailed(f"session ended after {len(answers)} of "
                           f"{len(requests) + 1} answers")
        for req, ans in zip(requests, answers):
            if ans.get("ok") is not True:
                raise OpFailed(f"answered {json.dumps(ans)[:200]} to "
                               f"{req['op']}")
        return answers[:-1], lat[:-1], usage

    def check_once(self):
        self.soundness([self.jir], self.specs, self.fact_set, "soundness")
        answers, _, _ = self.session([self.jir, *self.deltas], self.final)
        self.oracle = [strip_meta(a) for a in answers]

    def op(self, i):
        answers, lat, (wall, cpu, rss) = self.session([self.jir],
                                                      self.requests)
        self.last = answers
        self.check_answers(answers)
        queries = [t for r, t in zip(self.requests, lat) if r["op"] == "query"]
        edits = [t for r, t in zip(self.requests, lat)
                 if r["op"] == "add-delta"]
        self.extra.setdefault("query_lat", []).extend(queries)
        self.extra.setdefault("edit_lat", []).extend(edits)
        return {"op_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                "answers_per_s": len(answers) / wall}

    def check_answers(self, answers):
        if self.oracle is None:
            return
        tail = [strip_meta(a) for a in answers[-len(self.final):]]
        check_same(tail, self.oracle,
                   "answers after the last delta vs the from-scratch oracle")


WORKLOADS = {"solve-xxl": SolveXxl, "batch-store": BatchStore,
             "serve-edit": ServeEdit}


def dir_mb(path):
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(d, f))
            except OSError:
                pass
    return total / (1 << 20)


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.causes = []

    def record(self, what, exc):
        self.failed += 1
        if isinstance(exc, CheckFailed):
            self.correct = False
        self.causes.append(f"{what}: {type(exc).__name__}: {exc}")
        print(f"# failed {what}: {exc}", flush=True)


def attempt(tally, what, fn):
    """Runs one op or check; a failure is counted and never retried."""
    tally.attempted += 1
    try:
        return fn()
    except (OpFailed, CheckFailed) as exc:
        tally.record(what, exc)
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        # An output that lacks what a check reads fails the check.
        tally.record(what, CheckFailed(f"malformed output: {exc!r}"))
    return None


def calibrate(benchtool):
    """Wall time in ms of the fixed calibration task."""
    out = subprocess.run([benchtool, "calibrate"], capture_output=True,
                         text=True, check=True).stdout
    return float(out.split()[0])


def speed(before_ms, after_ms):
    """The host's speed relative to the reference, from the calibrations
    that bracket a measurement. The host's speed drifts by a quarter and
    more within minutes, and the calibration task follows the drift;
    multiplying a time by this factor expresses it at the reference speed.
    """
    return CALIBRATION_REF_MS / ((before_ms + after_ms) / 2)


def set_up(cls, tools, seed, tier):
    """Sets the workload up repeatedly (see SETUP_REPEATS); returns the
    workload set up last and the median set-up time at the reference
    speed."""
    cal = calibrate(tools[1])
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and
                                         len(times) < SETUP_MAX_REPEATS):
        work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t0 = time.perf_counter()
        wl = cls(tools, work, seed, tier)
        wl.setup()
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times) * speed(cal, calibrate(tools[1]))


def measure(wl, tally, seconds, started):
    """The closed loop: one op at a time until --seconds have passed. If
    none has succeeded by then, at most EXTRA_OPS more are started, within
    the run's time budget: each failure stays counted. A calibration runs
    between ops; each result gets the speed of the two around it."""
    results = []
    cal = calibrate(wl.benchtool)
    t0 = time.perf_counter()
    i = past = 0
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            if results or past == EXTRA_OPS:
                break
            past += 1
        if i and (time.perf_counter() - started + 1.5 * elapsed / i >
                  RUN_BUDGET_S):
            break
        r = attempt(tally, f"op {i}", lambda: wl.op(i))
        before, cal = cal, calibrate(wl.benchtool)
        if r is not None:
            r["speed"] = speed(before, cal)
            results.append(r)
        i += 1
    return results


def end_to_end(wl, tally, seconds, started, setup_s):
    attempt(tally, "output check", wl.check_once)
    results = measure(wl, tally, seconds, started)
    if not results:
        return None
    med = {k: statistics.median(r[k] for r in results) for k in results[0]}

    def at_ref(key):
        return statistics.median(r[key] * r["speed"] for r in results)

    metrics = {"setup_s": (setup_s, "s"), "op_s": (at_ref("op_s"), "s"),
               "cpu_s": (at_ref("cpu_s"), "s"),
               "peak_rss_mb": (med["peak_rss_mb"], "MB")}
    # Workload figures printed beside the gated metrics, as measured.
    extra = {"op_wall_s": (med["op_s"], "s"), "cpu_wall_s": (med["cpu_s"], "s"),
             "host_speed": (med["speed"], "ratio")}
    extra.update({k: (med[k], u) for k, u in
             (("analyze_s", "s"), ("nostore_s", "s"), ("cold_s", "s"),
              ("warm_s", "s"), ("store_mb", "MB"), ("answers_per_s", "1/s"))
             if k in med})
    if "query_lat" in wl.extra:
        q, e = wl.extra["query_lat"], wl.extra["edit_lat"]
        extra["answer_p50_ms"] = (percentile(q, 50), "ms")
        extra["answer_p95_ms"] = (percentile(q, 95), "ms")
        extra["edit_p50_ms"] = (percentile(e, 50), "ms")
        print(f"# serve samples: {len(q)} query answers, {len(e)} edits")
    extra["error_rate"] = (tally.failed / tally.attempted, "ratio")
    print(f"# ops: {len(results)} succeeded of {tally.attempted - 1} timed")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:>16} {value:14.6f} {unit}")
    return metrics


def traced(wl, tally, name):
    """The per-layer run: benchtool replays the op in-process, untraced
    and traced. A replay that dies is counted and leaves no metrics."""
    trace = os.path.join(OUT_DIR, f"trace-{name}-{wl.seed}.json")
    out = {}

    def replay():
        try:
            proc = subprocess.run(
                [wl.benchtool, "trace", name, wl.dir, trace],
                capture_output=True, text=True,
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise OpFailed("benchtool trace timed out")
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise OpFailed(f"benchtool trace returned {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        # Two replays ran (untraced, traced); one is counted by attempt().
        tally.attempted += res["ops"] - 1
        if res["failed"]:
            tally.failed += res["failed"]
            tally.causes.append("traced replay: " + proc.stderr.strip())
        out.update(res["metrics"])

    attempt(tally, "traced replay", replay)
    if not out:
        return None
    with open(trace) as fh:
        json.load(fh)  # a viewer needs well-formed trace-event JSON
    print(f"# trace: {os.path.relpath(trace, ROOT)}")
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    return {k: (out[k], units[k]) for k in units}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload, seed, seconds, trace, tier=None, tools=None):
    """One benchmark run; returns the result object (last stdout line)."""
    global deadline
    tools = tools or build()
    # The budget starts after the build: the first run in a checkout may
    # build for minutes, later ones find the build up to date.
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    print("# host " + json.dumps(host_metadata()), flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally()
    wl, setup_s = set_up(WORKLOADS[workload], tools, seed, tier)
    try:
        metrics = (traced(wl, tally, workload) if trace else
                   end_to_end(wl, tally, seconds, started, setup_s))
    finally:
        shutil.rmtree(wl.dir, ignore_errors=True)
    for cause in tally.causes:
        print(f"# failure cause: {cause}")
    if metrics is None:
        return None
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("benchmark: stopped"))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    finally:
        stop_children()
    if result is None:
        sys.exit("benchmark: no op succeeded; no result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
