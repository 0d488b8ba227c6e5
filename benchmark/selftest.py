#!/usr/bin/env python3
"""Self-test of the repository benchmark (run from the repository root):

    python3 benchmark/selftest.py

On every workload, with every tier replaced by the tiny scale-xs, it runs
the benchmark once untraced and once traced and proves that

  * BENCHMARK.json keeps to its schema, and every metric it declares is
    printed with its unit (end-to-end untraced, per-layer traced), and the
    traced run writes a trace-event file that parses;
  * each output check fails when handed a corrupted report or answer;
  * a child that dies by a signal is one failed op, never retried, and the
    closed loop goes on;
  * the benchmark exits nonzero, printing no result, in a directory that
    holds only BENCHMARK.json and the benchmark itself.

Exits 0 when all of that holds.
"""

import copy
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def expect_check_fails(fn, what):
    try:
        fn()
    except run.CheckFailed as exc:
        expect(True, f"{what} is caught ({exc})")
        return
    expect(False, f"{what} is caught")


def check_schema(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
        [w["name"] for w in spec["workloads"]]
    expect(len(names) == len(set(names)), "names are unique")
    expect(all(NAME.match(n) for n in names), "names are well-formed")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in spec["workloads"]), "workloads carry a short why")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and
               UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"]), "end-to-end metrics and bounds")
    expect(all(set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
               for m in spec["per_layer"]), "per-layer metrics")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and
           setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is declared with the largest bound")


def check_printed(result, declared, what):
    got = result["metrics"] if result else {}
    expect(result is not None and result["attempted"] >= 1 and
           {k: v["unit"] for k, v in got.items()} ==
           {m["name"]: m["unit"] for m in declared} and
           all(isinstance(v["value"], (int, float)) for v in got.values()),
           f"{what}: every declared metric printed with its unit")


def corrupt_checks(tools):
    """Runs one op of each workload on scale-xs, then corrupts it."""
    work = os.path.join(run.OUT_DIR, "selftest-corrupt")
    for name, cls in run.WORKLOADS.items():
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        wl = cls(tools, work, 7, "scale-xs")
        wl.setup()
        wl.check_once()
        wl.op(0)

        # Soundness: drop one observed object from an answer.
        report = copy.deepcopy(wl.sound_report)
        facts = (wl.fact_sets[-1] if name == "batch-store" else wl.fact_set)
        var, objs = next(iter(facts["vars"].items()))
        for q in report["queries"]:
            if q["points_to"]["var"] == var:
                q["points_to"]["objects"] = [
                    o for o in q["points_to"]["objects"]
                    if o["obj"] != objs[0]]
        expect_check_fails(
            lambda: run.check_sound(report, facts, wl.specs, "selftest"),
            f"{name}: an answer missing an observed object")

        # Precision order: csc reporting more may-fail casts than ci.
        runs = copy.deepcopy(report["runs"])
        ci = next(r for r in runs if r["analysis"] == "ci")
        csc = next(r for r in runs if r["analysis"] == "csc")
        csc["metrics"]["fail_casts"] = ci["metrics"]["fail_casts"] + 1
        expect_check_fails(
            lambda: run.check_runs(runs, wl.specs, "selftest"),
            f"{name}: csc less precise than ci")

        if name == "solve-xxl":
            bad = copy.deepcopy(wl.last)
            bad["runs"][1]["stats"]["pts_insertions"] += 1
            expect_check_fails(lambda: wl.check_report(bad),
                               f"{name}: a report that differs from the "
                               "checked run")
        elif name == "batch-store":
            cold = wl.last[1].replace(b'"call_edges":', b'"call_edges":1', 1)
            expect_check_fails(
                lambda: wl.check_aggregates([wl.last[0], cold, wl.last[2]]),
                f"{name}: a cold-store aggregate that differs")
            warm = wl.last[2][:-2] + b"\n"
            expect_check_fails(
                lambda: wl.check_aggregates([wl.last[0], wl.last[1], warm]),
                f"{name}: a truncated warm-store aggregate")
        else:
            bad = copy.deepcopy(wl.last)
            last = bad[-1]
            if "size" in last:
                last["size"] += 1
            elif "alias" in last:
                last["alias"] = not last["alias"]
            else:
                last["reachable"] = not last["reachable"]
            expect_check_fails(lambda: wl.check_answers(bad),
                               f"{name}: a post-delta answer that differs "
                               "from the oracle")
    shutil.rmtree(work, ignore_errors=True)


def check_crash_counted(tools):
    """A batch-store op whose first cscpta child dies of SIGSEGV."""
    work = os.path.join(run.OUT_DIR, "selftest-crash")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = run.BatchStore(tools, work, 7, "scale-xs")
    wl.setup()
    fake = os.path.join(work, "cscpta-crashes-once")
    with open(fake, "w") as fh:
        fh.write(f'#!/bin/sh\nif [ ! -e "{fake}.done" ]; then\n'
                 f'  : > "{fake}.done"; ulimit -c 0; kill -SEGV $$\nfi\n'
                 f'exec "{wl.cscpta}" "$@"\n')
    os.chmod(fake, 0o755)
    wl.cscpta = fake
    tally = run.Tally()
    run.deadline = time.perf_counter() + run.RUN_BUDGET_S
    results = run.measure(wl, tally, 1, time.perf_counter())
    expect(tally.failed == 1 and tally.correct and
           "SIGSEGV" in tally.causes[0] and len(results) >= 1 and
           tally.attempted == len(results) + 1,
           "a child dying of SIGSEGV is one failed op, not retried, and the "
           f"loop goes on ({tally.causes[0] if tally.causes else 'none'})")
    shutil.rmtree(work, ignore_errors=True)


def check_bare_dir():
    """The benchmark alone, without the program's sources, must fail."""
    bare = os.path.join(run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "solve-xxl",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        capture_output=True, text=True, timeout=180)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and not last.startswith("{"),
           "exits nonzero without a result when the sources are absent")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = run.load_spec()
    check_schema(spec)
    tools = run.build()
    for name in run.WORKLOADS:
        check_printed(run.run(name, 1, 1, 0, tier="scale-xs", tools=tools),
                      spec["end_to_end"], f"{name} untraced")
        for old in glob.glob(os.path.join(run.OUT_DIR, f"trace-{name}-*")):
            os.remove(old)
        check_printed(run.run(name, 1, 1, 1, tier="scale-xs", tools=tools),
                      spec["per_layer"], f"{name} traced")
        trace = os.path.join(run.OUT_DIR, f"trace-{name}-1.json")
        try:
            with open(trace) as fh:
                events = json.load(fh)["traceEvents"]
            ok = bool(events) and all(e["ph"] == "X" for e in events)
        except (OSError, ValueError, KeyError):
            ok = False
        expect(ok, f"{name} traced: trace-event file written")
    corrupt_checks(tools)
    check_crash_counted(tools)
    check_bare_dir()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
