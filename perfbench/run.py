#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The first form builds perfbench/main.exe with dune (from source, inside
the checkout) and runs one measurement.  It prints a provenance line,
the program's diagnostic lines and, last, the result JSON object.  It
exits non-zero, printing no result, when the checkout cannot be built
or the run fails.

The second form runs every workload of BENCHMARK.json briefly, untraced
and traced, and checks that each run is correct, fails nothing and
emits exactly the declared metrics with their declared units.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
SOURCES = ("dune-project", "lib", "bin", "perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository "
             "(dune-project and lib/ are missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "./perfbench/main.exe"]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed", 3)


def git_rev():
    """The checked-out commit, read from .git in this directory only."""
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(".git", ref)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even outside a git repository."""
    h = hashlib.sha256()
    files = []
    for top in SOURCES:
        if os.path.isfile(top):
            files.append(top)
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith("_build"))
            files.extend(os.path.join(root, n) for n in names)
    for path in sorted(files):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_exe(args):
    """Run the benchmark program; returns (returncode, stdout lines)."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out after %d s" % RUN_TIMEOUT_S, 4)
    sys.stderr.write(err)
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return r


def measure(args):
    build()
    print(json.dumps({"provenance": {
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "argv": args,
    }}), flush=True)
    code, lines = run_exe(args)
    if code != 0 or parse_result(lines) is None:
        sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith('{"correct"')))
        fail("benchmark program failed (exit %d)" % code, 5)
    print("\n".join(lines), flush=True)


def selfcheck():
    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.monotonic()
            code, lines = run_exe(["--workload", w["name"], "--seed", "1",
                                   "--seconds", "1", "--trace", str(trace)])
            r = parse_result(lines)
            where = "%s --trace %d" % (w["name"], trace)
            if code != 0 or r is None:
                problems.append("%s: no result (exit %d)" % (where, code))
                continue
            if r["correct"] is not True or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    where, r["correct"], r["attempted"], r["failed"]))
                problems.extend("%s: %s" % (where, l) for l in lines
                                if l.startswith("check-failed") or " check-failed" in l)
            got = {k: v.get("unit") for k, v in r["metrics"].items()}
            for name, unit in declared[trace].items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (where, name))
                elif got[name] != unit:
                    problems.append("%s: metric %s in %s, declared %s" % (
                        where, name, got[name], unit))
            for name in got:
                if name not in declared[trace]:
                    problems.append("%s: undeclared metric %s" % (where, name))
            print("%-40s %5.1f s  %d metrics" % (where, time.monotonic() - t0, len(got)),
                  flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    sys.exit(1 if problems else 0)


def main(argv):
    if argv == ["--selfcheck"]:
        selfcheck()
    names = argv[0::2]
    if sorted(names) != ["--seconds", "--seed", "--trace", "--workload"] or len(argv) != 8:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1 "
             "| run.py --selfcheck")
    measure(argv)


if __name__ == "__main__":
    main(sys.argv[1:])
