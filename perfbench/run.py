#!/usr/bin/env python3
"""Benchmark runner for the flov simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record [--workload W]

It builds `flov` and the helper program `flov-perfbench` from source
(release profile, into `$CARGO_TARGET_DIR`, default `.bench_build`), sets
the workload up from `--seed`, runs the timed `flov` command repeatedly
for `--seconds`, checks every result against the digests recorded in
`perfbench/digests.json`, and prints one JSON object as the last line of
standard output. With `--trace 1` it runs the traced helper instead and
reports the per-layer metrics. See `perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DIGESTS = os.path.join(BENCH, "digests.json")
WORKLOADS = ("fig6_cold", "mesh32_gated", "sweep_warm")
# `--seed` selects one of this many recorded input variants.
VARIANTS = 16
# Set-ups per run; `setup_s` is their median.
SETUPS = {"fig6_cold": 25, "mesh32_gated": 25, "sweep_warm": 3}
# Any single command that runs longer than this is killed and fails.
COMMAND_LIMIT_S = 150
# The engine's worker count and the `--threads` request.
THREADS = "2"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(2)


# ---------------------------------------------------------------- build


def clean_env():
    """The caller's environment without FLOV_* overrides, so every run
    sees the same kernel, cache format and thread count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLOV_")}
    env["FLOV_THREADS"] = THREADS
    return env


def build():
    """Build `flov` and the helper; return their paths and the build's
    KERNEL_VERSION."""
    for need in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "bench")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to perfbench/: run from a checkout of the repository")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = clean_env()
    env["CARGO_TARGET_DIR"] = target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "flov-bench", "--bin", "flov"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH, "Cargo.toml")],
    ):
        code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            fail(f"build failed ({' '.join(cmd)}): exit {code}")
    tool = os.path.join(target, "release", "flov-perfbench")
    kernel_version = json.loads(helper(tool, ["info"], ROOT, clean_env()))["kernel_version"]
    return os.path.join(target, "release", "flov"), tool, kernel_version


# ------------------------------------------------------------- processes


class Result:
    def __init__(self, code, wall, cpu, rss_mb):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb


def timed(cmd, cwd, stdout_path, stderr_path, env):
    """Run `cmd` to completion: exit code, wall seconds, user+system CPU
    seconds and peak resident memory (MB) of that process alone.

    Linux folds the spawning process's peak RSS into the child's at exec,
    so this runner keeps its own memory small: outputs go to files and
    are hashed in blocks, never held whole."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def helper(tool, args, cwd, env):
    """Run the helper untimed; its stdout, or exit on failure."""
    proc = subprocess.run([tool] + args, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=COMMAND_LIMIT_S)
    if proc.returncode != 0:
        fail(f"flov-perfbench {args[0]} failed: exit {proc.returncode}")
    return proc.stdout.decode()


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# ---------------------------------------------------------------- checks


def digest(result):
    """Digest of one RunResult: SHA-256 of its canonical JSON."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def recorded(table, kernel_version, workload, variant):
    """The recorded entry for this workload and variant, or None."""
    return table.get("kernel_versions", {}).get(str(kernel_version), {}).get(workload, {}).get(str(variant))


def count_failed(results, expected):
    """Operations whose result digest differs from the recorded one; a
    missing or extra result counts as failed too."""
    if expected is None:
        return max(len(results), 1)
    got = [digest(r) for r in results]
    return sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))


def parse_results(path):
    """The RunResults a `flov` command printed: a list (`sweep`) or one
    object (`sim --json`); None when the output does not parse."""
    try:
        with open(path) as f:
            value = json.load(f)
    except (OSError, ValueError):
        return None
    return value if isinstance(value, list) else [value]


# ------------------------------------------------------------- workloads


class Workload:
    """One benchmark workload: `setup()` prepares the inputs, `command()`
    is the timed `flov` invocation, `check()` counts failed operations."""

    def __init__(self, name, variant, work, flov, tool, table, kernel_version):
        self.name, self.variant, self.work = name, variant, work
        self.flov, self.tool = flov, tool
        self.env = clean_env()
        self.expected = recorded(table, kernel_version, name, variant)
        self.specs = os.path.join(work, "specs.json")
        self.cache = os.path.join(work, "cache")
        self.out = os.path.join(work, "stdout.json")
        self.expected_out = os.path.join(work, "expected.json")
        self.err = os.path.join(work, "stderr.txt")
        self.operations = {"fig6_cold": 72, "mesh32_gated": 1, "sweep_warm": 1000}[name]
        self.setup_ok = True

    def setup(self):
        """Prepare inputs; returns the seconds it took."""
        t0 = time.perf_counter()
        shutil.rmtree(self.cache, ignore_errors=True)
        if self.name == "sweep_warm":
            helper(self.tool, ["fill", "--variant", str(self.variant), "--cache", self.cache,
                               "--out", self.specs], self.work, self.env)
        else:
            helper(self.tool, ["specs", "--workload", self.name, "--variant", str(self.variant),
                               "--out", self.specs], self.work, self.env)
            os.makedirs(self.cache)
        return time.perf_counter() - t0

    def prepare_check(self):
        """Untimed, after the set-ups: for `sweep_warm`, write what the
        re-run must print; it must itself match the recorded digest."""
        if self.name == "sweep_warm":
            helper(self.tool, ["expected", "--variant", str(self.variant), "--out", self.expected_out],
                   self.work, self.env)
            self.expected_sha = file_sha256(self.expected_out)
            self.setup_ok = self.expected is not None and self.expected.get("sha256") == self.expected_sha

    def before_rep(self):
        """Untimed reset between repetitions: cold workloads start from an
        empty cache again; the warm one keeps its filled cache."""
        if self.name != "sweep_warm":
            reset_dir(self.cache)

    def command(self):
        common = ["--cache-dir", self.cache]
        if self.name == "mesh32_gated":
            seed = str(0xF10F + self.variant)
            return [self.flov, "sim", "--mech", "rFLOV", "--k", "32", "--gated", "0.3", "--rate", "0.02",
                    "--warmup", "5000", "--cycles", "15000", "--seed", seed, "--threads", THREADS,
                    "--json"] + common
        return [self.flov, "sweep", "--spec", self.specs] + common

    def check(self, code):
        """Failed operations of the last repetition."""
        if code != 0:
            return self.operations
        if self.name == "sweep_warm":
            if not self.setup_ok:
                return self.operations
            if file_sha256(self.out) == self.expected_sha:
                return 0
            # Only a failing run gets here; parsing ~100 MB grows this
            # process, which later children's peak RSS then reports.
            got = parse_results(self.out)
            want = [digest(r) for r in parse_results(self.expected_out)]
            return self.operations if got is None else count_failed(got, want)
        got = parse_results(self.out)
        if got is None:
            return self.operations
        return count_failed(got, self.expected)

    def engine_line(self):
        try:
            with open(self.err, errors="replace") as f:
                lines = [l.strip() for l in f if "[flov] engine:" in l]
        except OSError:
            return ""
        return lines[-1] if lines else ""


# -------------------------------------------------------------- host info


def host_meta(kernel_version):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if proc.returncode == 0:
            commit = proc.stdout.decode().strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "build_profile": "release",
        "git_commit": commit,
        "source_sha256": source_digest(),
        "kernel_version": kernel_version,
    }


def source_digest():
    """SHA-256 over the sources the build reads, identifying the code
    measured when no git commit is available."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "compat", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------------ modes


def measure(wl, seconds):
    """Set up, then repeat the timed command for `seconds` (at least once)."""
    setups = [wl.setup() for _ in range(SETUPS[wl.name])]
    wl.prepare_check()
    reps, failed, attempted = [], 0, 0
    t0 = time.perf_counter()
    while True:
        wl.before_rep()
        r = timed(wl.command(), wl.work, wl.out, wl.err, wl.env)
        reps.append(r)
        attempted += wl.operations
        failed += wl.check(r.code)
        elapsed = time.perf_counter() - t0
        if elapsed + r.wall > seconds:
            break
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r.wall for r in reps),
        "cpu_s": statistics.median(r.cpu for r in reps),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    print(f"{wl.name}: {len(reps)} timed run(s), {len(setups)} set-up(s)")
    print(f"  wall_s per run: {' '.join(f'{r.wall:.3f}' for r in reps)}")
    print(f"  failed_frac {failed / attempted:.6f} ({failed} of {attempted} operations)")
    line = wl.engine_line()
    if line:
        print(f"  last {line}")
    return values, attempted, failed


def traced(wl):
    """The traced run: set up once, run the helper's traced passes, and
    check every result they produced."""
    wl.setup()
    wl.prepare_check()
    args = ["trace", "--workload", wl.name, "--variant", str(wl.variant), "--dir", wl.work]
    if wl.name == "sweep_warm":
        args += ["--expected", wl.expected_out]
    report = json.loads(helper(wl.tool, args, wl.work, wl.env).strip().splitlines()[-1])
    attempted, failed = report["attempted"], report["failed"]
    if wl.name == "sweep_warm":
        if not wl.setup_ok:
            failed = attempted
    else:
        with open(os.path.join(wl.work, "results.json")) as f:
            passes = json.load(f)
        for name, results in sorted(passes.items()):
            attempted += len(results)
            failed += count_failed(results, wl.expected)
    for note in report["notes"]:
        print(f"  {note}")
    print(f"  failed_frac {failed / max(attempted, 1):.6f} ({failed} of {attempted} operations)")
    print(f"  spans written to {os.path.relpath(os.path.join(wl.work, 'spans.json'), ROOT)}")
    return report["metrics"], attempted, failed


def run_workload(args):
    spec = load_spec()
    flov, tool, kernel_version = build()
    variant = args.seed % VARIANTS
    work = os.path.join(ROOT, ".bench_run", f"{args.workload}-trace{args.trace}")
    reset_dir(work)
    wl = Workload(args.workload, variant, work, flov, tool, load_digests(), kernel_version)
    meta = host_meta(kernel_version)
    meta.update({"workload": args.workload, "seed": args.seed, "variant": variant})
    print("host " + json.dumps(meta, sort_keys=True))
    if wl.expected is None:
        print(f"  no digests recorded for {args.workload} variant {variant} at KERNEL_VERSION "
              f"{kernel_version}: every operation counts as failed (re-record with --record)")
    if args.trace:
        values, attempted, failed = traced(wl)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed = measure(wl, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<32} {values[m['name']]:.6g} {m['unit']}")
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"host": meta, "result": out}, f, indent=1, sort_keys=True)
    print(json.dumps(out))


def record(args):
    """Record the digests of every variant's results at this build's
    KERNEL_VERSION, from the same timed commands the benchmark runs."""
    flov, tool, kernel_version = build()
    table = load_digests()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    per_version = table.setdefault("kernel_versions", {}).setdefault(str(kernel_version), {})
    for name in workloads:
        work = os.path.join(ROOT, ".bench_run", f"record-{name}")
        for variant in range(VARIANTS):
            reset_dir(work)
            wl = Workload(name, variant, work, flov, tool, table, kernel_version)
            wl.setup()
            wl.prepare_check()
            if name == "sweep_warm":
                entry = {"sha256": wl.expected_sha, "results": wl.operations}
            else:
                wl.before_rep()
                r = timed(wl.command(), work, wl.out, wl.err, wl.env)
                got = parse_results(wl.out)
                if r.code != 0 or got is None or len(got) != wl.operations:
                    fail(f"{name} variant {variant}: exit {r.code}, output unusable")
                entry = [digest(x) for x in got]
            per_version.setdefault(name, {})[str(variant)] = entry
            log(f"recorded {name} variant {variant}")
            with open(DIGESTS, "w") as f:
                json.dump(table, f, indent=1, sort_keys=True)
                f.write("\n")
        shutil.rmtree(work, ignore_errors=True)


def selftest(args):
    """Show that the result check catches a perturbed result: one changed
    number in the output must count as exactly one failed operation."""
    flov, tool, kernel_version = build()
    table = load_digests()
    ok = True
    for name, field in (("sweep_warm", '"packets": '), ("mesh32_gated", '"avg_latency": ')):
        work = os.path.join(ROOT, ".bench_run", f"selftest-{name}")
        reset_dir(work)
        wl = Workload(name, 1, work, flov, tool, table, kernel_version)
        wl.setup()
        wl.prepare_check()
        wl.before_rep()
        r = timed(wl.command(), work, wl.out, wl.err, wl.env)
        clean = wl.check(r.code)
        with open(wl.out) as f:
            text = f.read()
        at = text.index(field) + len(field)
        # Bump the first digit of the first value of `field`.
        digit = next(i for i in range(at, len(text)) if text[i].isdigit())
        text = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]
        with open(wl.out, "w") as f:
            f.write(text)
        perturbed = wl.check(0)
        frac = perturbed / wl.operations
        print(f"selftest {name}: clean run {clean} failed; one perturbed {field.strip(': ')} "
              f"-> {perturbed} failed, failed_frac {frac:.6f}")
        ok &= clean == 0 and perturbed == 1
        # No digests for an unknown kernel version: everything fails.
        wl.expected = recorded(table, kernel_version + 1000, name, 1)
        wl.setup_ok = wl.name != "sweep_warm"
        unknown = wl.check(0)
        print(f"selftest {name}: unrecorded KERNEL_VERSION -> {unknown} of {wl.operations} failed")
        ok &= unknown == wl.operations
        shutil.rmtree(work, ignore_errors=True)
    print("selftest " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="record result digests")
    p.add_argument("--selftest", action="store_true", help="check that a perturbed result fails")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.record:
        record(args)
    elif args.selftest:
        selftest(args)
    elif args.workload:
        run_workload(args)
    else:
        fail("--workload is required")


if __name__ == "__main__":
    main()
