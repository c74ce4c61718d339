#!/usr/bin/env python3
"""The end-to-end benchmark (bench/e2e/README.md).

Builds a Release tree of the repository in .bench_build/ and runs one or
all of four workloads, each in fresh processes: set-up (timed, repeated),
the mbqbench --verify correctness gate, then the runner's closed-loop
warm-up and capacity phase and its open-loop latency phase.

  python3 bench/e2e/run.py --workload tao-nodestore --seed 42 --seconds 20 --trace 0
      one run; the last stdout line is the JSON result
  python3 bench/e2e/run.py --out result.json [--seed S] [--trace 1]
      all four workloads into a stamped result file
  python3 bench/e2e/run.py compare BASE.json[,BASE2.json...] NEW.json[,...]
      applies BENCHMARK.json's bounds, one row per workload and metric
  python3 bench/e2e/run.py --smoke
      600 users, short phases, every workload untraced and traced; asserts
      the metric catalogue, zero errors and the trace shape

Run from the repository root.
"""

import argparse
import json
import os
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True
import report  # noqa: E402  (after the bytecode switch)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
SOURCES = [ROOT / "CMakeLists.txt", ROOT / "src" / "CMakeLists.txt",
           ROOT / "tools" / "mbqd.cc", ROOT / "tools" / "mbqbench.cc"]
BINARIES = {"mbq_e2e_runner": BUILD / "mbq_e2e_runner",
            "mbqd": BUILD / "tools" / "mbqd",
            "mbqbench": BUILD / "tools" / "mbqbench"}

# Variables that change what the program does; children never see them.
CLEARED_ENV = ["CYPHER_THREADS", "MBQ_TRACE_SAMPLE", "MBQ_SLOW_QUERY_MILLIS",
               "MBQ_STATS_PORT", "MBQ_LOCK_RANK", "MBQ_BENCH_USERS",
               "MBQ_BENCH_RUNS"]

# `rate` sits near a tenth of each workload's capacity on a 4-core host;
# `closed_qps`, near that capacity, sizes the closed-loop phases
# (bench/e2e/README.md has the sizing). BENCHMARK.json says why each
# workload exists.
WORKLOADS = {
    "tao-nodestore": dict(engine="nodestore", suite="tao", cache_mb=8,
                          hdd=True, read_caches=True, clients=4, rate=500,
                          closed_qps=4500),
    "ldbc-bitmap": dict(engine="bitmap", suite="ldbc", cache_mb=64,
                        clients=4, rate=600, closed_qps=6500),
    "ldbc-cluster": dict(engine="bitmap", suite="ldbc", shards=2,
                         clients=1, rate=200, closed_qps=1500),
    "churn-nodestore": dict(engine="nodestore", suite="churn", cache_mb=64,
                            read_caches=True, wal=True, clients=4, rate=150,
                            closed_qps=1000),
}
# Shares of --seconds: warm-up and capacity phase at closed_qps, latency
# phase at the offered rate.
WARMUP, CAPACITY, LATENCY = 0.1, 0.3, 0.7
SETUPS = 5  # set-up repeats per run; setup_s is their median
USERS = 20000
WAL_FLUSH = "fsync on every commit (group-commit window 0 us)"


def log(msg):
    print(f"e2e: {msg}", file=sys.stderr, flush=True)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def build():
    missing = [str(p.relative_to(ROOT)) for p in SOURCES if not p.exists()]
    if missing:
        raise SystemExit(f"e2e: repository sources missing ({', '.join(missing)});"
                         " run from a full checkout")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    out = dict(stdout=sys.stderr, stderr=sys.stderr, env=child_env(),
               check=True)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DCMAKE_PROJECT_mbq_INCLUDE={HERE / 'project.cmake'}"],
                       **out)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    *BINARIES], **out)


def binary(name):
    return str(BINARIES[name])


def mix_file(w):
    return str(HERE / "mixes" / f"{w['suite']}.mix")


def pinning():
    """CPU per role for the cluster workload (runner, aggregator, shards):
    unpinned daemons gave unrepeatable latency. None below 4 CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:4] if len(cpus) >= 4 else None


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Daemon:
    """One mbqd process. A thread drains its stderr (so it can never block
    on a full pipe) and notes the ports it announces."""

    RPC = re.compile(r"(?:shard \d+|aggregator) listening on [\d.]+:(\d+)$")
    STATS = re.compile(r"stats server listening on http://[\d.]+:(\d+)/")

    def __init__(self, args, cpu):
        preexec = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None \
            else None
        self.proc = subprocess.Popen([binary("mbqd"), *args, "--serve"],
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True,
                                     env=child_env(), preexec_fn=preexec)
        self.lines, self.port, self.stats_port = [], None, None
        self.ready = threading.Event()
        self.reader = threading.Thread(target=self._drain)
        self.reader.start()

    def _drain(self):
        for line in self.proc.stderr:
            self.lines.append(line)
            if m := self.STATS.search(line):
                self.stats_port = int(m.group(1))
            if m := self.RPC.search(line.rstrip()):
                self.port = int(m.group(1))
                self.ready.set()
        self.ready.set()  # exited

    def wait_ready(self):
        self.ready.wait(60)
        if self.port is None or self.stats_port is None:
            raise RuntimeError("mbqd did not come up:\n" + "".join(self.lines))

    def stop(self):
        self.proc.terminate()
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join()


class Cluster:
    """Two hash-partitioned bitmap shards plus an aggregator on loopback."""

    def __init__(self, shards, users, seed, cpus):
        self.daemons = []
        try:
            start = time.perf_counter()
            for i in range(shards):
                self.daemons.append(Daemon(
                    ["--port=0", f"--shards={shards}", f"--shard-id={i}",
                     f"--users={users}", f"--seed={seed}", "--engine=bitmap",
                     "--partition=hash"], cpus[2 + i % 2] if cpus else None))
            for d in self.daemons:
                d.wait_ready()
            aggregator = Daemon(
                ["--aggregate", "--port=0",
                 *[f"--shard=127.0.0.1:{d.port}" for d in self.daemons]],
                cpus[1] if cpus else None)
            self.daemons.insert(0, aggregator)
            aggregator.wait_ready()
            self.boot_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    @property
    def address(self):
        return f"127.0.0.1:{self.daemons[0].port}"

    def peak_rss_mb(self):
        return sum(peak_rss_mb(d.proc.pid) for d in self.daemons)

    def stop(self):
        for d in self.daemons:
            d.stop()
        self.daemons = []


def verify(w, users, seed, cluster):
    """mbqbench's differential check: 200 calls of the workload's mix
    against a local nodestore reference. True when every call agrees."""
    cmd = [binary("mbqbench"), "--verify=200", "--requests=1",
           f"--mix={mix_file(w)}", f"--users={users}", f"--seed={seed}"]
    if cluster:
        cmd.append(f"--shard={cluster.address}")
    else:
        cmd.append(f"--engine={w['engine']}")
        if w.get("read_caches"):
            cmd += ["--result-cache", "on", "--adj-cache", "on"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=child_env(), timeout=120)
    if done.returncode != 0:
        log(f"verify failed:\n{done.stdout}{done.stderr}")
    return done.returncode == 0


def run_workload(name, seed, seconds, traced, users=USERS, trace_path=None,
                 setups=SETUPS):
    """One run of one workload in fresh processes. Returns the result dict
    (correct/attempted/failed/metrics plus what the result file keeps)."""
    w = WORKLOADS[name]
    spec = report.load_spec()
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-",
                                            dir=BUILD / "tmp"))
    cluster, boots = None, []
    cpus = pinning() if w.get("shards") else None
    try:
        if w.get("shards"):
            for i in range(setups):
                if cluster:
                    cluster.stop()
                cluster = Cluster(w["shards"], users, seed, cpus)
                boots.append(cluster.boot_s)
        if not verify(w, users, seed, cluster):
            return {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}

        closed = w["closed_qps"] * seconds
        cmd = [binary("mbq_e2e_runner"), f"--mix={mix_file(w)}",
               f"--users={users}", f"--seed={seed}",
               f"--clients={w['clients']}", f"--rate={w['rate']}",
               f"--setups={setups}",
               f"--warmup-requests={round(closed * WARMUP)}"]
        if traced:
            # No capacity phase: its time goes to the latency phase.
            cmd += [f"--latency={seconds}", f"--trace-out={trace_path}"]
        else:
            cmd += [f"--capacity-requests={round(closed * CAPACITY)}",
                    f"--latency={seconds * LATENCY}"]
        if cluster:
            cmd += ["--engine=remote", f"--shard={cluster.address}",
                    *[f"--daemon-stats={d.stats_port}" for d in cluster.daemons]]
        else:
            cmd += [f"--engine={w['engine']}", f"--cache-mb={w['cache_mb']}"]
            if w.get("hdd"):
                cmd.append("--hdd")
            if w.get("read_caches"):
                cmd += ["--result-cache", "--adj-cache"]
            if w.get("wal"):
                cmd.append(f"--wal-dir={scratch}")
        preexec = (lambda: os.sched_setaffinity(0, {cpus[0]})) if cpus else None
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=child_env(), preexec_fn=preexec,
                              timeout=3 * seconds + 60)
        if done.returncode != 0:
            raise RuntimeError(f"runner exited with {done.returncode}")
        run = json.loads(done.stdout)
        rss = cluster.peak_rss_mb() if cluster else run["peak_rss_mb"]
    finally:
        if cluster:
            cluster.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    phases = [run["warmup"], run["latency"], run["capacity"]]
    attempted = sum(p["requests"] for p in phases)
    failed = sum(p["errors"] for p in phases)
    setup_s = statistics.median(boots or run["setup"]["total_s"])
    if traced:
        values = report.per_layer(
            run, statistics.median(boots or run["setup"]["load_s"]))
        metrics = report.with_units(values, spec["per_layer"])
    else:
        metrics = report.with_units(report.end_to_end(run, setup_s, rss),
                                    spec["end_to_end"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": run["latency"]["requests"],
            "clients": w["clients"], "rate_qps": w["rate"],
            "spans": run.get("spans")}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def full_run(out, seed, traced, seconds, users=USERS, setups=SETUPS):
    """Every workload into one stamped result file; traces land next to
    it. Returns False when any workload was incorrect."""
    out = pathlib.Path(out)
    doc = {"stamp": {"git_sha": git_sha(), "build_type": "Release",
                     "nproc": os.cpu_count(), "seed": seed, "users": users,
                     "seconds": seconds, "traced": traced,
                     "wal_flush": WAL_FLUSH},
           "workloads": {}}
    ok = True
    for name in WORKLOADS:
        trace = out.with_name(f"{out.stem}.{name}.trace.json")
        result = run_workload(name, seed, seconds, traced, users, trace,
                              setups)
        doc["workloads"][name] = result
        ok = ok and result["correct"]
        log(f"{name}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            if not k.startswith("core.") or not k.endswith("time_frac")))
    out.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {out}")
    return ok


def smoke():
    """Short untraced and traced passes over all four workloads."""
    spec = report.load_spec()
    readme = (HERE / "README.md").read_text()
    failures = [f"README.md lacks metric {m['name']}"
                for m in spec["end_to_end"] + spec["per_layer"]
                if m["name"] not in readme]
    out_dir = pathlib.Path(tempfile.mkdtemp(prefix="smoke-", dir=BUILD / "tmp"))
    try:
        for traced in (False, True):
            out = out_dir / ("traced.json" if traced else "plain.json")
            if not full_run(out, 42, traced, seconds=1.5, users=600, setups=1):
                failures.append(f"incorrect result in {out.name}")
            doc = json.loads(out.read_text())
            declared = spec["per_layer" if traced else "end_to_end"]
            for name, result in doc["workloads"].items():
                if result["failed"]:
                    failures.append(f"{name}: {result['failed']} errors")
                missing = {d["name"] for d in declared} - set(result["metrics"])
                if missing:
                    failures.append(f"{name}: missing {sorted(missing)}")
                if traced and result["correct"]:
                    failures += check_trace(
                        name, out.with_name(f"traced.{name}.trace.json"),
                        result["spans"]["roots"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for f in failures:
        log(f"SMOKE FAILED: {f}")
    log("smoke ok" if not failures else f"{len(failures)} smoke failure(s)")
    return not failures


def check_trace(name, path, roots):
    events = json.loads(path.read_text())["traceEvents"]
    requests = [e["args"]["request"] for e in events if e["args"]["depth"] == 0
                and e["args"]["request"] != 0]
    problems = []
    if len(requests) != roots or len(set(requests)) != roots or roots == 0:
        problems.append(f"{name}: {len(requests)} root spans for {roots} "
                        "traced requests")
    if not any(e["name"] == "setup" for e in events):
        problems.append(f"{name}: no setup span")
    return problems


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare BASE[,BASE...] NEW[,NEW...]")
        spec = report.load_spec()
        rows = report.compare(report.load_results(argv[1].split(",")),
                              report.load_results(argv[2].split(",")), spec)
        print(report.format_rows(rows))
        return 1 if any(r[-1] == "regressed" for r in rows) else 0

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (args.workload or args.out or args.smoke):
        p.error("one of --workload, --out or --smoke is required")
    build()
    if args.smoke:
        return 0 if smoke() else 1
    if args.out:
        return 0 if full_run(args.out, args.seed, bool(args.trace),
                             args.seconds) else 1
    trace = BUILD / "traces" / f"{args.workload}-{args.seed}.trace.json"
    trace.parent.mkdir(parents=True, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), trace_path=trace)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
