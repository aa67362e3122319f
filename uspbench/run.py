#!/usr/bin/env python3
"""Run one workload of the USP benchmark, or the smoke run of all of them.

    python3 uspbench/run.py --workload ens3-build --seed 1 --seconds 30 --trace 0
    python3 uspbench/run.py --smoke

The first call builds the program and the benchmark from source with sbt:
the benchmark's own build (this directory) depends on the repository's root
build. Later calls reuse the build until a source file changes. The workload
then runs in one JVM, and the last line of stdout is the JSON result. Reports
and span files go to uspbench/target/results.

--smoke runs every workload at tiny n with tracing on, so a change that
breaks a public function the benchmark calls fails in a few minutes.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(TARGET, "classpath.txt")
WORKLOADS = ["ens3-build", "hier256"]
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170

# Spark on Java 17 reads JDK internals; these are the opens its launcher adds.
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def newest_source_mtime():
    """Latest change to anything the build reads."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(ROOT, "project"), os.path.join(HERE, "src"), os.path.join(HERE, "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names]
    return max((os.path.getmtime(f) for f in files if os.path.isfile(f)), default=0.0)


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def build():
    """Compile with sbt and return the runtime classpath."""
    if os.path.isfile(CLASSPATH_FILE) and os.path.getmtime(CLASSPATH_FILE) >= newest_source_mtime():
        with open(CLASSPATH_FILE) as f:
            return f.read().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        log("sbt not found on PATH")
        sys.exit(2)
    log("building the program and the benchmark with sbt")
    t0 = time.time()
    proc = subprocess.run(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=sbt_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=sys.stderr, text=True, timeout=BUILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        print(line, file=sys.stderr)
    cp = lines[-1].strip() if lines else ""
    if proc.returncode != 0 or not cp or cp.startswith("["):
        log(f"build failed (exit {proc.returncode})")
        sys.exit(2)
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(cp + "\n")
    log(f"built in {time.time() - t0:.0f}s")
    return cp


def java_cmd(cp, args):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    opens = [f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS]
    # The serial collector keeps latency from moving with parallel GC
    # threads; the fixed heap keeps it from moving with heap resizing. The
    # hier256 query loop allocates about 1 MB per query and streams the
    # young generation through memory at GB/s; a pre-touched heap on
    # transparent huge pages takes the page faults and most TLB misses out
    # of that stream.
    return [java, "-Xms2g", "-Xmx2g", "-XX:+UseSerialGC", "-XX:+UseTransparentHugePages",
            "-XX:+AlwaysPreTouch", *opens,
            f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.local.dir={os.path.join(TARGET, 'spark-local')}",
            "-cp", cp, "uspbench.Main", *args,
            "--out", os.path.join(TARGET, "results")]


def run_java(cp, args):
    try:
        return subprocess.run(java_cmd(cp, args), cwd=ROOT, stdin=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 3


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required unless --smoke is given")

    cp = build()
    if a.smoke:
        failed = []
        for w in WORKLOADS:
            log(f"smoke: {w}")
            if run_java(cp, ["--workload", w, "--seed", str(a.seed), "--seconds", "1",
                             "--trace", "1", "--smoke"]) != 0:
                failed.append(w)
        log("smoke: " + ("failed: " + ", ".join(failed) if failed else "all workloads passed"))
        sys.exit(1 if failed else 0)
    sys.exit(run_java(cp, ["--workload", a.workload, "--seed", str(a.seed),
                           "--seconds", str(a.seconds), "--trace", str(a.trace)]))


if __name__ == "__main__":
    main()
