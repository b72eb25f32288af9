#!/usr/bin/env python3
"""Builds and runs the DDC benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload bank64|adc_realtime|fanout256 \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout.  The first run configures and
builds the library and the benchmark into $CARGO_TARGET_DIR (default
.bench_build) with CMake; later runs only re-check the build.  Build output
goes to stderr, so the last line on stdout is the benchmark's result line.
Traced runs also write their spans as a Chrome trace under
<build dir>/traces/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(3)


def cpu_has_avx2():
    try:
        with open("/proc/cpuinfo") as f:
            return any(line.startswith("flags") and " avx2" in line for line in f)
    except OSError:
        return False


def build(build_root, targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "src", "core", "pipeline.hpp")
    ):
        fail("the twiddc sources are not next to perfbench/; run from a source checkout")
    build_dir = os.path.join(build_root, "perfbench")
    march = "x86-64-v3" if cpu_has_avx2() else ""
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
               "-DTWIDDC_MARCH=" + march]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def main(argv):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    if argv == ["--selftest"]:
        build_dir = build(build_root, ["ddc_bench_selftest"])
        return subprocess.run([os.path.join(build_dir, "ddc_bench_selftest")]).returncode
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1 | --selftest")
    build_dir = build(build_root, ["ddc_bench"])
    cmd = [os.path.join(build_dir, "ddc_bench")] + argv
    if args["--trace"] == "1":
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (args["--workload"], args["--seed"])
        cmd += ["--trace-out", os.path.join(traces, name)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
