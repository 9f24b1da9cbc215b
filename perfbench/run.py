#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first call configures and
builds `perfbench/` (which compiles the library from `src/`) into the build
directory named by $CARGO_TARGET_DIR, or `.bench_build` when unset; later
calls only rebuild what changed.  Build output goes to stderr.  The binary's
notes and stamp lines pass through; its result line, the last line of
stdout, is reprinted with the metrics in BENCHMARK.json's order.  Without
the library sources the build fails and the script exits non-zero without
printing a result.  Extra flags (`--smoke`, ...) are passed to the binary;
see perfbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the binary; return its path or None."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.access(exe, os.X_OK) else None


def conform(metrics, traced):
    """Order the measured metrics as BENCHMARK.json declares them.

    Every declared end-to-end metric must be measured.  A declared per-layer
    metric of a layer the workload does not run reads 0.  An undeclared name
    or a unit other than the declared one is an error.
    """
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if traced else "end_to_end"]
    names = {m["name"] for m in declared}
    extra = sorted(set(metrics) - names)
    if extra:
        raise AssertionError("undeclared metrics %s" % extra)
    out = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            if not traced:
                raise AssertionError("%s not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise AssertionError("%s in %s, declared %s" % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    return out


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([exe] + argv, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed the binary and waited for it.
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    out = proc.stdout
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        if "--workload" in argv:
            trace = argv[argv.index("--trace") + 1] if "--trace" in argv else "0"
            result["metrics"] = conform(result["metrics"], trace != "0")
    except (ValueError, AssertionError, OSError) as e:
        sys.stderr.write(out)
        print("perfbench: bad result line: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
