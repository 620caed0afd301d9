#!/usr/bin/env python3
"""Builds and runs the easyhps benchmark.

    python3 perfbench/run.py --workload wavefront-lcs --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first run configures and builds the
benchmark (and the easyhps library it links) in $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the result
JSON printed by the benchmark binary.  Exits non-zero, without a result,
when the easyhps sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("wavefront-lcs", "cubic-nussinov", "serve-mixed")
# The binary gets what is left of the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def source_id():
    """git SHA of the checkout, or a digest of src/ when it is no git tree.

    git is asked only when the checkout itself holds .git, so it never
    reports the HEAD of some repository the checkout happens to sit in.
    """
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
            if sha:
                return sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_root):
    build_dir = build_root / "perfbench"
    if not (build_dir / "Makefile").exists():
        subprocess.run(
            ["cmake", "-G", "Unix Makefiles", "-S", str(BENCH_DIR),
             "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", "4"],
        stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--short", action="store_true",
                        help="tiny inputs for a smoke run (mode: short)")
    args = parser.parse_args()

    if not (ROOT / "src" / "easyhps").is_dir():
        log("no easyhps sources next to", BENCH_DIR, "- nothing to build")
        return 1
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed:", err)
        return 1

    scratch = build_root / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", str(scratch), "--git-sha", source_id()]
    if args.short:
        cmd.append("--short")
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("benchmark exceeded", RUN_TIMEOUT_S, "s and was stopped")
            return 1


if __name__ == "__main__":
    sys.exit(main())
