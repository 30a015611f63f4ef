#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library (../src) and the benchmark program are compiled as one CMake
package into the build directory: $CARGO_TARGET_DIR when set, else
.bench_build, relative to the repository root. Build output goes to stderr,
so the program's result object stays the last line of stdout. Scratch files
(trace dumps, sql_local's chunk files) go under <build>/work.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    proc = subprocess.run([str(exe), *sys.argv[1:],
                           "--work-dir", str(work_dir)], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
