"""Build file of the benchmark: compiles the program (`src/main/scala`) and
the benchmark program (`perfbench/src`) into `.bench_build/perfbench/classes`
with the Scala compiler that ships in Spark's `jars` directory, which also
supplies the whole classpath. Spark is found through `SPARK_HOME`, else
through `spark-submit` on `PATH`.

A build is skipped when a hash of every source file and of the jar listing
matches the last successful build. Run it alone with `python3 perfbench/build.py`.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"


class BuildError(Exception):
    pass


def java_bin() -> str:
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no java found: set JAVA_HOME or put java on PATH")
    return found


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return Path(home) / "jars"


def sources() -> list:
    program = ROOT / "src" / "main" / "scala"
    if not program.is_dir():
        raise BuildError(f"program sources missing: {program.relative_to(ROOT)} is not a directory")
    found = sorted(program.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))
    if not found:
        raise BuildError("no Scala sources found")
    return found


def build() -> str:
    """Compile if anything changed; return the run-time classpath."""
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256()
    for p in srcs:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    digest.update("\n".join(sorted(os.listdir(jars))).encode())
    stamp = OUT / "classes.stamp"
    classes = OUT / "classes"
    classpath = f"{classes}{os.pathsep}{jars / '*'}"
    if stamp.exists() and stamp.read_text() == digest.hexdigest():
        return classpath

    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    stamp.unlink(missing_ok=True)
    cmd = [java_bin(), "-Xss8m", "-Xmx2g", "-cp", str(jars / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(classes)]
    cmd += [str(p) for p in srcs]
    print(f"perfbench: compiling {len(srcs)} Scala files", file=sys.stderr)
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=800)
    except subprocess.CalledProcessError as e:
        raise BuildError(f"scalac failed with exit code {e.returncode}") from e
    stamp.write_text(digest.hexdigest())
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"perfbench: {e}")
