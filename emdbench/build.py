"""Build file of the benchmark: compiles the program and the benchmark from source.

The program (src/main/scala, jobs/) and the benchmark (emdbench/src) are
compiled together with the Scala compiler that ships in the Spark
distribution's jars, so neither sbt nor a network is needed. Output goes to
.bench_build/emdbench/classes-<hash of the sources>, and is reused while the
sources are unchanged.

    python3 emdbench/build.py        # prints the class directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "emdbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "jobs", ROOT / "emdbench" / "src"]
RESOURCES = ROOT / "src" / "main" / "resources"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jars directory of the Spark distribution: $SPARK_HOME, else the one holding spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home or "") / "jars"
    if not home or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found (set SPARK_HOME)")
    return jars


def sources() -> list:
    missing = [str(d.relative_to(ROOT)) for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise BuildError(f"source directories missing: {', '.join(missing)}")
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def build() -> Path:
    """Compile if the sources changed since the last build; return the class directory."""
    jars = spark_jars()
    srcs = sources()
    resources = sorted(p for p in RESOURCES.rglob("*") if p.is_file()) if RESOURCES.is_dir() else []
    digest = hashlib.sha256()
    for p in srcs + resources:
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    classes = OUT / f"classes-{digest.hexdigest()[:16]}"
    if (classes / ".complete").exists():
        return classes

    tmp = OUT / f"{classes.name}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    classpath = os.pathsep.join(str(j) for j in sorted(jars.glob("*.jar")))
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-nowarn", "-classpath", classpath, "-d", str(tmp)] + [str(p) for p in srcs]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        raise BuildError("compilation failed:\n" + done.stdout[-4000:])
    for p in resources:
        target = tmp / p.relative_to(RESOURCES)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(p, target)
    (tmp / ".complete").touch()
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
