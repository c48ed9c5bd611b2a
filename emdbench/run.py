"""EMD Globalizer benchmark: one workload, one seed, one JSON result.

    python3 emdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds the program from source
(emdbench/build.py), then runs one JVM (emdbench/src/Bench.scala) that:

  1. sets up SetupReps times: SparkSession via repro.jobs.Jobs.session, then
     training (Phrase Embedder for deep systems, D5Mini candidates, Entity
     Classifier); setup_s is the median;
  2. warms up for half of --seconds (a batch: at least two runs; a stream:
     an open-loop stream of its own), then runs the workload repeatedly for
     --seconds, at least twice; a stream is offered for --seconds once;
  3. checks every run against a single-threaded reference built without
     Spark from the same per-record functions (final spans, funnel counts
     and Metrics.evaluate's TP/FP/FN must match exactly);
  4. with --trace 1, runs again for --seconds with spans around each call
     into a layer and a SparkListener counting jobs, tasks, shuffle bytes and
     task GC time per layer, and reports per-layer metrics instead; spans are
     written to .bench_build/emdbench/spans/. A stream's per-layer values
     all come from its traced stream. The tracer cannot enter processBatch,
     so there trace.overhead_s is the listener's cost only, and jobs are
     named by their order in the micro-batch; a micro-batch that runs another
     number of actions counts as failed.

Workloads (each has its own generated stream, whose vocabulary differs from
the training stream's; the seed picks the stretch of it a run processes):
  batch-deep       BERTweet (300-d embeddings) on a D5-shaped batch,
                   chargeEmbeddingCost on as in Globalizer.run
  batch-syntactic  NP Chunker on a BTC-shaped batch (no embedding kernels)
  stream-open      Aguilar (100-d embeddings) fed to
                   StreamingGlobalizer.runStream through a 4-partition
                   MemoryStream at a fixed open-loop rate

End-to-end metrics (every workload):
  setup_s        median of the setups
  run_s          batch: localPhase call until the final spans are
                 materialized (median run); stream: median micro-batch,
                 without the first and the last
  latency_p50_s  per tweet, from arrival until its output is out (a stream's
  latency_p99_s  first 20% of tweets are ramp-up and give no samples); a batch
                 run's tweets all arrive at its start and leave at its end, so
                 p50 is the median run and p99 the slowest of the runs
  global_f1      span-exact F1 of the final spans (stream: of all outputs)
  cached_mb      MB of Spark blocks a run caches (a stream: all its micro-batches)
  state_mb       driver-held candidate base (keys and pooled embeddings)

Failed runs or micro-batches are counted in the result's "failed" field.

Spark runs with local[*] capped at nproc threads (-XX:ActiveProcessorCount)
and the JVM options of the repository's build.sbt. SPARK_MASTER,
SPARK_SHUFFLE_PARTITIONS and SPARK_LOCAL_DIRS are removed from the JVM's
environment, so the program's own defaults are what is measured and its
scratch files stay in .bench_build/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = build.ROOT
TIMEOUT_S = 170
HEAP = "3g"
MODULE_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg: str) -> None:
    print(f"emdbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    try:
        expected = expected_metrics(args.trace == 1)
        classes = build.build()
        jars = build.spark_jars()
    except (build.BuildError, OSError, ValueError, KeyError) as e:
        fail(str(e))

    out = build.OUT
    tmp = out / "tmp"
    (out / "spans").mkdir(parents=True, exist_ok=True)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    nproc = len(os.sched_getaffinity(0))
    cmd = (["java", f"-XX:ActiveProcessorCount={nproc}", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}",
            "-Djdk.reflect.useDirectMethodHandle=false",
            "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in MODULE_OPENS]
           + ["-cp", f"{classes}{os.pathsep}{jars / '*'}", "emdbench.Bench",
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--spans", str(out / "spans" / f"{tag}.jsonl")])
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS", "SPARK_LOCAL_DIRS")}

    with open(out / "logs" / f"{tag}.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"timed out after {TIMEOUT_S} s; log in {log.name}")

    lines = stdout.splitlines()
    for line in lines:
        if not line.startswith("RESULT "):
            print(line, file=sys.stderr)
    results = [line[len("RESULT "):] for line in lines if line.startswith("RESULT ")]
    if proc.returncode != 0 or len(results) != 1:
        fail(f"benchmark JVM exited with {proc.returncode}; log in {out / 'logs' / (tag + '.log')}")
    result = json.loads(results[0])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"units {sorted(k for k in got if k in expected and got[k] != expected[k])}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
