package emdbench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.SizeEstimator
import repro.core._
import repro.data.{StsGen, TweetGen}
import repro.emd.{Aguilar, BerTweet, LocalEmd, NpChunker}
import repro.jobs.Jobs
import repro.util.Rng

import java.io.{ByteArrayOutputStream, ObjectOutputStream, PrintWriter}
import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The benchmark's JVM side: one workload, one seed, one process.
  *
  * Usage: Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --spans <file>
  *
  * Prints human-readable lines, then one `RESULT {json}` line with the
  * metrics (end-to-end ones with `--trace 0`, per-layer ones with `--trace 1`).
  * The pipeline is composed here from the program's public functions, in the
  * order `Globalizer.run` uses, so each call into a layer can be timed.
  */
object Bench {

  /** A workload: a Local EMD system on a stream shaped like `base`. Batch
    * workloads scale `base` to `nTweets`; the stream offers `rate` tweets/s
    * for the run's seconds.
    */
  final case class Workload(name: String, system: LocalEmd, base: TweetGen.Spec,
                            nTweets: Int, rate: Int) {
    def streaming: Boolean = rate > 0
  }

  val Workloads: Seq[Workload] = Seq(
    Workload("batch-deep", BerTweet, TweetGen.D5, nTweets = 4500, rate = 0),
    Workload("batch-syntactic", NpChunker, TweetGen.BTC, nTweets = 38212, rate = 0),
    Workload("stream-open", Aguilar, TweetGen.D5, nTweets = 0, rate = 100))

  /** Partitions of the stream's source, as of a topic; without a fixed count
    * MemoryStream makes one partition per addData call.
    */
  val SourcePartitions = 4
  /** Share of a stream's schedule, from its start, whose tweets give no latency samples. */
  val RampUpShare = 0.2
  /** Setups per run; setup_s is their median. */
  val SetupReps = 3
  /** The Phrase Embedder trains on 1/40 of the STS pairs, so that the three
    * setups of a deep workload fit the run's time budget.
    */
  val StsShare = 40

  type SpanKey = Reference.SpanKey

  private val started = System.nanoTime()
  private def mark(phase: String): Unit = println(f"[elapsed] ${(System.nanoTime() - started) / 1e9}%.1f s after $phase")

  /** The tweets a run processes: `n` consecutive ids of the workload's stream
    * from `first` on. The stream is `base` scaled to `n` tweets (entity and
    * lure pools by the same factor) under its own dataset seed, so it shares
    * no vocabulary with the training stream; the run's seed picks the stretch.
    */
  final case class Input(spec: TweetGen.Spec, first: Long, n: Int) {
    def local: IndexedSeq[Tweet] = (first until first + n).map(TweetGen.makeTweet(spec, _))
    def dataset(spark: SparkSession): Dataset[Tweet] = {
      import spark.implicits._
      val sp = spec
      spark.range(first, first + n).as[Long].map(id => TweetGen.makeTweet(sp, id))
    }
  }

  def inputFor(w: Workload, seed: Long, n: Int): Input = {
    val f = n.toDouble / w.base.nTweets
    val spec = w.base.copy(name = w.name, nTweets = n,
      nEntities = math.max(1, math.round(w.base.nEntities * f).toInt),
      nLures = math.max(1, math.round(w.base.nLures * f).toInt),
      seed = Rng.hash(w.base.seed, w.name.hashCode.toLong))
    Input(spec, seed * n, n)
  }

  // ------------------------------------------------------------------ setup

  final case class Setup(spark: SparkSession, listener: LayerListener,
                         pe: Option[PhraseEmbedder], clf: EntityClassifier,
                         parts: Seq[(String, Double)]) {
    def seconds: Double = parts.map(_._2).sum
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = body; (a, (System.nanoTime() - t0) / 1e9)
  }

  /** SparkSession start plus training: Phrase Embedder (deep systems), D5Mini
    * candidates and the Entity Classifier, as `Training.trainFor` does.
    */
  def setUp(w: Workload, tracer: Tracer): Setup = tracer("setup") {
    val sys = w.system
    val (spark, tSession) = timed(tracer("session")(Jobs.session(s"emdbench-${w.name}")))
    val listener = new LayerListener
    spark.sparkContext.addSparkListener(listener)
    listener.counting = tracer.enabled
    tracer.sc = spark.sparkContext
    val (pe, tPe) = timed(tracer("train_pe") {
      if (!sys.deep) None
      else {
        val salt = sys.params.salt
        val p = new PhraseEmbedder(sys.dim, sys.dim, Rng.hash(0xFEEDL, salt))
        p.fit(StsGen.pairs(sys.dim, salt, StsGen.TrainPairs / StsShare, 1L),
          StsGen.pairs(sys.dim, salt, StsGen.ValidPairs / StsShare, 2L))
        Some(p)
      }
    })
    val (labelled, tCands) = timed(tracer("train_cands")(Training.d5Candidates(spark, sys, pe, TweetGen.D5Mini)))
    val (clf, tClf) = timed(tracer("train_clf")(EntityClassifier.train(labelled, seed = Rng.hash(0xC1FL, sys.params.salt))._1))
    Setup(spark, listener, pe, clf,
      Seq("session_s" -> tSession, "train_pe_s" -> tPe, "train_cands_s" -> tCands, "train_clf_s" -> tClf))
  }

  // ------------------------------------------------------------------ batch

  /** One batch pipeline run and what the checks need from it. */
  final case class Rep(runS: Double, cachedMb: Double, stateMb: Double, spans: Set[SpanKey],
                       keys: Int, mentions: Long, candidates: Int, bandCounts: Map[Int, Int],
                       finalSpans: Long, eval: Option[EvalCounts], broadcastKb: Double)

  /** The (tweetId, sentId, start, len) spans of a materialized output. */
  private def spanSet(df: DataFrame): Set[SpanKey] = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select(Metrics.SpanCols.map(df.col): _*).as[(Long, Int, Int, Int)].collect().toSet
  }

  /** Estimated MB of a driver-held candidate base: its keys and pooled
    * records, sorted so that the estimate does not depend on hash-table sizing.
    */
  private def candidateBaseMb(keys: Seq[String], records: Seq[CandidateRecord]): Double =
    SizeEstimator.estimate((keys.sorted.toVector, records.sortBy(_.key).toVector)) / 1e6

  private def serializedKb(o: AnyRef): Double = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(o); out.close()
    bytes.size / 1024.0
  }

  /** The run's input, generated and cached as `Globalizer.run` does before it starts timing. */
  def generate(s: Setup, in: Input, tracer: Tracer): (Dataset[Tweet], Double) = timed(tracer("gen") {
    val t = in.dataset(s.spark).persist(StorageLevel.MEMORY_AND_DISK)
    t.count(); t
  })

  /** One batch pipeline run over the cached `tweets`; everything it caches is
    * released before it returns.
    */
  def batchRep(s: Setup, w: Workload, spec: TweetGen.Spec, tweets: Dataset[Tweet], tracer: Tracer, evaluate: Boolean): Rep = {
    val spark = s.spark
    val sc = spark.sparkContext
    s.listener.sync(sc)
    s.listener.takeCachedBytes()
    tracer("rep") {
      val ((dets, keys, trie, mentions, nMentions, records, bands, out, nOut), runS) = timed(tracer("run") {
        val dets = tracer("local")(Globalizer.localPhase(tweets, w.system, spec, chargeEmbeddingCost = true))
        val (keys, trie) = tracer("ctrie") {
          val k = Globalizer.seedKeys(dets)
          (k, sc.broadcast(CTrie.fromKeys(k)))
        }
        val (mentions, nMentions) = tracer("mine") {
          val m = MentionExtractor.mine(tweets, trie, w.system, spec.seed, s.pe).persist(StorageLevel.MEMORY_AND_DISK)
          (m, m.count())
        }
        val records = tracer("pool")(GlobalPooling.pool(mentions).collect().toSeq)
        val bands = tracer("classify")(records.map(r => r.key -> EntityClassifier.bandOf(s.clf.score(r))).toMap)
        val (out, nOut) = tracer("assemble") {
          val o = Globalizer.assembleOutput(mentions, dets, bands).cache()
          (o, o.count())
        }
        (dets, keys, trie, mentions, nMentions, records, bands, out, nOut)
      })
      s.listener.sync(sc)
      val cachedMb = s.listener.takeCachedBytes() / 1e6
      val eval = if (evaluate) Some(tracer("eval")(Metrics.evaluate(out, tweets))) else None
      val stateMb = if (evaluate) candidateBaseMb(keys, records) else 0.0
      val rep = Rep(runS, cachedMb, stateMb, spanSet(out),
        keys.size, nMentions, records.size, bands.values.groupBy(identity).map { case (b, v) => b -> v.size },
        nOut, eval, if (tracer.enabled) serializedKb(trie.value) else 0.0)
      // Metrics.evaluate leaves its gold spans cached; an equal plan uncaches them.
      Seq[Dataset[_]](out, mentions, dets, Metrics.goldSpans(tweets)).foreach(_.unpersist(true))
      trie.destroy()
      rep
    }
  }

  /** Differences between a batch run and the reference, empty when they agree. */
  def batchMismatches(r: Rep, refSpans: Set[SpanKey], f: Reference.Funnel): Seq[String] = {
    val bands = Seq(EntityClassifier.Alpha, EntityClassifier.Beta, EntityClassifier.Gamma).map(r.bandCounts.getOrElse(_, 0).toLong)
    Seq(
      (r.spans == refSpans) -> s"final spans differ from the reference (${r.spans.size} vs ${refSpans.size}, ${(r.spans diff refSpans).size} extra, ${(refSpans diff r.spans).size} missing)",
      (r.keys == f.seedCandidates) -> s"seed candidates ${r.keys} vs ${f.seedCandidates}",
      (r.mentions == f.mentions) -> s"mined mentions ${r.mentions} vs ${f.mentions}",
      (r.candidates == f.candidates) -> s"candidates ${r.candidates} vs ${f.candidates}",
      (bands == Seq(f.alpha, f.beta, f.gamma)) -> s"alpha/beta/gamma $bands vs ${Seq(f.alpha, f.beta, f.gamma)}",
      (r.finalSpans == f.finalSpans) -> s"final span count ${r.finalSpans} vs ${f.finalSpans}",
      r.eval.forall(e => (e.tp, e.fp, e.fn) == ((f.tp, f.fp, f.fn))) -> s"Metrics.evaluate ${r.eval} vs tp=${f.tp} fp=${f.fp} fn=${f.fn}"
    ).collect { case (false, msg) => msg }
  }

  // ------------------------------------------------------------------ stream

  /** One micro-batch as seen by the benchmark. */
  final case class MicroBatch(id: Long, tweets: IndexedSeq[Tweet], receivedNs: Long, spans: Set[SpanKey],
                              triggerMs: Long, addBatchMs: Long)

  final case class StreamRun(batches: Seq[MicroBatch], latencies: Array[Double], lateS: Double,
                             lagEndS: Double, stateMb: Double, stateKeys: Int, trieKb: Double, cachedMb: Double)

  /** Offer `tweets` to `StreamingGlobalizer.runStream` through a MemoryStream
    * on a fixed open-loop schedule: tweet i is due `i / rate` s after the
    * start, and every 20 ms the generator adds all tweets due by then, however
    * far behind the query is.
    */
  def openLoop(s: Setup, w: Workload, spec: TweetGen.Spec, tweets: IndexedSeq[Tweet]): StreamRun = {
    val spark = s.spark
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    s.listener.sync(spark.sparkContext)
    s.listener.takeCachedBytes()
    val source = MemoryStream[Tweet](SourcePartitions)
    val state = new StreamingGlobalizer.State
    val received = new ConcurrentLinkedQueue[(Long, Long, Set[SpanKey])]
    val query = StreamingGlobalizer.runStream(source.toDS(), spec, w.system, s.clf, s.pe, state,
      (id, df) => {
        val at = System.nanoTime()
        received.add((id, at, spanSet(df)))
        df.unpersist()
      })

    val tickNs = 20L * 1000 * 1000
    val start = System.nanoTime() + 200L * 1000 * 1000
    def due(i: Int): Long = start + (i * 1e9 / w.rate).toLong
    val adds = mutable.ArrayBuffer.empty[(Int, Int)]
    var next = 0
    var tick = 0
    var late = 0L
    while (next < tweets.size) {
      tick += 1
      val at = start + tick * tickNs
      val wait = at - System.nanoTime()
      if (wait > 0) Thread.sleep(wait / 1000000, (wait % 1000000).toInt)
      val upto = math.min(tweets.size, ((at - start) * w.rate / 1e9).toInt + 1)
      if (upto > next) {
        source.addData(tweets.slice(next, upto))
        adds += ((next, upto))
        next = upto
      }
      late = math.max(late, System.nanoTime() - at)
    }
    query.processAllAvailable()
    val got = received.asScala.toSeq.sortBy(_._1)
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    def progress = query.recentProgress.filter(p => got.exists(_._1 == p.batchId))
    while (progress.length < got.size && System.nanoTime() < deadline) Thread.sleep(5)
    val byId = progress.map(p => p.batchId -> p).toMap
    query.stop()
    require(got.forall(g => byId.contains(g._1)), "missing progress for some micro-batches")

    // MemoryStream offsets count addData calls: batch (start, end] covers calls start+1..end.
    def offset(json: String): Int = if (json == null) -1 else json.trim.toInt
    val batches = got.map { case (id, at, spans) =>
      val p = byId(id)
      val src = p.sources.head
      val ids = (offset(src.startOffset) + 1 to offset(src.endOffset)).flatMap(c => adds(c)._1 until adds(c)._2)
      MicroBatch(id, ids.map(tweets), at, spans,
        p.durationMs.get("triggerExecution").longValue, p.durationMs.get("addBatch").longValue)
    }
    val latencies = batches.flatMap(b => b.tweets.map(t => (t.tweetId - tweets.head.tweetId).toInt -> (b.receivedNs - due((t.tweetId - tweets.head.tweetId).toInt)) / 1e9))
    require(latencies.size == tweets.size, s"${tweets.size - latencies.size} tweets never came out of the stream")
    s.listener.sync(spark.sparkContext)
    // Latency is sampled after the ramp-up, once the new query's start-up backlog has cleared.
    StreamRun(batches, latencies.collect { case (i, l) if i >= RampUpShare * tweets.size => l }.toArray, late / 1e9, (batches.last.receivedNs - due(tweets.size - 1)) / 1e9,
      candidateBaseMb(state.keys.toSeq, state.records), state.keys.size, serializedKb(CTrie.fromKeys(state.keys)),
      s.listener.takeCachedBytes() / 1e6)
  }

  // ------------------------------------------------------------------ main

  /** Warm-up runs last this share of --seconds. */
  val WarmUpShare = 0.5

  /** Run `body` until `seconds` have passed, and at least `min` times. */
  private def repeat[A](seconds: Double, min: Int)(body: => A): Seq[A] = {
    val out = mutable.ArrayBuffer.empty[A]
    val t0 = System.nanoTime()
    while (out.size < min || (System.nanoTime() - t0) / 1e9 < seconds) out += body
    out.toSeq
  }

  private def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val sorted = xs.sorted
    (sorted((sorted.size - 1) / 2) + sorted(sorted.size / 2)) / 2
  }

  /** Nearest-rank quantile. */
  private def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of nothing")
    val sorted = xs.sorted
    sorted(math.min(sorted.size - 1, math.max(0, math.ceil(q * sorted.size).toInt - 1)))
  }

  /** Named metrics with units, in the order they were set. */
  final class Report {
    val values = mutable.LinkedHashMap.empty[String, (Double, String)]
    def update(name: String, v: (Double, String)): Unit = values(name) = v
    def json: String = values.map { case (k, (v, u)) =>
      require(!v.isNaN && !v.isInfinite, s"metric $k is $v")
      s""""$k":{"value":${java.lang.Double.toString(v)},"unit":"$u"}"""
    }.mkString("{", ",", "}")
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads.find(_.name == opts("workload")).getOrElse(sys.error(s"unknown workload ${opts("workload")}"))
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") == "1"

    val tracer = new Tracer(trace)
    val setups = mutable.ArrayBuffer.empty[Setup]
    (0 until SetupReps).foreach { _ =>
      setups.lastOption.foreach(_.spark.stop())
      setups += setUp(w, tracer)
    }
    val setup = setups.last
    mark("setup")
    setups.foreach(x => println(f"[setup] ${x.seconds}%.2f s: " + x.parts.map { case (k, v) => f"$k=$v%.2f" }.mkString(" ")))
    setup.listener.sync(setup.spark.sparkContext)
    val setupTags = Set("setup", "session", "train_pe", "train_cands", "train_clf")
    val setupCounts = LayerListener.Counts.of(setup.listener.finishedJobs.filter(j => setupTags(j.tag)))
    setup.listener.counting = false
    setup.listener.reset()
    tracer.enabled = false

    val layers = new Report
    val e2e = new Report
    e2e("setup_s") = (median(setups.map(_.seconds).toSeq), "s")
    setup.parts.map(_._1).foreach(k => layers(s"setup.$k") = (median(setups.map(_.parts.toMap.apply(k)).toSeq), "s"))
    layerMetrics(layers, "setup", setupCounts)

    val (attempted, failed) =
      if (w.streaming) runStreamWorkload(setup, w, seed, seconds, trace, tracer, layers, e2e)
      else runBatchWorkload(setup, w, seed, seconds, trace, tracer, layers, e2e)
    setup.spark.stop()
    if (trace) opts.get("spans").foreach { path =>
      val pw = new PrintWriter(path)
      try tracer.jsonLines.foreach(pw.println) finally pw.close()
    }
    mark("all")
    val chosen = if (trace) layers else e2e
    println(s"""RESULT {"correct":${failed == 0},"attempted":$attempted,"failed":$failed,"metrics":${chosen.json}}""")
  }

  private val Layers = Seq("gen", "local", "ctrie", "mine", "pool", "classify", "assemble", "eval")

  private def layerMetrics(m: Report, layer: String, c: LayerListener.Counts, per: Double = 1.0): Unit = {
    m(s"$layer.jobs") = (c.jobs / per, "count")
    m(s"$layer.tasks") = (c.tasks / per, "count")
    m(s"$layer.shuffle_mb") = (c.shuffleBytes / 1e6 / per, "MB")
    m(s"$layer.gc_s") = (c.gcMs / 1e3 / per, "s")
  }

  private def funnelMetrics(m: Report, f: Reference.Funnel, w: Workload): Unit = {
    val d = MentionExtractor.embDim(w.system)
    m("local.detections") = (f.detections.toDouble, "count")
    m("ctrie.keys") = (f.seedCandidates.toDouble, "count")
    m("mine.mentions") = (f.mentions.toDouble, "count")
    m("mine.recovered") = (f.recovered.toDouble, "count")
    m("mine.pe_gflop") = (if (w.system.deep) f.mentions * 2.0 * d * d / 1e9 else 0.0, "GFLOP")
    m("mine.emb_mb") = (f.mentions * d * 8.0 / 1e6, "MB")
    m("pool.candidates") = (f.candidates.toDouble, "count")
    m("pool.useful_frac") = (if (f.mentions == 0) 0.0 else f.alphaMass.toDouble / f.mentions, "ratio")
    m("classify.alpha") = (f.alpha.toDouble, "count")
    m("classify.beta") = (f.beta.toDouble, "count")
    m("classify.gamma") = (f.gamma.toDouble, "count")
    m("classify.alpha_mass") = (f.alphaMass.toDouble, "count")
    m("classify.beta_mass") = (f.betaMass.toDouble, "count")
    m("classify.gamma_mass") = (f.gammaMass.toDouble, "count")
    m("assemble.spans") = (f.finalSpans.toDouble, "count")
    m("eval.tp") = (f.tp.toDouble, "count")
    m("eval.fp") = (f.fp.toDouble, "count")
    m("eval.fn") = (f.fn.toDouble, "count")
  }

  private def streamMetrics(m: Report, values: Seq[(String, Double, String)]): Unit =
    values.foreach { case (k, v, u) => m(s"stream.$k") = (v, u) }

  private def runBatchWorkload(s: Setup, w: Workload, seed: Long, seconds: Double, trace: Boolean, tracer: Tracer,
                               m: Report, e2e: Report): (Int, Int) = {
    val in = inputFor(w, seed, w.nTweets)
    val spec = in.spec
    val (tweets, genS) = generate(s, in, tracer)
    // Warm-up: the JIT and Spark's code generation settle over the first runs.
    val warm = repeat(WarmUpShare * seconds, 2)(batchRep(s, w, spec, tweets, tracer, evaluate = false))
    mark(s"warm-up (${warm.size} runs)")
    var first = true
    val reps = repeat(seconds, 2) {
      val r = batchRep(s, w, spec, tweets, tracer, evaluate = first)
      first = false
      r
    }
    tweets.unpersist(true)
    println(f"[run] ${reps.map(r => f"${r.runS}%.3f").mkString(" ")} s")

    mark("runs")
    val (ref, refS) = timed {
      val r = new Reference(spec, w.system, s.clf, s.pe)
      (r.step(in.local), r.funnel)
    }
    val (refSpans, funnel) = ref
    println(s"[funnel]\n${funnel.render}")
    val failures = mutable.ArrayBuffer.from(reps.map(batchMismatches(_, refSpans, funnel)))
    failures.flatten.distinct.foreach(f => println(s"[check] FAILED: $f"))

    val runs = reps.map(_.runS).toSeq
    e2e("run_s") = (median(runs), "s")
    // Every tweet of a batch run arrives when it starts and is out when it ends.
    e2e("latency_p50_s") = (median(runs), "s")
    e2e("latency_p99_s") = (quantile(runs, 0.99), "s")
    e2e("global_f1") = (reps.head.eval.get.f1, "ratio")
    e2e("cached_mb") = (median(reps.map(_.cachedMb)), "MB")
    e2e("state_mb") = (reps.head.stateMb, "MB")

    if (trace) {
      s.listener.sync(s.spark.sparkContext)
      s.listener.reset()
      s.listener.counting = true
      tracer.enabled = true
      tracer.run = 1
      val (tracedTweets, _) = generate(s, in, tracer)
      val traced = repeat(seconds, 2) {
        tracer.run += 1
        batchRep(s, w, spec, tracedTweets, tracer, evaluate = true)
      }
      tracedTweets.unpersist(true)
      s.listener.sync(s.spark.sparkContext)
      tracer.enabled = false
      val n = traced.size.toDouble
      val spans = tracer.spans.filter(_.run > 0)
      val jobs = s.listener.finishedJobs
      Layers.foreach { l =>
        m(s"$l.s") = (median(spans.filter(_.name == l).map(_.seconds)), "s")
        layerMetrics(m, l, LayerListener.Counts.of(jobs.filter(_.tag == l)), if (l == "gen") 1 else n)
      }
      m("gen.s") = (genS, "s")
      m("gen.late_s") = (0.0, "s")
      m("ctrie.broadcast_kb") = (traced.head.broadcastKb, "kB")
      funnelMetrics(m, funnel, w)
      streamMetrics(m, Seq(("batches", 0.0, "count"), ("batch_p50_s", 0.0, "s"), ("batch_p90_s", 0.0, "s"),
        ("batch_tweets_p50", 0.0, "count"), ("jobs_per_batch", 0.0, "count"), ("driver_s", 0.0, "s"),
        ("state_keys", 0.0, "count"), ("lag_end_s", 0.0, "s"), ("f1", 0.0, "ratio")))
      m("ref.s") = (refS, "s")
      m("trace.overhead_s") = (median(traced.map(_.runS).toSeq) - median(runs), "s")
      traced.foreach(r => failures += batchMismatches(r, refSpans, funnel))
    }
    (failures.size, failures.count(_.nonEmpty))
  }

  /** Durations of a stream's micro-batches, without the first (it holds what
    * arrived while the query started) and the last (the schedule's tail).
    */
  private def fullBatchSeconds(r: StreamRun): Seq[Double] = {
    val full = if (r.batches.size > 2) r.batches.slice(1, r.batches.size - 1) else r.batches
    full.map(_.triggerMs / 1e3)
  }

  /** Replays a stream's micro-batches, in order, through a fresh reference:
    * whether each matched, the funnel, and the reference's time.
    */
  private def replay(s: Setup, w: Workload, spec: TweetGen.Spec,
                     batches: Seq[MicroBatch]): ((Seq[Boolean], Reference.Funnel), Double) = timed {
    val r = new Reference(spec, w.system, s.clf, s.pe)
    (batches.map(b => b.spans == r.step(b.tweets)), r.funnel)
  }

  private def runStreamWorkload(s: Setup, w: Workload, seed: Long, seconds: Double, trace: Boolean, tracer: Tracer,
                                m: Report, e2e: Report): (Int, Int) = {
    val n = math.max(1, (w.rate * seconds).toInt)
    val in = inputFor(w, seed, n)
    val spec = in.spec
    val (tweets, genS) = timed(in.local)
    // Warm-up: the same schedule for WarmUpShare of --seconds, through its own query and state.
    openLoop(s, w, spec, tweets.take(math.max(1, (w.rate * WarmUpShare * seconds).toInt)))
    mark("warm-up")
    val run = openLoop(s, w, spec, tweets)
    mark("stream")
    println(f"[stream] ${run.batches.size} micro-batches, tweets/batch ${run.batches.map(_.tweets.size).mkString(" ")}, " +
      s"ms ${run.batches.map(_.triggerMs).mkString(" ")}")

    val ((ok, funnel), _) = replay(s, w, spec, run.batches)
    val spark = s.spark
    import spark.implicits._
    val union = run.batches.flatMap(_.spans).toDF(Metrics.SpanCols: _*)
    val eval = tracer("eval")(Metrics.evaluate(union, in.dataset(spark)))
    spark.catalog.clearCache()
    println(s"[funnel]\n${funnel.render}")
    val evalOk = (eval.tp, eval.fp, eval.fn) == ((funnel.tp, funnel.fp, funnel.fn))
    if (!evalOk) println(s"[check] FAILED: Metrics.evaluate $eval vs funnel")
    ok.zip(run.batches).foreach { case (good, b) =>
      if (!good) println(s"[check] FAILED: micro-batch ${b.id} differs from the reference")
    }
    var results = ok.map(_ && evalOk)

    val triggers = fullBatchSeconds(run)
    e2e("run_s") = (median(triggers), "s")
    e2e("latency_p50_s") = (quantile(run.latencies.toSeq, 0.5), "s")
    e2e("latency_p99_s") = (quantile(run.latencies.toSeq, 0.99), "s")
    e2e("global_f1") = (eval.f1, "ratio")
    e2e("cached_mb") = (run.cachedMb, "MB")
    e2e("state_mb") = (run.stateMb, "MB")
    println(f"[latency] p50=${e2e.values("latency_p50_s")._1}%.3f s p99=${e2e.values("latency_p99_s")._1}%.3f s " +
      s"over ${run.latencies.length} tweets; generator late by at most ${run.lateS} s; lag at end ${run.lagEndS} s")

    if (trace) {
      // Every per-layer value comes from this one traced run. processBatch runs on
      // the query's thread, out of the tracer's reach: its jobs are named by
      // LayerListener.streamLayers, and trace.overhead_s is the listener's cost.
      s.listener.sync(spark.sparkContext)
      s.listener.reset()
      s.listener.counting = true
      tracer.enabled = true
      tracer.run = 1
      val traced = tracer("stream")(openLoop(s, w, spec, tweets))
      val tracedUnion = traced.batches.flatMap(_.spans).toDF(Metrics.SpanCols: _*)
      val tracedEval = tracer("eval")(Metrics.evaluate(tracedUnion, in.dataset(spark)))
      spark.catalog.clearCache()
      s.listener.sync(spark.sparkContext)
      s.listener.counting = false
      tracer.enabled = false
      val ((tracedOk, tracedFunnel), tracedRefS) = replay(s, w, spec, traced.batches)
      val tracedEvalOk = (tracedEval.tp, tracedEval.fp, tracedEval.fn) == ((tracedFunnel.tp, tracedFunnel.fp, tracedFunnel.fn))
      if (!tracedEvalOk) println(s"[check] FAILED: traced Metrics.evaluate $tracedEval vs funnel")

      val jobs = s.listener.finishedJobs
      val (names, unnamed) = LayerListener.streamLayers(jobs)
      unnamed.toSeq.sorted.foreach(id => println(s"[check] FAILED: micro-batch $id does not run the ${LayerListener.MicroBatchActions.size} " +
        "actions LayerListener.MicroBatchActions names, so its jobs cannot be attributed to layers"))
      results ++= tracedOk.zip(traced.batches).map { case (good, b) =>
        if (!good) println(s"[check] FAILED: traced micro-batch ${b.id} differs from the reference")
        good && tracedEvalOk && !unnamed(b.id)
      }
      def layerOf(j: LayerListener.Job) = names.getOrElse(j.id, if (j.tag.nonEmpty) j.tag else "stream")
      Layers.foreach { l =>
        val c = LayerListener.Counts.of(jobs.filter(layerOf(_) == l))
        m(s"$l.s") = (c.jobMs / 1e3, "s")
        layerMetrics(m, l, c)
      }
      println("[stream jobs] " + jobs.groupBy(layerOf).toSeq.sortBy(_._1).map { case (l, js) =>
        val c = LayerListener.Counts.of(js)
        s"$l: ${c.jobs} jobs ${c.tasks} tasks ${c.jobMs} ms"
      }.mkString("; "))
      m("gen.s") = (genS, "s")
      m("gen.late_s") = (traced.lateS, "s")
      m("eval.s") = (tracer.spans.filter(_.name == "eval").map(_.seconds).lastOption.getOrElse(0.0), "s")
      m("ctrie.broadcast_kb") = (traced.trieKb, "kB")
      funnelMetrics(m, tracedFunnel, w)
      val perBatch = jobs.filter(_.batchId >= 0).groupBy(_.batchId)
      val driver = traced.batches.map { b =>
        val covered = perBatch.getOrElse(b.id, Nil).map(j => (j.startMs, j.endMs)).sortBy(_._1)
          .foldLeft((0L, Long.MinValue)) { case ((acc, end), (s0, e0)) =>
            val from = math.max(s0, end)
            (acc + math.max(0L, e0 - from), math.max(end, e0))
          }._1
        math.max(0L, b.addBatchMs - covered) / 1e3
      }
      val tracedTriggers = fullBatchSeconds(traced)
      streamMetrics(m, Seq(
        ("batches", traced.batches.size.toDouble, "count"),
        ("batch_p50_s", median(tracedTriggers), "s"),
        ("batch_p90_s", quantile(tracedTriggers, 0.9), "s"),
        ("batch_tweets_p50", median(traced.batches.map(_.tweets.size.toDouble)), "count"),
        ("jobs_per_batch", median(traced.batches.map(b => perBatch.get(b.id).map(_.size).getOrElse(0).toDouble)), "count"),
        ("driver_s", median(driver), "s"),
        ("state_keys", traced.stateKeys.toDouble, "count"),
        ("lag_end_s", traced.lagEndS, "s"),
        ("f1", tracedEval.f1, "ratio")))
      m("ref.s") = (tracedRefS, "s")
      m("trace.overhead_s") = (median(tracedTriggers) - median(triggers), "s")
      println(f"[traced stream] ${traced.batches.size} micro-batches, tweets/batch p50 ${median(traced.batches.map(_.tweets.size.toDouble))}%.0f, " +
        f"batch p50 ${median(tracedTriggers)}%.3f s, lag at end ${traced.lagEndS}%.3f s")
    }
    (results.size, results.count(!_))
  }
}
