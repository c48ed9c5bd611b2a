package emdbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** One call into a layer: `parent` is the enclosing span ("" at the top),
  * `run` the repetition it belongs to; times are ns since the tracer started.
  */
final case class Span(run: Int, name: String, parent: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spans recorded by the benchmark around its calls into the program.
  *
  * When disabled, `apply` only runs the body. When enabled it also tags the
  * Spark jobs the body submits with the layer name (a thread-local Spark
  * property, read back by [[LayerListener]]), so job counters can be
  * attributed without touching the program.
  */
final class Tracer(var enabled: Boolean) {
  private val origin = System.nanoTime()
  private val recorded = mutable.ArrayBuffer.empty[Span]
  private var open: List[String] = Nil
  var run: Int = 0
  var sc: SparkContext = _

  def spans: Seq[Span] = recorded.toSeq

  def apply[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val parent = open.headOption.getOrElse("")
      open = name :: open
      if (sc != null) sc.setLocalProperty(LayerListener.LayerKey, name)
      val start = System.nanoTime() - origin
      try body
      finally {
        recorded += Span(run, name, parent, start, System.nanoTime() - origin)
        open = open.tail
        if (sc != null) sc.setLocalProperty(LayerListener.LayerKey, open.headOption.orNull)
      }
    }

  /** All spans as JSON lines (written out once, when the benchmark ends). */
  def jsonLines: Iterator[String] = recorded.iterator.map { s =>
    s"""{"run":${s.run},"name":"${s.name}","parent":"${s.parent}","start_ns":${s.startNs},"end_ns":${s.endNs}}"""
  }
}

/** Spark jobs with their counters, and the bytes of RDD blocks cached.
  *
  * A job's `tag` is the layer named by its [[LayerListener.LayerKey]]
  * property, which [[Tracer]] sets around the benchmark's calls. Jobs from
  * inside `StreamingGlobalizer.runStream` run on the query's own thread, so
  * that tag (inherited from the thread that started the query) says nothing
  * of their layer; [[LayerListener.streamLayers]] names them by their order
  * within the micro-batch.
  */
final class LayerListener extends SparkListener {
  import LayerListener._

  private val stageJob = mutable.Map.empty[Int, Int]
  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val blocks = mutable.Map.empty[String, Long]
  private var cached = 0L
  private var syncs = 0
  /** Whether jobs are recorded; block bytes and sync jobs are always tracked. */
  @volatile var counting = false

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    def prop(k: String) = Option(e.properties).flatMap(p => Option(p.getProperty(k)))
    val tag = prop(LayerKey).getOrElse("")
    if (counting || tag == SyncLayer) {
      e.stageIds.foreach(stageJob(_) = e.jobId)
      jobs(e.jobId) = Job(e.jobId, tag, prop(BatchIdKey).map(_.toLong).getOrElse(-1L),
        prop(ExecutionIdKey).map(_.toLong).getOrElse(-1L), e.time, e.time)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach { j =>
      j.endMs = e.time
      if (j.tag == SyncLayer) syncs += 1
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageJob.get(e.stageId).flatMap(jobs.get).foreach { j =>
      j.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        j.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        j.gcMs += m.jvmGCTime
      }
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    if (info.blockId.isRDD) {
      val key = s"${info.blockManagerId.executorId}/${info.blockId.name}"
      val bytes = if (info.storageLevel.isValid) info.memSize + info.diskSize else 0L
      cached += math.max(0L, bytes - blocks.getOrElse(key, 0L))
      if (bytes == 0L) blocks.remove(key) else blocks(key) = bytes
    }
  }

  /** Wait until every event posted so far has reached this listener, by
    * running a one-task marker job and waiting for its end event.
    */
  def sync(sc: SparkContext): Unit = {
    val before = synchronized(syncs)
    val saved = sc.getLocalProperty(LayerKey)
    sc.setLocalProperty(LayerKey, SyncLayer)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(LayerKey, saved)
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (synchronized(syncs) == before) {
      require(System.nanoTime() < deadline, "listener events did not arrive within 30 s")
      Thread.sleep(2)
    }
  }

  /** Forget recorded jobs. */
  def reset(): Unit = synchronized { jobs.clear(); stageJob.clear() }

  /** Bytes of RDD blocks cached since the last call: each block counts once,
    * at its largest size, whether or not it was released since.
    */
  def takeCachedBytes(): Long = synchronized { val c = cached; cached = 0L; c }

  /** Finished jobs, in submission order, without the sync markers. */
  def finishedJobs: Seq[Job] = synchronized(jobs.values.filter(_.tag != SyncLayer).map(_.copy()).toSeq)
}

object LayerListener {
  val LayerKey = "emdbench.layer"
  val BatchIdKey = "streaming.sql.batchId"
  val ExecutionIdKey = "spark.sql.execution.id"
  val SyncLayer = "_sync"

  /** A Spark job: tag, micro-batch id and SQL execution id (-1 when absent),
    * start and end ms, and the sums over its tasks.
    */
  final case class Job(id: Int, tag: String, batchId: Long, executionId: Long, startMs: Long, var endMs: Long,
                       var tasks: Long = 0, var shuffleBytes: Long = 0, var gcMs: Long = 0)

  /** Summed counters of a layer's jobs. */
  final case class Counts(jobs: Long, tasks: Long, shuffleBytes: Long, gcMs: Long, jobMs: Long) {
    def +(o: Counts): Counts = Counts(jobs + o.jobs, tasks + o.tasks, shuffleBytes + o.shuffleBytes, gcMs + o.gcMs, jobMs + o.jobMs)
  }
  object Counts {
    val zero: Counts = Counts(0, 0, 0, 0, 0)
    def of(js: Iterable[Job]): Counts =
      js.foldLeft(zero)((c, j) => c + Counts(1, j.tasks, j.shuffleBytes, j.gcMs, j.endMs - j.startMs))
  }

  /** The actions one micro-batch runs, in order: the empty-batch probe of
    * `runStream`; in `processBatch` the count in `Globalizer.localPhase`, the
    * collect in `Globalizer.seedKeys`, the mined-mention count, the pool
    * collect and the output count; then the benchmark's collector.
    */
  val MicroBatchActions: Seq[String] = Seq("stream", "local", "ctrie", "mine", "pool", "assemble", "collect")

  /** Layer of each streaming job, from the order of its SQL execution within
    * its micro-batch, and the ids of the micro-batches whose action count
    * differs from [[MicroBatchActions]]; their jobs get no layer.
    */
  def streamLayers(jobs: Seq[Job]): (Map[Int, String], Set[Long]) = {
    val byBatch = jobs.filter(_.batchId >= 0).groupBy(_.batchId)
    val execs = byBatch.map { case (id, js) => id -> js.map(_.executionId).distinct } // jobs are in submission order
    val (named, unnamed) = execs.partition(_._2.size == MicroBatchActions.size)
    val names = named.toSeq.flatMap { case (id, es) =>
      val layerOf = es.zip(MicroBatchActions).toMap
      byBatch(id).map(j => j.id -> layerOf(j.executionId))
    }.toMap
    (names, unnamed.keySet.toSet)
  }
}
