package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.data.TweetGen
import repro.emd.LocalEmd

import scala.collection.mutable

/** Streaming execution of EMD Globalizer (paper Sec. III: "continuous
  * execution of a tweet stream over multiple iterations", each iteration a
  * batch of incoming tweets).
  *
  * State held across micro-batches (the incremental CandidateBase):
  *   - the set of discovered candidate keys (backing the CTrie),
  *   - per-candidate running (count, sum) pools, merged batch by batch —
  *     the "incrementally updated global embedding" of Sec. V.
  *
  * `processBatch` is [[Globalizer.iterate]] plus classification and output
  * assembly on the carried State — the same iteration a batch run makes on
  * an empty State. It backs both the driver-side batch loop and the
  * Structured Streaming `foreachBatch` sink in [[StreamingGlobalizer.runStream]].
  */
object StreamingGlobalizer {

  /** Mutable cross-batch state (driver-held; candidate counts are small).
    * Pools keep the order in which their keys were first merged.
    */
  final class State {
    val keys: mutable.Set[String] = mutable.Set.empty
    val pools: mutable.Map[String, GlobalPooling.Pool] = mutable.LinkedHashMap.empty

    def records: Seq[CandidateRecord] =
      pools.toSeq.map { case (k, p) => CandidateRecord(k, p.count, p.mean) }

    def mergeBatchPools(batch: Seq[(String, GlobalPooling.Pool)]): Unit =
      batch.foreach { case (k, p) =>
        pools.update(k, pools.getOrElse(k, GlobalPooling.Pool.empty).merge(p))
      }
  }

  /** One framework iteration over a micro-batch; returns the batch's final
    * entity-mention spans (tweetId, sentId, start, len).
    */
  def processBatch(batch: Dataset[Tweet],
                   spec: TweetGen.Spec,
                   system: LocalEmd,
                   clf: EntityClassifier,
                   phraseEmbedder: Option[PhraseEmbedder],
                   state: State): DataFrame = {
    val it = Globalizer.iterate(batch, spec, system, phraseEmbedder, state, chargeEmbeddingCost = false)
    val (_, out) = Globalizer.classifyAndAssemble(it, state, clf)
    it.mentions.unpersist()
    it.localDets.unpersist()
    out
  }

  /** Drive a whole dataset through the framework in `nBatches` sequential
    * micro-batches (driver loop; used by tests and the streaming bench).
    * Returns the union of per-batch outputs and the final state.
    */
  def runBatched(spark: SparkSession,
                 spec: TweetGen.Spec,
                 system: LocalEmd,
                 clf: EntityClassifier,
                 phraseEmbedder: Option[PhraseEmbedder],
                 nBatches: Int): (DataFrame, State) = {
    import spark.implicits._
    val state = new State
    val per = math.ceil(spec.nTweets.toDouble / nBatches).toInt
    val outs = (0 until nBatches).map { b =>
      val lo = b.toLong * per
      val hi = math.min(spec.nTweets.toLong, lo + per)
      val batch = spark.range(lo, hi).as[Long].map(id => TweetGen.makeTweet(spec, id))
      processBatch(batch, spec, system, clf, phraseEmbedder, state)
    }
    (outs.reduce(_ union _).distinct(), state)
  }

  /** Structured Streaming execution: consume a stream of tweets (any
    * source), run one framework iteration per micro-batch via foreachBatch,
    * append outputs to `collector`.
    */
  def runStream(tweetStream: Dataset[Tweet],
                spec: TweetGen.Spec,
                system: LocalEmd,
                clf: EntityClassifier,
                phraseEmbedder: Option[PhraseEmbedder],
                state: State,
                collector: (Long, DataFrame) => Unit): org.apache.spark.sql.streaming.StreamingQuery = {
    tweetStream.writeStream
      .outputMode("append")
      .foreachBatch { (batch: Dataset[Tweet], batchId: Long) =>
        if (!batch.isEmpty) {
          val out = processBatch(batch, spec, system, clf, phraseEmbedder, state)
          collector(batchId, out)
        }
      }
      .start()
  }
}
