package emdbench

import repro.core._
import repro.data.TweetGen
import repro.emd.LocalEmd

import scala.collection.mutable

/** Single-node, single-threaded reference of one framework iteration, built
  * without Spark from the program's public per-record functions. A batch run
  * is one iteration from an empty state; a stream replays its micro-batches,
  * in order, through the same state.
  */
final class Reference(spec: TweetGen.Spec,
                      system: LocalEmd,
                      clf: EntityClassifier,
                      pe: Option[PhraseEmbedder]) {
  import Reference._

  private val keys = mutable.Set.empty[String]
  private val pools = mutable.Map.empty[String, GlobalPooling.Pool]
  private var bands = Map.empty[String, Int]
  private val totals = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private val output = mutable.Set.empty[SpanKey]
  private val gold = mutable.Set.empty[SpanKey]

  /** One iteration over `batch`; returns the spans it emits. */
  def step(batch: Seq[Tweet]): Set[SpanKey] = {
    val dets = batch.flatMap(t => system.detect(t, spec.hardness, spec.seed))
    keys ++= dets.map(_.key)
    val trie = CTrie.fromKeys(keys)
    val batchPools = mutable.Map.empty[String, GlobalPooling.Pool]
    val mined = mutable.ArrayBuffer.empty[(String, SpanKey)]
    batch.foreach { t =>
      MentionExtractor.mentionsOf(t, trie, system, spec.seed, pe).foreach { m =>
        batchPools(m.key) = batchPools.getOrElse(m.key, GlobalPooling.Pool.empty).add(m.emb)
        mined += ((m.key, (m.tweetId, m.sentId, m.start, m.len)))
      }
      t.gold.foreach(g => gold += ((t.tweetId, t.sentId, g.start, g.len)))
    }
    batchPools.foreach { case (k, p) => pools(k) = pools.getOrElse(k, GlobalPooling.Pool.empty).merge(p) }
    bands = pools.iterator.map { case (k, p) =>
      k -> EntityClassifier.bandOf(clf.score(CandidateRecord(k, p.count, p.mean)))
    }.toMap

    val detSpans = dets.map(d => (d.tweetId, d.sentId, d.start, d.len))
    val detSet = detSpans.toSet
    val out =
      (mined.collect { case (k, s) if bands.get(k).contains(EntityClassifier.Alpha) => s } ++
        dets.collect { case d if bands.get(d.key).contains(EntityClassifier.Gamma) => (d.tweetId, d.sentId, d.start, d.len) }).toSet
    totals("tweets") += batch.size
    totals("detections") += detSet.size
    totals("mentions") += mined.size
    totals("recovered") += mined.count { case (_, s) => !detSet.contains(s) }
    output ++= out
    out
  }

  /** Funnel counts of everything stepped so far (cumulative over a stream). */
  def funnel: Funnel = {
    def band(b: Int) = pools.iterator.filter { case (k, _) => bands.get(k).contains(b) }.map(_._2.count).toSeq
    val (a, bt, g) = (band(EntityClassifier.Alpha), band(EntityClassifier.Beta), band(EntityClassifier.Gamma))
    val tp = output.count(gold.contains).toLong
    Funnel(totals("tweets"), totals("detections"), keys.size, totals("mentions"), totals("recovered"),
      pools.size, a.size, bt.size, g.size, a.sum, bt.sum, g.sum,
      output.size, tp, output.size - tp, gold.size - tp)
  }
}

object Reference {
  type SpanKey = (Long, Int, Int, Int)

  /** The run's funnel: tweets → detections → seed candidates → mined
    * mentions → recovered mentions → pooled candidates → α/β/γ candidates
    * and their mention mass → final spans → TP/FP/FN.
    */
  final case class Funnel(tweets: Long, detections: Long, seedCandidates: Long, mentions: Long,
                          recovered: Long, candidates: Long, alpha: Long, beta: Long, gamma: Long,
                          alphaMass: Long, betaMass: Long, gammaMass: Long,
                          finalSpans: Long, tp: Long, fp: Long, fn: Long) {
    def f1: Double = if (tp == 0) 0.0 else 2.0 * tp / (2.0 * tp + fp + fn)

    /** Each count with the base its ratio is taken against. */
    def render: String = {
      def pct(n: Long, base: Long) = if (base == 0) "n/a" else f"${100.0 * n / base}%.1f%%"
      Seq(
        s"tweets=$tweets",
        s"detections=$detections",
        s"seed_candidates=$seedCandidates (${pct(seedCandidates, detections)} of detections)",
        s"mined_mentions=$mentions",
        s"recovered=$recovered (${pct(recovered, mentions)} of mined mentions)",
        s"candidates=$candidates: alpha=$alpha beta=$beta gamma=$gamma (alpha ${pct(alpha, candidates)} of candidates)",
        s"mention_mass: alpha=$alphaMass beta=$betaMass gamma=$gammaMass (alpha ${pct(alphaMass, mentions)} of mined mentions)",
        s"final_spans=$finalSpans",
        s"tp=$tp fp=$fp fn=$fn (precision ${pct(tp, finalSpans)} of final spans, recall ${pct(tp, tp + fn)} of gold)"
      ).mkString("\n")
    }
  }
}
