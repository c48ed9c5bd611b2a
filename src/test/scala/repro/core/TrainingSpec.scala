package repro.core

import repro.{SparkSpec, TestFixtures}
import repro.data.TweetGen
import repro.emd.{Aguilar, NpChunker}

class TrainingSpec extends SparkSpec {

  private lazy val trainedAguilar = TestFixtures.trained(spark, Aguilar)
  private lazy val trainedChunker = TestFixtures.trained(spark, NpChunker)

  test("trainFor produces a phrase embedder only for deep systems") {
    assert(trainedAguilar.phraseEmbedder.isDefined)
    assert(trainedAguilar.peValidationLoss.isDefined)
    assert(trainedChunker.phraseEmbedder.isEmpty)
    assert(trainedChunker.peValidationLoss.isEmpty)
  }

  test("phrase embedder validation loss is small") {
    assert(trainedAguilar.peValidationLoss.get < 0.3,
      s"peLoss=${trainedAguilar.peValidationLoss.get}")
  }

  test("trainPhraseEmbedder rejects non-deep systems") {
    intercept[IllegalArgumentException](Training.trainPhraseEmbedder(NpChunker))
  }

  test("training candidate set is substantial and mixed-label") {
    val labelled = Training.d5Candidates(
      spark, Aguilar, trainedAguilar.phraseEmbedder, TweetGen.D5Mini)
    assert(labelled.size > 300, s"only ${labelled.size} candidates")
    val pos = labelled.count(_._2)
    assert(pos > 50 && pos < labelled.size, s"positives=$pos of ${labelled.size}")
  }

  test("candidate labels agree with the training spec's entity keys") {
    val labelled = Training.d5Candidates(
      spark, Aguilar, trainedAguilar.phraseEmbedder, TweetGen.D5Mini)
    val entityKeys = TweetGen.D5Mini.entityKeys
    labelled.foreach { case (rec, isEnt) =>
      assert(isEnt == entityKeys.contains(rec.key), s"label mismatch for ${rec.key}")
    }
  }

  test("true-entity candidates pool more entity-like embeddings than lure candidates") {
    val labelled = Training.d5Candidates(
      spark, Aguilar, trainedAguilar.phraseEmbedder, TweetGen.D5Mini)
    val pe = trainedAguilar.phraseEmbedder.get
    val muE = pe.embed(repro.emd.TokenEmbedder.classMean(Aguilar.dim, Aguilar.params.salt, entity = true))
    val muN = pe.embed(repro.emd.TokenEmbedder.classMean(Aguilar.dim, Aguilar.params.salt, entity = false))
    val w = muE.zip(muN).map { case (a, b) => a - b }
    def proj(rec: CandidateRecord): Double = repro.nn.Net.dot(rec.pooled, w)
    val (ent, non) = labelled.partition(_._2)
    val entMean = ent.map(x => proj(x._1)).sum / ent.size
    val nonMean = non.map(x => proj(x._1)).sum / non.size
    assert(entMean > nonMean, s"entity proj $entMean should exceed non-entity $nonMean")
  }

  test("embeddingSizeLabel reflects the system") {
    assert(trainedAguilar.embeddingSizeLabel == "100+1")
    assert(trainedChunker.embeddingSizeLabel == "6+1")
  }

  test("training candidates are the records a batch run pools, bit for bit") {
    val spec = TweetGen.DevStream
    val labelled = Training.d5Candidates(spark, Aguilar, trainedAguilar.phraseEmbedder, spec)
    val scored = Globalizer.run(spark, spec, Aguilar, trainedAguilar.classifier,
      trainedAguilar.phraseEmbedder, chargeEmbeddingCost = false).scored.map(_._1)
    def bits(recs: Seq[CandidateRecord]) = recs.sortBy(_.key).map(r =>
      (r.key, r.mentionCount, r.pooled.map(java.lang.Double.doubleToRawLongBits).toSeq))
    assert(scored.nonEmpty)
    assert(bits(labelled.map(_._1)) == bits(scored))
  }
}
