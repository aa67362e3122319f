package repro.core

import java.util.Arrays
import org.scalatest.funsuite.AnyFunSuite
import repro.SynthData
import repro.scann.{ProductQuantizer, ScannIndex}

/** Each rewritten query path against the boxed-sort code it replaced
  * ([[BoxedReference]]): same probabilities bit for bit, same probe orders,
  * same candidate sets and the same result ids in the same order. The data
  * carries 150 duplicated points, so exact distances, PQ codes and ADC
  * distances tie, and queries include dataset points (distance 0).
  */
class QueryPathSpec extends AnyFunSuite {

  private val d = 32
  private lazy val base = SynthData.siftLite(450, seed = 71, d = d)
  private lazy val data = base ++ base.take(150).map(_.clone())
  private lazy val knn = Hierarchical.localKnn(data, 8)
  private lazy val queries = SynthData.siftLite(60, seed = 72, d = d) ++ data.take(20) ++ data.takeRight(20)
  private lazy val cfg = UspConfig(m = 8, kPrime = 8, epochs = 3, batchSize = 64, hidden = 32, seed = 73)

  private lazy val flat = UspTrainer.train(data, knn, cfg)
  private lazy val flatIndex = PartitionIndex.build(new ModelPartitioner(flat.net, cfg.m), data)
  private lazy val hier = Hierarchical.train(data, knn, cfg.copy(m = 4), m2 = 4, leafEpochs = 2)
  private lazy val hierIndex = PartitionIndex.build(hier.partitioner, data)

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean = Arrays.equals(a, b)

  test("flat probs and probeOrder equal the boxed reference") {
    val part = flatIndex.partitioner.asInstanceOf[ModelPartitioner]
    for (q <- queries) {
      val ref = BoxedReference.probs(flat.net, q)
      assert(sameBits(part.probs(q), ref))
      assert(part.probeOrder(q).sameElements(BoxedReference.probeOrder(ref)))
      assert(part.assign(q) == BoxedReference.probeOrder(ref).head)
    }
  }

  test("hierarchical combinedProbs and probeOrder equal the boxed reference") {
    val leafNets = hier.leaves.map(_.net)
    for (q <- queries) {
      val ref = BoxedReference.combinedProbs(hier.root.net, leafNets, 4, q)
      assert(sameBits(hier.partitioner.combinedProbs(q), ref))
      assert(hier.partitioner.probeOrder(q).sameElements(BoxedReference.probeOrder(ref)))
    }
  }

  test("PartitionIndex candidates and search equal the boxed reference, ties included") {
    for ((index, refProbs) <- Seq[(PartitionIndex, Array[Double] => Array[Double])](
           flatIndex -> (q => BoxedReference.probs(flat.net, q)),
           hierIndex -> (q => BoxedReference.combinedProbs(hier.root.net, hier.leaves.map(_.net), 4, q)));
         q <- queries) {
      val order = BoxedReference.probeOrder(refProbs(q))
      for (mProbe <- Seq(0, 1, 2, 5, index.maxProbe)) {
        val cand = BoxedReference.candidates(index, order, mProbe)
        assert(index.candidates(q, mProbe).sameElements(cand))
        for (k <- Seq(0, 1, 10, cand.length, cand.length + 3))
          assert(index.search(data, q, k, mProbe).sameElements(BoxedReference.search(data, cand, q, k)),
            s"k=$k mProbe=$mProbe")
      }
    }
  }

  test("search breaks exact distance ties by candidate order") {
    for (q <- data.take(150)) {
      // a duplicated point and its copy are both at distance 0
      val cand = flatIndex.candidates(q, flatIndex.maxProbe)
      val zero = cand.filter(i => KnnMatrix.sqDist(data(i), q) == 0.0)
      assert(zero.length == 2)
      assert(flatIndex.search(data, q, 2, flatIndex.maxProbe).sameElements(zero))
    }
  }

  test("ScannIndex.search equals the boxed reference with equal codes and duplicated points") {
    // 2 subspaces of 4 codes: 16 distinct codes for 600 points, so ADC
    // distances tie everywhere and the rerank cut falls inside ties.
    for (pq <- Seq(ProductQuantizer.fit(data, numSub = 2, k = 4, iters = 3, seed = 5),
                   ProductQuantizer.fit(data, numSub = 8, k = 16, iters = 3, seed = 6))) {
      val scann = new ScannIndex(data, pq)
      for (q <- queries; (k, rerank) <- Seq((10, 100), (10, 3), (1, 0), (0, 5), (700, 20))) {
        val want = BoxedReference.scann(data, pq, scann.codes, q, k, rerank, null)
        assert(scann.search(q, k, rerank).sameElements(want), s"full scan k=$k rerank=$rerank")
        val cand = hierIndex.candidates(q, 3)
        val wantC = BoxedReference.scann(data, pq, scann.codes, q, k, rerank, cand)
        assert(scann.search(q, k, rerank, cand).sameElements(wantC), s"candidates k=$k rerank=$rerank")
      }
    }
  }

  test("EnsembleIndex calibration and candidates equal the boxed reference") {
    val trained = Ensemble.train(data, knn, cfg, e = 3)
    val ens = new EnsembleIndex(trained, data)
    val ref = new BoxedReference.Ensemble(trained, trained.models.map(_.net), data)
    for (j <- 0 until 3) assert(sameBits(ens.calibration(j), ref.calib(j)), s"member $j")
    for (q <- queries; mProbe <- Seq(0, 1, 2, 3, cfg.m, cfg.m + 2))
      assert(ens.candidates(q, mProbe).sameElements(ref.candidates(q, mProbe)), s"mProbe=$mProbe")
  }

  test("KnnMatrix.topK orders exact distance ties by index") {
    for (i <- Seq(0, 7, 149, 450, 599)) {
      val want = data.indices.filter(_ != i)
        .sortBy(j => KnnMatrix.sqDist(data(j), data(i)))(Ordering.Double.TotalOrdering).take(12)
      assert(KnnMatrix.topK(data, data(i), 12, i).toSeq == want)
    }
  }
}
