package repro.core

import repro.{SparkSpec, SynthData}
import repro.linalg.Mat

class UspTrainerSpec extends SparkSpec {

  private lazy val data = SynthData.gaussianMixture(600, 8, 4, seed = 21)
  private lazy val knn = KnnMatrix.selfKnn(spark, data, 10)

  test("training reduces the loss substantially") {
    val cfg = UspConfig(m = 4, epochs = 25, batchSize = 128, eta = 4.0, hidden = 32, seed = 1)
    val model = UspTrainer.train(data, knn, cfg)
    val first = model.lossTrace.take(3).min
    val last = model.lossTrace.takeRight(3).min
    assert(last < first, s"loss did not decrease: first=$first last=$last")
  }

  test("learned partition is roughly balanced (within 2x of n/m)") {
    val cfg = UspConfig(m = 4, epochs = 30, batchSize = 128, eta = 6.0, hidden = 32, seed = 2)
    val model = UspTrainer.train(data, knn, cfg)
    val sizes = Array.fill(4)(0)
    model.assignments.foreach(b => sizes(b) += 1)
    val ideal = data.length / 4
    assert(sizes.forall(_ > 0), s"empty bin: ${sizes.toSeq}")
    assert(sizes.max <= ideal * 2, s"imbalanced: ${sizes.toSeq}")
  }

  test("learned partition keeps most kNN edges inside bins (quality objective)") {
    val cfg = UspConfig(m = 4, epochs = 30, batchSize = 128, eta = 4.0, hidden = 32, seed = 3)
    val model = UspTrainer.train(data, knn, cfg)
    var same = 0L; var total = 0L
    for (i <- data.indices; j <- knn(i)) {
      if (model.assignments(i) == model.assignments(j)) same += 1
      total += 1
    }
    val frac = same.toDouble / total
    assert(frac > 0.7, s"only $frac of neighbor edges preserved")
  }

  test("assignments field agrees with fresh inference through the net") {
    val cfg = UspConfig(m = 4, epochs = 10, batchSize = 128, hidden = 16, seed = 4)
    val model = UspTrainer.train(data, knn, cfg)
    val x = Mat.fromRows(data.toIndexedSeq)
    val fresh = UspTrainer.inferAssignments(model.net, x)
    assert(fresh.sameElements(model.assignments))
  }

  test("inferAssignments chunking is invariant to chunk size") {
    val cfg = UspConfig(m = 3, epochs = 5, batchSize = 128, hidden = 16, seed = 5)
    val model = UspTrainer.train(data, knn, cfg)
    val x = Mat.fromRows(data.toIndexedSeq)
    val a = UspTrainer.inferAssignments(model.net, x, chunk = 7)
    val b = UspTrainer.inferAssignments(model.net, x, chunk = 100000)
    assert(a.sameElements(b))
  }

  test("logistic architecture (hidden=0) trains and yields valid assignments") {
    val cfg = UspConfig(m = 2, epochs = 20, batchSize = 128, eta = 2.0, hidden = 0, seed = 6)
    val model = UspTrainer.train(data, knn, cfg)
    assert(model.assignments.forall(b => b == 0 || b == 1))
    assert(model.assignments.distinct.length == 2, "logistic model collapsed to one bin")
  }

  test("training is deterministic in the seed") {
    val cfg = UspConfig(m = 4, epochs = 8, batchSize = 128, hidden = 16, seed = 7)
    val a = UspTrainer.train(data, knn, cfg)
    val b = UspTrainer.train(data, knn, cfg)
    assert(a.assignments.sameElements(b.assignments))
    assert(a.lossTrace.sameElements(b.lossTrace))
  }

  test("per-point weights steer the partition (weighted points get cleaner bins)") {
    // weight the first cluster's points 10x: their neighbor edges should be
    // preserved at least as well as under uniform weights
    val cfg = UspConfig(m = 4, epochs = 25, batchSize = 128, eta = 4.0, hidden = 32, seed = 8)
    val uniform = UspTrainer.train(data, knn, cfg)
    val w = Array.tabulate(data.length)(i => if (i < 150) 10.0 else 0.1)
    val weighted = UspTrainer.train(data, knn, cfg, weights = w)
    def cutOf(model: UspModel, range: Range): Double = {
      var cut = 0L; var tot = 0L
      for (i <- range; j <- knn(i)) {
        if (model.assignments(i) != model.assignments(j)) cut += 1
        tot += 1
      }
      cut.toDouble / tot
    }
    assert(cutOf(weighted, 0 until 150) <= cutOf(uniform, 0 until 150) + 0.05)
  }

  test("neighborTargets is the histogram of the current model's neighbor bins (Equation 9)") {
    val m = 4
    val x = Mat.fromRows(data.toIndexedSeq)
    // neighbor ids repeat within rows and across rows (and across the two
    // steps below); some occur only once. Only batch rows are read.
    val rows = Map(
      5 -> Array(7, 7, 2, 30, 2, 7),
      0 -> Array(2, 31, 7, 8, 8, 32),
      17 -> Array(33, 34, 35, 36, 37, 38),
      40 -> Array(47, 8, 9, 9, 30, 2),
      1 -> Array(42, 43, 7, 44, 45, 46))
    val knnRep = Array.tabulate(data.length)(i => rows.getOrElse(i, Array(i)))
    val nets = Seq(1L, 2L).map { s =>
      UspTrainer.train(data, knn, UspConfig(m = m, epochs = 3, batchSize = 128, hidden = 16, seed = s)).net
    }
    def reference(net: repro.nn.Net, batchIdx: Array[Int]): Mat = {
      val t = Mat.zeros(batchIdx.length, m)
      for ((i, r) <- batchIdx.zipWithIndex; j <- knnRep(i))
        t(r, Mat.argmax(net.infer(data(j)))) += 1.0 / knnRep(i).length
      t
    }
    // unwritten scratch entries would index far out of bounds if read
    val bins = Array.fill(data.length)(Int.MaxValue / 2)
    val batches = Seq(Array(5, 0, 17), Array(40, 1, 5))
    for ((net, batchIdx) <- nets.zip(batches)) {
      val want = reference(net, batchIdx)
      val got = UspTrainer.neighborTargets(net, x, knnRep, batchIdx, bins, m)
      assert(got.a.sameElements(want.a), s"got ${got.a.toSeq} want ${want.a.toSeq}")
    }
    assert(reference(nets(0), batches(0)).a.count(_ > 0) > batches(0).length, "targets are all one-hot")
    // the second step must overwrite bins the first step left behind
    assert(Seq(2, 7, 30).exists(j => Mat.argmax(nets(0).infer(data(j))) != Mat.argmax(nets(1).infer(data(j)))))
  }
}
