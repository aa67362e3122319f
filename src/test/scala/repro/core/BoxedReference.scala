package repro.core

import repro.linalg.Mat
import repro.nn.{BatchNorm, Dropout, Linear, Net, ReLU}
import repro.scann.ProductQuantizer

/** The query path and the balance window as they were before the bounded
  * top-k primitive and the cache-free inference path: boxed `(Double, Int)`
  * pairs, stable full sorts, and the layer-by-layer inference arithmetic
  * written out. Kept as the reference the rewritten paths must match bit
  * for bit.
  */
object BoxedReference {

  private implicit val total: Ordering[Double] = Ordering.Double.TotalOrdering

  /** Inference-mode forward pass plus softmax, one layer at a time. */
  def probs(net: Net, x: Mat): Mat = softmaxRows(net.layers.foldLeft(x) { (h, layer) =>
    layer match {
      case l: Linear => (h * l.w.v).addRowVector(l.b.v.a)
      case bn: BatchNorm => batchNorm(bn, h)
      case _: ReLU => new Mat(h.rows, h.cols, h.a.map(v => if (v > 0) v else 0.0))
      case _: Dropout => h
      case other => throw new IllegalArgumentException(s"no reference for $other")
    }
  })

  def probs(net: Net, v: Array[Double]): Array[Double] = probs(net, Mat.fromRows(Seq(v))).row(0)

  private def batchNorm(bn: BatchNorm, x: Mat): Mat = {
    val eps = 1e-5
    val out = Mat.zeros(x.rows, bn.dim)
    val inv = bn.runVar.map(v => 1.0 / math.sqrt(v + eps))
    for (i <- 0 until x.rows; j <- 0 until bn.dim) {
      val off = i * bn.dim
      out.a(off + j) = bn.gamma.v.a(j) * (x.a(off + j) - bn.runMean(j)) * inv(j) + bn.beta.v.a(j)
    }
    out
  }

  def softmaxRows(z: Mat): Mat = {
    val out = Mat.zeros(z.rows, z.cols)
    for (i <- 0 until z.rows) {
      val off = i * z.cols
      var mx = z.a(off)
      for (j <- 1 until z.cols) if (z.a(off + j) > mx) mx = z.a(off + j)
      var s = 0.0
      for (j <- 0 until z.cols) { val e = math.exp(z.a(off + j) - mx); out.a(off + j) = e; s += e }
      for (j <- 0 until z.cols) out.a(off + j) /= s
    }
    out
  }

  /** `UspLoss.balanceLossGrad` with a stable full sort of every column. */
  def balanceLossGrad(probs: Mat): (Double, Mat) = {
    val batch = probs.rows
    val nw = math.max(1, math.ceil(batch.toDouble / probs.cols).toInt)
    val dP = Mat.zeros(batch, probs.cols)
    var winSum = 0.0
    for (j <- 0 until probs.cols) {
      val top = Array.tabulate(batch)(i => (probs(i, j), i)).sortBy(-_._1).take(nw)
      top.foreach { case (v, i) => winSum += v; dP(i, j) = -1.0 / batch }
    }
    (-winSum / batch, dP)
  }

  def probeOrder(p: Array[Double]): Array[Int] = Array.tabulate(p.length)(identity).sortBy(j => -p(j))

  def combinedProbs(root: Net, leaves: Array[Net], m2: Int, q: Array[Double]): Array[Double] = {
    val rp = probs(root, q)
    val out = new Array[Double](rp.length * m2)
    for (j <- rp.indices) {
      val lp = probs(leaves(j), q)
      for (t <- 0 until m2) out(j * m2 + t) = rp(j) * lp(t)
    }
    out
  }

  def candidates(index: PartitionIndex, order: Array[Int], mProbe: Int): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < math.min(mProbe, order.length)) { out ++= index.lookup(order(i)); i += 1 }
    out.result()
  }

  def search(data: Array[Array[Double]], cand: Array[Int], q: Array[Double], k: Int): Array[Int] =
    cand.map(i => (KnnMatrix.sqDist(data(i), q), i)).sortBy(_._1).take(k).map(_._2)

  def scann(data: Array[Array[Double]], pq: ProductQuantizer, codes: Array[Array[Byte]],
            q: Array[Double], k: Int, rerank: Int, candidateIds: Array[Int]): Array[Int] = {
    val ids = if (candidateIds == null) Array.tabulate(data.length)(identity) else candidateIds
    val table = pq.adcTable(q)
    val scored = ids.map(i => (pq.approxDist(codes(i), table), i))
    val top = scored.sortBy(_._1).take(math.max(rerank, k))
    top.map { case (_, i) => (KnnMatrix.sqDist(data(i), q), i) }
      .sortBy(_._1).take(k).map(_._2)
  }

  /** `EnsembleIndex` with the "mass" confidence: a fresh inference and a
    * full sort per member per call, and the winner probed again.
    */
  final class Ensemble(trained: repro.core.Ensemble.Trained, nets: Seq[Net],
                       calibrationData: Array[Array[Double]]) {
    private val parts = trained.indexes
    private val m = parts.head.partitioner.numBins

    private def rawConf(j: Int, q: Array[Double], mProbe: Int): Double =
      probs(nets(j), q).sorted.takeRight(math.min(mProbe, m)).sum

    val calib: Array[Array[Double]] = {
      val sample = calibrationData.take(500)
      Array.tabulate(parts.length) { j =>
        val c = new Array[Double](m + 1)
        for (p <- 1 to m)
          c(p) = sample.map(v => rawConf(j, v, p)).sum / sample.length
        c(0) = 1.0
        c
      }
    }

    def candidates(q: Array[Double], mProbe: Int): Array[Int] = {
      val p = math.min(math.max(mProbe, 1), m)
      var best = 0
      var bestConf = Double.NegativeInfinity
      for (j <- parts.indices) {
        val conf = rawConf(j, q, p) / calib(j)(p)
        if (conf > bestConf) { bestConf = conf; best = j }
      }
      BoxedReference.candidates(parts(best), probeOrder(probs(nets(best), q)), mProbe)
    }
  }
}
