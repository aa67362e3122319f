package repro.core

import repro.linalg.Mat
import repro.nn.{Adam, Net}
import java.util.Random

/** Configuration of one USP training run (Algorithm 1, step 2).
  *
  * Defaults follow §5.1.4/§5.2: k'=10 neighbors, dropout 0.1, Adam, and a
  * minibatch of a few percent of the dataset. `hidden=0` selects the
  * logistic-regression architecture (a single linear layer), used for the
  * tree-comparison experiments (§5.4.2). `kPrime` is the k' the caller
  * builds the k'-NN matrix with; the trainer takes that matrix as given.
  */
final case class UspConfig(
    m: Int,
    kPrime: Int = 10,
    eta: Double = 7.0,
    epochs: Int = 40,
    batchSize: Int = 512,
    lr: Double = 1e-3,
    hidden: Int = 128,
    dropout: Double = 0.1,
    seed: Long = 42,
)

/** Result of a training run: the model, final hard assignments of the
  * dataset, and the per-epoch loss trace (for convergence tests).
  */
final case class UspModel(net: Net, assignments: Array[Int], lossTrace: Array[Double], cfg: UspConfig)

/** Trains one model with the unsupervised loss — partitioning and
  * learning-to-search in a single step (the paper's core claim).
  *
  * Training runs on the driver over the collected vector array, mirroring
  * the paper's single-GPU loop; the k'-NN matrix comes in precomputed (a
  * Spark job, see [[KnnMatrix]]). Every step builds the Equation-9 targets
  * exactly: the batch points' neighbors run through the current model, and
  * each target row is the histogram of their argmax bins
  * ([[neighborTargets]]). The dataset's hard assignments are inferred once,
  * after the last epoch.
  */
object UspTrainer {

  def defaultNet(d: Int, cfg: UspConfig): Net =
    if (cfg.hidden <= 0) Net.logistic(d, cfg.m, cfg.seed)
    else Net.mlp(d, cfg.hidden, cfg.m, cfg.seed, cfg.dropout)

  def train(data: Array[Array[Double]], knn: Array[Array[Int]], cfg: UspConfig,
            weights: Array[Double] = null, netIn: Net = null): UspModel = {
    val n = data.length
    val d = data(0).length
    val w = if (weights == null) Array.fill(n)(1.0) else weights
    require(w.length == n)
    val net = if (netIn == null) defaultNet(d, cfg) else netIn
    val opt = new Adam(net.params, cfg.lr)
    val rng = new Random(cfg.seed ^ 0x5eed)
    val x = Mat.fromRows(data.toIndexedSeq)

    val idx = Array.tabulate(n)(identity)
    val bins = new Array[Int](n)
    val trace = new Array[Double](cfg.epochs)

    var epoch = 0
    while (epoch < cfg.epochs) {
      shuffle(idx, rng)
      var lossSum = 0.0
      var steps = 0
      var start = 0
      while (start < n) {
        val end = math.min(n, start + cfg.batchSize)
        val batchIdx = java.util.Arrays.copyOfRange(idx, start, end)
        val xb = x.selectRows(batchIdx)
        val targets = neighborTargets(net, x, knn, batchIdx, bins, cfg.m)
        val logits = net.forward(xb, training = true)
        val probs = Net.softmaxRows(logits)
        val bw = batchIdx.map(w)
        val (loss, dz) = UspLoss.lossAndGrad(probs, targets, bw, cfg.eta)
        net.zeroGrad()
        net.backward(dz)
        opt.step()
        lossSum += loss
        steps += 1
        start = end
      }
      trace(epoch) = lossSum / steps
      epoch += 1
    }
    UspModel(net, inferAssignments(net, x), trace, cfg)
  }

  /** Equation 8–9 targets for one batch: the batch's neighbors run through
    * the current model (inference mode, no grad), and row r is the histogram
    * of their argmax bins. `bins` is length-n scratch: the fresh bins are
    * written at the neighbor ids, and [[UspLoss.neighborBinTargets]] reads
    * only those ids. An id that repeats gets the same bin at every
    * occurrence, because `Net.infer` computes each row independently.
    */
  private[core] def neighborTargets(net: Net, x: Mat, knn: Array[Array[Int]],
                                    batchIdx: Array[Int], bins: Array[Int], m: Int): Mat = {
    val nbIdx = batchIdx.flatMap(knn(_))
    val nbBins = net.infer(x.selectRows(nbIdx)).argmaxRows
    var o = 0
    while (o < nbIdx.length) { bins(nbIdx(o)) = nbBins(o); o += 1 }
    UspLoss.neighborBinTargets(batchIdx, knn, bins, m)
  }

  /** Hard bin of every row of `x` under the current model (inference mode),
    * computed in chunks to bound peak memory.
    */
  def inferAssignments(net: Net, x: Mat, chunk: Int = 4096): Array[Int] = {
    val out = new Array[Int](x.rows)
    var start = 0
    while (start < x.rows) {
      val end = math.min(x.rows, start + chunk)
      val sub = x.selectRows(Array.range(start, end))
      val am = net.infer(sub).argmaxRows
      System.arraycopy(am, 0, out, start, am.length)
      start = end
    }
    out
  }

  private def shuffle(a: Array[Int], rng: Random): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }
}
