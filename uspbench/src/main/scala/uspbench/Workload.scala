package uspbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.nn.Net
import repro.scann.{ProductQuantizer, ScannIndex}

/** How the index of a workload is trained and served. */
sealed trait Kind
object Kind {
  /** `Ensemble.train` served by `EnsembleIndex` (Algorithm 4). */
  case object Ensemble extends Kind
  /** `Hierarchical.train` (root × leaf nets) behind `PartitionIndex.build`. */
  case object Hierarchy extends Kind
}

/** The fixed configuration of one workload. Every workload uses siftLite
  * (d = 32) with held-out queries: fresh draws from the same mixture, k = 10
  * and k' = 10, an MLP with one hidden layer of 128, a batch of 4% of n and
  * lr 3e-3, and ScaNN-lite (PQ 8×16, anisotropic, rerank 100) over the
  * workload's own candidate sets.
  */
final case class Config(
    name: String,
    kind: Kind,
    why: String,
    n: Int,
    nQueries: Int,
    /** m': bins probed by the timed operations. */
    mProbe: Int,
    /** Probe depths of the accuracy sweep behind `cand_at_85`. */
    sweepProbes: Seq[Int],
    m: Int = 16,
    eta: Double = 7.0,
    epochs: Int = 5,
    ensembleSize: Int = 0,
    leafBins: Int = 0,
    leafEpochs: Int = 0,
    d: Int = 32,
    k: Int = 10,
    kPrime: Int = 10,
    hidden: Int = 128,
    lr: Double = 3e-3,
    batchFrac: Double = 0.04,
    pqSubspaces: Int = 8,
    pqCodes: Int = 16,
    rerank: Int = 100,
    selfHitSample: Int = 2000) {

  def batchSize: Int = math.max(1, math.round(n * batchFrac).toInt)

  def usp(seed: Long): UspConfig =
    UspConfig(m = m, kPrime = kPrime, eta = eta, epochs = epochs, batchSize = batchSize,
      lr = lr, hidden = hidden, seed = seed)

  /** The main timed operation, by the name the program gives it. */
  def mainOp: String = kind match {
    case Kind.Ensemble  => s"EnsembleIndex.candidates(q, $mProbe)"
    case Kind.Hierarchy => s"PartitionIndex.search(data, q, $k, $mProbe)"
  }

  /** Smaller copy for the smoke run: same code paths, tiny inputs. */
  def smoke: Config = copy(n = 600, nQueries = 40, epochs = 2,
    leafEpochs = math.min(leafEpochs, 2), selfHitSample = 200)

  def toJson: Json.Raw = Json.obj(
    "name" -> name, "why" -> why, "index" -> kind.toString, "n" -> n, "queries" -> nQueries,
    "d" -> d, "k" -> k, "k_prime" -> kPrime, "m" -> m, "m_probe" -> mProbe,
    "eta" -> eta, "epochs" -> epochs, "batch" -> batchSize, "lr" -> lr, "hidden" -> hidden,
    "ensemble_size" -> ensembleSize, "leaf_bins" -> leafBins, "leaf_epochs" -> leafEpochs,
    "pq" -> s"${pqSubspaces}x$pqCodes anisotropic", "rerank" -> rerank,
    "sweep_probes" -> sweepProbes, "self_hit_sample" -> selfHitSample, "main_op" -> mainOp)
}

object Config {
  val all: Seq[Config] = Seq(
    Config("ens3-build", Kind.Ensemble,
      "write path: three trained models dominate set-up; queries run three inferences per call",
      n = 3000, nQueries = 1000, mProbe = 2, sweepProbes = 1 to 16, ensembleSize = 3),
    Config("hier256", Kind.Hierarchy,
      "17 small nets, per-leaf kNN and a 256-way probe ranking; shows the assign/probe defect",
      n = 3000, nQueries = 1000, mProbe = 32, eta = 10.0, leafBins = 16, leafEpochs = 5,
      sweepProbes = Seq(1, 2, 4, 8, 16, 32, 64, 256)),
  )

  def byName(name: String): Config =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; one of ${all.map(_.name).mkString(", ")}"))
}

/** Every seed of a run, derived from the workload seed. */
final case class Seeds(data: Long, model: Long, pq: Long, sample: Long)

object Seeds {
  def apply(workloadSeed: Long): Seeds = {
    val r = new java.util.SplittableRandom(workloadSeed)
    Seeds(r.nextLong(), r.nextLong(), r.nextLong(), r.nextLong())
  }
}

/** A ready index: everything `setup_s` pays for.
  *
  * @param models  trained `UspModel`s (the hierarchy's root first)
  * @param nets    the net each member probes first (hierarchy: the root)
  * @param members the partitions behind `served`: e for the ensemble, else 1
  * @param leafKnnEvals distance evaluations of the hierarchy's per-leaf kNN
  */
final class Ready(
    val knn: Array[Array[Int]],
    val models: Seq[UspModel],
    val nets: Seq[Net],
    val served: CandidateIndex,
    val members: Seq[PartitionIndex],
    val pq: ProductQuantizer,
    val scann: ScannIndex,
    val leafKnnEvals: Long) {

  /** True when `other` has the same k'-NN matrix and bin assignments: one
    * seed and thread count must give one index.
    */
  def sameAs(other: Ready): Boolean =
    knn.length == other.knn.length &&
      knn.indices.forall(i => java.util.Arrays.equals(knn(i), other.knn(i))) &&
      members.length == other.members.length &&
      members.zip(other.members).forall { case (a, b) => java.util.Arrays.equals(a.assignments, b.assignments) }
}

object Setup {

  /** Build the workload's index from data in memory: k'-NN matrix, training,
    * index build, PQ fit and encoding. Spans are opened around each call.
    */
  def run(cfg: Config, spark: SparkSession, data: Array[Array[Double]], seeds: Seeds,
          t: Tracer): Ready = t.span("setup") {
    val knn = t.span("knn.self")(KnnMatrix.selfKnn(spark, data, cfg.kPrime))
    val usp = cfg.usp(seeds.model)
    val (models, nets, served, members, leafEvals) = cfg.kind match {
      case Kind.Ensemble =>
        val tr = t.span("train")(Ensemble.train(data, knn, usp, cfg.ensembleSize))
        val ens = t.span("index.build")(new EnsembleIndex(tr, data))
        (tr.models, tr.models.map(_.net), ens, tr.indexes, 0L)
      case Kind.Hierarchy =>
        val tr = t.span("train")(Hierarchical.train(data, knn, usp, cfg.leafBins, cfg.leafEpochs))
        val idx = t.span("index.build")(PartitionIndex.build(tr.partitioner, data))
        val trained = tr.root +: tr.leaves.filter(_.lossTrace.nonEmpty).toSeq
        (trained, Seq(tr.root.net), idx, Seq(idx), leafKnnEvals(tr.root.assignments, cfg))
    }
    val pq = t.span("pq.fit")(ProductQuantizer.fit(data, cfg.pqSubspaces, cfg.pqCodes, seed = seeds.pq))
    val scann = t.span("scann.encode")(new ScannIndex(data, pq))
    new Ready(knn, models, nets, served, members, pq, scann, leafEvals)
  }

  /** Distance evaluations of the hierarchy's local per-leaf kNN: every
    * root bin large enough to be trained runs an all-pairs scan.
    */
  private def leafKnnEvals(rootAssignments: Array[Int], cfg: Config): Long =
    rootAssignments.groupBy(identity).values.map(_.length.toLong)
      .filter(_ > math.max(2, cfg.leafBins)).map(s => s * (s - 1)).sum
}
