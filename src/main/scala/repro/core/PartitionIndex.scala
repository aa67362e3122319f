package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.linalg.Mat
import repro.nn.Net

/** A space partitioning of R^d into `numBins` bins: the common contract for
  * the paper's method and every baseline (K-means, Neural LSH, LSH, trees).
  *
  * `assign` places a dataset point into its bin (index build); `probeOrder`
  * ranks bins most-probable-first for a query (online multiprobe, §4.3 —
  * "instead of searching in just one bin, we use the probability
  * distribution output by the model to search in the m' most probable
  * bins").
  */
trait SpacePartitioner extends Serializable {
  def numBins: Int
  def assign(v: Array[Double]): Int
  def probeOrder(q: Array[Double]): Array[Int]
}

/** Anything that can produce a candidate set for a query at probe depth m'.
  * The accuracy/|C| sweeps (all figures/tables) are computed against this.
  */
trait CandidateIndex {
  def maxProbe: Int
  /** Dataset point ids likely near `q`, probing the `mProbe` best bins. */
  def candidates(q: Array[Double], mProbe: Int): Array[Int]
}

/** A trained partitioner plus its bin→points lookup table (Algorithm 1,
  * step 3 / Algorithm 2). The lookup table is exactly the paper's: point
  * indices grouped by assigned bin.
  */
final class PartitionIndex(val partitioner: SpacePartitioner,
                           val assignments: Array[Int]) extends CandidateIndex {
  require(assignments.forall(b => b >= 0 && b < partitioner.numBins))

  /** bin → ids of the dataset points assigned to it. */
  val lookup: Array[Array[Int]] = {
    val buf = Array.fill(partitioner.numBins)(new scala.collection.mutable.ArrayBuilder.ofInt)
    var i = 0
    while (i < assignments.length) { buf(assignments(i)) += i; i += 1 }
    buf.map(_.result())
  }

  def binSizes: Array[Int] = lookup.map(_.length)

  override def maxProbe: Int = partitioner.numBins

  override def candidates(q: Array[Double], mProbe: Int): Array[Int] =
    gather(partitioner.probeOrder(q), mProbe)

  /** The points of the first `mProbe` bins of a probe order, bin by bin. */
  private[core] def gather(order: Array[Int], mProbe: Int): Array[Int] = {
    val bins = math.max(0, math.min(mProbe, order.length))
    var total = 0
    var i = 0
    while (i < bins) { total += lookup(order(i)).length; i += 1 }
    val out = new Array[Int](total)
    var off = 0
    i = 0
    while (i < bins) {
      val b = lookup(order(i))
      System.arraycopy(b, 0, out, off, b.length)
      off += b.length
      i += 1
    }
    out
  }

  /** Exact k-NN within the candidate set (Algorithm 2, step 3), ascending by
    * distance; equal distances keep candidate order.
    */
  def search(data: Array[Array[Double]], q: Array[Double], k: Int, mProbe: Int): Array[Int] = {
    val cand = candidates(q, mProbe)
    val top = new TopK(k)
    var i = 0
    while (i < cand.length) { top.offer(KnnMatrix.sqDist(data(cand(i)), q), cand(i)); i += 1 }
    top.result()
  }

  /** The assignment table as a DataFrame `(id BIGINT, bin INT)` — the
    * distributed form of the lookup table, consumed by the Spark-side
    * evaluation joins (and oracle-checked in tests).
    */
  def assignmentDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.sparkContext
      .parallelize(assignments.toIndexedSeq.zipWithIndex.map { case (b, i) => (i.toLong, b) })
      .toDF("id", "bin")
  }
}

object PartitionIndex {
  /** Index a dataset with a partitioner: `assign` every point on the driver. */
  def build(partitioner: SpacePartitioner, data: Array[Array[Double]]): PartitionIndex =
    new PartitionIndex(partitioner, data.map(partitioner.assign))
}

/** USP model as a [[SpacePartitioner]]: bins ranked by the trained model's
  * softmax output. Queries only run `Net.infer`, so one instance may serve
  * concurrent callers.
  */
final class ModelPartitioner(net: Net, val numBins: Int) extends SpacePartitioner {
  override def assign(v: Array[Double]): Int = Mat.argmax(probs(v))

  override def probeOrder(q: Array[Double]): Array[Int] = TopK.largest(probs(q), numBins)

  /** Full probability row for a query (used by the ensemble's confidence). */
  def probs(q: Array[Double]): Array[Double] = net.infer(q)
}
