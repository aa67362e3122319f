package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData

/** Exact k'-NN matrix construction (Algorithm 1, step 1).
  *
  * This is the paper's single preprocessing step: row i of the matrix holds
  * the indices of the k' true nearest neighbors of point i (Figure 2). We
  * run it as a Spark job — the vector table is broadcast (MBs at our scale
  * factors) and each task scans its slice of query rows against it, keeping
  * a bounded max-heap per row. The same kernel also produces exact query
  * ground truth for the accuracy metric (Equation 1), so every recall number
  * in the benches is measured against an exact oracle.
  */
object KnnMatrix {

  @inline def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < a.length) { val d = a(j) - b(j); s += d * d; j += 1 }
    s
  }

  /** Top-k nearest base indices for one query vector, ascending by
    * distance, ties to the lower index.
    *
    * @param selfId index in `base` to exclude (use -1 for external queries)
    */
  def topK(base: Array[Array[Double]], q: Array[Double], k: Int, selfId: Int): Array[Int] = {
    val top = new TopK(k)
    var i = 0
    while (i < base.length) {
      if (i != selfId) top.offer(sqDist(base(i), q), i)
      i += 1
    }
    top.result()
  }

  /** All-pairs k'-NN of `base` against itself (self excluded), computed on
    * Spark. Row i of the result is `N_k'(p_i)` ascending by distance.
    */
  def selfKnn(spark: SparkSession, base: Array[Array[Double]], k: Int): Array[Array[Int]] =
    knn(spark, base, base, k, excludeSelf = true)

  /** k-NN of each query against `base`; ground truth for Equation 1. */
  def queryKnn(spark: SparkSession, base: Array[Array[Double]],
               queries: Array[Array[Double]], k: Int): Array[Array[Int]] =
    knn(spark, base, queries, k, excludeSelf = false)

  private def knn(spark: SparkSession, base: Array[Array[Double]],
                  queries: Array[Array[Double]], k: Int,
                  excludeSelf: Boolean): Array[Array[Int]] = {
    require(k < base.length, s"k=$k must be < n=${base.length}")
    val bc = spark.sparkContext.broadcast(base)
    val bq = spark.sparkContext.broadcast(queries)
    val out = spark.sparkContext
      .range(0, queries.length, numSlices = spark.sparkContext.defaultParallelism * 2)
      .map { qi =>
        val i = qi.toInt
        (i, topK(bc.value, bq.value(i), k, if (excludeSelf) i else -1))
      }
      .collect()
    bc.destroy(); bq.destroy()
    val res = new Array[Array[Int]](queries.length)
    out.foreach { case (i, nb) => res(i) = nb }
    res
  }

  /** DataFrame view of the k'-NN matrix: `(id BIGINT, neighbors ARRAY<BIGINT>)`.
    * This is what downstream Spark dataflow (candidate evaluation joins)
    * consumes; tests oracle-check it against a pure-SQL DuckDB computation.
    */
  def knnMatrixDF(spark: SparkSession, base: Array[Array[Double]], k: Int): DataFrame = {
    import spark.implicits._
    val m = selfKnn(spark, base, k)
    spark.sparkContext
      .parallelize(m.toIndexedSeq.zipWithIndex.map { case (nb, i) =>
        (i.toLong, nb.toSeq.map(_.toLong))
      })
      .toDF("id", "neighbors")
  }

  /** Convenience: build base/query driver arrays plus their DataFrames. */
  def vecDF(spark: SparkSession, vecs: Array[Array[Double]]): DataFrame =
    SynthData.toVecDF(spark, vecs)
}
