package repro.core

import java.util.concurrent.{Callable, Executors, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import repro.SynthData
import repro.scann.{ProductQuantizer, ScannIndex}
import scala.jdk.CollectionConverters._

/** Shared models are queried by concurrent tasks (a broadcast partitioner
  * serves every Spark task of an executor JVM). Four threads query one
  * `HierPartitioner`, one `EnsembleIndex` and one `ScannIndex` at once;
  * every answer must equal the sequential one.
  */
class ConcurrentQuerySpec extends AnyFunSuite {

  test("four threads sharing one hierarchy, ensemble and ScaNN index get the sequential answers") {
    val data = SynthData.siftLite(500, seed = 81, d = 16)
    val queries = SynthData.siftLite(80, seed = 82, d = 16)
    val knn = Hierarchical.localKnn(data, 8)
    val cfg = UspConfig(m = 4, kPrime = 8, epochs = 2, batchSize = 64, hidden = 16, seed = 83)
    val hier = Hierarchical.train(data, knn, cfg, m2 = 4, leafEpochs = 2)
    val hierIndex = PartitionIndex.build(hier.partitioner, data)
    val ens = new EnsembleIndex(Ensemble.train(data, knn, cfg, e = 3), data)
    val scann = new ScannIndex(data, ProductQuantizer.fit(data, numSub = 4, k = 8, iters = 3))

    def answers(q: Array[Double]): Seq[Seq[Int]] = Seq(
      hier.partitioner.probeOrder(q).toSeq,
      Seq(hier.partitioner.assign(q)),
      hierIndex.search(data, q, 10, 3).toSeq,
      ens.candidates(q, 2).toSeq,
      scann.search(q, 10, 40, ens.candidates(q, 2)).toSeq)

    val sequential = queries.map(answers)
    val pool = Executors.newFixedThreadPool(4)
    try {
      val tasks = (0 until 4).map { t =>
        new Callable[Seq[(Int, Seq[Seq[Int]])]] {
          // each thread walks the queries from its own offset, five times
          override def call(): Seq[(Int, Seq[Seq[Int]])] =
            for (rep <- 0 until 5; i <- queries.indices) yield {
              val qi = (i + t * 20 + rep) % queries.length
              qi -> answers(queries(qi))
            }
        }
      }
      val results = pool.invokeAll(tasks.asJava).asScala.flatMap(_.get())
      assert(results.length == 4 * 5 * queries.length)
      for ((qi, got) <- results) assert(got == sequential(qi), s"query $qi")
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }
}
