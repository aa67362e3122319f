package uspbench

import java.util.Arrays
import org.apache.spark.sql.SparkSession
import repro.{Oracle, SynthData}
import repro.core._
import repro.eval.Sweep
import repro.linalg.Mat
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Counts checked operations and the ones that failed a check. */
final class Gate {
  var attempted = 0L
  var failed = 0L
  val firstFailures: ArrayBuffer[String] = ArrayBuffer.empty

  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (firstFailures.size < 10) firstFailures += what
    }
  }
}

final class Result(val correct: Boolean, val result: Json.Raw, val report: Json.Raw,
                   val spans: Json.Raw, val summary: Seq[String])

/** One run of one workload: inputs from the seed, set-up repetitions, the
  * correctness gate, the closed-loop timed phase (one client; the next query
  * is issued when the previous one returns), quality metrics and, with
  * tracing on, the per-layer metrics.
  */
final class Run(cfg: Config, spark: SparkSession, seed: Long, seconds: Double,
                trace: Boolean, setupReps: Int) {

  /** Timed passes over the queries: each query's quiet latency is the
    * fastest of at least this many repeats.
    */
  private val MinPasses = 8

  /** Untimed closed-loop warm-up of the query path, in seconds. */
  private val WarmupS = 2.0

  private val seeds = Seeds(seed)
  // Queries are held out: the generator's last draws, from the same mixture
  // as the base points. (siftLite with another seed draws another mixture.)
  private val (data, queries) = SynthData.siftLite(cfg.n + cfg.nQueries, seeds.data, cfg.d).splitAt(cfg.n)
  private val nq = queries.length
  private val gate = new Gate
  private val t = new Tracer(trace)
  private val e2e = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val layer = mutable.LinkedHashMap.empty[String, (Double, String)]

  private val born = System.nanoTime()
  private def phase(name: String): Unit =
    Console.err.println(f"[uspbench] +${(System.nanoTime() - born) / 1e9}%.1fs $name")

  def apply(): Result = {
    // Set-up repetition 0 runs cold and is the warm-up; setup_s is the
    // median of the warm repetitions, which must rebuild the same index.
    val warmS = ArrayBuffer.empty[Double]
    val cpuRatio = ArrayBuffer.empty[Double]
    var coldS = 0.0
    var ready: Ready = null
    for (rep <- 0 to setupReps) {
      t.rep = rep
      val c0 = Jvm.processCpuNs()
      val t0 = System.nanoTime()
      val r = Setup.run(cfg, spark, data, seeds, t)
      val wall = System.nanoTime() - t0
      if (rep == 0) coldS = wall / 1e9
      else {
        warmS += wall / 1e9
        cpuRatio += (Jvm.processCpuNs() - c0).toDouble / wall
      }
      if (ready != null)
        gate.check(r.sameAs(ready), s"set-up repetition $rep built a different index than repetition ${rep - 1}")
      ready = r
      phase(f"set-up $rep: ${wall / 1e9}%.3fs")
    }
    t.rep = -1
    // Measured before the benchmark's own answers and latency buffers
    // exist, whose size follows the length and speed of the timed phase.
    val heapMb = Jvm.heapAfterGcMb()

    val gtStart = System.nanoTime()
    val gt = t.span("knn.query")(KnnMatrix.queryKnn(spark, data, queries, cfg.k))
    val gtS = (System.nanoTime() - gtStart) / 1e9
    oracleCheck(gt)
    phase("ground truth checked")

    // The reference pass and an untimed warm-up loop let the JIT settle on
    // the query path (sorts it shares with training are recompiled here).
    val q = new Queries(ready)
    timed(q, ready, WarmupS, 1, ArrayBuffer.empty, ArrayBuffer.empty)
    phase("query warm-up done")
    val mainBuf = ArrayBuffer.empty[Long]
    val scannBuf = ArrayBuffer.empty[Long]
    val gc0 = Jvm.gcMs()
    timed(q, ready, seconds, MinPasses, mainBuf, scannBuf)
    val gcMs = Jvm.gcMs() - gc0
    val mainLat = mainBuf.toArray
    val scannLat = scannBuf.toArray
    phase("timed phase done")

    val sweepStart = System.nanoTime()
    val sweep = t.span("sweep")(Sweep.run(ready.served, cfg.n, queries, gt, cfg.sweepProbes))
    val sweepS = (System.nanoTime() - sweepStart) / 1e9
    val at85 = Sweep.candidateSizeAtAccuracy(sweep, 0.85)
    gate.check(at85.isDefined, s"the sweep over m' = ${cfg.sweepProbes.mkString(",")} never reaches 85% accuracy")
    val selfHit = selfHitM1(ready)
    phase("quality done")

    e2e("setup_s") = (median(warmS.toSeq), "s")
    val quietMain = quietLatency(mainLat)
    val quietScann = quietLatency(scannLat)
    e2e("query_p50_us") = (pct(quietMain, 0.50) / 1e3, "us")
    e2e("query_p99_us") = (pct(quietMain, 0.99) / 1e3, "us")
    e2e("scann_p50_us") = (pct(quietScann, 0.50) / 1e3, "us")
    e2e("scann_p99_us") = (pct(quietScann, 0.99) / 1e3, "us")
    e2e("recall_at_10") = (recall(q.mainRef, gt), "ratio")
    e2e("scann_recall_at_10") = (recall(q.scannRef, gt), "ratio")
    e2e("cand_mean") = (q.cand.map(_.length.toDouble).sum / nq, "points")
    e2e("cand_at_85") = (at85.getOrElse(Double.NaN), "points")
    e2e("self_hit_m1") = (selfHit, "ratio")
    e2e("heap_mb") = (heapMb, "MB")
    e2e("success_rate") = (1.0 - gate.failed.toDouble / gate.attempted, "ratio")

    if (trace) {
      perLayer(ready, q, mainLat, scannLat, gtS, sweepS, coldS, cpuRatio.toSeq, gcMs)
      phase("traced pass done")
    }

    val correct = gate.failed == 0
    val shown = if (trace) layer else e2e
    val metricsJson = Json.obj(shown.toSeq.map { case (k, (v, u)) => k -> Json.obj("value" -> v, "unit" -> u) }: _*)
    val result = Json.obj("correct" -> correct, "attempted" -> gate.attempted, "failed" -> gate.failed,
      "metrics" -> metricsJson)
    val all = (e2e ++ layer).toSeq.map { case (k, (v, u)) => k -> Json.obj("value" -> v, "unit" -> u) }
    val report = Json.obj(
      "workload" -> cfg.toJson, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
      "provenance" -> provenance, "setup_reps_s" -> warmS.toSeq, "setup_cold_s" -> coldS,
      "samples" -> Json.obj("query" -> mainLat.length, "scann" -> scannLat.length),
      "sweep" -> Json.arr(sweep.map(p => Json.obj("m_probe" -> p.probe, "cand" -> p.avgCand, "accuracy" -> p.accuracy))),
      "correct" -> correct, "attempted" -> gate.attempted, "failed" -> gate.failed,
      "first_failures" -> gate.firstFailures.toSeq, "metrics" -> Json.obj(all: _*))
    val summary =
      Seq(s"[uspbench] ${cfg.name} seed=$seed n=${cfg.n} queries=$nq trace=$trace " +
        s"samples: query=${mainLat.length} scann=${scannLat.length} " +
        f"setup cold=$coldS%.3fs warm=${warmS.map(s => f"$s%.3f").mkString("/")}s") ++
        gate.firstFailures.map(f => s"[uspbench] FAILED: $f") ++
        (e2e ++ layer).toSeq.map { case (k, (v, u)) => f"[uspbench]   $k%-24s $v%14.4f $u" }
    new Result(correct, result, report, if (trace) t.toJson else Json.obj(), summary)
  }

  /** Per-query answers from an untimed pass over every query. The pass is
    * also the query-path warm-up, and it checks each answer: candidates are
    * distinct dataset ids equal to one member's set; results are
    * min(k, |C|) distinct ids from C, ascending by exact distance, and an
    * exact search returns the k nearest points of C.
    */
  private final class Queries(r: Ready) {
    private val main = mainOp(r)
    private val scann = scannOp(r)

    val cand = new Array[Array[Int]](nq)
    val answeredBy = new Array[Int](nq)
    val mainRef = new Array[Array[Int]](nq)
    val scannRef = new Array[Array[Int]](nq)

    for (qi <- 0 until nq) {
      val q = queries(qi)
      val c = r.served.candidates(q, cfg.mProbe)
      val sorted = c.clone()
      Arrays.sort(sorted)
      gate.check(sorted.nonEmpty && sorted.head >= 0 && sorted.last < cfg.n &&
        (1 until sorted.length).forall(i => sorted(i) != sorted(i - 1)),
        s"query $qi: candidate set has duplicate or out-of-range ids")
      cand(qi) = c
      answeredBy(qi) = r.members.indexWhere(m => Arrays.equals(m.candidates(q, cfg.mProbe), c))
      gate.check(answeredBy(qi) >= 0, s"query $qi: candidate set is no member's candidate set")
      mainRef(qi) = main(q)
      cfg.kind match {
        case Kind.Ensemble =>
          gate.check(Arrays.equals(mainRef(qi), c), s"query $qi: ensemble candidates changed between calls")
        case Kind.Hierarchy =>
          gate.check(topKOk(q, mainRef(qi), sorted, exact = true), s"query $qi: search result fails the top-k check")
      }
      scannRef(qi) = scann(q)
      gate.check(topKOk(q, scannRef(qi), sorted, exact = false), s"query $qi: ScaNN result fails the top-k check")
    }

    private def topKOk(q: Array[Double], res: Array[Int], sortedC: Array[Int], exact: Boolean): Boolean = {
      val want = math.min(cfg.k, sortedC.length)
      if (res.length != want || res.distinct.length != want) return false
      if (!res.forall(id => Arrays.binarySearch(sortedC, id) >= 0)) return false
      val d = res.map(id => KnnMatrix.sqDist(data(id), q))
      if ((1 until d.length).exists(i => d(i) < d(i - 1))) return false
      !exact || want == 0 || {
        val all = sortedC.map(id => KnnMatrix.sqDist(data(id), q))
        Arrays.sort(all)
        d.last <= all(want - 1)
      }
    }
  }

  /** The main timed operation: exact search, or the ensemble's candidates. */
  private def mainOp(r: Ready): Array[Double] => Array[Int] = cfg.kind match {
    case Kind.Ensemble  => q => r.served.candidates(q, cfg.mProbe)
    case Kind.Hierarchy => val idx = r.members.head; q => idx.search(data, q, cfg.k, cfg.mProbe)
  }

  /** USP candidates, then the ADC scan and exact rerank of ScaNN-lite. */
  private def scannOp(r: Ready): Array[Double] => Array[Int] =
    q => r.scann.search(q, cfg.k, cfg.rerank, r.served.candidates(q, cfg.mProbe))

  /** Closed loop, one client: each query runs the main operation and then
    * the ScaNN operation, each issued when the previous call returns. The
    * loop runs whole passes over the queries, so every run times the same
    * query mix and sample `p * nq + qi` is query `qi` in pass `p`: for
    * `budgetS` seconds, and at least `minPasses` passes.
    * Each answer is checked against the query's reference answer outside
    * the timed span.
    */
  private def timed(q: Queries, r: Ready, budgetS: Double, minPasses: Int,
                    mainLat: ArrayBuffer[Long], scannLat: ArrayBuffer[Long]): Unit = {
    val main = mainOp(r)
    val scann = scannOp(r)
    val start = System.nanoTime()
    val deadline = start + (budgetS * 1e9).toLong
    val hardStop = start + (3 * budgetS * 1e9).toLong
    var qi = 0
    var calls = 0
    while (qi != 0 || ((System.nanoTime() < deadline || calls < minPasses * nq) && System.nanoTime() < hardStop)) {
      calls += 1
      val v = queries(qi)
      val t0 = System.nanoTime()
      val res = main(v)
      val t1 = System.nanoTime()
      val sc = scann(v)
      val t2 = System.nanoTime()
      mainLat += t1 - t0
      scannLat += t2 - t1
      val i = qi
      gate.check(Arrays.equals(res, q.mainRef(i)), s"main operation for query $i differs from its first answer")
      gate.check(Arrays.equals(sc, q.scannRef(i)), s"ScaNN operation for query $i differs from its first answer")
      qi = (qi + 1) % nq
    }
  }

  /** DuckDB SQL recomputes the exact k-NN of a fixed query sample over the
    * whole base set; it must equal `KnnMatrix.queryKnn`. The oracle loads
    * tables row by row, so vectors travel packed, a few hundred to a row,
    * and the SQL unpacks them; its distance sums the squared differences in
    * the same order as `KnnMatrix.sqDist`.
    */
  private def oracleCheck(gt: Array[Array[Int]]): Unit = {
    import spark.implicits._
    val sample = Seq(0, nq / 2, nq - 1).distinct
    def packed(ids: Seq[Int], vecs: Array[Array[Double]]) =
      ids.grouped(250).map(g => (g.mkString(","), g.map(i => vecs(i).mkString(" ")).mkString("|")))
        .toSeq.toDF("ids", "vecs")
    val got = sample.flatMap(qi =>
      gt(qi).toSeq.zipWithIndex.map { case (id, rank) => (qi.toDouble, rank.toDouble, id.toDouble) })
      .toDF("qid", "rank", "id")
    def unpack(table: String) =
      s"""SELECT CAST(id AS BIGINT) AS id,
         |       list_transform(string_split(v, ' '), x -> CAST(x AS DOUBLE)) AS v
         |FROM (SELECT UNNEST(string_split(ids, ',')) AS id, UNNEST(string_split(vecs, '|')) AS v FROM $table)""".stripMargin
    val sql =
      s"""WITH b AS (${unpack("base")}), q AS (${unpack("qs")}),
         |d AS (
         |  SELECT q.id AS qid, b.id AS id,
         |         list_reduce(list_transform(range(1, ${cfg.d + 1}), j -> (b.v[j] - q.v[j]) * (b.v[j] - q.v[j])),
         |                     (acc, x) -> acc + x) AS dist
         |  FROM q CROSS JOIN b
         |), r AS (
         |  SELECT qid, id, ROW_NUMBER() OVER (PARTITION BY qid ORDER BY dist, id) - 1 AS rank FROM d
         |)
         |SELECT CAST(qid AS DOUBLE) AS qid, CAST(rank AS DOUBLE) AS rank, CAST(id AS DOUBLE) AS id
         |FROM r WHERE rank < ${cfg.k}""".stripMargin
    val err =
      try {
        Oracle.assertEquivalent(got, sql, "base" -> packed(0 until cfg.n, data), "qs" -> packed(sample, queries))
        ""
      } catch { case e: IllegalArgumentException => e.getMessage }
    gate.check(err.isEmpty, s"KnnMatrix.queryKnn disagrees with DuckDB on queries ${sample.mkString(",")}: $err")
  }

  /** Share of a fixed sample of dataset points found in their own m'=1 set. */
  private def selfHitM1(r: Ready): Double = {
    val ids = Array.range(0, cfg.n)
    val rng = new java.util.Random(seeds.sample)
    for (i <- ids.length - 1 to 1 by -1) {
      val j = rng.nextInt(i + 1)
      val tmp = ids(i); ids(i) = ids(j); ids(j) = tmp
    }
    val sample = ids.take(math.min(cfg.selfHitSample, cfg.n))
    sample.count(p => r.served.candidates(data(p), 1).contains(p)).toDouble / sample.length
  }

  private def recall(answers: Array[Array[Int]], gt: Array[Array[Int]]): Double = {
    var hits = 0L
    for (qi <- 0 until nq) {
      val a = answers(qi).toSet
      hits += gt(qi).count(a.contains)
    }
    hits.toDouble / (nq.toLong * cfg.k)
  }

  private def provenance: Json.Raw = Json.obj(
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
    "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "spark_version" -> spark.version,
    "spark_master" -> spark.sparkContext.master,
    "spark_default_parallelism" -> spark.sparkContext.defaultParallelism)

  // ─── per-layer metrics (traced run) ──────────────────────────────────────

  private def perLayer(r: Ready, q: Queries, untracedMain: Array[Long], untracedScann: Array[Long],
                       gtS: Double, sweepS: Double, coldS: Double, cpuRatio: Seq[Double], gcMs: Long): Unit = {
    // Spans of the warm set-up repetitions, as medians over repetitions.
    def setupMedian(name: String): Double =
      median(t.named(name).filter(_.rep >= 1).map(_.durNs / 1e9))

    val trainS = setupMedian("train")
    val steps = trainSteps(r)
    layer("knn.self_s") = (setupMedian("knn.self"), "s")
    layer("knn.query_s") = (gtS, "s")
    layer("knn.dist_evals") = (cfg.n.toDouble * (cfg.n - 1) + r.leafKnnEvals, "count")
    layer("train.total_s") = (trainS, "s")
    layer("train.s") = (trainS / r.models.length, "s")
    layer("train.models") = (r.models.length.toDouble, "count")
    layer("train.steps") = (steps.toDouble, "count")
    layer("train.step_ms") = (trainS * 1e3 / steps, "ms")
    layer("train.loss_final") = (r.models.map(_.lossTrace.last).sum / r.models.length, "loss")
    val parts = r.members.map(_.assignments)
    layer("train.edge_cut") = (parts.map(edgeCut(_, r.knn)).sum / parts.length, "ratio")
    val sizes = r.members.map(_.binSizes.map(_.toDouble).toSeq)
    layer("train.bin_cv") = (sizes.map(s => stddev(s) / mean(s)).sum / sizes.length, "ratio")
    layer("train.bin_max_ratio") = (sizes.map(s => s.max / mean(s)).sum / sizes.length, "ratio")

    // One loss call on a batch of the first trained model's probabilities.
    val x = Mat.fromRows(data.toIndexedSeq)
    val net = r.nets.head
    val batchIdx = Array.range(0, math.min(cfg.batchSize, cfg.n))
    val probs = net.predictProbs(x.selectRows(batchIdx))
    val targets = UspLoss.neighborBinTargets(batchIdx, r.knn, r.models.head.assignments, r.models.head.cfg.m)
    val ones = Array.fill(batchIdx.length)(1.0)
    for (_ <- 0 until 15) {
      t.span("loss.balance")(UspLoss.balanceLossGrad(probs))
      t.span("loss.total")(UspLoss.lossAndGrad(probs, targets, ones, cfg.eta))
    }
    for (_ <- 0 until 5) t.span("nn.infer_batch")(UspTrainer.inferAssignments(net, x))
    layer("loss.balance_ms") = (spanMedian("loss.balance") / 1e6, "ms")
    layer("loss.total_ms") = (spanMedian("loss.total") / 1e6, "ms")
    layer("nn.infer_batch_ms") = (spanMedian("nn.infer_batch") / 1e6, "ms")

    // Traced query pass: the calls the timed operations make, one by one.
    val main = mainOp(r)
    val tracedOpNs = ArrayBuffer.empty[Long]
    val bareOpNs = ArrayBuffer.empty[Long]
    val gather = ArrayBuffer.empty[Long]
    val rerank = ArrayBuffer.empty[Long]
    val rows = ArrayBuffer.empty[Int]
    val deadline = System.nanoTime() + (seconds / 2 * 1e9).toLong
    var qi = 0
    var passes = 0
    while (System.nanoTime() < deadline || passes < nq) {
      val v = queries(qi)
      val j = q.answeredBy(qi)
      val member = r.members(j)
      val one = Mat.fromRows(Seq(v))
      t.span("query", qi) {
        t.span("nn.infer", qi)(r.nets(j).predictProbs(one))
        val probe = t.span("probe", qi)(member.partitioner.probeOrder(v))
        t.span("candidates", qi)(r.served.candidates(v, cfg.mProbe))
        val c0 = System.nanoTime()
        val c = t.span("member.candidates", qi)(member.candidates(v, cfg.mProbe))
        val c1 = System.nanoTime()
        t.span("search", qi)(member.search(data, v, cfg.k, cfg.mProbe))
        val s1 = System.nanoTime()
        t.span("scann.adc_table", qi)(r.pq.adcTable(v))
        t.span("scann.search", qi)(r.scann.search(v, cfg.k, cfg.rerank, c))
        // The main operation bare and inside a span, in alternating order:
        // the difference is what tracing adds to it.
        val traceFirst = passes % 2 == 0
        if (traceFirst) tracedOpNs += timeNs(t.span("op", qi)(main(v)))
        bareOpNs += timeNs(main(v))
        if (!traceFirst) tracedOpNs += timeNs(t.span("op", qi)(main(v)))
        rows += c.length
        rerank += (s1 - c1) - (c1 - c0)
        probe.length
      }
      gather += lastDur("member.candidates") - lastDur("probe")
      qi = (qi + 1) % nq
      passes += 1
    }
    layer("index.build_ms") = (setupMedian("index.build") * 1e3, "ms")
    layer("nn.infer_us") = (spanMedian("nn.infer") / 1e3, "us")
    layer("probe.us") = (spanMedian("probe") / 1e3, "us")
    layer("candidates.us") = (spanMedian("candidates") / 1e3, "us")
    layer("gather.us") = (median(gather.toSeq.map(_.toDouble)) / 1e3, "us")
    layer("rerank.us") = (median(rerank.toSeq.map(_.toDouble)) / 1e3, "us")
    layer("rerank.rows") = (rows.sum.toDouble / rows.length, "count")
    layer("rerank.useful_ratio") = (cfg.k * rows.length.toDouble / rows.sum, "ratio")
    layer("search.alloc_kb") = (allocMedian("search"), "KiB")
    layer("probe.alloc_kb") = (allocMedian("probe"), "KiB")
    for (j <- 0 until 3)
      layer(s"ens.answered_by.$j") = (q.answeredBy.count(_ == j).toDouble, "count")
    layer("pq.fit_s") = (setupMedian("pq.fit"), "s")
    layer("scann.encode_s") = (setupMedian("scann.encode"), "s")
    layer("scann.adc_table_us") = (spanMedian("scann.adc_table") / 1e3, "us")
    layer("scann.search_us") = (spanMedian("scann.search") / 1e3, "us")
    layer("scann.codes_scanned") = (rows.sum.toDouble / rows.length, "count")
    layer("scann.alloc_kb") = (allocMedian("scann.search"), "KiB")
    layer("sweep.s") = (sweepS, "s")
    layer("query.gc_ms") = (gcMs.toDouble, "ms")
    layer("query.samples") = (untracedMain.length.toDouble, "count")
    layer("query.passes") = (untracedMain.length.toDouble / nq, "count")
    layer("query.raw_mean_us") = (untracedMain.sum.toDouble / untracedMain.length / 1e3, "us")
    layer("query.raw_p99_us") = (pct(untracedMain, 0.99) / 1e3, "us")
    layer("scann.raw_mean_us") = (untracedScann.sum.toDouble / untracedScann.length / 1e3, "us")
    layer("scann.raw_p99_us") = (pct(untracedScann, 0.99) / 1e3, "us")
    layer("setup.cold_s") = (coldS, "s")
    layer("setup.cpu_ratio") = (median(cpuRatio), "ratio")
    layer("trace.overhead_us") =
      ((median(tracedOpNs.toSeq.map(_.toDouble)) - median(bareOpNs.toSeq.map(_.toDouble))) / 1e3, "us")
  }

  private def timeNs(body: => Any): Long = {
    val t0 = System.nanoTime()
    body
    System.nanoTime() - t0
  }

  private def spanMedian(name: String): Double = median(t.named(name).map(_.durNs.toDouble))

  private def allocMedian(name: String): Double = median(t.named(name).map(_.allocBytes / 1024.0))

  private def lastDur(name: String): Long = t.named(name).last.durNs

  /** Minibatch steps the trainer takes: one per batch per epoch, per model. */
  private def trainSteps(r: Ready): Long = {
    def steps(n: Int, batch: Int, epochs: Int): Long = epochs.toLong * ((n + batch - 1) / batch)
    cfg.kind match {
      case Kind.Ensemble  => cfg.ensembleSize * steps(cfg.n, cfg.batchSize, cfg.epochs)
      case Kind.Hierarchy =>
        val leaves = r.models.head.assignments.groupBy(identity).values.map(_.length)
          .filter(_ > math.max(2, cfg.leafBins))
        steps(cfg.n, cfg.batchSize, cfg.epochs) +
          leaves.map(s => steps(s, math.min(cfg.batchSize, s), cfg.leafEpochs)).sum
    }
  }

  /** Share of k'-NN edges whose endpoints lie in different bins. */
  private def edgeCut(assign: Array[Int], knn: Array[Array[Int]]): Double = {
    var cut = 0L
    var all = 0L
    for (i <- knn.indices; j <- knn(i)) {
      if (assign(i) != assign(j)) cut += 1
      all += 1
    }
    cut.toDouble / all
  }

  private def mean(xs: Seq[Double]): Double = xs.sum / xs.length
  private def stddev(xs: Seq[Double]): Double = {
    val mu = mean(xs)
    math.sqrt(xs.map(x => (x - mu) * (x - mu)).sum / xs.length)
  }
  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
  /** Nearest-rank percentile of latencies in ns. */
  private def pct(ns: Array[Long], p: Double): Double = {
    val s = ns.clone()
    Arrays.sort(s)
    s(math.max(0, math.ceil(p * s.length).toInt - 1)).toDouble
  }

  /** Each query's latency on a quiet machine: the fastest of its repeats
    * over the timed passes. On a shared host the same calls run up to half
    * again slower for stretches of seconds while neighbours load the core
    * and memory system, and how much of a run such stretches cover varies
    * from run to run. Contention only adds time, so a query's fastest
    * repeat reads the program's own cost whenever one pass of the run was
    * quiet; the percentiles over queries then show which queries cost most,
    * not how busy the neighbours were.
    */
  private def quietLatency(lat: Array[Long]): Array[Long] = {
    val passes = lat.length / nq
    Array.tabulate(nq)(qi => (0 until passes).map(p => lat(p * nq + qi)).min)
  }
}
