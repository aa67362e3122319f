package uspbench

import java.io.{File, PrintWriter}
import org.apache.spark.sql.SparkSession

/** Benchmark entry point. Runs one workload in one JVM on a warm local
  * SparkSession and prints, as the last line of stdout, one JSON object with
  * `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
  * with `--trace 0`, the per-layer metrics with `--trace 1`.
  *
  * {{{
  * Main --workload ens3-build --seed 1 --seconds 16 --trace 0 [--smoke] [--out DIR]
  * }}}
  */
object Main {

  final case class Options(workload: String = "", seed: Long = 1L, seconds: Double = 10.0,
                           trace: Boolean = false, smoke: Boolean = false, out: String = "")

  private def parse(args: List[String], o: Options): Options = args match {
    case Nil                          => o
    case "--workload" :: v :: rest    => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest        => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest     => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest       => parse(rest, o.copy(trace = v match {
      case "1" => true
      case "0" => false
      case _   => throw new IllegalArgumentException(s"--trace takes 0 or 1, got $v")
    }))
    case "--smoke" :: rest            => parse(rest, o.copy(smoke = true))
    case "--out" :: v :: rest         => parse(rest, o.copy(out = v))
    case other :: _                   => throw new IllegalArgumentException(s"unknown argument $other")
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList, Options())
    require(o.workload.nonEmpty, "--workload is required")
    require(o.seconds > 0, "--seconds must be positive")
    val base = Config.byName(o.workload)
    val cfg = if (o.smoke) base.smoke else base
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("uspbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val code =
      try {
        val res = new Run(cfg, spark, o.seed, o.seconds, o.trace, setupReps = if (o.smoke) 1 else 2).apply()
        if (o.out.nonEmpty) {
          val dir = new File(o.out)
          dir.mkdirs()
          val tag = s"${cfg.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
          write(new File(dir, s"$tag.json"), res.report.s)
          if (o.trace) write(new File(dir, s"$tag.spans.json"), res.spans.s)
        }
        res.summary.foreach(Console.err.println)
        println(res.result.s)
        if (res.correct) 0 else 1
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          2
      } finally spark.stop()
    sys.exit(code)
  }

  private def write(f: File, s: String): Unit = {
    val w = new PrintWriter(f, "UTF-8")
    try w.println(s) finally w.close()
  }
}
